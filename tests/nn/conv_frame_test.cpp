// The sample-parallel conv frame (ConvWeightLayer, nn/weight_path.hpp)
// against the per-sample row-major loop it replaced, kept here as the test
// oracle: forward output, input gradient, dW / dU / dVᵀ / db and the packed
// eval forward must all be bitwise equal, for both conv layers, at batch 1,
// 2, 7 and 25, unpadded (LeNet-like) and padded by 2 (ConvNet-like); then at
// LeNet's own conv shapes and ranks, at stride 2, with tiny (direct-loop)
// products, and over several train steps that reuse the frame's workspaces
// while the batch and the rank change. The frame runs on
// ThreadPool::global(); the conv_frame_oracle_threads_{1,4} ctests run this
// suite at GS_NUM_THREADS 1 and 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "linalg/compressed.hpp"
#include "nn/conv2d.hpp"
#include "nn/lowrank.hpp"
#include "tensor/matrix.hpp"

namespace gs::nn {
namespace {

struct FrameCase {
  bool lowrank;
  std::size_t batch;
  std::size_t pad;
  /// Empty: the 8→16 (pad 0) or 3→16 (pad 2) layer. Otherwise a layer of
  /// named_layers().
  std::string layer = "";
  /// Further train steps on the same layer, at these batches; a low-rank
  /// layer's K is halved by set_factors() before the last of them.
  std::vector<std::size_t> more_batches = {};
};

// Names the ctest cases (gtest_discover_tests takes them from the printed
// parameter), e.g. ".../LowRankConv2d_b7_pad2" or ".../lenet_conv2_Conv2d_b25".
void PrintTo(const FrameCase& c, std::ostream* os) {
  if (!c.layer.empty()) *os << c.layer << '_';
  *os << (c.lowrank ? "LowRankConv2d" : "Conv2d") << "_b" << c.batch;
  for (const std::size_t b : c.more_batches) *os << '_' << b;
  if (c.layer.empty()) *os << "_pad" << c.pad;
}

struct LayerShape {
  Conv2dSpec spec;
  std::size_t rank;
  std::size_t height;  ///< square inputs
};

/// pad 0: LeNet-like 8→16 filters over 12×12; pad 2: ConvNet-like 3→16
/// over 16×16. Every per-sample GEMM of the dense layer is above the tiny
/// direct-loop threshold, so the pooled kernel runs nested in the frame;
/// the rank-6 factorisation's second stage is a tiny product.
LayerShape layer_shape(const FrameCase& c) {
  if (c.layer.empty()) {
    return c.pad == 0 ? LayerShape{{8, 16, 5, 1, 0}, 6, 12}
                      : LayerShape{{3, 16, 5, 1, 2}, 6, 16};
  }
  // LeNet's conv layers at the flagship's ranks. conv1's 576 positions
  // span three k-panels, so its weight gradients are three terms a sample.
  if (c.layer == "lenet_conv1") return {{1, 20, 5, 1, 0}, 12, 28};
  if (c.layer == "lenet_conv2") return {{20, 50, 5, 1, 0}, 24, 12};
  // Stride 2 with padding: 8×8 outputs; the rank-8 second stage is tiny.
  if (c.layer == "stride2") return {{3, 16, 5, 2, 1}, 8, 17};
  // A tiny first stage (576·9·4 multiply-adds) feeding a packed second
  // one, and a tiny dense layer: direct-loop products in the forward, the
  // input-gradient chain and the weight-gradient fold.
  if (c.layer == "tiny") {
    return c.lowrank ? LayerShape{{1, 16, 3, 1, 0}, 4, 26}
                     : LayerShape{{1, 2, 3, 1, 0}, 0, 8};
  }
  ADD_FAILURE() << "unknown layer " << c.layer;
  return {};
}

std::unique_ptr<ConvWeightLayer> make_layer(const FrameCase& c, Rng& rng) {
  const LayerShape shape = layer_shape(c);
  if (c.lowrank) {
    return std::make_unique<LowRankConv2d>("conv", shape.spec, shape.rank,
                                           rng);
  }
  return std::make_unique<Conv2dLayer>("conv", shape.spec, rng);
}

Shape input_shape(const FrameCase& c, std::size_t batch) {
  const LayerShape shape = layer_shape(c);
  return {batch, shape.spec.in_channels, shape.height, shape.height};
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

struct OracleResult {
  Tensor output;
  Tensor grad_input;
  std::vector<Tensor> dw;  // {dW} or {dU, dVᵀ}
  Tensor db;
};

/// The per-sample loop the frame replaced: samples one after another, each
/// sample's dW (dU, dVᵀ) and db accumulated as soon as its dY is known.
/// `packed` runs the forward on compressed panels, as an eval forward of a
/// packed layer does.
OracleResult serial_conv(const std::vector<Tensor>& w, const Tensor& bias,
                         const ConvGeometry& g, const Tensor& input,
                         const Tensor& grad_output, bool packed) {
  const std::size_t batch = input.dim(0);
  const std::size_t oh = g.out_height();
  const std::size_t ow = g.out_width();
  const std::size_t f = w.back().cols();
  const std::size_t sample = g.in_channels * g.in_height * g.in_width;
  std::vector<linalg::CompressedPanel> panels;
  for (const Tensor& m : w) panels.push_back(linalg::compress_panel(m));

  OracleResult r;
  r.output = Tensor(Shape{batch, f, oh, ow});
  std::vector<std::vector<Tensor>> inputs(batch);
  Tensor image(Shape{g.in_channels, g.in_height, g.in_width});
  for (std::size_t b = 0; b < batch; ++b) {
    std::copy(input.data() + b * sample, input.data() + (b + 1) * sample,
              image.data());
    Tensor x = im2col(image, g);
    for (std::size_t s = 0; s < w.size(); ++s) {
      Tensor y(Shape{x.rows(), w[s].cols()});
      if (packed) {
        linalg::compressed_gemm(x, panels[s], y);
      } else {
        gemm(x, false, w[s], false, y);
      }
      inputs[b].push_back(std::move(x));
      x = std::move(y);
    }
    add_row_vector(x, bias);
    float* dst = r.output.data() + b * f * oh * ow;
    for (std::size_t p = 0; p < oh * ow; ++p) {
      for (std::size_t c = 0; c < f; ++c) dst[c * oh * ow + p] = x.at(p, c);
    }
  }
  if (packed) return r;

  r.grad_input = Tensor(input.shape());
  for (const Tensor& m : w) r.dw.emplace_back(m.shape());
  r.db = Tensor(bias.shape());
  for (std::size_t b = 0; b < batch; ++b) {
    Tensor dy(Shape{oh * ow, f});
    const float* src = grad_output.data() + b * f * oh * ow;
    for (std::size_t p = 0; p < oh * ow; ++p) {
      for (std::size_t c = 0; c < f; ++c) dy.at(p, c) = src[c * oh * ow + p];
    }
    r.db += sum_rows(dy);
    Tensor grad = dy;
    Tensor dcols(Shape{oh * ow, g.patch_size()});
    for (std::size_t s = w.size(); s-- > 0;) {
      gemm(inputs[b][s], true, grad, false, r.dw[s], 1.0f, 1.0f);
      if (s == 0) {
        gemm(grad, false, w[0], true, dcols);
      } else {
        grad = matmul(grad, w[s], false, true);
      }
    }
    const Tensor dimage = col2im(dcols, g);
    std::copy(dimage.data(), dimage.data() + sample,
              r.grad_input.data() + b * sample);
  }
  return r;
}

Tensor random_tensor(const Shape& shape, Rng& rng) {
  Tensor t(shape);
  t.fill_gaussian(rng, 0.0f, 1.0f);
  return t;
}

std::vector<Tensor> matrices_of(const Layer& layer) {
  std::vector<Tensor> out;
  for (const WeightMatrix& m : layer.weight_matrices()) out.push_back(*m.value);
  return out;
}

class ConvFrameOracle : public ::testing::TestWithParam<FrameCase> {};

/// {U, Vᵀ} cut to their first `rank` columns / rows.
std::pair<Tensor, Tensor> truncated_factors(const FactorizedLayer& layer,
                                            std::size_t rank) {
  const Tensor& u = layer.factor_u();
  const Tensor& vt = layer.factor_vt();
  Tensor u2(Shape{u.rows(), rank});
  for (std::size_t i = 0; i < u.rows(); ++i) {
    std::copy(u.data() + i * u.cols(), u.data() + i * u.cols() + rank,
              u2.data() + i * rank);
  }
  Tensor vt2(Shape{rank, vt.cols()});
  std::copy(vt.data(), vt.data() + rank * vt.cols(), vt2.data());
  return {std::move(u2), std::move(vt2)};
}

TEST_P(ConvFrameOracle, TrainPassMatchesSerialLoopBitwise) {
  const FrameCase c = GetParam();
  Rng rng(17 + c.batch);
  std::unique_ptr<ConvWeightLayer> layer = make_layer(c, rng);
  std::vector<std::size_t> batches{c.batch};
  batches.insert(batches.end(), c.more_batches.begin(), c.more_batches.end());
  for (std::size_t step = 0; step < batches.size(); ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    auto* factored = dynamic_cast<LowRankConv2d*>(layer.get());
    if (step > 0 && step + 1 == batches.size() && factored != nullptr) {
      auto [u, vt] =
          truncated_factors(*factored, factored->current_rank() / 2);
      factored->set_factors(std::move(u), std::move(vt));
    }
    zero_grads(*layer);
    std::vector<ParamRef> params = layer->params();
    params.back().value->fill_gaussian(rng, 0.0f, 0.1f);  // a nonzero bias
    const Tensor x = random_tensor(input_shape(c, batches[step]), rng);
    const ConvGeometry g = layer->geometry({x.dim(1), x.dim(2), x.dim(3)});
    const Tensor dy = random_tensor({batches[step], layer->spec().out_channels,
                                     g.out_height(), g.out_width()},
                                    rng);

    const OracleResult want = serial_conv(
        matrices_of(*layer), *params.back().value, g, x, dy, false);
    const Tensor y = layer->forward(x, /*train=*/true);
    const Tensor dx = layer->backward(dy);
    EXPECT_TRUE(bitwise_equal(y, want.output)) << "forward output";
    EXPECT_TRUE(bitwise_equal(dx, want.grad_input)) << "input gradient";
    const std::vector<WeightMatrix> mats = layer->weight_matrices();
    ASSERT_EQ(mats.size(), want.dw.size());
    for (std::size_t s = 0; s < mats.size(); ++s) {
      EXPECT_TRUE(bitwise_equal(*mats[s].grad, want.dw[s])) << mats[s].name;
    }
    EXPECT_TRUE(bitwise_equal(*params.back().grad, want.db)) << "bias grad";
  }
}

TEST_P(ConvFrameOracle, PackedEvalForwardMatchesSerialLoopBitwise) {
  const FrameCase c = GetParam();
  Rng rng(29 + c.batch);
  std::unique_ptr<ConvWeightLayer> layer = make_layer(c, rng);
  // Deleted input wires (rows of the first matrix) and output wires
  // (columns of the last), as group connection deletion leaves them.
  const std::vector<WeightMatrix> mats = layer->weight_matrices();
  Tensor& first = *mats.front().value;
  for (std::size_t i = 0; i < first.rows(); i += 3) {
    std::fill(first.data() + i * first.cols(),
              first.data() + (i + 1) * first.cols(), 0.0f);
  }
  Tensor& last = *mats.back().value;
  for (std::size_t i = 0; i < last.rows(); ++i) {
    for (std::size_t j = 1; j < last.cols(); j += 4) last.at(i, j) = 0.0f;
  }
  layer->pack_compressed();
  const Tensor x = random_tensor(input_shape(c, c.batch), rng);
  const ConvGeometry g = layer->geometry({x.dim(1), x.dim(2), x.dim(3)});

  const OracleResult want = serial_conv(
      matrices_of(*layer), layer->bias(), g, x, Tensor(), /*packed=*/true);
  EXPECT_TRUE(bitwise_equal(layer->forward(x, /*train=*/false), want.output));
}

INSTANTIATE_TEST_SUITE_P(
    Batches, ConvFrameOracle,
    ::testing::Values(FrameCase{false, 1, 0}, FrameCase{false, 2, 0},
                      FrameCase{false, 7, 0}, FrameCase{false, 25, 0},
                      FrameCase{false, 1, 2}, FrameCase{false, 2, 2},
                      FrameCase{false, 7, 2}, FrameCase{false, 25, 2},
                      FrameCase{true, 1, 0}, FrameCase{true, 2, 0},
                      FrameCase{true, 7, 0}, FrameCase{true, 25, 0},
                      FrameCase{true, 1, 2}, FrameCase{true, 2, 2},
                      FrameCase{true, 7, 2}, FrameCase{true, 25, 2},
                      FrameCase{false, 25, 0, "lenet_conv1"},
                      FrameCase{true, 25, 0, "lenet_conv1"},
                      FrameCase{false, 25, 0, "lenet_conv2"},
                      FrameCase{true, 25, 0, "lenet_conv2"},
                      FrameCase{false, 7, 0, "stride2"},
                      FrameCase{true, 7, 0, "stride2"},
                      FrameCase{false, 7, 0, "tiny"},
                      FrameCase{true, 7, 0, "tiny"},
                      FrameCase{false, 25, 0, "lenet_conv2", {7, 25}},
                      FrameCase{true, 25, 0, "lenet_conv2", {7, 25, 25}},
                      FrameCase{true, 25, 0, "tiny", {7, 25}}));

}  // namespace
}  // namespace gs::nn
