// The sample-parallel conv frame (ConvWeightLayer, nn/weight_path.hpp)
// against the per-sample loop it replaced, kept here as the test oracle:
// forward output, input gradient, dW / dU / dVᵀ / db and the packed eval
// forward must all be bitwise equal, for both conv layers, at batch 1, 2,
// 7 and 25, unpadded (LeNet) and padded by 2 (ConvNet). The frame runs on
// ThreadPool::global(); the conv_frame_oracle_threads_{1,4} ctests run this
// suite at GS_NUM_THREADS 1 and 4.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <ostream>
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
};

// Names the ctest cases (gtest_discover_tests takes them from the printed
// parameter), e.g. ".../LowRankConv2d_b7_pad2".
void PrintTo(const FrameCase& c, std::ostream* os) {
  *os << (c.lowrank ? "LowRankConv2d" : "Conv2d") << "_b" << c.batch
      << "_pad" << c.pad;
}

/// pad 0: LeNet-like 8→16 filters over 12×12; pad 2: ConvNet-like 3→16
/// over 16×16. Every per-sample GEMM of the dense layer is above the tiny
/// direct-loop threshold, so the pooled kernel runs nested in the frame.
std::unique_ptr<ConvWeightLayer> make_layer(const FrameCase& c, Rng& rng) {
  const Conv2dSpec spec =
      c.pad == 0 ? Conv2dSpec{8, 16, 5, 1, 0} : Conv2dSpec{3, 16, 5, 1, 2};
  if (c.lowrank) return std::make_unique<LowRankConv2d>("conv", spec, 6, rng);
  return std::make_unique<Conv2dLayer>("conv", spec, rng);
}

Shape input_shape(const FrameCase& c) {
  return c.pad == 0 ? Shape{c.batch, 8, 12, 12} : Shape{c.batch, 3, 16, 16};
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

TEST_P(ConvFrameOracle, TrainPassMatchesSerialLoopBitwise) {
  const FrameCase c = GetParam();
  Rng rng(17 + c.batch);
  std::unique_ptr<ConvWeightLayer> layer = make_layer(c, rng);
  std::vector<ParamRef> params = layer->params();
  params.back().value->fill_gaussian(rng, 0.0f, 0.1f);  // a nonzero bias
  const Tensor x = random_tensor(input_shape(c), rng);
  const ConvGeometry g = layer->geometry({x.dim(1), x.dim(2), x.dim(3)});
  const Tensor dy = random_tensor(
      {c.batch, layer->spec().out_channels, g.out_height(), g.out_width()},
      rng);

  const OracleResult want =
      serial_conv(matrices_of(*layer), *params.back().value, g, x, dy, false);
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
  const Tensor x = random_tensor(input_shape(c), rng);
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
                      FrameCase{true, 7, 2}, FrameCase{true, 25, 2}));

}  // namespace
}  // namespace gs::nn
