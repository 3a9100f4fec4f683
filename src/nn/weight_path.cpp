#include "nn/weight_path.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "tensor/matrix.hpp"

namespace gs::nn {

namespace {

/// {W} or {U, Vᵀ}: one or two rank-2 matrices, each feeding the next.
bool chained(const std::vector<Tensor>& w) {
  if (w.empty() || w.size() > 2) return false;
  for (std::size_t s = 0; s < w.size(); ++s) {
    if (w[s].rank() != 2) return false;
    if (s > 0 && w[s - 1].cols() != w[s].rows()) return false;
  }
  return true;
}

}  // namespace

// ------------------------------------------------------------- the path ----

WeightPath::WeightPath(std::string name, std::vector<Tensor> matrices,
                       Tensor bias)
    : name_(std::move(name)), w_(std::move(matrices)), b_(std::move(bias)) {
  GS_CHECK_MSG(chained(w_), name_ << ": inconsistent factors");
  GS_CHECK_MSG(b_.rank() == 1 && b_.dim(0) == out_features(),
               name_ << ": bias " << shape_to_string(b_.shape()) << " vs "
                     << out_features() << " outputs");
  dw_.reserve(w_.size());
  for (const Tensor& w : w_) {
    dw_.emplace_back(w.shape());
  }
  db_ = Tensor(b_.shape());
}

void WeightPath::set_matrices(std::vector<Tensor> matrices) {
  GS_CHECK_MSG(matrices.size() == w_.size() && chained(matrices),
               name_ << ": inconsistent replacement factors");
  GS_CHECK_MSG(matrices.front().rows() == in_features() &&
                   matrices.back().cols() == out_features(),
               name_ << ": replacement factors change layer dimensions");
  // Element-wise, so WeightMatrix/ParamRef views of the layer stay valid.
  for (std::size_t s = 0; s < w_.size(); ++s) {
    w_[s] = std::move(matrices[s]);
    dw_[s] = Tensor(w_[s].shape());
  }
  cache_.clear();
  grads_.clear();
  clear_packed();  // the panels snapshot matrices that no longer exist
}

std::vector<ParamRef> WeightPath::params() {
  std::vector<ParamRef> out;
  out.reserve(w_.size() + 1);
  for (std::size_t s = 0; s < w_.size(); ++s) {
    const char* suffix = w_.size() == 1 ? ".weight" : s == 0 ? ".u" : ".vt";
    out.push_back({&w_[s], &dw_[s], name_ + suffix});
  }
  out.push_back({&b_, &db_, name_ + ".bias"});
  return out;
}

std::vector<WeightMatrix> WeightPath::weight_matrices() const {
  // Writable views of a const path, as Layer::weight_matrices() documents:
  // constness only lets const callers enumerate.
  auto& self = const_cast<WeightPath&>(*this);
  std::vector<WeightMatrix> out;
  out.reserve(w_.size());
  for (std::size_t s = 0; s < w_.size(); ++s) {
    const char* suffix = w_.size() == 1 ? "" : s == 0 ? "_u" : "_v";
    out.push_back({name_ + suffix, &self.w_[s], &self.dw_[s]});
  }
  return out;
}

void WeightPath::begin(std::size_t slots, bool train) {
  train_ = train;
  cache_.clear();
  grads_.clear();
  if (train) {
    // Sized up front: concurrent slots then write disjoint elements.
    cache_.resize(slots * w_.size());
    grads_.resize(slots * w_.size());
  }
}

void WeightPath::forward(Tensor x, std::size_t slot, Tensor& out) {
  const bool packed = !train_ && !panels_.empty();
  for (std::size_t s = 0; s < w_.size(); ++s) {
    const bool last = s + 1 == w_.size();
    Tensor hidden = last ? Tensor() : Tensor(Shape{x.rows(), w_[s].cols()});
    Tensor& y = last ? out : hidden;
    if (packed) {
      // Deleted output columns come back as exact zeros, so the bias add
      // below matches the dense product bitwise on truly-zero weights.
      linalg::compressed_gemm(x, panels_[s], y);
    } else {
      gemm(x, /*ta=*/false, w_[s], /*tb=*/false, y);
    }
    if (train_) cache_[slot * w_.size() + s] = std::move(x);
    x = std::move(hidden);
  }
  add_row_vector(out, b_);
}

void WeightPath::backward_input(Tensor dy, std::size_t slot, Tensor& dx) {
  GS_CHECK(slot < cached_slots());
  GS_CHECK(dy.rank() == 2 && dy.cols() == out_features() &&
           dy.rows() == cache_[slot * w_.size()].rows());
  // Stages back to front: G_{s−1} = G_s·W_sᵀ, the first stage's straight
  // into dx. The packed kernel absorbs the transpose.
  Tensor* g = &grads_[slot * w_.size()];
  g[w_.size() - 1] = std::move(dy);
  for (std::size_t s = w_.size() - 1; s > 0; --s) {
    g[s - 1] = matmul(g[s], w_[s], /*ta=*/false, /*tb=*/true);
  }
  gemm(g[0], /*ta=*/false, w_[0], /*tb=*/true, dx);
}

void WeightPath::accumulate_grads() {
  const std::size_t slots = cached_slots();
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const Tensor* inputs = &cache_[slot * w_.size()];
    const Tensor* g = &grads_[slot * w_.size()];
    GS_CHECK_MSG(g[w_.size() - 1].rank() == 2,
                 name_ << ": slot " << slot << " has no backward_input");
    // db += Σ rows of dY, then dW_s += X_sᵀ·G_s back to front.
    db_ += sum_rows(g[w_.size() - 1]);
    for (std::size_t s = w_.size(); s-- > 0;) {
      gemm(inputs[s], /*ta=*/true, g[s], /*tb=*/false, dw_[s], 1.0f, 1.0f);
    }
  }
}

std::size_t WeightPath::cached_slots() const {
  GS_CHECK_MSG(!cache_.empty(), name_ << ": backward before forward");
  return cache_.size() / w_.size();
}

void WeightPath::pack(float tol) {
  panels_.clear();
  panels_.reserve(w_.size());
  for (const Tensor& w : w_) {
    panels_.push_back(linalg::compress_panel(w, tol));
  }
}

// ------------------------------------------------------ rows: the dense ----

WeightLayer::WeightLayer(std::string name, std::vector<Tensor> matrices,
                         Tensor bias)
    : path_(std::move(name), std::move(matrices), std::move(bias)) {}

Tensor WeightLayer::forward(const Tensor& input, bool train) {
  GS_CHECK_MSG(input.rank() == 2 && input.cols() == path_.in_features(),
               name() << ": input shape " << shape_to_string(input.shape())
                      << " vs in_features " << path_.in_features());
  path_.begin(1, train);
  Tensor out(Shape{input.rows(), path_.out_features()});
  path_.forward(input, 0, out);
  return out;
}

Tensor WeightLayer::backward(const Tensor& grad_output) {
  // cached_slots() throws "backward before forward" after an eval forward.
  GS_CHECK(path_.cached_slots() == 1 && grad_output.rank() == 2);
  Tensor dx(Shape{grad_output.rows(), path_.in_features()});
  path_.backward_input(grad_output, 0, dx);
  path_.accumulate_grads();
  return dx;
}

Shape WeightLayer::output_shape(const Shape& input_shape) const {
  GS_CHECK(shape_numel(input_shape) == path_.in_features());
  return {path_.out_features()};
}

// ------------------------------------------ the sample-parallel frame ----

ConvWeightLayer::ConvWeightLayer(std::string name, Conv2dSpec spec,
                                 std::vector<Tensor> matrices, Tensor bias)
    : WeightLayer(std::move(name), std::move(matrices), std::move(bias)),
      spec_(spec) {
  GS_CHECK(spec.in_channels > 0 && spec.out_channels > 0 && spec.kernel > 0 &&
           spec.stride > 0);
  GS_CHECK_MSG(path_.in_features() ==
                       spec.in_channels * spec.kernel * spec.kernel &&
                   path_.out_features() == spec.out_channels,
               path_.name() << ": inconsistent factors");
}

ConvGeometry ConvWeightLayer::geometry(const Shape& chw) const {
  GS_CHECK_MSG(chw.size() == 3 && chw[0] == spec_.in_channels,
               name() << ": bad input shape " << shape_to_string(chw));
  ConvGeometry g;
  g.in_channels = chw[0];
  g.in_height = chw[1];
  g.in_width = chw[2];
  g.kernel_h = g.kernel_w = spec_.kernel;
  g.stride_h = g.stride_w = spec_.stride;
  g.pad_h = g.pad_w = spec_.pad;
  g.validate();
  return g;
}

Tensor ConvWeightLayer::forward(const Tensor& input, bool train) {
  GS_CHECK_MSG(input.rank() == 4, name() << ": conv input must be B×C×H×W");
  const std::size_t batch = input.dim(0);
  const Shape chw{input.dim(1), input.dim(2), input.dim(3)};
  geometry_ = geometry(chw);
  const std::size_t oh = geometry_.out_height();
  const std::size_t ow = geometry_.out_width();
  const std::size_t f = spec_.out_channels;
  const std::size_t sample = shape_numel(chw);
  path_.begin(batch, train);

  Tensor output(Shape{batch, f, oh, ow});
  // One task per sample; each writes only its own slot and output plane.
  ThreadPool::global().parallel_for(batch, [&](std::size_t b) {
    Tensor image(chw);
    std::copy(input.data() + b * sample, input.data() + (b + 1) * sample,
              image.data());
    Tensor out_mat(Shape{oh * ow, f});
    path_.forward(im2col(image, geometry_), b, out_mat);
    // Transpose (oh·ow, F) into channel-major (F, oh, ow).
    float* dst = output.data() + b * f * oh * ow;
    for (std::size_t p = 0; p < oh * ow; ++p) {
      const float* row = out_mat.data() + p * f;
      for (std::size_t c = 0; c < f; ++c) {
        dst[c * oh * ow + p] = row[c];
      }
    }
  });
  return output;
}

Tensor ConvWeightLayer::backward(const Tensor& grad_output) {
  const std::size_t batch = path_.cached_slots();
  const std::size_t f = spec_.out_channels;
  const std::size_t oh = geometry_.out_height();
  const std::size_t ow = geometry_.out_width();
  GS_CHECK(grad_output.rank() == 4 && grad_output.dim(0) == batch &&
           grad_output.dim(1) == f && grad_output.dim(2) == oh &&
           grad_output.dim(3) == ow);

  const Shape chw{geometry_.in_channels, geometry_.in_height,
                  geometry_.in_width};
  const std::size_t sample = shape_numel(chw);
  Tensor grad_input(Shape{batch, chw[0], chw[1], chw[2]});

  ThreadPool::global().parallel_for(batch, [&](std::size_t b) {
    // Reassemble dY as an (oh·ow, F) matrix.
    Tensor dy(Shape{oh * ow, f});
    const float* src = grad_output.data() + b * f * oh * ow;
    for (std::size_t p = 0; p < oh * ow; ++p) {
      float* row = dy.data() + p * f;
      for (std::size_t c = 0; c < f; ++c) {
        row[c] = src[c * oh * ow + p];
      }
    }
    Tensor dcols(Shape{oh * ow, geometry_.patch_size()});
    path_.backward_input(std::move(dy), b, dcols);
    const Tensor dimage = col2im(dcols, geometry_);
    std::copy(dimage.data(), dimage.data() + sample,
              grad_input.data() + b * sample);
  });
  // dW (dU, dVᵀ) and db in sample order, whatever the pool size.
  path_.accumulate_grads();
  return grad_input;
}

Shape ConvWeightLayer::output_shape(const Shape& input_shape) const {
  const ConvGeometry g = geometry(input_shape);
  return {spec_.out_channels, g.out_height(), g.out_width()};
}

}  // namespace gs::nn
