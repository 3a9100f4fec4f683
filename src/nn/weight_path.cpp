#include "nn/weight_path.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "linalg/gemm_kernel.hpp"
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

/// Gives `t` the shape `shape`, reallocating only when its size changes.
void fit(Tensor& t, Shape shape) {
  if (t.numel() == shape_numel(shape)) {
    t.reshape(std::move(shape));
  } else {
    t = Tensor(std::move(shape));
  }
}

/// Writes the (rows, cols) matrix `src` transposed into `dst`.
void transpose_into(const float* src, std::size_t rows, std::size_t cols,
                    float* dst) {
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      dst[j * rows + i] = src[i * cols + j];
    }
  }
}

/// C = op(A)·op(B) (β = 0) on the packed kernel: what gemm() runs for a
/// product above kTinyGemmFlops, on raw row-major buffers.
void packed_product(std::size_t m, std::size_t n, std::size_t k,
                    const float* a, std::size_t lda, bool ta, const float* b,
                    std::size_t ldb, bool tb, float* c, std::size_t ldc) {
  kernel::sgemm(m, n, k, 1.0f, a, lda, ta, b, ldb, tb, 0.0f, c, ldc);
}

/// Elements per task of the term fold's dispatch.
constexpr std::size_t kFoldChunk = 4096;

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
  cached_ = 0;
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

bool WeightPath::tiny(std::size_t stage, std::size_t rows) const {
  return rows * w_[stage].rows() * w_[stage].cols() <= kTinyGemmFlops;
}

// ------------------------------------------------------------ row slots ----

void WeightPath::begin(std::size_t slots, bool train) {
  train_ = train;
  positions_ = 0;
  cached_ = train ? slots : 0;
  if (!train) return;
  // Sized up front: concurrent slots then write disjoint elements.
  if (slots_.size() < slots) slots_.resize(slots);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    slots_[slot].in.assign(w_.size(), Tensor());
    slots_[slot].grad.assign(w_.size(), Tensor());
    slots_[slot].has_grad = false;
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
    if (train_) slots_[slot].in[s] = std::move(x);
    x = std::move(hidden);
  }
  add_row_vector(out, b_);
}

void WeightPath::backward_input(Tensor dy, std::size_t slot, Tensor& dx) {
  GS_CHECK(slot < cached_slots() && positions_ == 0);
  Slot& sl = slots_[slot];
  GS_CHECK(dy.rank() == 2 && dy.cols() == out_features() &&
           dy.rows() == sl.in[0].rows());
  // Stages back to front: G_{s−1} = G_s·W_sᵀ, the first stage's straight
  // into dx. The packed kernel absorbs the transpose.
  sl.grad.back() = std::move(dy);
  for (std::size_t s = w_.size() - 1; s > 0; --s) {
    sl.grad[s - 1] = matmul(sl.grad[s], w_[s], /*ta=*/false, /*tb=*/true);
  }
  gemm(sl.grad[0], /*ta=*/false, w_[0], /*tb=*/true, dx);
  sl.has_grad = true;
}

// --------------------------------------------------------- column slots ----

void WeightPath::begin_columns(std::size_t slots, std::size_t positions) {
  GS_CHECK(slots > 0 && positions > 0);
  train_ = true;
  positions_ = positions;
  cached_ = slots;
  const std::size_t panels = (positions + kernel::kKC - 1) / kernel::kKC;
  if (slots_.size() < slots) slots_.resize(slots);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    Slot& sl = slots_[slot];
    sl.in.resize(w_.size());
    sl.grad.resize(w_.size());
    sl.term.resize(w_.size());
    for (std::size_t s = 0; s < w_.size(); ++s) {
      fit(sl.in[s], {w_[s].rows(), positions});
      if (tiny(s, positions)) {
        fit(sl.grad[s], {positions, w_[s].cols()});
        sl.term[s] = Tensor();
      } else {
        sl.grad[s] = Tensor();
        fit(sl.term[s], {panels, w_[s].rows(), w_[s].cols()});
      }
    }
    fit(sl.bias_term, {out_features()});
    if (w_.size() == 2) fit(sl.hidden_grad, {w_[1].rows(), positions});
    fit(sl.dx, {in_features(), positions});
    sl.has_grad = false;
  }
}

Tensor& WeightPath::column_input(std::size_t slot) {
  GS_CHECK(slot < cached_slots() && positions_ > 0);
  return slots_[slot].in[0];
}

void WeightPath::forward_columns(std::size_t slot, float* out) {
  GS_CHECK(slot < cached_slots() && positions_ > 0);
  Slot& sl = slots_[slot];
  const std::size_t np = positions_;
  for (std::size_t s = 0; s < w_.size(); ++s) {
    const std::size_t rows_in = w_[s].rows();
    const std::size_t rows_out = w_[s].cols();
    float* y = s + 1 == w_.size() ? out : sl.in[s + 1].data();
    if (tiny(s, np)) {
      // gemm()'s row-major call, then channel-major.
      Tensor rows(Shape{np, rows_out});
      gemm(sl.in[s], /*ta=*/true, w_[s], /*tb=*/false, rows);
      transpose_into(rows.data(), np, rows_out, y);
    } else {
      // Y_sᵀ = W_sᵀ·X_sᵀ.
      packed_product(rows_out, np, rows_in, w_[s].data(), rows_out,
                     /*ta=*/true, sl.in[s].data(), np, /*tb=*/false, y, np);
    }
  }
  for (std::size_t f = 0; f < out_features(); ++f) {
    float* row = out + f * np;
    const float bias = b_[f];
    for (std::size_t p = 0; p < np; ++p) row[p] += bias;
  }
}

const Tensor& WeightPath::backward_columns(std::size_t slot, const float* dy) {
  GS_CHECK(slot < cached_slots() && positions_ > 0);
  Slot& sl = slots_[slot];
  const std::size_t np = positions_;

  // db's term: Σ dY per output over the positions in ascending order, the
  // additions sum_rows() makes.
  for (std::size_t f = 0; f < out_features(); ++f) {
    float sum = 0.0f;
    for (std::size_t p = 0; p < np; ++p) sum += dy[f * np + p];
    sl.bias_term[f] = sum;
  }

  // Stages back to front; g is G_sᵀ (out_s, positions).
  const float* g = dy;
  for (std::size_t s = w_.size(); s-- > 0;) {
    const std::size_t rows_in = w_[s].rows();
    const std::size_t rows_out = w_[s].cols();
    float* gx = s == 0 ? sl.dx.data() : sl.hidden_grad.data();
    if (tiny(s, np)) {
      // Keep G_s row-major for the serial fold; G_{s−1} = G_s·W_sᵀ.
      transpose_into(g, rows_out, np, sl.grad[s].data());
      Tensor rows(Shape{np, rows_in});
      gemm(sl.grad[s], /*ta=*/false, w_[s], /*tb=*/true, rows);
      transpose_into(rows.data(), np, rows_in, gx);
    } else {
      // The terms X_sᵀ·G_s, one per k-panel of positions, then
      // G_{s−1}ᵀ = W_s·G_sᵀ.
      float* term = sl.term[s].data();
      for (std::size_t p0 = 0; p0 < np; p0 += kernel::kKC) {
        packed_product(rows_in, rows_out, std::min(kernel::kKC, np - p0),
                       sl.in[s].data() + p0, np, /*ta=*/false, g + p0, np,
                       /*tb=*/true, term, rows_out);
        term += rows_in * rows_out;
      }
      packed_product(rows_in, np, rows_out, w_[s].data(), rows_out,
                     /*ta=*/false, g, np, /*tb=*/false, gx, np);
    }
    g = gx;
  }
  sl.has_grad = true;
  return sl.dx;
}

// -------------------------------------------------------- the gradients ----

void WeightPath::accumulate_grads() {
  const std::size_t slots = cached_slots();
  const bool columns = positions_ > 0;
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const Slot& sl = slots_[slot];
    GS_CHECK_MSG(sl.has_grad,
                 name_ << ": slot " << slot << " has no backward");
    // Row slots: db += Σ rows of dY, then dW_s += X_sᵀ·G_s back to front.
    // Column slots fold only their tiny stages here.
    if (!columns) db_ += sum_rows(sl.grad.back());
    for (std::size_t s = w_.size(); s-- > 0;) {
      if (columns && !tiny(s, positions_)) continue;
      gemm(sl.in[s], /*ta=*/!columns, sl.grad[s], /*tb=*/false, dw_[s], 1.0f,
           1.0f);
    }
  }
  if (columns) add_terms();
}

void WeightPath::add_terms() {
  // One target per accumulator the terms feed: each packed stage's dW,
  // then db. An element's adds run slot 0 first, panel by panel.
  struct Target {
    float* acc;
    std::size_t size;
    std::size_t stage;  // w_.size() for db
    std::size_t panels;
  };
  std::vector<Target> targets;
  std::size_t total = 0;
  for (std::size_t s = 0; s < w_.size(); ++s) {
    if (tiny(s, positions_)) continue;
    const Tensor& term = slots_[0].term[s];
    targets.push_back({dw_[s].data(), dw_[s].numel(), s, term.dim(0)});
    total += dw_[s].numel();
  }
  targets.push_back({db_.data(), db_.numel(), w_.size(), 1});
  total += db_.numel();

  const std::size_t slots = cached_;
  ThreadPool::global().parallel_for(
      (total + kFoldChunk - 1) / kFoldChunk, [&](std::size_t chunk) {
        const std::size_t e0 = chunk * kFoldChunk;
        const std::size_t e1 = std::min(total, e0 + kFoldChunk);
        std::size_t base = 0;
        for (const Target& t : targets) {
          // The chunk's elements [lo, hi) of this target.
          const std::size_t lo = std::clamp(e0, base, base + t.size) - base;
          const std::size_t hi = std::clamp(e1, base, base + t.size) - base;
          base += t.size;
          for (std::size_t slot = 0; slot < slots && lo < hi; ++slot) {
            const Slot& sl = slots_[slot];
            const float* term = t.stage == w_.size() ? sl.bias_term.data()
                                                     : sl.term[t.stage].data();
            for (std::size_t panel = 0; panel < t.panels; ++panel) {
              const float* src = term + panel * t.size;
              for (std::size_t e = lo; e < hi; ++e) t.acc[e] += src[e];
            }
          }
        }
      });
}

std::size_t WeightPath::cached_slots() const {
  GS_CHECK_MSG(cached_ > 0, name_ << ": backward before forward");
  return cached_;
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
  const std::size_t np = geometry_.out_height() * geometry_.out_width();
  const std::size_t f = spec_.out_channels;
  const std::size_t sample = shape_numel(chw);

  Tensor output(Shape{batch, f, geometry_.out_height(), geometry_.out_width()});
  // One task per sample; each writes only its own slot and output plane.
  if (train) {
    path_.begin_columns(batch, np);
    ThreadPool::global().parallel_for(batch, [&](std::size_t b) {
      im2col_transposed(input.data() + b * sample, geometry_,
                        path_.column_input(b).data());
      path_.forward_columns(b, output.data() + b * f * np);
    });
    return output;
  }
  path_.begin(batch, /*train=*/false);
  const std::size_t ps = geometry_.patch_size();
  ThreadPool::global().parallel_for(batch, [&](std::size_t b) {
    Tensor x(Shape{np, ps});
    for (std::size_t p = 0; p < np; ++p) {
      im2col_patch(input.data() + b * sample, geometry_,
                   p / geometry_.out_width(), p % geometry_.out_width(),
                   x.data() + p * ps);
    }
    Tensor y(Shape{np, f});
    path_.forward(std::move(x), b, y);
    transpose_into(y.data(), np, f, output.data() + b * f * np);
  });
  return output;
}

Tensor ConvWeightLayer::backward(const Tensor& grad_output) {
  // cached_slots() throws "backward before forward" after an eval forward.
  const std::size_t batch = path_.cached_slots();
  const std::size_t f = spec_.out_channels;
  const std::size_t np = geometry_.out_height() * geometry_.out_width();
  GS_CHECK(grad_output.rank() == 4 && grad_output.dim(0) == batch &&
           grad_output.dim(1) == f &&
           grad_output.dim(2) == geometry_.out_height() &&
           grad_output.dim(3) == geometry_.out_width());

  const std::size_t sample =
      geometry_.in_channels * geometry_.in_height * geometry_.in_width;
  Tensor grad_input(Shape{batch, geometry_.in_channels, geometry_.in_height,
                          geometry_.in_width});
  ThreadPool::global().parallel_for(batch, [&](std::size_t b) {
    const Tensor& dx =
        path_.backward_columns(b, grad_output.data() + b * f * np);
    col2im_transposed(dx.data(), geometry_, grad_input.data() + b * sample);
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
