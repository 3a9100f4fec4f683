// The one weight path of the four crossbar layers (DenseLayer, LowRankDense,
// Conv2dLayer, LowRankConv2d).
//
// Every crossbar layer computes x·W + b, or x·U·Vᵀ + b once it is factorised
// (the two chained crossbar arrays of Figure 4), over a batch of row
// vectors. WeightPath is that computation, written once: the matrices, the
// bias, their gradients, the backward caches and the eval-only compressed
// panels. WeightLayer runs it over a (B, in) batch — the two dense layers.
// ConvWeightLayer runs it once per sample on the sample's im2col patch
// matrix — the two conv layers — and stores the result channel-major; the
// samples of a batch run as one ThreadPool::global() dispatch.
//
// Caching rule: a train forward keeps, for each slot (one per conv sample,
// one for a dense batch), the input of every stage. An eval forward keeps
// nothing and drops what a train forward kept, so a backward() after an
// eval forward throws "backward before forward" rather than using stale or
// foreign activations.
//
// Backward comes in two halves. backward_input() runs per slot — slots may
// run concurrently — and keeps each stage's output gradient in the slot;
// accumulate_grads() then folds dW (dU, dVᵀ) and db over the slots in
// order 0, 1, …, B−1 on the calling thread. The weight gradients are thus
// the same sum, in the same order, at any GS_NUM_THREADS.
#pragma once

#include <string>
#include <vector>

#include "linalg/compressed.hpp"
#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace gs::nn {

/// x·W + b (one matrix) or x·U·Vᵀ + b (two) over batches of rows, with one
/// backward cache slot per batch.
class WeightPath {
 public:
  /// `matrices` is {W} or {U, Vᵀ} in (in, out) orientation; `bias` holds
  /// one entry per output.
  WeightPath(std::string name, std::vector<Tensor> matrices, Tensor bias);

  const std::string& name() const { return name_; }
  std::size_t in_features() const { return w_.front().rows(); }
  std::size_t out_features() const { return w_.back().cols(); }
  Tensor& matrix(std::size_t stage) { return w_[stage]; }
  const Tensor& matrix(std::size_t stage) const { return w_[stage]; }
  Tensor& matrix_grad(std::size_t stage) { return dw_[stage]; }
  Tensor& bias() { return b_; }
  const Tensor& bias() const { return b_; }

  /// Replaces the matrices in place (rank clipping shrinks K); in and out
  /// must stay. Gradients restart at zero; panels and caches are dropped.
  void set_matrices(std::vector<Tensor> matrices);

  /// "<name>.weight", or "<name>.u" and "<name>.vt"; then "<name>.bias".
  std::vector<ParamRef> params();
  /// "<name>", or "<name>_u" and "<name>_v".
  std::vector<WeightMatrix> weight_matrices() const;

  /// Starts a forward over `slots` row batches. A train forward gets one
  /// empty cache slot per batch; an eval forward drops every cache.
  void begin(std::size_t slots, bool train);
  /// out = x·W + b (x·U·Vᵀ + b) for slot `slot`; `out` is preallocated
  /// (x.rows(), out_features()). A train forward keeps x and x·U in the
  /// slot; a packed eval forward multiplies the compressed panels. Distinct
  /// slots may run concurrently.
  void forward(Tensor x, std::size_t slot, Tensor& out);
  /// Input-gradient half of the backward: writes dX for slot `slot`'s dY
  /// (rows, out) into the preallocated `dx` (rows, in_features()) and keeps
  /// dY (and, for {U, Vᵀ}, the hidden gradient dY·V) in the slot for
  /// accumulate_grads(). Distinct slots may run concurrently.
  void backward_input(Tensor dy, std::size_t slot, Tensor& dx);
  /// Weight-gradient half: adds every slot's dW (dU, dVᵀ) and db into the
  /// accumulators, slot 0 first. Every slot needs its backward_input().
  void accumulate_grads();
  /// Slots the last train forward kept. Throws "backward before forward"
  /// when it kept none: no train forward yet, or an eval forward since.
  std::size_t cached_slots() const;

  /// Snapshots block-compressed panels of the CURRENT matrices
  /// (linalg/compressed.hpp) for eval forwards; see
  /// WeightLayer::pack_compressed.
  void pack(float tol);
  void clear_packed() { panels_.clear(); }

 private:
  std::string name_;
  std::vector<Tensor> w_;   // {W} or {U, Vᵀ}
  std::vector<Tensor> dw_;  // same shapes
  Tensor b_;
  Tensor db_;
  bool train_ = false;         // mode of the current forward
  std::vector<Tensor> cache_;  // [slot · stages + stage]: the stage's input
  std::vector<Tensor> grads_;  // [slot · stages + stage]: dL/d(its output)
  std::vector<linalg::CompressedPanel> panels_;  // eval-only; empty = off
};

/// Base of the four crossbar layers: a Layer that owns one WeightPath and
/// runs it over a (B, in) batch. The dense layers use it as it is.
class WeightLayer : public Layer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<ParamRef> params() override { return path_.params(); }
  std::vector<WeightMatrix> weight_matrices() const override {
    return path_.weight_matrices();
  }
  std::string name() const override { return path_.name(); }
  Shape output_shape(const Shape& input_shape) const override;

  Tensor& bias() { return path_.bias(); }
  const Tensor& bias() const { return path_.bias(); }

  /// Builds block-compressed inference panels from the CURRENT matrices
  /// (linalg/compressed.hpp): eval forwards then multiply the packed
  /// live-rows × live-cols panels (group deletion zeroes rows — input
  /// wires — and columns — output wires) instead of the padded matrices.
  /// The panels are a snapshot: mutate the weights and they go stale, so
  /// callers re-pack or clear_compressed(); set_factors() clears them.
  /// Train forwards never use them.
  void pack_compressed(float tol = 0.0f) { path_.pack(tol); }
  void clear_compressed() { path_.clear_packed(); }

 protected:
  WeightLayer(std::string name, std::vector<Tensor> matrices, Tensor bias);

  WeightPath path_;
};

/// Convolution hyper-parameters.
struct Conv2dSpec {
  std::size_t in_channels = 0;
  std::size_t out_channels = 0;
  std::size_t kernel = 0;  ///< square kernels (paper networks use 5×5)
  std::size_t stride = 1;
  std::size_t pad = 0;
};

/// Base of the two conv layers: the per-sample im2col frame around the
/// path. Sample b's patch matrix (oh·ow, C·k·k) runs through the path as
/// slot b; its (oh·ow, F) result is stored channel-major (F, oh, ow). Each
/// pass is one ThreadPool::global() dispatch over the samples: a task runs
/// its sample's im2col, GEMMs (nested dispatches run inline) and store, or
/// its dY gather, input-gradient chain and col2im. The weight gradients
/// are folded afterwards on the calling thread in sample order, so every
/// bit is independent of the pool size.
class ConvWeightLayer : public WeightLayer {
 public:
  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  Shape output_shape(const Shape& input_shape) const override;

  const Conv2dSpec& spec() const { return spec_; }
  /// The convolution window over a C×H×W input — the one conv-geometry
  /// builder (compile() lowers conv steps with it).
  ConvGeometry geometry(const Shape& chw) const;

 protected:
  ConvWeightLayer(std::string name, Conv2dSpec spec,
                  std::vector<Tensor> matrices, Tensor bias);

 private:
  Conv2dSpec spec_;
  ConvGeometry geometry_;  // of the last forward
};

}  // namespace gs::nn
