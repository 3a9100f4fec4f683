// The one weight path of the four crossbar layers (DenseLayer, LowRankDense,
// Conv2dLayer, LowRankConv2d).
//
// Every crossbar layer computes x·W + b, or x·U·Vᵀ + b once it is factorised
// (the two chained crossbar arrays of Figure 4). WeightPath is that
// computation, written once: the matrices, the bias, their gradients, the
// per-slot backward caches and the eval-only compressed panels. It runs in
// one of two layouts:
//  * row slots: a (rows, in) batch of row vectors per slot. WeightLayer runs
//    the two dense layers as one row slot; a conv eval forward runs each
//    sample's im2col patch matrix as a row slot (the compressed panels need
//    that layout).
//  * column slots: the conv train frame. ConvWeightLayer runs sample b as
//    column slot b, channel-major: its patch matrix Xᵀ (C·k·k, oh·ow), built
//    into the slot's workspace (reused across steps), gives Hᵀ = Uᵀ·Xᵀ and
//    Yᵀ = V·Hᵀ (or Wᵀ·Xᵀ) straight into the sample's (F, oh·ow) output
//    plane; the backward reads dYᵀ in place and computes G₀ᵀ = Vᵀ·dYᵀ and
//    dXᵀ = U·G₀ᵀ. The samples of a batch run as one ThreadPool::global()
//    dispatch.
//
// Caching rule: a train forward keeps, for each slot, the input of every
// stage. An eval forward keeps nothing and drops what a train forward kept,
// so a backward() after an eval forward throws "backward before forward"
// rather than using stale or foreign activations.
//
// Weight gradients, in order. A slot's backward computes dX; the weight
// gradients are summed over the slots by accumulate_grads(), slot 0 first,
// so they are the same sum in the same order at any GS_NUM_THREADS. Row
// slots fold on the calling thread: dW_s += X_sᵀ·G_s, one β = 1 gemm() per
// slot. A column slot's backward task also computes the slot's terms: one
// β = 0 product X_sᵀ·G_s per kernel::kKC-position k-panel, plus Σ dY for
// db. accumulate_grads() then adds them slot by slot and panel by panel, in
// one dispatch split by element. These are the adds the β = 1 fold makes:
// the packed kernel adds one panel's partial sum into C per panel, an
// element's dot product over a panel is the same in either orientation,
// and with α = 1 its full- and edge-tile write-backs round alike. Tiny
// products (at most kTinyGemmFlops multiply-adds) are the exception: the
// direct loop's arithmetic depends on β and on the transpose of B, so a
// tiny stage keeps gemm()'s row-major call, orientation and serial fold
// inside the column frame.
#pragma once

#include <string>
#include <vector>

#include "linalg/compressed.hpp"
#include "nn/layer.hpp"
#include "tensor/im2col.hpp"

namespace gs::nn {

/// x·W + b (one matrix) or x·U·Vᵀ + b (two) over row or column slots.
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

  // ---- row slots ----
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

  // ---- column slots (train only) ----
  /// Starts a train forward over `slots` channel-major samples of
  /// `positions` output positions each, sizing every slot's workspaces.
  void begin_columns(std::size_t slots, std::size_t positions);
  /// Slot `slot`'s input workspace Xᵀ (in_features(), positions), which
  /// the caller fills before forward_columns().
  Tensor& column_input(std::size_t slot);
  /// Writes Yᵀ = (x·W + b)ᵀ for slot `slot`'s input into `out`
  /// (out_features() rows of `positions` floats) and keeps each stage's
  /// input. Distinct slots may run concurrently.
  void forward_columns(std::size_t slot, float* out);
  /// Reads dYᵀ from `dy` (out_features() rows of `positions` floats) and
  /// returns dXᵀ (in_features(), positions) in the slot's workspace; also
  /// computes the slot's weight-gradient terms (or, for a tiny stage, keeps
  /// its G_s) for accumulate_grads(). Distinct slots may run concurrently.
  const Tensor& backward_columns(std::size_t slot, const float* dy);

  /// Weight-gradient half: adds every slot's dW (dU, dVᵀ) and db into the
  /// accumulators, slot 0 first. Every slot needs its backward.
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
  /// What a slot keeps from its forward for accumulate_grads(). A column
  /// slot's tensors double as workspaces, reused across steps.
  struct Slot {
    std::vector<Tensor> in;    // [stage]: the stage's input (Xᵀ in columns)
    std::vector<Tensor> grad;  // [stage]: G_s (rows, out_s) for the fold
    std::vector<Tensor> term;  // [stage]: (panels, in_s, out_s) dW terms
    Tensor bias_term;          // Σ dY, the db term of a column slot
    Tensor hidden_grad;        // G₀ᵀ of a two-stage column slot
    Tensor dx;                 // dXᵀ of a column slot
    bool has_grad = false;     // the slot's backward ran
  };

  /// Whether stage `stage` over `rows` positions is a tiny gemm() product.
  bool tiny(std::size_t stage, std::size_t rows) const;
  /// Adds the column slots' terms into dw_ and db_ (accumulate_grads()).
  void add_terms();

  std::string name_;
  std::vector<Tensor> w_;   // {W} or {U, Vᵀ}
  std::vector<Tensor> dw_;  // same shapes
  Tensor b_;
  Tensor db_;
  bool train_ = false;          // mode of the current forward
  std::size_t positions_ = 0;   // column slots' positions; 0 = row slots
  std::size_t cached_ = 0;      // slots the last train forward kept
  std::vector<Slot> slots_;     // reused across passes
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

/// Base of the two conv layers: the per-sample frame around the path. A
/// train forward runs sample b as column slot b: one ThreadPool::global()
/// dispatch over the samples, each task building its Xᵀ by row copies from
/// the batch tensor and writing its (F, oh·ow) output plane. The backward is
/// one dispatch over the samples too (dYᵀ read in place from grad_output,
/// col2im in ascending output position, the slot's weight-gradient terms),
/// then accumulate_grads(). An eval forward runs each sample's (oh·ow,
/// C·k·k) patch matrix as a row slot and stores the result channel-major.
/// Every bit is independent of the pool size.
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
