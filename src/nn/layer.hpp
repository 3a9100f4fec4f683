// Layer interface of the gs::nn training stack.
//
// Data layout conventions (fixed across the library):
//  * convolutional activations: rank-4, B×C×H×W;
//  * fully-connected activations: rank-2, B×features;
//  * FC weights: (in, out) — *inputs × outputs*, the orientation in which
//    the paper's crossbar mapper consumes matrices (its Eq. (1) writes W as
//    N×M, fan-in × fan-out);
//  * conv weights: unrolled (C·kh·kw, F), same orientation.
//
// A train-mode forward() caches whatever backward() needs; backward() must
// be called at most once per train forward() and returns the gradient
// w.r.t. the layer input. An eval-mode forward() keeps no cache and drops
// what a train forward kept, so a backward() after it throws "backward
// before forward" (nn/weight_path.hpp, and ReLU, Flatten and pooling alike).
// Dropout is the exception: its eval forward is the identity, and its
// backward then passes the gradient through.
#pragma once

#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace gs::nn {

/// A named view of one learnable parameter and its gradient accumulator.
struct ParamRef {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  std::string name;
};

/// A named view of one crossbar weight matrix and its gradient: the (in,
/// out) matrix the hardware mapper tiles onto crossbars (the unrolled
/// (C·kh·kw, F) view for a conv layer). Like ParamRef it points into the
/// layer's live storage, so writes through it change the layer.
struct WeightMatrix {
  std::string name;  ///< "fc1", or "fc1_u" / "fc1_v" for a factorised layer
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

/// Abstract differentiable layer.
class Layer {
 public:
  virtual ~Layer() = default;

  /// Computes the layer output. `train` toggles train-time behaviour
  /// (currently only affects layers that sample, e.g. future dropout).
  virtual Tensor forward(const Tensor& input, bool train) = 0;

  /// Backpropagates: consumes dL/d(output), returns dL/d(input) and
  /// accumulates parameter gradients (+=, so callers zero them per step).
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Learnable parameters; empty for stateless layers.
  virtual std::vector<ParamRef> params() { return {}; }

  /// The matrices this layer maps onto crossbars, in execution order: one
  /// for a plain layer, U then Vᵀ for a factorised one, none for a
  /// stateless layer. The one source of compile()'s stage names, the NCS
  /// report's matrix names and the group-Lasso targets. Const so that const
  /// callers (compile()) can enumerate; the views stay writable.
  virtual std::vector<WeightMatrix> weight_matrices() const { return {}; }

  /// Human-readable layer name (diagnostics / parameter naming).
  virtual std::string name() const = 0;

  /// Output shape for a given input shape (excluding the batch dim 0).
  virtual Shape output_shape(const Shape& input_shape) const = 0;
};

/// Zeroes all gradient tensors of `layer`.
void zero_grads(Layer& layer);

}  // namespace gs::nn
