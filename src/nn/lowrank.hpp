// Low-rank (factorised) layers — the hardware-facing form of Eq. (1).
//
// A factorised layer holds W ≈ U·Vᵀ as two trainable matrices:
//   U : (N, K)  and  Vᵀ : (K, M),   N = fan-in, M = fan-out.
// Forward is two back-to-back linear stages with no nonlinearity between
// them, i.e. exactly the two interconnected crossbar arrays of Figure 4 —
// the two-matrix form of the shared weight path (nn/weight_path.hpp).
// Rank clipping (Algorithm 2) re-factorises U mid-training and *shrinks K in
// place* via set_factors(); group connection deletion applies group-Lasso
// regularisation to both factors.
#pragma once

#include "common/rng.hpp"
#include "nn/weight_path.hpp"

namespace gs::nn {

/// Interface the compressor uses to inspect/rewrite a factor pair without
/// knowing whether the host layer is dense or convolutional.
class FactorizedLayer {
 public:
  virtual ~FactorizedLayer() = default;

  const Tensor& factor_u() const { return factors().matrix(0); }   ///< (N, K)
  const Tensor& factor_vt() const { return factors().matrix(1); }  ///< (K, M)
  Tensor& mutable_u() { return factors().matrix(0); }
  Tensor& mutable_vt() { return factors().matrix(1); }
  /// Gradient accumulators of the factors (regulariser entry points).
  Tensor& mutable_u_grad() { return factors().matrix_grad(0); }
  Tensor& mutable_vt_grad() { return factors().matrix_grad(1); }

  /// Replaces both factors; the new pair may have a different rank K but
  /// must keep N and M. Gradient buffers are resized to match, and the
  /// compressed panels are cleared.
  void set_factors(Tensor u, Tensor vt);

  std::size_t full_rows() const { return factors().in_features(); }   ///< N
  std::size_t full_cols() const { return factors().out_features(); }  ///< M
  std::size_t current_rank() const { return factor_vt().rows(); }
  std::string factor_name() const { return factors().name(); }

  /// U·Vᵀ — the effective dense weight this layer realises.
  Tensor effective_weight() const;

 protected:
  /// The host layer's two-matrix path {U, Vᵀ}.
  virtual WeightPath& factors() = 0;
  virtual const WeightPath& factors() const = 0;
};

/// Fully-connected low-rank layer: y = (x·U)·Vᵀ + b.
class LowRankDense final : public WeightLayer, public FactorizedLayer {
 public:
  /// Random (He/Xavier) initialisation at the given starting rank.
  LowRankDense(std::string name, std::size_t in_features,
               std::size_t out_features, std::size_t rank, Rng& rng);

  /// Builds from explicit factors and bias (e.g. after LRA of a trained
  /// dense layer).
  LowRankDense(std::string name, Tensor u, Tensor vt, Tensor bias);

 protected:
  WeightPath& factors() override { return path_; }
  const WeightPath& factors() const override { return path_; }
};

/// Convolutional low-rank layer: a K-filter convolution (Vᵀ of the *unrolled*
/// weight acts as U of the first stage) followed by a 1×1 convolution.
/// Stored factors keep the (in, out) orientation of the unrolled weight:
/// U (C·kh·kw, K), Vᵀ (K, F).
class LowRankConv2d final : public ConvWeightLayer, public FactorizedLayer {
 public:
  LowRankConv2d(std::string name, Conv2dSpec spec, std::size_t rank, Rng& rng);
  LowRankConv2d(std::string name, Conv2dSpec spec, Tensor u, Tensor vt,
                Tensor bias);

 protected:
  WeightPath& factors() override { return path_; }
  const WeightPath& factors() const override { return path_; }
};

}  // namespace gs::nn
