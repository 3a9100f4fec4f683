// Fully-connected layer, weight stored (in, out).
#pragma once

#include "common/rng.hpp"
#include "nn/weight_path.hpp"

namespace gs::nn {

/// y = x·W + b for a batch of row-vector inputs.
class DenseLayer final : public WeightLayer {
 public:
  /// Xavier-initialised weights, zero bias.
  DenseLayer(std::string name, std::size_t in_features,
             std::size_t out_features, Rng& rng);

  std::size_t in_features() const { return path_.in_features(); }
  std::size_t out_features() const { return path_.out_features(); }

  /// Direct weight access — used by the compressor to factorise the layer.
  Tensor& weight() { return path_.matrix(0); }
  const Tensor& weight() const { return path_.matrix(0); }
};

}  // namespace gs::nn
