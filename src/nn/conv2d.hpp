// 2-D convolution computed as im2col + GEMM (the Caffe lowering).
//
// The weight is held directly in the unrolled orientation (C·kh·kw, F) —
// each *column* is one filter, matching both the crossbar mapping of
// Figure 1(a) (one column of memristors per filter) and the (in, out)
// matrix convention of the compressor.
#pragma once

#include "common/rng.hpp"
#include "nn/weight_path.hpp"

namespace gs::nn {

class Conv2dLayer final : public ConvWeightLayer {
 public:
  /// He-initialised filters, zero bias.
  Conv2dLayer(std::string name, Conv2dSpec spec, Rng& rng);

  /// Unrolled weight (C·kh·kw, F).
  Tensor& weight() { return path_.matrix(0); }
  const Tensor& weight() const { return path_.matrix(0); }
  std::size_t patch_size() const { return weight().rows(); }
};

}  // namespace gs::nn
