// 2-D max / average pooling.
//
// Supports the two geometries the paper's networks need: LeNet's 2×2/2 max
// pooling and ConvNet's (cifar10_quick) 3×3/2 max+avg pooling, including the
// Caffe convention of *ceil-mode* output sizing with implicit zero padding
// at the bottom/right edge (average pooling divides by the full window size,
// as Caffe does). A train forward caches the input shape (and, for max
// pooling, each output's argmax) for backward(); an eval forward keeps none
// and drops a train forward's, as nn/layer.hpp's caching rule asks.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace gs::nn {

enum class PoolMode { kMax, kAvg };

class Pool2dLayer final : public Layer {
 public:
  Pool2dLayer(std::string name, PoolMode mode, std::size_t kernel,
              std::size_t stride);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return name_; }
  Shape output_shape(const Shape& input_shape) const override;

  PoolMode mode() const { return mode_; }
  std::size_t kernel() const { return kernel_; }
  std::size_t stride() const { return stride_; }

 private:
  std::string name_;
  PoolMode mode_;
  std::size_t kernel_;
  std::size_t stride_;

  Shape cached_input_shape_;
  std::vector<std::size_t> argmax_;  // flat input index per output element

  /// Ceil-mode output extent.
  std::size_t out_extent(std::size_t in) const;
};

}  // namespace gs::nn
