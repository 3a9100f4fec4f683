// Stateless activation / shape layers: ReLU and Flatten. Both follow the
// caching rule of nn/layer.hpp: a train forward caches ReLU's mask or
// Flatten's input shape for backward(); an eval forward drops it.
#pragma once

#include "nn/layer.hpp"

namespace gs::nn {

/// Elementwise max(0, x); works on any rank.
class ReluLayer final : public Layer {
 public:
  explicit ReluLayer(std::string name) : name_(std::move(name)) {}

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return name_; }
  Shape output_shape(const Shape& input_shape) const override {
    return input_shape;
  }

 private:
  std::string name_;
  Tensor mask_;  // 1 where input > 0
};

/// Collapses B×C×H×W into B×(C·H·W) for the FC stage.
class FlattenLayer final : public Layer {
 public:
  explicit FlattenLayer(std::string name) : name_(std::move(name)) {}

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string name() const override { return name_; }
  Shape output_shape(const Shape& input_shape) const override {
    return {shape_numel(input_shape)};
  }

 private:
  std::string name_;
  Shape cached_shape_;
};

}  // namespace gs::nn
