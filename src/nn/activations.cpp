#include "nn/activations.hpp"

namespace gs::nn {

Tensor ReluLayer::forward(const Tensor& input, bool train) {
  // An eval forward keeps no mask and drops a train forward's.
  mask_ = train ? Tensor(input.shape()) : Tensor();
  Tensor out = input;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    if (out[i] > 0.0f) {
      if (train) mask_[i] = 1.0f;
    } else {
      out[i] = 0.0f;
    }
  }
  return out;
}

Tensor ReluLayer::backward(const Tensor& grad_output) {
  GS_CHECK_MSG(mask_.numel() > 0, name_ << ": backward before forward");
  GS_CHECK(grad_output.same_shape(mask_));
  Tensor grad = grad_output;
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    grad[i] *= mask_[i];
  }
  return grad;
}

Tensor FlattenLayer::forward(const Tensor& input, bool train) {
  GS_CHECK_MSG(input.rank() >= 2, name_ << ": flatten needs a batch dim");
  cached_shape_ = train ? input.shape() : Shape();
  const std::size_t batch = input.dim(0);
  return input.reshaped({batch, input.numel() / batch});
}

Tensor FlattenLayer::backward(const Tensor& grad_output) {
  GS_CHECK_MSG(!cached_shape_.empty(), name_ << ": backward before forward");
  return grad_output.reshaped(cached_shape_);
}

}  // namespace gs::nn
