// Numerical gradient checking for every trainable layer type.
//
// For loss L(θ) = Σ y(θ)·G with a fixed random cotangent G, backward() must
// produce dL/dθ matching central finite differences. This is the strongest
// single correctness property of the training stack: it validates forward,
// backward, and their consistency in one shot.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/layer.hpp"
#include "nn/lowrank.hpp"
#include "nn/pool2d.hpp"
#include "tensor/matrix.hpp"

namespace gs::nn {
namespace {

/// L(·) = <forward(input), cotangent>.
double scalar_loss(Layer& layer, const Tensor& input, const Tensor& cot) {
  Tensor y = layer.forward(input, true);
  GS_CHECK(y.same_shape(cot));
  double acc = 0.0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    acc += static_cast<double>(y[i]) * cot[i];
  }
  return acc;
}

/// Checks every parameter gradient and the input gradient of `layer` by
/// central differences over a subsample of coordinates.
void check_layer_gradients(Layer& layer, Tensor input, double tol = 2e-2) {
  Rng rng(12345);
  Tensor probe = layer.forward(input, true);
  Tensor cot(probe.shape());
  cot.fill_gaussian(rng, 0.0f, 1.0f);

  // Analytic gradients.
  zero_grads(layer);
  layer.forward(input, true);
  Tensor dinput = layer.backward(cot);

  const float h = 1e-2f;
  // Parameter gradients (subsampled for large tensors).
  for (const ParamRef& p : layer.params()) {
    const std::size_t n = p.value->numel();
    const std::size_t step = std::max<std::size_t>(1, n / 25);
    for (std::size_t i = 0; i < n; i += step) {
      const float saved = (*p.value)[i];
      (*p.value)[i] = saved + h;
      const double lp = scalar_loss(layer, input, cot);
      (*p.value)[i] = saved - h;
      const double lm = scalar_loss(layer, input, cot);
      (*p.value)[i] = saved;
      const double fd = (lp - lm) / (2.0 * h);
      EXPECT_NEAR((*p.grad)[i], fd, tol * std::max(1.0, std::fabs(fd)))
          << p.name << "[" << i << "]";
    }
  }
  // Input gradient (subsampled). Re-establish the analytic pass first.
  zero_grads(layer);
  layer.forward(input, true);
  dinput = layer.backward(cot);
  const std::size_t n = input.numel();
  const std::size_t step = std::max<std::size_t>(1, n / 25);
  for (std::size_t i = 0; i < n; i += step) {
    const float saved = input[i];
    input[i] = saved + h;
    const double lp = scalar_loss(layer, input, cot);
    input[i] = saved - h;
    const double lm = scalar_loss(layer, input, cot);
    input[i] = saved;
    const double fd = (lp - lm) / (2.0 * h);
    EXPECT_NEAR(dinput[i], fd, tol * std::max(1.0, std::fabs(fd)))
        << "input[" << i << "]";
  }
}

Tensor random_input(const Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor x(shape);
  x.fill_gaussian(rng, 0.0f, 1.0f);
  return x;
}

TEST(GradCheck, Dense) {
  Rng rng(1);
  DenseLayer fc("fc", 7, 5, rng);
  check_layer_gradients(fc, random_input({3, 7}, 2));
}

TEST(GradCheck, DenseSingleSample) {
  Rng rng(3);
  DenseLayer fc("fc", 4, 9, rng);
  check_layer_gradients(fc, random_input({1, 4}, 4));
}

TEST(GradCheck, Conv2dNoPad) {
  Rng rng(5);
  Conv2dLayer conv("conv", Conv2dSpec{2, 3, 3, 1, 0}, rng);
  check_layer_gradients(conv, random_input({2, 2, 6, 6}, 6));
}

TEST(GradCheck, Conv2dPadded) {
  Rng rng(7);
  Conv2dLayer conv("conv", Conv2dSpec{2, 4, 3, 1, 1}, rng);
  check_layer_gradients(conv, random_input({2, 2, 5, 5}, 8));
}

TEST(GradCheck, Conv2dStrided) {
  Rng rng(9);
  Conv2dLayer conv("conv", Conv2dSpec{1, 2, 3, 2, 1}, rng);
  check_layer_gradients(conv, random_input({2, 1, 7, 7}, 10));
}

TEST(GradCheck, LowRankDense) {
  Rng rng(11);
  LowRankDense lr("lr", 8, 6, 3, rng);
  check_layer_gradients(lr, random_input({3, 8}, 12));
}

TEST(GradCheck, LowRankConv2d) {
  Rng rng(13);
  LowRankConv2d lr("lrc", Conv2dSpec{2, 4, 3, 1, 1}, 3, rng);
  check_layer_gradients(lr, random_input({2, 2, 5, 5}, 14));
}

TEST(GradCheck, Relu) {
  // Keep inputs away from the kink at 0 for clean finite differences.
  ReluLayer relu("relu");
  Tensor x = random_input({3, 10}, 16);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    if (std::fabs(x[i]) < 0.1f) x[i] = 0.5f;
  }
  check_layer_gradients(relu, x);
}

TEST(GradCheck, Flatten) {
  FlattenLayer flat("flatten");
  check_layer_gradients(flat, random_input({2, 3, 4, 4}, 18));
}

TEST(GradCheck, AvgPool) {
  Pool2dLayer pool("pool", PoolMode::kAvg, 2, 2);
  check_layer_gradients(pool, random_input({2, 2, 6, 6}, 20));
}

TEST(GradCheck, MaxPool) {
  // Max pooling is piecewise-linear; use well-separated values to avoid
  // argmax flips under the probe step.
  Pool2dLayer pool("pool", PoolMode::kMax, 2, 2);
  Rng rng(21);
  Tensor x(Shape{1, 2, 4, 4});
  std::vector<std::size_t> order(x.numel());
  for (std::size_t i = 0; i < x.numel(); ++i) order[i] = i;
  rng.shuffle(order);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[order[i]] = static_cast<float>(i);  // all values ≥ 1 apart
  }
  check_layer_gradients(pool, x);
}

}  // namespace
}  // namespace gs::nn
