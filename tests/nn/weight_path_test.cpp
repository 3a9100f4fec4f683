// The shared weight path of the four crossbar layers (nn/weight_path.hpp):
// its caching rule, which the stateless layers follow too, and its
// weight-matrix views.
#include "nn/weight_path.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/lowrank.hpp"
#include "nn/network.hpp"
#include "nn/pool2d.hpp"

namespace gs::nn {
namespace {

struct LayerCase {
  std::string label;
  std::function<std::unique_ptr<Layer>(Rng&)> make;
  Shape input;
  Shape output;
};

std::vector<LayerCase> crossbar_layers() {
  return {
      {"DenseLayer",
       [](Rng& rng) { return std::make_unique<DenseLayer>("fc", 6, 4, rng); },
       {3, 6},
       {3, 4}},
      {"LowRankDense",
       [](Rng& rng) {
         return std::make_unique<LowRankDense>("fc", 6, 4, 2, rng);
       },
       {3, 6},
       {3, 4}},
      {"Conv2dLayer",
       [](Rng& rng) {
         return std::make_unique<Conv2dLayer>("conv", Conv2dSpec{2, 3, 3, 1, 1},
                                              rng);
       },
       {2, 2, 5, 5},
       {2, 3, 5, 5}},
      {"LowRankConv2d",
       [](Rng& rng) {
         return std::make_unique<LowRankConv2d>(
             "conv", Conv2dSpec{2, 3, 3, 1, 1}, 2, rng);
       },
       {2, 2, 5, 5},
       {2, 3, 5, 5}},
  };
}

Tensor random_tensor(const Shape& shape, Rng& rng) {
  Tensor t(shape);
  t.fill_gaussian(rng, 0.0f, 1.0f);
  return t;
}

// A train forward of x1, then an eval forward of x2, then backward: the
// eval forward kept no cache and dropped x1's, so backward must throw
// rather than return x1's (stale) or x2's (foreign) gradients. Both eval
// paths: the plain one and the packed one (pack_compressed_inference).
TEST(WeightPath, BackwardAfterEvalForwardThrows) {
  for (const LayerCase& c : crossbar_layers()) {
    for (const bool packed : {false, true}) {
      SCOPED_TRACE(c.label + (packed ? " packed" : " plain"));
      Rng rng(3);
      Network net;
      net.add(c.make(rng));
      const Tensor x1 = random_tensor(c.input, rng);
      const Tensor x2 = random_tensor(c.input, rng);
      const Tensor dy = random_tensor(c.output, rng);

      net.forward(x1, /*train=*/true);
      if (packed) pack_compressed_inference(net);
      net.forward(x2, /*train=*/false);
      try {
        net.backward(dy);
        ADD_FAILURE() << "backward after an eval forward did not throw";
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find("backward before forward"),
                  std::string::npos)
            << e.what();
      }

      // A new train forward re-arms backward.
      net.forward(x1, /*train=*/true);
      EXPECT_EQ(net.backward(dy).shape(), c.input);
    }
  }
}

// The same caching rule for the stateless layers that cache for backward:
// ReLU's mask, pooling's argmax and input shape, Flatten's shape. After an
// eval forward of x2, a backward must throw rather than silently route dY
// through x2's mask, argmax or shape.
TEST(WeightPath, StatelessBackwardAfterEvalForwardThrows) {
  struct Case {
    std::string label;
    std::function<std::unique_ptr<Layer>()> make;
  };
  const std::vector<Case> cases = {
      {"ReluLayer", [] { return std::make_unique<ReluLayer>("relu"); }},
      {"Pool2dLayer max",
       [] {
         return std::make_unique<Pool2dLayer>("pool", PoolMode::kMax, 2, 2);
       }},
      {"Pool2dLayer avg",
       [] {
         return std::make_unique<Pool2dLayer>("pool", PoolMode::kAvg, 2, 2);
       }},
      {"FlattenLayer", [] { return std::make_unique<FlattenLayer>("flat"); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    Rng rng(11);
    std::unique_ptr<Layer> layer = c.make();
    const Tensor x1 = random_tensor({2, 3, 4, 4}, rng);
    const Tensor x2 = random_tensor({2, 3, 4, 4}, rng);
    const Tensor dy =
        random_tensor(layer->forward(x1, /*train=*/true).shape(), rng);

    layer->forward(x2, /*train=*/false);
    try {
      layer->backward(dy);
      ADD_FAILURE() << "backward after an eval forward did not throw";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("backward before forward"),
                std::string::npos)
          << e.what();
    }

    // A new train forward re-arms backward.
    layer->forward(x1, /*train=*/true);
    EXPECT_EQ(layer->backward(dy).shape(), x1.shape());
  }
}

// weight_matrices() names each crossbar matrix and points at the layer's
// live value and gradient.
TEST(WeightPath, WeightMatricesViewTheLiveFactors) {
  Rng rng(5);
  DenseLayer dense("fc1", 6, 4, rng);
  LowRankConv2d conv("conv2", Conv2dSpec{2, 3, 3, 1, 0}, 2, rng);

  const std::vector<WeightMatrix> plain = dense.weight_matrices();
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_EQ(plain[0].name, "fc1");
  EXPECT_EQ(plain[0].value, &dense.weight());
  EXPECT_EQ(plain[0].grad, dense.params()[0].grad);

  const std::vector<WeightMatrix> factors = conv.weight_matrices();
  ASSERT_EQ(factors.size(), 2u);
  EXPECT_EQ(factors[0].name, "conv2_u");
  EXPECT_EQ(factors[1].name, "conv2_v");
  EXPECT_EQ(factors[0].value, &conv.mutable_u());
  EXPECT_EQ(factors[1].grad, &conv.mutable_vt_grad());
}

}  // namespace
}  // namespace gs::nn
