#include "nn/network.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "core/models.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/lowrank.hpp"

namespace gs::nn {
namespace {

Network small_mlp(Rng& rng) {
  Network net;
  net.add(std::make_unique<DenseLayer>("fc1", 4, 8, rng));
  net.add(std::make_unique<ReluLayer>("relu"));
  net.add(std::make_unique<DenseLayer>("fc2", 8, 3, rng));
  return net;
}

TEST(Network, ForwardThroughStack) {
  Rng rng(1);
  Network net = small_mlp(rng);
  Tensor x(Shape{2, 4});
  x.fill_gaussian(rng, 0.0f, 1.0f);
  EXPECT_EQ(net.forward(x).shape(), (Shape{2, 3}));
}

TEST(Network, EmptyForwardThrows) {
  Network net;
  EXPECT_THROW(net.forward(Tensor(Shape{1, 2})), Error);
}

TEST(Network, AddRejectsNull) {
  Network net;
  EXPECT_THROW(net.add(nullptr), Error);
}

TEST(Network, ParamsCollectedInLayerOrder) {
  Rng rng(2);
  Network net = small_mlp(rng);
  const auto params = net.params();
  ASSERT_EQ(params.size(), 4u);
  EXPECT_EQ(params[0].name, "fc1.weight");
  EXPECT_EQ(params[3].name, "fc2.bias");
}

TEST(Network, ZeroGradsClearsAll) {
  Rng rng(3);
  Network net = small_mlp(rng);
  Tensor x(Shape{2, 4}, 1.0f);
  net.forward(x, true);
  net.backward(Tensor(Shape{2, 3}, 1.0f));
  net.zero_grads();
  for (const auto& p : net.params()) {
    EXPECT_EQ(p.grad->count_zeros(), p.grad->numel());
  }
}

TEST(Network, FindLocatesLayerByName) {
  Rng rng(4);
  Network net = small_mlp(rng);
  EXPECT_NE(net.find("fc2"), nullptr);
  EXPECT_EQ(net.find("does-not-exist"), nullptr);
}

TEST(Network, LayerAccessBoundsChecked) {
  Rng rng(5);
  Network net = small_mlp(rng);
  EXPECT_NO_THROW(net.layer(2));
  EXPECT_THROW(net.layer(3), Error);
}

TEST(Network, FactorizedLayersDetected) {
  Rng rng(6);
  Network net;
  net.add(std::make_unique<DenseLayer>("fc1", 4, 8, rng));
  net.add(std::make_unique<LowRankDense>("lr1", 8, 6, 2, rng));
  net.add(std::make_unique<LowRankDense>("lr2", 6, 3, 2, rng));
  const auto factorized = net.factorized_layers();
  ASSERT_EQ(factorized.size(), 2u);
  EXPECT_EQ(factorized[0]->factor_name(), "lr1");
  EXPECT_EQ(factorized[1]->factor_name(), "lr2");
}

TEST(Network, ParameterCountSums) {
  Rng rng(7);
  Network net = small_mlp(rng);
  // fc1: 4·8+8 = 40; fc2: 8·3+3 = 27.
  EXPECT_EQ(net.parameter_count(), 67u);
}

TEST(Network, BackwardPropagatesThroughStack) {
  Rng rng(8);
  Network net = small_mlp(rng);
  Tensor x(Shape{2, 4});
  x.fill_gaussian(rng, 0.0f, 1.0f);
  net.forward(x, true);
  Tensor dx = net.backward(Tensor(Shape{2, 3}, 1.0f));
  EXPECT_EQ(dx.shape(), x.shape());
  // Some gradient must reach the first layer's weights.
  const auto params = net.params();
  EXPECT_LT(params[0].grad->count_zeros(), params[0].grad->numel());
}

// The digital block-compressed path on the workload group deletion
// produces: tile-aligned bands of conv2 and fc1 rows deleted from LeNet.
// Packed eval forwards stay within 1e-4 of the dense forward, and clearing
// the panels restores the dense forward bitwise.
TEST(CompressedInference, DeletedLeNetWithinBudgetAndClearRestoresDense) {
  Rng rng(1);
  Network net = core::build_lenet(rng);
  auto* conv2 = dynamic_cast<Conv2dLayer*>(net.find("conv2"));
  auto* fc1 = dynamic_cast<DenseLayer*>(net.find("fc1"));
  ASSERT_NE(conv2, nullptr);
  ASSERT_NE(fc1, nullptr);
  const auto zero_rows = [](Tensor& w, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t j = 0; j < w.cols(); ++j) w.at(i, j) = 0.0f;
    }
  };
  zero_rows(conv2->weight(), 100, 500);
  zero_rows(fc1->weight(), 200, 800);

  Tensor batch(Shape{8, 1, 28, 28});
  batch.fill_uniform(rng, 0.0f, 1.0f);
  const Tensor dense = net.forward(batch, /*train=*/false);
  const std::size_t packed = pack_compressed_inference(net);
  EXPECT_EQ(packed, 4u);  // conv1, conv2, fc1, fc2
  EXPECT_LE(max_abs_diff(dense, net.forward(batch, /*train=*/false)), 1e-4f);

  EXPECT_EQ(clear_compressed_inference(net), packed);
  const Tensor cleared = net.forward(batch, /*train=*/false);
  ASSERT_TRUE(cleared.same_shape(dense));
  EXPECT_EQ(std::memcmp(cleared.data(), dense.data(),
                        dense.numel() * sizeof(float)),
            0);
}

}  // namespace
}  // namespace gs::nn
