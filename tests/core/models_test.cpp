#include "core/models.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "core/paper_constants.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/trainer.hpp"
#include "runtime/health.hpp"

namespace gs::core {
namespace {

TEST(Models, LeNetForwardShape) {
  Rng rng(1);
  nn::Network net = build_lenet(rng);
  Tensor x(Shape{2, 1, 28, 28});
  EXPECT_EQ(net.forward(x).shape(), (Shape{2, 10}));
}

TEST(Models, ConvNetForwardShape) {
  Rng rng(2);
  nn::Network net = build_convnet(rng);
  Tensor x(Shape{2, 3, 32, 32});
  EXPECT_EQ(net.forward(x).shape(), (Shape{2, 10}));
}

TEST(Models, LeNetMatrixGeometryMatchesPaper) {
  Rng rng(3);
  nn::Network net = build_lenet(rng);
  const PaperNetwork paper = paper_lenet();
  const auto check = [&](const std::string& name, std::size_t n,
                         std::size_t m) {
    nn::Layer* layer = net.find(name);
    ASSERT_NE(layer, nullptr) << name;
    if (auto* conv = dynamic_cast<nn::Conv2dLayer*>(layer)) {
      EXPECT_EQ(conv->weight().rows(), n) << name;
      EXPECT_EQ(conv->weight().cols(), m) << name;
    } else if (auto* dense = dynamic_cast<nn::DenseLayer*>(layer)) {
      EXPECT_EQ(dense->weight().rows(), n) << name;
      EXPECT_EQ(dense->weight().cols(), m) << name;
    } else {
      FAIL() << name << " has unexpected type";
    }
  };
  for (const auto& layer : paper.layers) {
    check(layer.name, layer.n, layer.m);
  }
}

TEST(Models, ConvNetMatrixGeometryMatchesPaper) {
  Rng rng(4);
  nn::Network net = build_convnet(rng);
  for (const auto& layer : paper_convnet().layers) {
    nn::Layer* l = net.find(layer.name);
    ASSERT_NE(l, nullptr) << layer.name;
    if (auto* conv = dynamic_cast<nn::Conv2dLayer*>(l)) {
      EXPECT_EQ(conv->weight().rows(), layer.n);
      EXPECT_EQ(conv->weight().cols(), layer.m);
    } else if (auto* dense = dynamic_cast<nn::DenseLayer*>(l)) {
      EXPECT_EQ(dense->weight().rows(), layer.n);
      EXPECT_EQ(dense->weight().cols(), layer.m);
    }
  }
}

TEST(Models, CompressibleLayerLists) {
  EXPECT_EQ(lenet_compressible_layers().size(), 3u);
  EXPECT_EQ(convnet_compressible_layers().size(), 3u);
  EXPECT_EQ(lenet_classifier(), "fc2");
  EXPECT_EQ(convnet_classifier(), "fc1");
}

TEST(ToLowRank, FullRankConversionPreservesOutputs) {
  Rng rng(5);
  nn::Network dense = build_lenet(rng);
  FactorizeSpec spec;
  spec.keep_dense = {lenet_classifier()};
  nn::Network lowrank = to_lowrank(dense, spec);

  Tensor x(Shape{2, 1, 28, 28});
  Rng xr(6);
  x.fill_gaussian(xr, 0.5f, 0.25f);
  Tensor y_dense = dense.forward(x);
  Tensor y_lr = lowrank.forward(x);
  EXPECT_LE(max_abs_diff(y_dense, y_lr), 5e-2f)
      << "full-rank factorisation must be (numerically) lossless";
}

TEST(ToLowRank, FactorizesCompressibleLayersOnly) {
  Rng rng(7);
  nn::Network dense = build_lenet(rng);
  FactorizeSpec spec;
  spec.keep_dense = {"fc2"};
  nn::Network lowrank = to_lowrank(dense, spec);
  const auto factorized = lowrank.factorized_layers();
  ASSERT_EQ(factorized.size(), 3u);  // conv1, conv2, fc1
  EXPECT_NE(lowrank.find("fc2"), nullptr);
  EXPECT_EQ(dynamic_cast<nn::DenseLayer*>(lowrank.find("fc2"))->name(), "fc2");
}

TEST(ToLowRank, ExplicitRanksApplied) {
  Rng rng(8);
  nn::Network dense = build_lenet(rng);
  FactorizeSpec spec;
  spec.keep_dense = {"fc2"};
  spec.ranks = {{"conv1", 5}, {"conv2", 12}, {"fc1", 36}};  // Table 1 ranks
  nn::Network lowrank = to_lowrank(dense, spec);
  const auto factorized = lowrank.factorized_layers();
  EXPECT_EQ(factorized[0]->current_rank(), 5u);
  EXPECT_EQ(factorized[1]->current_rank(), 12u);
  EXPECT_EQ(factorized[2]->current_rank(), 36u);
}

TEST(ToLowRank, RankBoundsValidated) {
  Rng rng(9);
  nn::Network dense = build_lenet(rng);
  FactorizeSpec spec;
  spec.ranks = {{"conv1", 21}};  // conv1 fan-out is 20
  EXPECT_THROW(to_lowrank(dense, spec), Error);
}

// Full-rank factorisation of a seeded LeNet (Algorithm 2, line 2). fc1's
// 500×500 Gram (500²·800 multiply-adds) is past gram_double's direct-loop
// threshold, so it is built on the pooled tile path before the eigensolver,
// and its U = W·V runs on the pooled GEMM kernel. The factors' checksum is
// recorded as the gtest property `weights_checksum`; the
// thread_count_invariance_factorize ctest
// (scripts/check_thread_count_invariance.py) runs this case at
// GS_NUM_THREADS 1 and 4 and requires the two checksums to be equal.
TEST(ToLowRank, FullRankLeNetFactorsChecksum) {
  Rng rng(10);
  const nn::Network dense = build_lenet(rng);
  FactorizeSpec spec;
  spec.keep_dense = {lenet_classifier()};
  nn::Network lowrank = to_lowrank(dense, spec);
  const auto factorized = lowrank.factorized_layers();
  ASSERT_EQ(factorized.size(), 3u);
  EXPECT_EQ(factorized[2]->current_rank(), 500u);  // fc1 at full rank

  std::uint64_t hash = 0;
  for (const nn::ParamRef& param : lowrank.params()) {
    hash = (hash ^ runtime::tensor_checksum(*param.value)) * 1099511628211ULL;
  }
  char hex[20];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  RecordProperty("weights_checksum", hex);
}

TEST(CloneNetwork, DeepCopyIsIndependent) {
  Rng rng(20);
  nn::Network original = build_lenet(rng);
  nn::Network copy = clone_network(original);

  Tensor x(Shape{1, 1, 28, 28});
  Rng xr(21);
  x.fill_gaussian(xr, 0.5f, 0.25f);
  EXPECT_TRUE(allclose(original.forward(x), copy.forward(x), 1e-6f));

  // Mutating the copy must not touch the original.
  auto* conv = dynamic_cast<nn::Conv2dLayer*>(copy.find("conv1"));
  ASSERT_NE(conv, nullptr);
  conv->weight().fill(0.0f);
  EXPECT_FALSE(allclose(original.forward(x), copy.forward(x), 1e-3f));
}

TEST(CloneNetwork, PreservesFactorizedLayers) {
  Rng rng(22);
  nn::Network dense = build_lenet(rng);
  FactorizeSpec spec;
  spec.keep_dense = {"fc2"};
  spec.ranks = {{"conv1", 5}, {"conv2", 12}, {"fc1", 36}};
  nn::Network lowrank = to_lowrank(dense, spec);
  nn::Network copy = clone_network(lowrank);
  const auto factorized = copy.factorized_layers();
  ASSERT_EQ(factorized.size(), 3u);
  EXPECT_EQ(factorized[0]->current_rank(), 5u);
  EXPECT_EQ(factorized[2]->current_rank(), 36u);
}

TEST(ToLowRank, PreservesTrainedBehaviour) {
  // Train the dense LeNet briefly, convert at full rank, accuracy must
  // be identical (same predictions).
  Rng rng(10);
  nn::Network dense = build_lenet(rng);
  data::SyntheticMnist train_set(71, 120);
  data::SyntheticMnist test_set(72, 60);
  data::Batcher batcher(train_set, 20, Rng(11));
  nn::SgdOptimizer opt({0.01f, 0.9f, 0.0f});
  nn::train(dense, opt, batcher, 60);
  const double acc_dense = nn::evaluate(dense, test_set);

  FactorizeSpec spec;
  spec.keep_dense = {"fc2"};
  nn::Network lowrank = to_lowrank(dense, spec);
  const double acc_lr = nn::evaluate(lowrank, test_set);
  EXPECT_NEAR(acc_lr, acc_dense, 0.05);
}

}  // namespace
}  // namespace gs::core
