// Runtime/digital parity and executor determinism.
//
// The acceptance bar of the runtime subsystem: an ideal-device program
// (continuous conductances, no variation, no IR-drop, ideal converters)
// must reproduce nn::Network::forward within 1e-4 per logit on the paper
// networks under both mapping policies, and results must be bitwise
// identical at any thread-pool size.
#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/models.hpp"
#include "data/synthetic_cifar.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/lowrank.hpp"
#include "nn/pool2d.hpp"
#include "nn/trainer.hpp"

namespace gs::runtime {
namespace {

Tensor random_batch(const Shape& sample, std::size_t batch,
                    std::uint64_t seed) {
  Shape shape{batch};
  shape.insert(shape.end(), sample.begin(), sample.end());
  Tensor t(shape);
  Rng rng(seed);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

/// Digital-vs-runtime parity on a batch, per-logit tolerance.
void expect_parity(nn::Network& net, const Shape& sample_shape,
                   std::size_t batch, float tol, hw::MappingPolicy policy,
                   const char* label) {
  const Tensor input = random_batch(sample_shape, batch, 42);
  const Tensor digital = net.forward(input, /*train=*/false);

  CompileOptions options;
  options.policy = policy;
  const CrossbarProgram program = compile(net, sample_shape, options);
  const Executor executor(program);
  const Tensor analog = executor.forward(input);

  ASSERT_TRUE(digital.same_shape(analog))
      << label << ": " << shape_to_string(digital.shape()) << " vs "
      << shape_to_string(analog.shape());
  EXPECT_LE(max_abs_diff(digital, analog), tol) << label;
}

TEST(ExecutorParityTest, DenseLayer) {
  Rng rng(1);
  nn::Network net;
  net.add(std::make_unique<nn::DenseLayer>("fc", 130, 70, rng));
  for (const auto policy :
       {hw::MappingPolicy::kDivisorExact, hw::MappingPolicy::kPaddedMax}) {
    expect_parity(net, Shape{130}, 5, 1e-4f, policy, "dense");
  }
}

TEST(ExecutorParityTest, LowRankDenseLayer) {
  Rng rng(2);
  nn::Network net;
  net.add(std::make_unique<nn::LowRankDense>("fc", 130, 70, 20, rng));
  for (const auto policy :
       {hw::MappingPolicy::kDivisorExact, hw::MappingPolicy::kPaddedMax}) {
    expect_parity(net, Shape{130}, 5, 1e-4f, policy, "lowrank dense");
  }
}

TEST(ExecutorParityTest, ConvLayer) {
  for (const std::size_t stride : {1, 2}) {
    Rng rng(3);
    nn::Network net;
    net.add(std::make_unique<nn::Conv2dLayer>(
        "conv", nn::Conv2dSpec{3, 12, 5, stride, 2}, rng));
    for (const auto policy :
         {hw::MappingPolicy::kDivisorExact, hw::MappingPolicy::kPaddedMax}) {
      expect_parity(net, Shape{3, 14, 14}, 3, 1e-4f, policy, "conv");
    }
  }
}

TEST(ExecutorParityTest, LowRankConvLayer) {
  for (const std::size_t stride : {1, 2}) {
    Rng rng(4);
    nn::Network net;
    net.add(std::make_unique<nn::LowRankConv2d>(
        "conv", nn::Conv2dSpec{3, 12, 5, stride, 2}, 9, rng));
    for (const auto policy :
         {hw::MappingPolicy::kDivisorExact, hw::MappingPolicy::kPaddedMax}) {
      expect_parity(net, Shape{3, 14, 14}, 3, 1e-4f, policy, "lowrank conv");
    }
  }
}

TEST(ExecutorParityTest, PoolingAndActivations) {
  Rng rng(5);
  nn::Network net;
  net.add(std::make_unique<nn::Pool2dLayer>("max", nn::PoolMode::kMax, 3, 2));
  net.add(std::make_unique<nn::ReluLayer>("relu"));
  net.add(std::make_unique<nn::Pool2dLayer>("avg", nn::PoolMode::kAvg, 2, 2));
  net.add(std::make_unique<nn::FlattenLayer>("flatten"));
  expect_parity(net, Shape{4, 13, 13}, 3, 1e-6f,
                hw::MappingPolicy::kDivisorExact, "pool/relu/flatten");
}

TEST(ExecutorParityTest, LenetBothPolicies) {
  Rng rng(6);
  nn::Network net = core::build_lenet(rng);
  for (const auto policy :
       {hw::MappingPolicy::kDivisorExact, hw::MappingPolicy::kPaddedMax}) {
    expect_parity(net, Shape{1, 28, 28}, 4, 1e-4f, policy, "lenet");
  }
}

TEST(ExecutorParityTest, LenetLowRankPipelineForm) {
  // The hardware-facing form: every compressible layer factorised.
  Rng rng(7);
  nn::Network dense = core::build_lenet(rng);
  core::FactorizeSpec spec;
  spec.keep_dense = {core::lenet_classifier()};
  nn::Network lowrank = core::to_lowrank(dense, spec);
  for (const auto policy :
       {hw::MappingPolicy::kDivisorExact, hw::MappingPolicy::kPaddedMax}) {
    expect_parity(lowrank, Shape{1, 28, 28}, 4, 1e-4f, policy,
                  "lenet lowrank");
  }
}

TEST(ExecutorParityTest, ConvnetBothPolicies) {
  Rng rng(8);
  nn::Network net = core::build_convnet(rng);
  for (const auto policy :
       {hw::MappingPolicy::kDivisorExact, hw::MappingPolicy::kPaddedMax}) {
    expect_parity(net, Shape{3, 32, 32}, 2, 1e-4f, policy, "convnet");
  }
}

TEST(ExecutorDeterminismTest, BitwiseIdenticalAcrossPoolSizes) {
  Rng rng(9);
  nn::Network net = core::build_lenet(rng);
  const CrossbarProgram program = compile(net, Shape{1, 28, 28});
  const Tensor input = random_batch(Shape{1, 28, 28}, 6, 77);

  ThreadPool pool1(1);
  ThreadPool pool4(4);
  ThreadPool pool7(7);
  Executor executor(program);

  executor.set_thread_pool(&pool1);
  const Tensor out1 = executor.forward(input);
  executor.set_thread_pool(&pool4);
  const Tensor out4 = executor.forward(input);
  executor.set_thread_pool(&pool7);
  const Tensor out7 = executor.forward(input);

  ASSERT_TRUE(out1.same_shape(out4));
  EXPECT_EQ(std::memcmp(out1.data(), out4.data(),
                        out1.numel() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(out1.data(), out7.data(),
                        out1.numel() * sizeof(float)),
            0);
}

TEST(ExecutorDeterminismTest, BatchCompositionInvariant) {
  // Per-input-vector DAC scaling means a sample's logits cannot depend on
  // its batch mates — the property the batching server relies on. Batch
  // sizes straddle the executor's row panels (1, R−1, R, R+1, 2R+1, 33),
  // on padded and repacked programs, with and without converters.
  Rng rng(10);
  nn::Network net = core::build_lenet(rng);
  // Deleted row and column bands, so repacked tiles gather and scatter.
  for (const char* name : {"conv2", "fc1"}) {
    Tensor& w = (std::string(name) == "conv2")
                    ? dynamic_cast<nn::Conv2dLayer*>(net.find(name))->weight()
                    : dynamic_cast<nn::DenseLayer*>(net.find(name))->weight();
    for (std::size_t i = 0; i < w.rows(); ++i) {
      for (std::size_t j = 0; j < w.cols(); ++j) {
        if (i % 7 == 3 || j % 5 == 1) w.at(i, j) = 0.0f;
      }
    }
  }
  constexpr std::size_t kR = hw::AnalogCrossbar::kPanelRows;
  const std::size_t sample_numel = 28 * 28;
  const Tensor batch = random_batch(Shape{1, 28, 28}, 33, 123);

  for (const bool repack : {false, true}) {
    for (const bool converters : {false, true}) {
      CompileOptions options;
      options.repack = repack;
      if (converters) {
        options.converters.dac_levels = 255;
        options.converters.adc_levels = 1023;
      }
      const CrossbarProgram program = compile(net, Shape{1, 28, 28}, options);
      ASSERT_EQ(program.repacked(), repack);
      const Executor executor(program);

      std::vector<Tensor> alone;
      for (std::size_t b = 0; b < 33; ++b) {
        Tensor single(Shape{1, 1, 28, 28});
        std::copy(batch.data() + b * sample_numel,
                  batch.data() + (b + 1) * sample_numel, single.data());
        alone.push_back(executor.forward(single));
      }
      for (const std::size_t rows : {std::size_t{1}, kR - 1, kR, kR + 1,
                                     2 * kR + 1, std::size_t{33}}) {
        Tensor input(Shape{rows, 1, 28, 28});
        std::copy(batch.data(), batch.data() + input.numel(), input.data());
        const Tensor batched = executor.forward(input);
        for (std::size_t b = 0; b < rows; ++b) {
          EXPECT_EQ(std::memcmp(alone[b].data(),
                                batched.data() + b * alone[b].numel(),
                                alone[b].numel() * sizeof(float)),
                    0)
              << (repack ? "repacked" : "padded")
              << (converters ? " with converters" : " ideal") << ", batch "
              << rows << ", sample " << b;
        }
      }
    }
  }
}

TEST(ExecutorTest, QuantizedConvertersStayCloseAtHighResolution) {
  Rng rng(11);
  nn::Network net;
  net.add(std::make_unique<nn::DenseLayer>("fc", 64, 32, rng));
  const Tensor input = random_batch(Shape{64}, 3, 5);

  const CrossbarProgram ideal = compile(net, Shape{64});
  CompileOptions coarse_opts;
  coarse_opts.converters.dac_levels = 4095;
  coarse_opts.converters.adc_levels = 65535;
  const CrossbarProgram quantized = compile(net, Shape{64}, coarse_opts);

  const Tensor a = Executor(ideal).forward(input);
  const Tensor b = Executor(quantized).forward(input);
  // 12-bit DAC / 16-bit ADC keeps logits close to the float reference but
  // not identical (the quantisers must actually be in the loop).
  EXPECT_LE(max_abs_diff(a, b), 0.05f);
  EXPECT_GT(max_abs_diff(a, b), 0.0f);
}

TEST(ExecutorTest, EvaluateMatchesDigitalAccuracyOnIdealDevice) {
  Rng rng(12);
  nn::Network net = core::build_lenet(rng);
  const data::SyntheticMnist test_set(/*seed=*/2, /*count=*/40);
  const CrossbarProgram program =
      compile(net, test_set.sample_shape());
  const Executor executor(program);
  const double runtime_acc = evaluate(executor, test_set, 40);
  const double digital_acc = nn::evaluate(net, test_set, 40);
  // Logits agree to ~1e-5; allow one argmax flip from a near-tie.
  EXPECT_NEAR(runtime_acc, digital_acc, 1.0 / 40 + 1e-9);
}

}  // namespace
}  // namespace gs::runtime
