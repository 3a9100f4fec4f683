// Training-time nonideality (runtime/noise_model.hpp): the per-stage
// samplers must realise exactly the chips compile() programs, the
// NoisyForward hook must be straight-through (noisy forward, clean
// backward), streams must be isolated per stage name, and the whole path
// must be bitwise reproducible.
#include "runtime/noise_model.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>

#include "common/check.hpp"
#include "nn/activations.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/dropout.hpp"
#include "nn/lowrank.hpp"
#include "nn/optimizer.hpp"
#include "nn/pool2d.hpp"
#include "runtime/executor.hpp"
#include "runtime/health.hpp"

namespace gs::runtime {
namespace {

nn::Network dense_net(std::size_t in, std::size_t out, std::uint64_t seed,
                      const std::string& name = "fc") {
  Rng rng(seed);
  nn::Network net;
  net.add(std::make_unique<nn::DenseLayer>(name, in, out, rng));
  return net;
}

CompileOptions nonideal_options() {
  CompileOptions options;
  options.analog.levels = 32;
  options.analog.variation_sigma = 0.1;
  return options;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

TEST(NoiseConfigTest, ValidateRejectsZeroResamplePeriod) {
  NoiseConfig config;
  config.resample_every = 0;
  EXPECT_THROW(config.validate(), Error);
  config.resample_every = 1;
  EXPECT_NO_THROW(config.validate());
}

TEST(NoiseModelTest, StagesMirrorTheCompiledProgram) {
  Rng rng(3);
  nn::Network net;
  net.add(std::make_unique<nn::LowRankDense>("fc1", 12, 10, 4, rng));
  net.add(std::make_unique<nn::ReluLayer>("relu"));
  net.add(std::make_unique<nn::DenseLayer>("fc2", 10, 5, rng));
  const CrossbarProgram program = compile(net, Shape{12}, nonideal_options());

  const NoiseModel model(program);
  ASSERT_EQ(model.stages().size(), 3u);  // fc1_u, fc1_v, fc2
  EXPECT_EQ(model.stages()[0].name, "fc1_u");
  EXPECT_EQ(model.stages()[1].name, "fc1_v");
  EXPECT_EQ(model.stages()[2].name, "fc2");
  EXPECT_EQ(model.stages()[0].layer_index, 0u);
  EXPECT_EQ(model.stages()[2].layer_index, 2u);
  EXPECT_EQ(model.stages()[1].stages_in_step, 2u);
  EXPECT_EQ(model.stages()[2].stages_in_step, 1u);
  EXPECT_EQ(model.find_stage("fc1_v"), &model.stages()[1]);
  EXPECT_EQ(model.find_stage("nope"), nullptr);
}

TEST(NoiseModelTest, SampleRealisesExactlyTheChipCompileWouldProgram) {
  // The sampler's contract: sample_effective(name, w, k) is bitwise the
  // effective-weight matrix of a program compiled with analog seed
  // stream_seed(name, k) — the same chip the executor would run.
  nn::Network net = dense_net(23, 17, 7, "fc");
  auto* fc = dynamic_cast<nn::DenseLayer*>(net.find("fc"));
  ASSERT_NE(fc, nullptr);

  CompileOptions options = nonideal_options();
  const NoiseModel model(compile(net, Shape{23}, options), {.seed = 5});
  const Tensor sampled = model.sample_effective("fc", fc->weight(), 3);

  options.analog.seed = model.stream_seed("fc", 3);
  const CrossbarProgram chip = compile(net, Shape{23}, options);
  ASSERT_EQ(chip.steps().size(), 1u);
  const MatrixPlan& plan = chip.steps()[0].stages[0];
  Tensor assembled(Shape{23, 17});
  for (const ProgramTile& tile : plan.tiles) {
    const Tensor& eff = tile.xbar.effective_weights();
    for (std::size_t i = tile.slice.row_begin; i < tile.slice.row_end; ++i) {
      for (std::size_t j = tile.slice.col_begin; j < tile.slice.col_end;
           ++j) {
        assembled.at(i, j) = eff.at(i - tile.slice.row_begin,
                                    j - tile.slice.col_begin);
      }
    }
  }
  EXPECT_TRUE(bitwise_equal(sampled, assembled));
}

TEST(NoiseModelTest, StreamsKeyedByStageNameNotPosition) {
  // The fc1 stream must not depend on which other layers exist — the
  // stream-isolation contract that keeps noise reproducible per layer.
  Rng rng(11);
  nn::Network small;
  small.add(std::make_unique<nn::DenseLayer>("fc1", 14, 9, rng));
  nn::Network big;
  big.add(std::make_unique<nn::DenseLayer>("fc0", 14, 14, rng));
  big.add(std::make_unique<nn::ReluLayer>("relu"));
  big.add(std::make_unique<nn::DenseLayer>("fc1", 14, 9, rng));

  const CompileOptions options = nonideal_options();
  const NoiseModel model_small(compile(small, Shape{14}, options),
                               {.seed = 9});
  const NoiseModel model_big(compile(big, Shape{14}, options), {.seed = 9});
  EXPECT_EQ(model_small.stream_seed("fc1", 4), model_big.stream_seed("fc1", 4));

  Tensor w(Shape{14, 9});
  Rng wrng(2);
  w.fill_uniform(wrng, -0.5f, 0.5f);
  EXPECT_TRUE(bitwise_equal(model_small.sample_effective("fc1", w, 4),
                            model_big.sample_effective("fc1", w, 4)));
  // Distinct stages and distinct realisations draw distinct streams.
  EXPECT_NE(model_big.stream_seed("fc0", 4), model_big.stream_seed("fc1", 4));
  EXPECT_NE(model_big.stream_seed("fc1", 4), model_big.stream_seed("fc1", 5));
}

TEST(NoiseModelTest, SampleRejectsMismatchedShapes) {
  nn::Network net = dense_net(8, 6, 1);
  const NoiseModel model(compile(net, Shape{8}, nonideal_options()));
  Tensor wrong(Shape{6, 8});
  EXPECT_THROW(model.sample_effective("fc", wrong, 0), Error);
  Tensor right(Shape{8, 6});
  EXPECT_THROW(model.sample_effective("nope", right, 0), Error);
}

TEST(NoisyForwardTest, TrainForwardIsNoisyEvalForwardIsClean) {
  nn::Network net = dense_net(16, 10, 21);
  const CrossbarProgram program =
      compile(net, Shape{16}, nonideal_options());
  const NoiseModel model(program, {.seed = 3});

  Tensor x(Shape{4, 16});
  Rng rng(5);
  x.fill_uniform(rng, -1.0f, 1.0f);
  const Tensor clean = net.forward(x, /*train=*/false);

  NoisyForward hook(net, model);
  const Tensor noisy = net.forward(x, /*train=*/true);
  EXPECT_FALSE(bitwise_equal(clean, noisy));
  // Eval forwards bypass the hook entirely.
  EXPECT_TRUE(bitwise_equal(clean, net.forward(x, /*train=*/false)));
  EXPECT_EQ(hook.forwards(), 1u);
}

TEST(NoisyForwardTest, CleanWeightsRestoredAfterEveryTrainForward) {
  nn::Network net = dense_net(12, 8, 2);
  auto* fc = dynamic_cast<nn::DenseLayer*>(net.find("fc"));
  ASSERT_NE(fc, nullptr);
  const Tensor before = fc->weight();

  const NoiseModel model(compile(net, Shape{12}, nonideal_options()));
  {
    NoisyForward hook(net, model);
    Tensor x(Shape{2, 12}, 0.25f);
    net.forward(x, /*train=*/true);
    EXPECT_TRUE(bitwise_equal(before, fc->weight()));
  }
  EXPECT_TRUE(bitwise_equal(before, fc->weight()));
  EXPECT_EQ(net.forward_hook(), nullptr);  // destructor uninstalled
}

TEST(NoisyForwardTest, BackwardIsStraightThroughOnCleanWeights) {
  // Two identical networks, one forwarded noisily: the input gradients must
  // match bitwise, because backward must consume the CLEAN weights in both.
  nn::Network noisy_net = dense_net(10, 6, 33);
  nn::Network clean_net = dense_net(10, 6, 33);

  const NoiseModel model(
      compile(noisy_net, Shape{10}, nonideal_options()), {.seed = 8});
  NoisyForward hook(noisy_net, model);

  Tensor x(Shape{3, 10});
  Rng rng(4);
  x.fill_uniform(rng, -1.0f, 1.0f);
  Tensor grad(Shape{3, 6});
  grad.fill_uniform(rng, -1.0f, 1.0f);

  noisy_net.forward(x, /*train=*/true);
  clean_net.forward(x, /*train=*/true);
  const Tensor dx_noisy = noisy_net.backward(grad);
  const Tensor dx_clean = clean_net.backward(grad);
  EXPECT_TRUE(bitwise_equal(dx_noisy, dx_clean));
}

TEST(NoisyForwardTest, ResampleScheduleHoldsOneChipPerPeriod) {
  nn::Network net = dense_net(14, 7, 13);
  const CrossbarProgram program =
      compile(net, Shape{14}, nonideal_options());
  NoiseConfig config;
  config.seed = 17;
  config.resample_every = 2;
  const NoiseModel model(program, config);
  NoisyForward hook(net, model);

  Tensor x(Shape{2, 14}, 0.5f);
  const Tensor f0 = net.forward(x, true);  // chip 0
  EXPECT_EQ(hook.realisation(), 0u);
  const Tensor f1 = net.forward(x, true);  // still chip 0
  EXPECT_EQ(hook.realisation(), 1u);
  const Tensor f2 = net.forward(x, true);  // chip 1
  // Weights unchanged between forwards, so same chip ⇒ identical logits and
  // a fresh chip ⇒ different variation ⇒ different logits.
  EXPECT_TRUE(bitwise_equal(f0, f1));
  EXPECT_FALSE(bitwise_equal(f0, f2));
}

TEST(NoisyForwardTest, TrainingIsBitwiseReproducible) {
  // Fixed noise seed + fixed schedule ⇒ two independent runs produce
  // bitwise-identical trained weights.
  const auto run = [] {
    nn::Network net = dense_net(12, 5, 9);
    const CrossbarProgram program =
        compile(net, Shape{12}, nonideal_options());
    const NoiseModel model(program, {.seed = 23, .resample_every = 2});
    NoisyForward hook(net, model);
    nn::SgdOptimizer opt({0.05f, 0.9f, 0.0f});
    Rng rng(6);
    for (int step = 0; step < 5; ++step) {
      Tensor x(Shape{4, 12});
      x.fill_uniform(rng, -1.0f, 1.0f);
      net.zero_grads();
      net.forward(x, /*train=*/true);
      Tensor grad(Shape{4, 5}, 0.1f);
      net.backward(grad);
      opt.step(net.params());
    }
    return dynamic_cast<nn::DenseLayer*>(net.find("fc"))->weight();
  };
  EXPECT_TRUE(bitwise_equal(run(), run()));
}

// A noisy fine-tune whose every GEMM (forward, dW, dx) exceeds the
// tiny-product threshold, so it runs on the pooled kernel, and all but the
// conv1 dW and conv2 dVᵀ products span two or more row blocks, so they split
// across the pool: the dense layers at batch 160, and the conv and the
// low-rank conv layers on each sample's patch matrix (256 and 144 rows).
// It also covers the per-sample conv loop and NoisyForward's resolution of
// conv and factorised stages. The trained weights' checksum is recorded as
// the gtest property `weights_checksum`; the thread_count_invariance ctest
// (scripts/check_thread_count_invariance.py) runs this case at
// GS_NUM_THREADS 1 and 4 and requires the two checksums to be equal.
TEST(NoisyForwardTest, PooledFineTuneWeightsChecksum) {
  constexpr std::size_t kBatch = 160;
  const Shape sample{3, 20, 20};
  Rng init(4);
  nn::Network net;
  net.add(std::make_unique<nn::Conv2dLayer>(
      "conv1", nn::Conv2dSpec{3, 20, 5, 1, 0}, init));  // → 20×16×16
  net.add(std::make_unique<nn::ReluLayer>("relu1"));
  net.add(std::make_unique<nn::LowRankConv2d>(
      "conv2", nn::Conv2dSpec{20, 32, 5, 1, 0}, 12, init));  // → 32×12×12
  net.add(std::make_unique<nn::Pool2dLayer>("pool", nn::PoolMode::kMax, 2,
                                            2));  // → 32×6×6
  net.add(std::make_unique<nn::FlattenLayer>("flatten"));
  net.add(std::make_unique<nn::DenseLayer>("fc1", 32 * 6 * 6, 150, init));
  net.add(std::make_unique<nn::ReluLayer>("relu2"));
  net.add(std::make_unique<nn::DenseLayer>("fc2", 150, 10, init));
  const Tensor initial =
      dynamic_cast<nn::DenseLayer*>(net.find("fc1"))->weight();
  {
    const NoiseModel model(compile(net, sample, nonideal_options()),
                           {.seed = 31, .resample_every = 1});
    NoisyForward hook(net, model);
    nn::SgdOptimizer opt({0.05f, 0.9f, 0.0f});
    Rng rng(8);
    for (int step = 0; step < 4; ++step) {
      Tensor x(Shape{kBatch, sample[0], sample[1], sample[2]});
      x.fill_uniform(rng, -1.0f, 1.0f);
      net.zero_grads();
      net.forward(x, /*train=*/true);
      Tensor grad(Shape{kBatch, 10});
      grad.fill_uniform(rng, -0.1f, 0.1f);
      net.backward(grad);
      opt.step(net.params());
    }
  }
  EXPECT_FALSE(bitwise_equal(
      initial, dynamic_cast<nn::DenseLayer*>(net.find("fc1"))->weight()));

  std::uint64_t hash = 0;
  for (const nn::ParamRef& param : net.params()) {
    hash = (hash ^ tensor_checksum(*param.value)) * 1099511628211ULL;
  }
  char hex[20];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  RecordProperty("weights_checksum", hex);
}

TEST(NoisyForwardTest, IdealDeviceInjectsOnlyFloatRoundtrip) {
  // With every nonideality off the sampled chip realises the clean weights
  // up to the float conductance round-trip — the train forward must sit on
  // top of the clean forward to ~1e-5 relative.
  nn::Network net = dense_net(20, 12, 41);
  const CrossbarProgram program = compile(net, Shape{20});  // ideal device
  const NoiseModel model(program);
  NoisyForward hook(net, model);

  Tensor x(Shape{3, 20});
  Rng rng(7);
  x.fill_uniform(rng, -1.0f, 1.0f);
  const Tensor noisy = net.forward(x, /*train=*/true);
  const Tensor clean = net.forward(x, /*train=*/false);
  EXPECT_TRUE(allclose(noisy, clean, 1e-4f));
}

TEST(NoisyForwardTest, ConverterRoundingQuantisesTheTrainForward) {
  // DAC+ADC levels on a noise-free device: the train forward must differ
  // from the clean forward (rounding bites) while zero activations map to
  // exactly zero through the odd-count ADC.
  nn::Network net = dense_net(18, 9, 15);
  CompileOptions options;
  options.converters.dac_levels = 9;
  options.converters.adc_levels = 11;
  const NoiseModel model(compile(net, Shape{18}, options));
  NoisyForward hook(net, model);

  Tensor x(Shape{4, 18});
  Rng rng(9);
  x.fill_uniform(rng, -1.0f, 1.0f);
  const Tensor rounded = net.forward(x, /*train=*/true);
  const Tensor clean = net.forward(x, /*train=*/false);
  EXPECT_FALSE(bitwise_equal(rounded, clean));

  // An all-zero input row has scale 0: converters pass it through and the
  // output row is the bias exactly (nothing NaNs on the degenerate scale).
  Tensor zero(Shape{1, 18}, 0.0f);
  const Tensor out = net.forward(zero, /*train=*/true);
  const Tensor out_clean = net.forward(zero, /*train=*/false);
  EXPECT_TRUE(bitwise_equal(out, out_clean));
}

TEST(NoisyForwardTest, RefusesDoubleInstallation) {
  nn::Network net = dense_net(8, 4, 1);
  const NoiseModel model(compile(net, Shape{8}));
  NoisyForward first(net, model);
  EXPECT_THROW(NoisyForward second(net, model), Error);
}

TEST(NoisyForwardTest, LowRankAndDropoutStacksAreSupported) {
  Rng rng(19);
  nn::Network net;
  net.add(std::make_unique<nn::LowRankDense>("fc1", 16, 12, 5, rng));
  net.add(std::make_unique<nn::ReluLayer>("relu"));
  net.add(std::make_unique<nn::DropoutLayer>("drop", 0.25, /*run_seed=*/3));
  net.add(std::make_unique<nn::DenseLayer>("fc2", 12, 6, rng));
  const CrossbarProgram program =
      compile(net, Shape{16}, nonideal_options());
  const NoiseModel model(program, {.seed = 29});
  ASSERT_EQ(model.stages().size(), 3u);
  NoisyForward hook(net, model);

  Tensor x(Shape{5, 16});
  x.fill_uniform(rng, -1.0f, 1.0f);
  const Tensor a = net.forward(x, /*train=*/true);
  EXPECT_EQ(a.shape(), (Shape{5, 6}));
  // Clean weights restored for all three matrices.
  auto* fc1 = dynamic_cast<nn::LowRankDense*>(net.find("fc1"));
  ASSERT_NE(fc1, nullptr);
  EXPECT_EQ(hook.forwards(), 1u);
}

}  // namespace
}  // namespace gs::runtime
