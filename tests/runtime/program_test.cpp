#include "runtime/program.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "common/check.hpp"
#include "core/models.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/lowrank.hpp"
#include "runtime/lane_quantizer.hpp"

namespace gs::runtime {
namespace {

nn::Network dense_net(std::size_t in, std::size_t out, std::uint64_t seed) {
  Rng rng(seed);
  nn::Network net;
  net.add(std::make_unique<nn::DenseLayer>("fc", in, out, rng));
  return net;
}

TEST(DacAdcParamsTest, ValidateRejectsSingleLevel) {
  DacAdcParams params;
  params.dac_levels = 1;
  EXPECT_THROW(params.validate(), Error);
  params.dac_levels = 0;
  params.adc_levels = 1;
  EXPECT_THROW(params.validate(), Error);
  params.adc_levels = 2;
  EXPECT_NO_THROW(params.validate());
}

TEST(DacAdcParamsTest, ValidateCapsLevelsAtTheLaneQuantizerIndexRange) {
  // The executor's quantiser indexes converter states in int32.
  DacAdcParams params;
  params.dac_levels = kMaxConverterLevels;
  params.adc_levels = kMaxConverterLevels;
  EXPECT_NO_THROW(params.validate());
  params.dac_levels = kMaxConverterLevels + 1;
  EXPECT_THROW(params.validate(), Error);
  params.dac_levels = 255;
  params.adc_levels = kMaxConverterLevels + 1;
  EXPECT_THROW(params.validate(), Error);
}

TEST(CompileTest, LenetLowersEveryLayer) {
  Rng rng(3);
  nn::Network net = core::build_lenet(rng);
  const CrossbarProgram program = compile(net, Shape{1, 28, 28});

  ASSERT_EQ(program.steps().size(), net.layer_count());
  EXPECT_EQ(program.input_shape(), (Shape{1, 28, 28}));
  EXPECT_EQ(program.output_shape(), (Shape{10}));

  using Kind = Step::Kind;
  const std::vector<Kind> expected{Kind::kConv,    Kind::kMaxPool,
                                   Kind::kConv,    Kind::kMaxPool,
                                   Kind::kFlatten, Kind::kLinear,
                                   Kind::kRelu,    Kind::kLinear};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(program.steps()[i].kind, expected[i]) << "step " << i;
  }
  // Dense/conv layers contribute one crossbar stage each: conv1, conv2,
  // fc1, fc2.
  EXPECT_EQ(program.stage_count(), 4u);
  EXPECT_GT(program.tile_count(), 0u);
}

TEST(CompileTest, TileScheduleMatchesTileGrid) {
  nn::Network net = dense_net(800, 500, 5);
  for (const hw::MappingPolicy policy :
       {hw::MappingPolicy::kDivisorExact, hw::MappingPolicy::kPaddedMax}) {
    CompileOptions options;
    options.policy = policy;
    const CrossbarProgram program = compile(net, Shape{800}, options);
    ASSERT_EQ(program.steps().size(), 1u);
    const MatrixPlan& plan = program.steps()[0].stages.at(0);
    const hw::TileGrid grid =
        hw::make_tile_grid(800, 500, options.tech, policy);
    EXPECT_EQ(plan.grid.tile, grid.tile);
    EXPECT_EQ(plan.tile_count(), grid.tile_count());
    // Row-major schedule; every tile slice is clamped to the matrix extent.
    std::size_t index = 0;
    for (std::size_t tr = 0; tr < grid.grid_rows(); ++tr) {
      for (std::size_t tc = 0; tc < grid.grid_cols(); ++tc, ++index) {
        const hw::GroupSlice expected = hw::tile_slice(grid, tr, tc);
        const ProgramTile& tile = plan.tiles[index];
        EXPECT_EQ(tile.slice.row_begin, expected.row_begin);
        EXPECT_EQ(tile.slice.row_end, expected.row_end);
        EXPECT_EQ(tile.slice.col_begin, expected.col_begin);
        EXPECT_EQ(tile.slice.col_end, expected.col_end);
        EXPECT_EQ(tile.xbar.rows(), expected.row_end - expected.row_begin);
        EXPECT_EQ(tile.xbar.cols(), expected.col_end - expected.col_begin);
      }
    }
  }
}

TEST(CompileTest, IdealDeviceReproducesWeights) {
  nn::Network net = dense_net(96, 40, 7);
  const auto* dense = dynamic_cast<const nn::DenseLayer*>(&net.layer(0));
  ASSERT_NE(dense, nullptr);
  const CrossbarProgram program = compile(net, Shape{96});
  const MatrixPlan& plan = program.steps()[0].stages.at(0);
  for (const ProgramTile& tile : plan.tiles) {
    const Tensor& eff = tile.xbar.effective_weights();
    for (std::size_t i = tile.slice.row_begin; i < tile.slice.row_end; ++i) {
      for (std::size_t j = tile.slice.col_begin; j < tile.slice.col_end; ++j) {
        EXPECT_NEAR(eff.at(i - tile.slice.row_begin, j - tile.slice.col_begin),
                    dense->weight().at(i, j), 1e-5);
      }
    }
  }
}

TEST(CompileTest, DeletedGroupsProgramZeroPairs) {
  nn::Network net = dense_net(96, 40, 11);
  auto* dense = dynamic_cast<nn::DenseLayer*>(&net.layer(0));
  ASSERT_NE(dense, nullptr);
  // Delete matrix row 5 (a full row group of every tile column).
  for (std::size_t j = 0; j < 40; ++j) dense->weight().at(5, j) = 0.0f;

  const CrossbarProgram program = compile(net, Shape{96});
  const MatrixPlan& plan = program.steps()[0].stages.at(0);
  for (const ProgramTile& tile : plan.tiles) {
    if (tile.slice.row_begin > 5 || tile.slice.row_end <= 5) continue;
    const std::size_t local = 5 - tile.slice.row_begin;
    for (std::size_t j = 0; j < tile.xbar.cols(); ++j) {
      // Zero weight → both differential halves at g_min → exactly zero
      // effective weight (the deleted wire contributes nothing).
      EXPECT_FLOAT_EQ(tile.xbar.conductance_plus().at(local, j),
                      tile.xbar.conductance_minus().at(local, j));
      EXPECT_FLOAT_EQ(tile.xbar.effective_weights().at(local, j), 0.0f);
    }
  }
}

TEST(CompileTest, LowRankLayersLowerToTwoStages) {
  Rng rng(13);
  nn::Network net;
  net.add(std::make_unique<nn::LowRankDense>("fc1", 80, 60, 12, rng));
  const CrossbarProgram program = compile(net, Shape{80});
  ASSERT_EQ(program.steps().size(), 1u);
  const Step& step = program.steps()[0];
  ASSERT_EQ(step.stages.size(), 2u);
  EXPECT_EQ(step.stages[0].name, "fc1_u");
  EXPECT_EQ(step.stages[1].name, "fc1_v");
  EXPECT_EQ(step.stages[0].grid.rows, 80u);
  EXPECT_EQ(step.stages[0].grid.cols, 12u);
  EXPECT_EQ(step.stages[1].grid.rows, 12u);
  EXPECT_EQ(step.stages[1].grid.cols, 60u);
}

TEST(CompileTest, NonidealWeightsMatchAnalogEffectiveMatrix) {
  nn::Network net = dense_net(100, 70, 17);
  const auto* dense = dynamic_cast<const nn::DenseLayer*>(&net.layer(0));
  ASSERT_NE(dense, nullptr);

  CompileOptions options;
  options.analog.levels = 32;
  options.analog.variation_sigma = 0.05;
  options.analog.wire_resistance = 1.0;
  options.analog.seed = 99;
  const CrossbarProgram program = compile(net, Shape{100}, options);
  const MatrixPlan& plan = program.steps()[0].stages.at(0);

  // The compiler must realise exactly the nonideal weights the robustness
  // analysis computes: same tile order, same variation stream.
  const Tensor expected =
      hw::analog_effective_matrix(dense->weight(), plan.grid, options.analog);
  for (const ProgramTile& tile : plan.tiles) {
    for (std::size_t i = tile.slice.row_begin; i < tile.slice.row_end; ++i) {
      for (std::size_t j = tile.slice.col_begin; j < tile.slice.col_end; ++j) {
        EXPECT_FLOAT_EQ(
            tile.xbar.effective_weights().at(i - tile.slice.row_begin,
                                             j - tile.slice.col_begin),
            expected.at(i, j));
      }
    }
  }
}

TEST(CompileTest, RejectsEmptyNetwork) {
  nn::Network net;
  EXPECT_THROW(compile(net, Shape{10}), Error);
}

}  // namespace
}  // namespace gs::runtime
