// One name source: Layer::weight_matrices() names every crossbar matrix, and
// compile()'s stages, the NCS report, the noise model and the group-Lasso
// targets all read it — so their names and orders cannot drift apart.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "compress/group_lasso.hpp"
#include "core/models.hpp"
#include "core/ncs_report.hpp"
#include "runtime/noise_model.hpp"
#include "runtime/program.hpp"

namespace gs::core {
namespace {

std::vector<std::string> matrix_names(const nn::Network& net) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    for (const nn::WeightMatrix& m : net.layer(i).weight_matrices()) {
      names.push_back(m.name);
    }
  }
  return names;
}

std::vector<std::string> lasso_target_names(nn::Network& net,
                                            bool skip_single_crossbar) {
  compress::GroupLassoConfig config;
  config.skip_single_crossbar = skip_single_crossbar;
  const compress::GroupLassoRegularizer reg(net, hw::TechnologyParams{},
                                            config);
  std::vector<std::string> names;
  for (const compress::LassoTarget& target : reg.targets()) {
    names.push_back(target.name);
  }
  return names;
}

void expect_one_name_source(nn::Network& net, const Shape& sample_shape) {
  const std::vector<std::string> names = matrix_names(net);
  ASSERT_FALSE(names.empty());

  const runtime::CrossbarProgram program = runtime::compile(net, sample_shape);
  std::vector<std::string> stages;
  for (const runtime::Step& step : program.steps()) {
    for (const runtime::MatrixPlan& plan : step.stages) {
      stages.push_back(plan.name);
    }
  }
  EXPECT_EQ(stages, names);

  const NcsReport report = build_ncs_report(net, hw::TechnologyParams{});
  std::vector<std::string> reported;
  for (const MatrixReport& m : report.matrices) {
    reported.push_back(m.name);
  }
  EXPECT_EQ(reported, names);

  const runtime::NoiseModel model(program);
  std::vector<std::string> noise;
  for (const runtime::NoiseModel::Stage& stage : model.stages()) {
    noise.push_back(stage.name);
  }
  EXPECT_EQ(noise, names);

  EXPECT_EQ(lasso_target_names(net, /*skip_single_crossbar=*/false), names);
}

// The low-rank LeNet the serving benchmark builds: ranks 12/24/127 with the
// classifier kept dense.
TEST(WeightMatrices, OneNameSourceLowRankLeNet) {
  Rng rng(1);
  const nn::Network dense = build_lenet(rng);
  FactorizeSpec spec;
  spec.ranks = {{"conv1", 12}, {"conv2", 24}, {"fc1", 127}};
  spec.keep_dense = {lenet_classifier()};
  nn::Network net = to_lowrank(dense, spec);

  expect_one_name_source(net, Shape{1, 28, 28});
  EXPECT_EQ(matrix_names(net),
            (std::vector<std::string>{"conv1_u", "conv1_v", "conv2_u",
                                      "conv2_v", "fc1_u", "fc1_v", "fc2"}));
  // The benchmark's deletion set-up looks its targets up by these names.
  EXPECT_EQ(lasso_target_names(net, /*skip_single_crossbar=*/true),
            (std::vector<std::string>{"conv2_u", "fc1_u", "fc1_v", "fc2"}));
}

TEST(WeightMatrices, OneNameSourceConvNet) {
  Rng rng(2);
  nn::Network net = build_convnet(rng);
  expect_one_name_source(net, Shape{3, 32, 32});
  EXPECT_EQ(matrix_names(net), (std::vector<std::string>{"conv1", "conv2",
                                                         "conv3", "fc1"}));
}

}  // namespace
}  // namespace gs::core
