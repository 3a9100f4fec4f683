// Extension bench (§1–2 motivation): analog memristor nonidealities versus
// network accuracy, and the crossbar-size limit.
//
// Part 1 — device variation / quantisation: program the trained LeNet's
// weight matrices into tiled analog crossbars with lognormal programming
// variation and limited conductance levels; evaluate the accuracy of the
// hardware-effective weights. Compares the dense network against the
// rank-clipped one (recovery-trained after factorisation, so both start at
// comparable digital accuracy): the clipped design has ~7× fewer memristors
// exposed to variation.
//
// Part 2 — IR-drop vs crossbar size: sweep the maximum crossbar dimension
// under a fixed per-segment wire resistance; larger tiles accumulate longer
// resistive paths, distorting far cells more than near ones. Reports both
// weight-level RMS distortion and accuracy — reproducing the qualitative
// reliability cliff that motivates the paper's 64×64 limit [10][11].
#include <iostream>

#include "bench_util.hpp"
#include "common/string_util.hpp"
#include "data/batcher.hpp"
#include "hw/analog.hpp"
#include "nn/trainer.hpp"

namespace gs {
namespace {

/// Replaces every weight matrix of `net` by its analog-effective version
/// and returns the worst per-matrix RMS weight distortion.
double apply_analog(nn::Network& net, const hw::TechnologyParams& tech,
                    const hw::AnalogParams& params) {
  double worst_rms = 0.0;
  const auto track = [&](const Tensor& ideal, const Tensor& effective) {
    worst_rms = std::max(worst_rms, hw::weight_rms_error(ideal, effective));
  };
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    for (const nn::WeightMatrix& m : net.layer(i).weight_matrices()) {
      Tensor& w = *m.value;
      const hw::TileGrid grid = hw::make_tile_grid(w.rows(), w.cols(), tech);
      Tensor effective = hw::analog_effective_matrix(w, grid, params);
      track(w, effective);
      w = std::move(effective);
    }
  }
  return worst_rms;
}

}  // namespace
}  // namespace gs

int main() {
  using namespace gs;
  const bench::TrainedModel lenet = bench::trained_lenet(bench::iters(400));
  const auto train_set = bench::mnist_train();
  const auto test_set = bench::mnist_test();
  bench::note("LeNet baseline accuracy (digital): " +
              percent(lenet.accuracy));

  // Rank-clipped counterpart at the paper's ranks, recovery-trained so the
  // comparison isolates device effects from the Direct-LRA accuracy drop.
  core::FactorizeSpec spec;
  spec.keep_dense = {core::lenet_classifier()};
  spec.ranks = {{"conv1", 5}, {"conv2", 12}, {"fc1", 36}};
  nn::Network clipped_base =
      core::to_lowrank(const_cast<nn::Network&>(lenet.net), spec);
  {
    data::Batcher batcher(train_set, 25, Rng(55));
    nn::SgdOptimizer opt(bench::lenet_sgd());
    nn::train(clipped_base, opt, batcher, bench::iters(250));
  }
  nn::Network dense_base =
      core::clone_network(const_cast<nn::Network&>(lenet.net));
  bench::note("rank-clipped digital accuracy (after recovery training): " +
              percent(nn::evaluate(clipped_base, test_set)));

  CsvWriter csv("bench_analog_robustness.csv",
                {"experiment", "x", "dense_accuracy", "clipped_accuracy",
                 "dense_rms", "clipped_rms"});

  const auto run_point = [&](const std::string& tag, double x,
                             const hw::TechnologyParams& tech,
                             const hw::AnalogParams& params) {
    nn::Network dense_copy = core::clone_network(dense_base);
    const double dense_rms = apply_analog(dense_copy, tech, params);
    const double dense_acc = nn::evaluate(dense_copy, test_set);

    nn::Network clipped_copy = core::clone_network(clipped_base);
    const double clipped_rms = apply_analog(clipped_copy, tech, params);
    const double clipped_acc = nn::evaluate(clipped_copy, test_set);

    std::cout << pad(fixed(x, 2), 9) << pad(percent(dense_acc), 10)
              << pad(percent(clipped_acc), 14)
              << pad(fixed(dense_rms, 3), 11) << fixed(clipped_rms, 3)
              << '\n';
    csv.row({tag, CsvWriter::num(x), CsvWriter::num(dense_acc),
             CsvWriter::num(clipped_acc), CsvWriter::num(dense_rms),
             CsvWriter::num(clipped_rms)});
  };

  bench::section("Part 1 — accuracy vs programming variation (64 levels)");
  std::cout << pad("sigma", 9) << pad("dense", 10) << pad("rank-clipped", 14)
            << pad("rms(dense)", 11) << "rms(clipped)\n";
  for (const double sigma : {0.0, 0.05, 0.1, 0.2, 0.4}) {
    hw::AnalogParams params;
    params.levels = 64;
    params.variation_sigma = sigma;
    params.seed = 7;
    run_point("variation", sigma, hw::paper_technology(), params);
  }

  bench::section("Part 2 — accuracy vs max crossbar size under IR-drop");
  std::cout << pad("max-dim", 9) << pad("dense", 10) << pad("rank-clipped", 14)
            << pad("rms(dense)", 11) << "rms(clipped)\n";
  for (const std::size_t dim : {16u, 32u, 64u, 128u, 256u}) {
    hw::TechnologyParams tech = hw::paper_technology();
    tech.max_crossbar_dim = dim;
    hw::AnalogParams params;
    params.wire_resistance = 50.0;  // Ω per segment
    params.seed = 9;
    run_point("ir_drop_dim", static_cast<double>(dim), tech, params);
  }

  bench::note("\nlarger crossbars accumulate longer resistive paths: the RMS "
              "distortion (and eventually accuracy) degrades with dimension, "
              "reproducing the paper's [10][11] argument for capping "
              "crossbars at 64x64");
  bench::note("CSV written to bench_analog_robustness.csv");
  return 0;
}
