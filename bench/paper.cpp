// bench_paper: the paper's evidence on the synthetic datasets — Tables 1–3,
// Figs. 3 and 5–9, the three ablations, core placement and analog
// robustness — written as one record, BENCH_paper.json.
//
// The LeNet and ConvNet baselines are trained once (400 and 350 SGD steps
// from seed 1), and every section starts from copies of them. A section
// fixes its own batcher seeds, budgets, λ and ε grids, LRA methods, lasso
// modes and analog settings, so it reproduces the same numbers whichever
// sections run before it.
//
// Every row is one BenchRecord: `name` is the section, labels hold the
// row's keys, metrics the measured values, and a `paper_<metric>` field
// sits beside each value the paper publishes (core/paper_constants). The
// sweep figures (6–8) carry no paper fields: the paper quotes operating
// points for them, not sweep points, and those print as notes. Each record
// is echoed to stdout as one JSON line. docs/BENCHMARKS.md has the schema.
//
// Usage: bench_paper [--smoke]. A full run (about four minutes at
// GS_NUM_THREADS=2) writes BENCH_paper.json and the Fig. 9 weight maps
// (bench_fig9_<matrix>.pgm) into the working directory. --smoke runs every
// section at a twentieth of the training budgets and at the end points of
// each sweep, prints its records and writes no file.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "bench_util.hpp"
#include "common/check.hpp"
#include "common/string_util.hpp"
#include "compress/connection_deletion.hpp"
#include "compress/magnitude_prune.hpp"
#include "compress/rank_clipping.hpp"
#include "core/ncs_report.hpp"
#include "core/paper_constants.hpp"
#include "data/batcher.hpp"
#include "data/synthetic_cifar.hpp"
#include "hw/analog.hpp"
#include "hw/area.hpp"
#include "hw/crossbar.hpp"
#include "hw/placement.hpp"
#include "hw/repack.hpp"
#include "hw/tiling.hpp"
#include "nn/trainer.hpp"

namespace gs {
namespace {

using bench::BenchRecord;
using Ranks = std::map<std::string, std::size_t>;

// 0.015 trains slightly faster but diverges mid-clip on the synthetic task
// (ROADMAP Direction 1); 0.01 is stable across every sweep.
const nn::SgdConfig kConvnetSgd{0.01f, 0.9f, 1e-4f};

/// The records of one run, and its training budgets.
struct Bench {
  bool smoke = false;
  std::vector<BenchRecord> records;

  /// A smoke run trains for a twentieth of each budget...
  std::size_t iters(std::size_t full) const {
    return smoke ? std::max<std::size_t>(full / 20, 1) : full;
  }
  /// ...and keeps only the end points of each sweep.
  template <typename T>
  std::vector<T> sweep(std::vector<T> points) const {
    if (smoke && points.size() > 2) points = {points.front(), points.back()};
    return points;
  }
  void emit(const BenchRecord& record) {
    std::cout << bench::to_json(record) << std::endl;
    records.push_back(record);
  }
};

/// One of the paper's networks: its trained baseline, data and SGD.
struct Subject {
  std::string name;
  bench::TrainedModel model;
  const data::Dataset& train;
  const data::Dataset& test;
  std::string classifier;  ///< kept dense, as in the paper
  core::PaperNetwork paper;
  std::size_t batch = 0;
  nn::SgdConfig sgd;
};

BenchRecord record(const std::string& section) {
  BenchRecord rec;
  rec.name = section;
  return rec;
}

/// A sweep coordinate (ε, λ, σ, …) as a label.
std::string key(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

std::string dims(std::size_t rows, std::size_t cols) {
  return std::to_string(rows) + "x" + std::to_string(cols);
}

/// The paper's Table 1 ranks of its clipped layers.
Ranks paper_ranks(const core::PaperNetwork& paper) {
  Ranks ranks;
  for (const core::PaperLayer& layer : paper.layers) {
    if (layer.clipped_rank != 0) ranks[layer.name] = layer.clipped_rank;
  }
  return ranks;
}

Ranks ranks_of(const compress::RankClippingRun& run) {
  Ranks ranks;
  for (std::size_t i = 0; i < run.layer_names.size(); ++i) {
    ranks[run.layer_names[i]] = run.final_ranks[i];
  }
  return ranks;
}

/// `<layer>_rank` per clipped layer, each followed by `paper_<layer>_rank`
/// when `paper` is not empty.
void add_ranks(BenchRecord& rec, const Subject& s, const Ranks& ranks,
               const Ranks& paper = {}) {
  for (const core::PaperLayer& layer : s.paper.layers) {
    if (layer.clipped_rank == 0) continue;
    rec.metric(layer.name + "_rank", ranks.at(layer.name));
    if (!paper.empty()) {
      rec.metric("paper_" + layer.name + "_rank", paper.at(layer.name));
    }
  }
}

/// `s`'s baseline as a low-rank network at `ranks` (empty: full rank, the
/// starting point of Algorithm 2).
nn::Network factorize(const Subject& s, const Ranks& ranks = {},
                      linalg::LraMethod method = linalg::LraMethod::kPca) {
  core::FactorizeSpec spec;
  spec.method = method;
  spec.ranks = ranks;
  spec.keep_dense = {s.classifier};
  return core::to_lowrank(s.model.net, spec);
}

/// Plain SGD steps on `net`, e.g. recovery after a hard factorisation.
void train(nn::Network& net, const Subject& s, std::uint64_t seed,
           std::size_t steps) {
  data::Batcher batcher(s.train, s.batch, Rng(seed));
  nn::SgdOptimizer opt(s.sgd);
  nn::train(net, opt, batcher, steps);
}

/// Algorithm 2 on `net` with `s`'s SGD, clipping every 30 steps.
compress::RankClippingRun clip(
    nn::Network& net, const Subject& s, std::uint64_t seed, double epsilon,
    std::size_t budget, linalg::LraMethod method = linalg::LraMethod::kPca,
    const std::function<void(nn::Network&, compress::ClipSnapshot&)>&
        on_snapshot = {}) {
  data::Batcher batcher(s.train, s.batch, Rng(seed));
  nn::SgdOptimizer opt(s.sgd);
  compress::RankClippingConfig config;
  config.method = method;
  config.epsilon = epsilon;
  config.clip_interval = 30;
  config.max_iterations = budget;
  return compress::run_rank_clipping(net, opt, batcher, config, on_snapshot);
}

compress::DeletionConfig deletion_config(double lambda, std::size_t train,
                                         std::size_t finetune) {
  compress::DeletionConfig config;
  config.lasso.lambda = lambda;
  config.tech = hw::paper_technology();
  config.train_iterations = train;
  config.finetune_iterations = finetune;
  config.record_interval = 0;
  return config;
}

/// Group connection deletion on `net`: SGD at `lr`, momentum 0.9 and no
/// weight decay.
compress::DeletionResult delete_groups(nn::Network& net, const Subject& s,
                                       std::uint64_t seed, float lr,
                                       const compress::DeletionConfig& config) {
  data::Batcher batcher(s.train, s.batch, Rng(seed));
  nn::SgdOptimizer opt({lr, 0.9f, 0.0f});
  return compress::run_group_connection_deletion(net, opt, batcher, s.test,
                                                 0, config);
}

BenchRecord& add_accuracies(BenchRecord& rec,
                            const compress::DeletionResult& result) {
  return rec.metric("accuracy_before", result.accuracy_before)
      .metric("accuracy_after_deletion", result.accuracy_after_lasso)
      .metric("accuracy_finetuned", result.accuracy_after_finetune);
}

// --- Sections ---------------------------------------------------------------

/// Table 2: the NCS model's parameters, plus the library and the MBC sizes
/// they give Table 3's matrices.
void table2(Bench& b) {
  bench::section("Table 2 — experiment parameters");
  const hw::TechnologyParams tech = hw::paper_technology();
  const hw::CrossbarLibrary lib(tech);
  const hw::CrossbarSpec max_xb{tech.max_crossbar_dim, tech.max_crossbar_dim};
  b.emit(record("table2")
             .metric("cell_area_f2", tech.cell_area_f2)
             .metric("max_crossbar_dim", tech.max_crossbar_dim)
             .metric("wire_pitch_f", tech.wire_pitch_f)
             .metric("library_size", lib.size())
             .metric("max_crossbar_area_f2", max_xb.area_f2(tech))
             .metric("max_crossbar_wires", max_xb.wires()));
  for (const auto& [network, rows] :
       {std::pair{"LeNet", core::paper_lenet_table3()},
        std::pair{"ConvNet", core::paper_convnet_table3()}}) {
    for (const core::PaperWireRow& row : rows) {
      const hw::CrossbarArea area = hw::crossbar_area(row.rows, row.cols, tech);
      const hw::CrossbarSpec mbc =
          hw::select_mbc_size(row.rows, row.cols, tech);
      b.emit(record("table2")
                 .label("network", network)
                 .label("matrix", row.name)
                 .label("size", dims(row.rows, row.cols))
                 .label("mbc", mbc.to_string())
                 .label("paper_mbc", row.mbc.to_string())
                 .metric("tiles", area.tile_count)
                 .metric("area_f2", area.area_f2));
    }
  }
}

/// Table 1: Original vs Direct LRA vs Rank clipping. Direct LRA factorises
/// the baseline at the ranks clipping reached, without retraining.
void table1(Bench& b, const Subject& s, std::size_t budget) {
  bench::section("Table 1 — " + s.name);
  nn::Network clipped = factorize(s);
  const Ranks ranks = ranks_of(clip(clipped, s, 11, 0.03, b.iters(budget)));
  nn::Network direct = factorize(s, ranks);

  Ranks full;
  for (const core::PaperLayer& layer : s.paper.layers) {
    full[layer.name] = layer.m;
  }
  const auto row = [&](const char* method, double accuracy, double paper) {
    BenchRecord rec = record("table1");
    rec.label("network", s.name)
        .label("method", method)
        .metric("accuracy", accuracy)
        .metric("paper_accuracy", paper);
    return rec;
  };
  BenchRecord original =
      row("Original", s.model.accuracy, s.paper.baseline_accuracy);
  add_ranks(original, s, full, full);
  b.emit(original);
  BenchRecord lra = row("Direct LRA", nn::evaluate(direct, s.test),
                        s.paper.direct_lra_accuracy);
  add_ranks(lra, s, ranks, paper_ranks(s.paper));
  b.emit(lra);
  BenchRecord clipping = row("Rank clipping", nn::evaluate(clipped, s.test),
                             s.paper.rank_clipping_accuracy);
  add_ranks(clipping, s, ranks, paper_ranks(s.paper));
  clipping
      .metric("crossbar_area_ratio",
              core::build_ncs_report(clipped, hw::paper_technology())
                  .crossbar_area_ratio())
      .metric("paper_crossbar_area_ratio", s.paper.crossbar_area_ratio);
  b.emit(clipping);
}

/// Table 3: MBC sizes and remaining routing wires of the big matrices after
/// group deletion at the paper's Table 1 ranks, matched to the paper's rows
/// by matrix dimensions.
void table3(Bench& b, const Subject& s,
            const std::vector<core::PaperWireRow>& paper_rows, double lambda,
            std::size_t train, std::size_t finetune) {
  bench::section("Table 3 — " + s.name);
  nn::Network net = factorize(s, paper_ranks(s.paper));
  const compress::DeletionResult result =
      delete_groups(net, s, 21, s.sgd.learning_rate,
                    deletion_config(lambda, b.iters(train), b.iters(finetune)));
  for (const core::PaperWireRow& paper : paper_rows) {
    const auto match = std::find_if(
        result.reports.begin(), result.reports.end(), [&](const auto& r) {
          return r.rows == paper.rows && r.cols == paper.cols;
        });
    if (match == result.reports.end()) {
      bench::note(paper.name + ": matrix not present at these ranks");
      continue;
    }
    b.emit(record("table3")
               .label("network", s.name)
               .label("matrix", paper.name)
               .label("size", dims(paper.rows, paper.cols))
               .label("mbc", match->mbc.to_string())
               .label("paper_mbc", paper.mbc.to_string())
               .metric("wires_ratio", match->wires.remaining_ratio())
               .metric("paper_wires_ratio", paper.wire_pct));
  }
  BenchRecord summary = record("table3");
  summary.label("network", s.name);
  add_accuracies(summary, result)
      .metric("mean_routing_area_ratio", result.mean_routing_area_ratio)
      .metric("paper_mean_routing_area_ratio", s.paper.routing_area_ratio);
  b.emit(summary);
}

/// Fig. 3: rank ratios K/M and test accuracy after each clip of LeNet.
void fig3(Bench& b, const Subject& s) {
  bench::section("Figure 3 — rank ratios and accuracy during rank clipping");
  nn::Network net = factorize(s);
  const compress::RankClippingRun run = clip(
      net, s, 31, 0.03, b.iters(900), linalg::LraMethod::kPca,
      [&](nn::Network& n, compress::ClipSnapshot& snap) {
        BenchRecord rec = record("fig3");
        rec.label("iteration", std::to_string(snap.iteration));
        for (std::size_t i = 0; i < snap.ranks.size(); ++i) {
          rec.metric(snap.layer_names[i] + "_ratio",
                     static_cast<double>(snap.ranks[i]) /
                         static_cast<double>(snap.full_ranks[i]));
        }
        b.emit(rec.metric("accuracy", nn::evaluate(n, s.test)));
      });
  BenchRecord final_row = record("fig3");
  final_row.label("iteration", "final");
  add_ranks(final_row, s, ranks_of(run), paper_ranks(s.paper));
  b.emit(final_row.metric("accuracy", nn::evaluate(net, s.test))
             .metric("baseline_accuracy", s.model.accuracy));
}

/// Fig. 5: deleted routing wires per big matrix during group deletion of
/// the rank-clipped LeNet, with the proximal lasso (exact zeros every step)
/// and with the paper's Eq. (6) subgradient (wires only approach zero until
/// the final snap, so the census counts a wire once its group norm is under
/// the snap tolerance).
void fig5(Bench& b, const Subject& s) {
  bench::section("Figure 5 — deleted routing wires during group deletion");
  // The paper-rank starting point, briefly retrained after the hard
  // factorisation; both modes start from copies of it.
  nn::Network start = factorize(s, paper_ranks(s.paper));
  train(start, s, 41, b.iters(100));
  const double start_accuracy = nn::evaluate(start, s.test);

  for (const compress::LassoMode mode :
       {compress::LassoMode::kProximal, compress::LassoMode::kGradient}) {
    const std::string mode_name =
        mode == compress::LassoMode::kProximal ? "proximal" : "gradient";
    nn::Network net = core::clone_network(start);
    compress::DeletionConfig config =
        deletion_config(1e-1, b.iters(400), b.iters(200));
    config.lasso.mode = mode;
    config.record_interval = b.iters(40);
    if (mode == compress::LassoMode::kGradient) {
      // The Eq. (6) subgradient pushes EVERY weight by λ each step (unit
      // group direction), so the proximal-mode λ would flatten the whole
      // network within an epoch; run an order of magnitude gentler.
      config.lasso.lambda = 1e-2;
      // Subgradient descent oscillates around zero with group-norm
      // amplitude ≈ η·λ/(1 − momentum) = 0.02·0.01/0.1 = 2e-3; snap (and
      // census) just above that floor.
      config.snap_tolerance = 8e-3;
    }
    const compress::DeletionResult result =
        delete_groups(net, s, 42, 0.02f, config);

    for (const compress::DeletionSnapshot& snap : result.dynamics) {
      BenchRecord rec = record("fig5");
      rec.label("mode", mode_name)
          .label("iteration", std::to_string(snap.iteration));
      for (std::size_t i = 0; i < snap.names.size(); ++i) {
        rec.metric(snap.names[i] + "_deleted", snap.deleted_wire_ratio[i]);
      }
      b.emit(rec.metric("train_accuracy", snap.train_accuracy));
    }
    for (const compress::MatrixWireReport& r : result.reports) {
      BenchRecord rec = record("fig5");
      rec.label("mode", mode_name)
          .label("matrix", r.name)
          .metric("deleted_ratio", 1.0 - r.wires.remaining_ratio())
          .metric("wires", r.wires.total);
      if (r.name == "fc1_v") {
        rec.metric("paper_deleted_ratio", core::kPaperLenetFc1vDeletedRatio);
      }
      b.emit(rec);
    }
    // The paper's qualitative claim: the deleted-wire curves rise.
    const auto mean = [](const std::vector<double>& v) {
      double m = 0.0;
      for (double d : v) m += d / v.size();
      return m;
    };
    const double first = mean(result.dynamics.front().deleted_wire_ratio);
    const double last = mean(result.dynamics.back().deleted_wire_ratio);
    bench::note(std::string("mean deleted-wire ratio ") +
                (last > first ? "rising" : "NOT rising"));
    BenchRecord summary = record("fig5");
    summary.label("mode", mode_name)
        .metric("rank_clipped_accuracy", start_accuracy)
        .metric("first_mean_deleted", first)
        .metric("last_mean_deleted", last);
    b.emit(add_accuracies(summary, result));
  }
}

/// Fig. 6: LeNet's remaining ranks versus the tolerable clipping error ε.
void fig6(Bench& b, const Subject& s) {
  bench::section("Figure 6 — remaining ranks vs tolerable clipping error");
  Ranks prev;
  for (const double eps :
       b.sweep<double>({0.005, 0.01, 0.02, 0.03, 0.05, 0.08, 0.12, 0.2})) {
    nn::Network net = factorize(s);
    const Ranks ranks = ranks_of(clip(net, s, 51, eps, b.iters(450)));
    BenchRecord rec = record("fig6");
    rec.label("epsilon", key(eps));
    add_ranks(rec, s, ranks);
    b.emit(rec.metric("accuracy", nn::evaluate(net, s.test)));
    // The Fig. 6 invariant: a larger ε never yields a larger rank.
    for (const auto& [layer, rank] : ranks) {
      if (!prev.empty() && rank > prev.at(layer)) {
        bench::note("WARNING: rank of " + layer + " increased with epsilon");
      }
    }
    prev = ranks;
  }
  std::vector<std::string> no_loss;
  std::vector<std::string> lossy;
  for (const core::PaperLayer& layer : s.paper.layers) {
    if (layer.clipped_rank == 0) continue;
    no_loss.push_back(std::to_string(layer.clipped_rank));
    lossy.push_back(std::to_string(layer.lossy_rank));
  }
  bench::note("paper (real MNIST): ranks " + join(no_loss, "/") +
              " with no accuracy loss, " + join(lossy, "/") +
              " with about 1% loss");
}

/// Fig. 7: per-layer factor area (N·K + K·M)/(N·M) and total crossbar area
/// versus classification error, over ε.
void fig7(Bench& b, const Subject& s, const std::vector<double>& epsilons) {
  bench::section("Figure 7 — " + s.name + " crossbar area vs error");
  for (const double eps : b.sweep(epsilons)) {
    nn::Network net = factorize(s);
    try {
      clip(net, s, 61, eps, b.iters(360));
    } catch (const Error& e) {
      // A sweep point can diverge on an unlucky clip; report and move on.
      bench::note("eps=" + key(eps) + ": " + e.what());
      continue;
    }
    BenchRecord rec = record("fig7");
    rec.label("network", s.name)
        .label("epsilon", key(eps))
        .metric("error", 1.0 - nn::evaluate(net, s.test));
    for (nn::FactorizedLayer* f : net.factorized_layers()) {
      rec.metric(f->factor_name() + "_area",
                 hw::compare_factor_area(f->full_rows(), f->full_cols(),
                                         f->current_rank())
                     .ratio());
    }
    b.emit(rec.metric("total_area",
                      core::build_ncs_report(net, hw::paper_technology())
                          .crossbar_area_ratio()));
  }
  bench::note("paper (real data): total area " +
              percent(s.paper.crossbar_area_ratio) +
              " with no accuracy loss, " +
              percent(s.paper.crossbar_area_ratio_lossy) +
              " with about 1% loss");
}

/// Fig. 8: ConvNet's remaining routing wires and Eq. (8) routing area per
/// matrix versus the error after fine-tuning, over λ.
void fig8(Bench& b, const Subject& s) {
  bench::section("Figure 8 — ConvNet routing wires and area vs error");
  for (const double lambda : b.sweep<double>({1e-2, 3e-2, 6e-2, 1e-1})) {
    nn::Network net = factorize(s, paper_ranks(s.paper));
    train(net, s, 71, b.iters(60));
    compress::DeletionResult result;
    try {
      result = delete_groups(
          net, s, 72, 0.01f,
          deletion_config(lambda, b.iters(200), b.iters(100)));
    } catch (const Error& e) {
      bench::note("lambda=" + key(lambda) + ": " + e.what());
      continue;
    }
    for (const compress::MatrixWireReport& r : result.reports) {
      b.emit(record("fig8")
                 .label("lambda", key(lambda))
                 .label("matrix", r.name)
                 .metric("error", 1.0 - result.accuracy_after_finetune)
                 .metric("wire_ratio", r.wires.remaining_ratio())
                 .metric("area_ratio", r.routing_area_ratio));
    }
  }
  std::vector<std::string> areas;
  for (const double a : core::paper_convnet_fig8_routing_area()) {
    areas.push_back(percent(a));
  }
  bench::note("paper (real CIFAR, about 1.5% extra error): routing area " +
              join(areas, " / ") + " per layer");
}

/// Writes a PGM (portable graymap) of |w| with faint tile separators.
void write_pgm(const std::string& path, const Tensor& w,
               const hw::TileGrid& grid) {
  float max_abs = 1e-12f;
  for (std::size_t i = 0; i < w.numel(); ++i) {
    max_abs = std::max(max_abs, std::fabs(w[i]));
  }
  std::ofstream out(path);
  out << "P2\n" << w.cols() << ' ' << w.rows() << "\n255\n";
  for (std::size_t i = 0; i < w.rows(); ++i) {
    for (std::size_t j = 0; j < w.cols(); ++j) {
      const bool boundary = (i % grid.tile.rows == 0 && i > 0) ||
                            (j % grid.tile.cols == 0 && j > 0);
      int v = static_cast<int>(255.0f * std::fabs(w.at(i, j)) / max_abs);
      if (boundary && v == 0) v = 32;  // faint grid on empty regions
      out << v << (j + 1 == w.cols() ? '\n' : ' ');
    }
  }
  GS_CHECK_MSG(out.good(), "failed writing " << path);
}

/// Fig. 9: ConvNet's weight matrices after group deletion on the crossbar
/// tile grid — whole crossbars emptied, and zero rows and columns inside
/// the rest (room for a smaller dense crossbar). A full run writes each
/// matrix as bench_fig9_<matrix>.pgm.
void fig9(Bench& b, const Subject& s) {
  bench::section("Figure 9 — weight maps after group connection deletion");
  nn::Network net = factorize(s, paper_ranks(s.paper));
  const compress::DeletionConfig config =
      deletion_config(4e-2, b.iters(250), b.iters(100));
  const compress::DeletionResult result =
      delete_groups(net, s, 81, 0.015f, config);
  b.emit(record("fig9")
             .metric("accuracy_finetuned", result.accuracy_after_finetune)
             .metric("baseline_accuracy", s.model.accuracy));

  compress::GroupLassoRegularizer reg(net, config.tech, config.lasso);
  for (const compress::LassoTarget& target : reg.targets()) {
    const Tensor& w = target.values();
    if (!b.smoke) {
      write_pgm("bench_fig9_" + target.name + ".pgm", w, target.grid);
    }
    std::size_t empty = 0;
    std::size_t zero_rows = 0;
    std::size_t zero_cols = 0;
    const auto tiles = hw::analyze_tiles(w, target.grid);
    for (const hw::TileOccupancy& occ : tiles) {
      if (occ.empty()) ++empty;
      // Logical extents: ragged edge tiles have fewer rows and columns than
      // the library crossbar.
      zero_rows += occ.rows - occ.nonzero_rows;
      zero_cols += occ.cols - occ.nonzero_cols;
    }
    b.emit(record("fig9")
               .label("matrix", target.name)
               .label("size", dims(w.rows(), w.cols()))
               .metric("tiles", tiles.size())
               .metric("empty_tiles", empty)
               .metric("zero_rows", zero_rows)
               .metric("zero_cols", zero_cols)
               .metric("nnz_ratio",
                       1.0 - static_cast<double>(w.count_zeros()) / w.numel()));
  }
}

/// Fig. 9's closing observation: crossbar cells kept per matrix after
/// group deletion of the paper-rank LeNet, with empty tiles removed and
/// zero rows and columns repacked.
void ablation_repack(Bench& b, const Subject& s) {
  bench::section("Ablation — crossbar repacking after group deletion");
  nn::Network net = factorize(s, paper_ranks(s.paper));
  const compress::DeletionConfig config =
      deletion_config(1e-1, b.iters(400), b.iters(200));
  const compress::DeletionResult result =
      delete_groups(net, s, 101, 0.02f, config);

  compress::GroupLassoRegularizer reg(net, config.tech, config.lasso);
  std::size_t total_original = 0;
  std::size_t total_repacked = 0;
  std::size_t total_removed = 0;
  for (const compress::LassoTarget& target : reg.targets()) {
    const hw::RepackReport report =
        hw::repack_tiles(target.values(), target.grid);
    b.emit(record("ablation_repack")
               .label("matrix", target.name)
               .metric("tiles", report.tiles.size())
               .metric("removed_tiles", report.removed_tiles)
               .metric("cells_kept_ratio", report.cell_ratio())
               .metric("wires_kept_ratio", report.wire_ratio()));
    total_original += report.original_cells;
    total_repacked += report.repacked_cells;
    total_removed += report.removed_tiles;
  }
  b.emit(record("ablation_repack")
             .metric("accuracy_finetuned", result.accuracy_after_finetune)
             .metric("cells_kept_ratio",
                     total_original == 0
                         ? 1.0
                         : static_cast<double>(total_repacked) /
                               static_cast<double>(total_original))
             .metric("removed_tiles", total_removed));
}

/// §3.1: rank clipping with PCA, SVD and centered PCA. Uncentered PCA and
/// SVD factor the same Gram spectrum, so they clip to the same ranks; the
/// paper's gap (its SVD is worse) points at an implementation difference
/// such as centering, the third variant.
void ablation_svd_vs_pca(Bench& b, const Subject& s) {
  bench::section("Ablation — LRA backend (PCA vs SVD vs centered PCA)");
  for (const linalg::LraMethod method :
       {linalg::LraMethod::kPca, linalg::LraMethod::kSvd,
        linalg::LraMethod::kPcaCentered}) {
    nn::Network net = factorize(s, {}, method);
    const Ranks ranks = ranks_of(clip(net, s, 91, 0.03, b.iters(600), method));
    BenchRecord rec = record("ablation_svd_vs_pca");
    rec.label("method", to_string(method));
    add_ranks(rec, s, ranks);
    rec.metric("area_ratio",
               core::build_ncs_report(net, hw::paper_technology())
                   .crossbar_area_ratio());
    if (method == linalg::LraMethod::kPca) {
      rec.metric("paper_area_ratio", s.paper.crossbar_area_ratio);
    } else if (method == linalg::LraMethod::kSvd) {
      rec.metric("paper_area_ratio", core::PaperSvdAblation{}.lenet_area_ratio);
    }
    b.emit(rec.metric("accuracy", nn::evaluate(net, s.test)));
  }
}

/// §3.2's closing argument: structured group deletion against magnitude
/// pruning at the same weight sparsity per matrix. A wire survives while
/// any weight of its group is nonzero, so random sparsity deletes almost
/// none; the i.i.d. prediction 1 − (1 − p)^G sits beside the measurement.
void ablation_unstructured(Bench& b, const Subject& s) {
  bench::section("Ablation — structured deletion vs unstructured sparsity");
  nn::Network structured = factorize(s, paper_ranks(s.paper));
  nn::Network unstructured = factorize(s, paper_ranks(s.paper));
  const compress::DeletionConfig config =
      deletion_config(1e-1, b.iters(350), b.iters(150));
  const compress::DeletionResult result =
      delete_groups(structured, s, 95, 0.02f, config);

  compress::GroupLassoRegularizer struct_reg(structured, config.tech,
                                             config.lasso);
  compress::GroupLassoRegularizer unstruct_reg(unstructured, config.tech,
                                               config.lasso);
  const auto& s_targets = struct_reg.targets();
  const auto& u_targets = unstruct_reg.targets();
  for (std::size_t t = 0; t < s_targets.size(); ++t) {
    const Tensor& sw = s_targets[t].values();
    Tensor& uw = u_targets[t].values();
    const double sparsity = compress::sparsity_of(sw);
    compress::apply_magnitude_pruning(uw, sparsity);
    // The i.i.d. prediction, averaged over the tiling's two group shapes.
    const hw::TileGrid& grid = s_targets[t].grid;
    const double p = 1.0 - sparsity;
    const double analytic =
        (compress::expected_random_wire_survival(p, grid.tile.cols) *
             grid.row_group_count() +
         compress::expected_random_wire_survival(p, grid.tile.rows) *
             grid.col_group_count()) /
        grid.total_wires();
    b.emit(record("ablation_unstructured")
               .label("matrix", s_targets[t].name)
               .metric("sparsity", sparsity)
               .metric("structured_wires",
                       hw::count_routing_wires(sw, grid).remaining_ratio())
               .metric("random_wires",
                       hw::count_routing_wires(uw, u_targets[t].grid)
                           .remaining_ratio())
               .metric("analytic_random_wires", analytic));
  }
  b.emit(record("ablation_unstructured")
             .metric("structured_accuracy", result.accuracy_after_finetune)
             .metric("unstructured_accuracy",
                     nn::evaluate(unstructured, s.test)));
}

/// §1: inter-crossbar communication of the paper-rank LeNet design, before
/// and after group deletion, with row-major and annealed core placement.
void placement(Bench& b, const Subject& s) {
  bench::section("Placement — inter-crossbar wire cost (LeNet design)");
  nn::Network net = factorize(s, paper_ranks(s.paper));
  const hw::TechnologyParams tech = hw::paper_technology();
  const auto placed = [&](const std::string& config) {
    compress::GroupLassoRegularizer reg(net, tech, {});
    std::vector<hw::MappedMatrix> matrices;
    for (const compress::LassoTarget& target : reg.targets()) {
      matrices.push_back({target.name, &target.values()});
    }
    const hw::CommGraph graph = hw::build_comm_graph(matrices, tech);
    const hw::Placement row_major = hw::row_major_placement(graph);
    hw::AnnealConfig anneal;
    anneal.iterations = 20000;
    const double base = hw::wire_cost(graph, row_major);
    const double annealed =
        hw::wire_cost(graph, hw::anneal_placement(graph, row_major, anneal));
    BenchRecord rec = record("placement");
    rec.label("config", config)
        .metric("tiles", graph.nodes.size())
        .metric("graph_weight", graph.total_weight())
        .metric("row_major_cost", base)
        .metric("annealed_cost", annealed)
        .metric("annealed_ratio", base > 0 ? annealed / base : 1.0);
    return rec;
  };
  b.emit(placed("before-deletion"));
  const compress::DeletionResult result = delete_groups(
      net, s, 111, 0.02f, deletion_config(1e-1, b.iters(400), b.iters(200)));
  b.emit(placed("after-deletion")
             .metric("wires_kept_ratio", result.mean_wire_ratio)
             .metric("accuracy_finetuned", result.accuracy_after_finetune));
}

/// Replaces every weight matrix of `net` by its analog-effective version
/// and returns the worst per-matrix RMS weight distortion.
double apply_analog(nn::Network& net, const hw::TechnologyParams& tech,
                    const hw::AnalogParams& params) {
  double worst_rms = 0.0;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    for (const nn::WeightMatrix& m : net.layer(i).weight_matrices()) {
      Tensor& w = *m.value;
      Tensor effective = hw::analog_effective_matrix(
          w, hw::make_tile_grid(w.rows(), w.cols(), tech), params);
      worst_rms = std::max(worst_rms, hw::weight_rms_error(w, effective));
      w = std::move(effective);
    }
  }
  return worst_rms;
}

/// §1–2: accuracy of the dense and the paper-rank LeNet programmed into
/// analog crossbars — under programming variation (64 levels), and under
/// IR drop as the crossbar size limit grows, the reliability argument
/// behind the paper's 64×64 limit. The rank-clipped net is retrained after
/// factorisation, so both start near the same digital accuracy.
void analog(Bench& b, const Subject& s) {
  bench::section("Analog robustness — variation and IR drop");
  nn::Network clipped = factorize(s, paper_ranks(s.paper));
  train(clipped, s, 55, b.iters(250));
  b.emit(record("analog")
             .metric("dense_accuracy", s.model.accuracy)
             .metric("clipped_accuracy", nn::evaluate(clipped, s.test)));

  const auto point = [&](const char* experiment, double x,
                         const hw::TechnologyParams& tech,
                         const hw::AnalogParams& params) {
    nn::Network dense_copy = core::clone_network(s.model.net);
    const double dense_rms = apply_analog(dense_copy, tech, params);
    nn::Network clipped_copy = core::clone_network(clipped);
    const double clipped_rms = apply_analog(clipped_copy, tech, params);
    b.emit(record("analog")
               .label("experiment", experiment)
               .label("x", key(x))
               .metric("dense_accuracy", nn::evaluate(dense_copy, s.test))
               .metric("clipped_accuracy", nn::evaluate(clipped_copy, s.test))
               .metric("dense_rms", dense_rms)
               .metric("clipped_rms", clipped_rms));
  };
  for (const double sigma : b.sweep<double>({0.0, 0.05, 0.1, 0.2, 0.4})) {
    hw::AnalogParams params;
    params.levels = 64;
    params.variation_sigma = sigma;
    params.seed = 7;
    point("variation_sigma", sigma, hw::paper_technology(), params);
  }
  for (const std::size_t dim :
       b.sweep<std::size_t>({16, 32, 64, 128, 256})) {
    hw::TechnologyParams tech = hw::paper_technology();
    tech.max_crossbar_dim = dim;
    hw::AnalogParams params;
    params.wire_resistance = 50.0;  // Ω per segment
    params.seed = 9;
    point("ir_drop_max_dim", static_cast<double>(dim), tech, params);
  }
}

bench::TrainedModel trained_convnet(std::size_t iterations,
                                    const data::Dataset& train,
                                    const data::Dataset& test) {
  Rng rng(1);
  bench::TrainedModel model{core::build_convnet(rng), 0.0};
  data::Batcher batcher(train, 16, Rng(8));
  nn::SgdOptimizer opt(kConvnetSgd);
  nn::train(model.net, opt, batcher, iterations);
  model.accuracy = nn::evaluate(model.net, test);
  return model;
}

}  // namespace
}  // namespace gs

int main(int argc, char** argv) {
  using namespace gs;
  Bench b;
  b.smoke = bench::smoke_flag(argc, argv);

  const data::SyntheticMnist mnist_train = bench::mnist_train();
  const data::SyntheticMnist mnist_test = bench::mnist_test();
  const data::SyntheticCifar cifar_train(3003, 500);
  const data::SyntheticCifar cifar_test(4004, 200);
  const Subject lenet{"LeNet",
                      bench::trained_lenet(b.iters(400)),
                      mnist_train,
                      mnist_test,
                      core::lenet_classifier(),
                      core::paper_lenet(),
                      25,
                      bench::lenet_sgd()};
  const Subject convnet{"ConvNet",
                        trained_convnet(b.iters(350), cifar_train, cifar_test),
                        cifar_train,
                        cifar_test,
                        core::convnet_classifier(),
                        core::paper_convnet(),
                        16,
                        kConvnetSgd};

  table2(b);
  table1(b, lenet, 900);
  table1(b, convnet, 600);
  table3(b, lenet, core::paper_lenet_table3(), 1e-1, 400, 200);
  table3(b, convnet, core::paper_convnet_table3(), 1.5e-1, 300, 120);
  fig3(b, lenet);
  fig5(b, lenet);
  fig6(b, lenet);
  fig7(b, lenet, {0.01, 0.03, 0.06, 0.12, 0.2});
  fig7(b, convnet, {0.01, 0.05, 0.15});
  fig8(b, convnet);
  fig9(b, convnet);
  ablation_repack(b, lenet);
  ablation_svd_vs_pca(b, lenet);
  ablation_unstructured(b, lenet);
  placement(b, lenet);
  analog(b, lenet);

  if (!b.smoke) {  // a smoke run never overwrites the full-budget record
    bench::write_bench_json("BENCH_paper.json", "paper", b.records);
    bench::note("\nwrote BENCH_paper.json");
  }
  return 0;
}
