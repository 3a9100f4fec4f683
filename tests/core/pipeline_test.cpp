// Integration test of the full Group Scissor pipeline on a reduced-scale
// LeNet/synthetic-MNIST configuration — every stage must run and the
// qualitative paper claims must hold (area shrinks, wires get deleted,
// accuracy stays in a sane band).
#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "data/synthetic_mnist.hpp"
#include "hw/tiling.hpp"
#include "nn/trainer.hpp"
#include "runtime/health.hpp"

namespace gs::core {
namespace {

PipelineConfig small_config() {
  PipelineConfig config;
  config.seed = 7;
  config.pretrain.iterations = 250;
  config.pretrain.batch_size = 25;
  config.pretrain.sgd = {0.02f, 0.9f, 1e-4f};

  config.clipping.epsilon = 0.05;
  config.clipping.clip_interval = 60;
  config.clipping.max_iterations = 240;
  config.clipping_phase.batch_size = 25;
  config.clipping_phase.sgd = {0.01f, 0.9f, 1e-4f};

  config.deletion.lasso.lambda = 1e-1;
  config.deletion.train_iterations = 200;
  config.deletion.finetune_iterations = 120;
  config.deletion.record_interval = 50;
  config.deletion_phase.batch_size = 25;
  config.deletion_phase.sgd = {0.02f, 0.9f, 0.0f};

  config.keep_dense = {lenet_classifier()};
  config.eval_samples = 100;
  config.sharded_eval_replicas = 2;  // exercise the sharded serving report

  // Final stage: noise-injected fine-tune for a mildly nonideal device.
  config.nonideal_finetune.enabled = true;
  config.nonideal_finetune.phase.iterations = 60;
  config.nonideal_finetune.phase.batch_size = 25;
  config.nonideal_finetune.phase.sgd = {0.005f, 0.9f, 0.0f};
  config.nonideal_finetune.analog.levels = 32;
  config.nonideal_finetune.analog.variation_sigma = 0.1;
  config.nonideal_finetune.resample_every = 2;
  return config;
}

TEST(Pipeline, FullLeNetRunProducesConsistentReports) {
  data::SyntheticMnist train_set(100, 400);
  data::SyntheticMnist test_set(101, 100);
  const PipelineConfig config = small_config();

  PipelineResult result = run_group_scissor(
      [](Rng& rng) { return build_lenet(rng); }, train_set, test_set, config);

  // Baseline learned something real.
  EXPECT_GT(result.baseline_accuracy, 0.5);
  // Lossless factorisation kept the accuracy.
  EXPECT_NEAR(result.lowrank_start_accuracy, result.baseline_accuracy, 0.1);

  // Rank clipping shrank at least one layer and crossbar area dropped.
  bool any_clipped = false;
  const auto& ranks = result.clipping_run.final_ranks;
  ASSERT_EQ(ranks.size(), 3u);  // conv1, conv2, fc1
  const std::vector<std::size_t> full{20, 50, 500};
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    EXPECT_LE(ranks[i], full[i]);
    if (ranks[i] < full[i]) any_clipped = true;
  }
  EXPECT_TRUE(any_clipped);
  EXPECT_LT(result.clipped_report.total_cells,
            result.dense_report.total_cells);
  EXPECT_LT(result.clipped_report.crossbar_area_ratio(), 1.0);

  // Dense baseline accounting is invariant across stages.
  EXPECT_EQ(result.clipped_report.dense_baseline_cells,
            result.dense_report.total_cells);

  // Deletion removed wires; Eq. (8) squares the ratio.
  EXPECT_LT(result.deletion.mean_wire_ratio, 1.0);
  EXPECT_LE(result.deletion.mean_routing_area_ratio,
            result.deletion.mean_wire_ratio + 1e-12);
  EXPECT_FALSE(result.deletion.reports.empty());

  // The final report reflects the deletion census (same remaining wires for
  // the regularised matrices).
  EXPECT_LE(result.final_report.remaining_wires,
            result.final_report.total_wires);

  // Accuracy after the full pipeline stays in a usable band.
  EXPECT_GT(result.deletion.accuracy_after_finetune,
            result.baseline_accuracy - 0.2);

  // Runtime evaluation compiled the final network, counted the empty tiles
  // deletion produced, and graded analog inference next to digital. With a
  // λ this strong whole tiles empty out, so some skipping must occur.
  EXPECT_GT(result.runtime_tiles, 0u);
  EXPECT_GT(result.runtime_skipped_tiles, 0u);
  EXPECT_LE(result.runtime_skipped_tiles, result.runtime_tiles);
  EXPECT_EQ(result.final_report.runtime_tiles, result.runtime_tiles);
  EXPECT_EQ(result.final_report.runtime_skipped_tiles,
            result.runtime_skipped_tiles);
  // Sharded serving on the ideal device is bitwise the single-program
  // runtime, so the two accuracies must agree exactly.
  EXPECT_DOUBLE_EQ(result.sharded_accuracy, result.runtime_accuracy);
  EXPECT_DOUBLE_EQ(result.final_report.sharded_accuracy,
                   result.sharded_accuracy);

  // Repacked evaluation ran on the same ideal device, which passes the
  // exactness gate: the compressed program drops exactly the skipped tiles
  // from the schedule, programs strictly fewer cells, and — the gate's
  // whole point — scores bitwise the same accuracy as the padded runtime.
  EXPECT_EQ(result.repacked_tiles + result.runtime_skipped_tiles,
            result.runtime_tiles);
  EXPECT_GT(result.repacked_cells_ratio, 0.0);
  EXPECT_LT(result.repacked_cells_ratio, 1.0);
  EXPECT_DOUBLE_EQ(result.repacked_accuracy, result.runtime_accuracy);
  EXPECT_EQ(result.final_report.repacked_tiles, result.repacked_tiles);
  EXPECT_DOUBLE_EQ(result.final_report.repacked_cells_ratio,
                   result.repacked_cells_ratio);
  EXPECT_DOUBLE_EQ(result.final_report.repacked_accuracy,
                   result.repacked_accuracy);
  // The digital block-compressed GEMM arm graded the same network.
  EXPECT_GE(result.compressed_digital_accuracy, 0.0);
  EXPECT_LE(result.compressed_digital_accuracy, 1.0);
  EXPECT_DOUBLE_EQ(result.final_report.compressed_digital_accuracy,
                   result.compressed_digital_accuracy);

  // The fault-sensitivity evaluation ran at the default 1% stuck-at rate:
  // a valid accuracy, mirrored into the final report with its rate.
  EXPECT_GE(result.faulty_accuracy, 0.0);
  EXPECT_LE(result.faulty_accuracy, 1.0);
  EXPECT_DOUBLE_EQ(result.final_report.faulty_accuracy,
                   result.faulty_accuracy);
  EXPECT_DOUBLE_EQ(result.final_report.fault_rate, 0.01);

  // The nonideal fine-tune stage ran: both nonideal accuracies were
  // measured on the target device, and they bracket a sane band. (Whether
  // the margin is positive on this tiny budget is the bench's claim, not
  // this test's — here we pin the plumbing and the mask invariant.)
  EXPECT_GE(result.nonideal_accuracy_before, 0.0);
  EXPECT_LE(result.nonideal_accuracy_before, 1.0);
  EXPECT_GE(result.nonideal_accuracy_after, 0.0);
  EXPECT_LE(result.nonideal_accuracy_after, 1.0);
  EXPECT_DOUBLE_EQ(result.final_report.nonideal_accuracy_before,
                   result.nonideal_accuracy_before);
  EXPECT_DOUBLE_EQ(result.final_report.nonideal_accuracy_after,
                   result.nonideal_accuracy_after);
  // Deleted wires stayed deleted through the noisy fine-tune: the ideal
  // recompile AFTER the stage still finds empty tiles to skip (checked
  // above via runtime_skipped_tiles > 0), and the final report's digital
  // accuracy reflects the post-stage network.
  EXPECT_GE(result.final_report.digital_accuracy, 0.0);

  // The compressed network is returned and still runs.
  Tensor x(Shape{1, 1, 28, 28});
  EXPECT_EQ(result.network.forward(x).shape(), (Shape{1, 10}));
}

// A short run of every training stage: pretrain, rank clipping (Algorithm
// 2) and group connection deletion at λ > 0 with its masked fine-tune. The
// final weights' FNV checksum is recorded as the gtest property
// `weights_checksum`; the thread_count_invariance_pipeline ctest
// (scripts/check_thread_count_invariance.py) runs this case at
// GS_NUM_THREADS 1 and 4 and requires equal checksums, so the
// sample-parallel conv frame, the pooled GEMMs and the tile-run group
// sweeps must leave every trained bit alone. Clipping at a small ε keeps
// fc1's factors large enough that their tile grids span several runs.
TEST(Pipeline, ShortLeNetRunWeightsChecksum) {
  data::SyntheticMnist train_set(120, 200);
  data::SyntheticMnist test_set(121, 50);
  PipelineConfig config;
  config.seed = 9;
  config.pretrain.iterations = 30;
  config.pretrain.batch_size = 25;
  config.clipping.epsilon = 0.01;
  config.clipping.clip_interval = 15;
  config.clipping.max_iterations = 30;
  config.clipping_phase.batch_size = 25;
  config.deletion.lasso.lambda = 1e-1;
  config.deletion.train_iterations = 30;
  config.deletion.finetune_iterations = 20;
  config.deletion.record_interval = 15;
  config.deletion_phase.batch_size = 25;
  config.deletion_phase.sgd = {0.02f, 0.9f, 0.0f};
  config.keep_dense = {lenet_classifier()};
  config.eval_samples = 50;
  config.runtime_eval = false;
  config.fault_eval_rate = 0.0;

  PipelineResult result = run_group_scissor(
      [](Rng& rng) { return build_lenet(rng); }, train_set, test_set, config);

  const compress::RankClippingRun& clip = result.clipping_run;
  ASSERT_EQ(clip.layer_names.size(), clip.final_ranks.size());
  ASSERT_EQ(clip.layer_names.back(), "fc1");
  EXPECT_GT(800 * clip.final_ranks.back(), 2 * hw::kTileRunCells);
  bool fc1_regularised = false;
  for (const compress::MatrixWireReport& r : result.deletion.reports) {
    fc1_regularised = fc1_regularised || r.name == "fc1_u";
  }
  EXPECT_TRUE(fc1_regularised);

  std::uint64_t hash = 1469598103934665603ULL;
  for (const nn::ParamRef& param : result.network.params()) {
    hash = (hash ^ runtime::tensor_checksum(*param.value)) * 1099511628211ULL;
  }
  char hex[20];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(hash));
  RecordProperty("weights_checksum", hex);
}

// PipelineResult::times: every stage's clocks are non-negative, the
// disabled nonideal fine-tune reads zero, the stages that ran took time, and
// the back-to-back stages sum to no more than the whole run's wall time.
TEST(Pipeline, StageTimesCoverTheRun) {
  data::SyntheticMnist train_set(120, 200);
  data::SyntheticMnist test_set(121, 50);
  PipelineConfig config;
  config.seed = 9;
  config.pretrain.iterations = 20;
  config.pretrain.batch_size = 25;
  config.clipping.clip_interval = 10;
  config.clipping.max_iterations = 20;
  config.clipping_phase.batch_size = 25;
  config.deletion.train_iterations = 10;
  config.deletion.finetune_iterations = 10;
  config.deletion.record_interval = 10;
  config.deletion_phase.batch_size = 25;
  config.deletion_phase.sgd = {0.02f, 0.9f, 0.0f};
  config.keep_dense = {lenet_classifier()};
  config.eval_samples = 50;
  config.repack_eval = false;
  config.fault_eval_rate = 0.0;
  ASSERT_FALSE(config.nonideal_finetune.enabled);

  const auto start = std::chrono::steady_clock::now();
  const PipelineResult result = run_group_scissor(
      [](Rng& rng) { return build_lenet(rng); }, train_set, test_set, config);
  const double run_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();

  const PipelineTimes& t = result.times;
  const std::vector<std::pair<const char*, StageTime>> stages = {
      {"pretrain", t.pretrain},
      {"factorize", t.factorize},
      {"clip", t.clip},
      {"deletion", t.deletion},
      {"nonideal_finetune", t.nonideal_finetune},
      {"compile_evaluate", t.compile_evaluate}};
  double sum_s = 0.0;
  for (const auto& [name, stage] : stages) {
    SCOPED_TRACE(name);
    EXPECT_GE(stage.wall_s, 0.0);
    EXPECT_GE(stage.cpu_s, 0.0);
    sum_s += stage.wall_s;
  }
  EXPECT_EQ(t.nonideal_finetune.wall_s, 0.0);
  EXPECT_EQ(t.nonideal_finetune.cpu_s, 0.0);
  EXPECT_GT(t.pretrain.wall_s, 0.0);
  EXPECT_GT(t.clip.wall_s, 0.0);
  EXPECT_GT(t.deletion.wall_s, 0.0);
  EXPECT_GT(t.compile_evaluate.wall_s, 0.0);
  EXPECT_LE(sum_s, run_s);
}

TEST(Pipeline, TrainPhaseHelperImprovesAccuracy) {
  data::SyntheticMnist train_set(110, 200);
  data::SyntheticMnist test_set(111, 80);
  Rng rng(1);
  nn::Network net = build_lenet(rng);
  const double before = nn::evaluate(net, test_set);
  TrainPhase phase;
  phase.iterations = 150;
  phase.batch_size = 20;
  phase.sgd = {0.02f, 0.9f, 0.0f};
  const double after = train_phase(net, train_set, test_set, phase, 2);
  EXPECT_GT(after, before);
  EXPECT_GT(after, 0.3);
}

}  // namespace
}  // namespace gs::core
