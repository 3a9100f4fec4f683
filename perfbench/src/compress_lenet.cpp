// compress_lenet: the paper's workflow — one run of the flagship two-step
// compression pipeline (examples/lenet_group_scissor: LeNet on synthetic
// MNIST, ε = 0.03, S = 30, λ = 0.1) through core::run_group_scissor.
//
// The pipeline keeps the flagship's own seed and synthetic train/test sets,
// so every run compresses to the same design (ranks 12/24/127, 3325 tiles
// of which 3201 are empty): other pipeline seeds change the ranks, and with
// them the tile count by up to 40×, and some diverge in pre-training at this
// learning rate. --seed drives the deployment phase that follows: the
// compressed network is served exactly like serve_lenet, with the seed's
// arrivals and request samples.
//
// The traced run first runs the untraced pipeline as the reference, then
// replays it stage by stage through the public step functions with a span
// around each call and a timing wrapper around the datasets. The replay must
// reproduce the reference bitwise; the CPU-time difference between the two
// is the tracing overhead.
#include <cstdio>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "compress/connection_deletion.hpp"
#include "compress/rank_clipping.hpp"
#include "core/models.hpp"
#include "core/pipeline.hpp"
#include "data/batcher.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/network.hpp"
#include "nn/trainer.hpp"
#include "runtime/executor.hpp"
#include "runtime/health.hpp"
#include "serving.hpp"

namespace perfbench {

namespace {

using namespace gs;

constexpr std::uint64_t kPipelineSeed = 7;
constexpr std::uint64_t kTrainSetSeed = 1001;
constexpr std::uint64_t kTestSetSeed = 2002;
constexpr std::size_t kTrainSamples = 500;
constexpr std::size_t kTestSamples = 200;

core::PipelineConfig flagship_config() {
  core::PipelineConfig config;
  config.seed = kPipelineSeed;
  config.pretrain.iterations = 400;
  config.pretrain.batch_size = 25;
  config.pretrain.sgd = {0.02f, 0.9f, 1e-4f};
  config.clipping.epsilon = 0.03;
  config.clipping.clip_interval = 30;
  config.clipping.max_iterations = 600;
  config.clipping_phase.batch_size = 25;
  config.clipping_phase.sgd = {0.02f, 0.9f, 1e-4f};
  config.deletion.lasso.lambda = 0.1;
  config.deletion.train_iterations = 400;
  config.deletion.finetune_iterations = 200;
  config.deletion_phase.batch_size = 25;
  config.deletion_phase.sgd = {0.02f, 0.9f, 0.0f};
  config.keep_dense = {core::lenet_classifier()};
  return config;
}

/// What the pipeline produced that the replay must reproduce exactly.
struct Outcome {
  std::vector<std::size_t> ranks;
  std::vector<double> accuracies;  ///< baseline … faulty, fixed order
  double crossbar_area_ratio = 0.0;
  double routing_area_ratio = 0.0;
  std::size_t tiles = 0;
  std::size_t skipped_tiles = 0;
  std::size_t repacked_tiles = 0;
  std::uint64_t weights_checksum = 0;

  bool operator==(const Outcome&) const = default;
};

std::uint64_t weights_checksum(nn::Network& net) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const nn::ParamRef& p : net.params()) {
    hash = (hash ^ runtime::tensor_checksum(*p.value)) * 1099511628211ULL;
  }
  return hash;
}

Outcome outcome_of(core::PipelineResult& r) {
  Outcome o;
  o.ranks = r.clipping_run.final_ranks;
  o.accuracies = {r.baseline_accuracy,
                  r.lowrank_start_accuracy,
                  r.clipped_accuracy,
                  r.deletion.accuracy_after_finetune,
                  r.runtime_accuracy,
                  r.repacked_accuracy,
                  r.compressed_digital_accuracy,
                  r.faulty_accuracy};
  o.crossbar_area_ratio = r.clipped_report.crossbar_area_ratio();
  o.routing_area_ratio = r.deletion.mean_routing_area_ratio;
  o.tiles = r.runtime_tiles;
  o.skipped_tiles = r.runtime_skipped_tiles;
  o.repacked_tiles = r.repacked_tiles;
  o.weights_checksum = weights_checksum(r.network);
  return o;
}

/// run_group_scissor replayed stage by stage (the configuration above: no
/// nonideal fine-tune, no sharded evaluation), one span per library call.
/// Mirrors src/core/pipeline.cpp; any divergence fails the replay check.
core::PipelineResult replay_pipeline(const data::Dataset& train_set,
                                     const data::Dataset& test_set,
                                     const core::PipelineConfig& config,
                                     std::size_t& train_iters) {
  core::PipelineResult result;
  const std::size_t eval = config.eval_samples;
  Rng rng(config.seed);
  nn::Network dense = core::build_lenet(rng);
  {
    Scope span("core.train_phase");
    result.baseline_accuracy = core::train_phase(
        dense, train_set, test_set, config.pretrain, config.seed + 1, eval);
  }
  train_iters += config.pretrain.iterations;
  {
    Scope span("hw.report");
    result.dense_report =
        core::build_ncs_report(dense, config.tech, config.policy);
  }

  core::FactorizeSpec spec;
  spec.method = config.clipping.method;
  spec.keep_dense = config.keep_dense;
  nn::Network lowrank;
  {
    Scope span("core.to_lowrank");
    lowrank = core::to_lowrank(dense, spec);
  }
  {
    Scope span("nn.evaluate");
    result.lowrank_start_accuracy = nn::evaluate(lowrank, test_set, eval);
  }

  {
    Rng clip_rng(config.seed + 2);
    data::Batcher batcher(train_set, config.clipping_phase.batch_size,
                          clip_rng.split());
    nn::SgdOptimizer opt(config.clipping_phase.sgd);
    std::size_t iteration = 0;
    while (iteration < config.clipping.max_iterations) {
      {
        Scope span("compress.clip_ranks_once");
        compress::clip_ranks_once(lowrank, config.clipping);
      }
      const std::size_t budget =
          std::min(config.clipping.clip_interval,
                   config.clipping.max_iterations - iteration);
      {
        Scope span("nn.train");
        nn::train(lowrank, opt, batcher, budget);
      }
      iteration += budget;
      train_iters += budget;
    }
    for (nn::FactorizedLayer* layer : lowrank.factorized_layers()) {
      result.clipping_run.final_ranks.push_back(layer->current_rank());
    }
  }
  {
    Scope span("nn.evaluate");
    result.clipped_accuracy = nn::evaluate(lowrank, test_set, eval);
  }
  {
    Scope span("hw.report");
    result.clipped_report =
        core::build_ncs_report(lowrank, config.tech, config.policy);
  }

  {
    Rng del_rng(config.seed + 3);
    data::Batcher batcher(train_set, config.deletion_phase.batch_size,
                          del_rng.split());
    nn::SgdOptimizer opt(config.deletion_phase.sgd);
    compress::DeletionConfig del = config.deletion;
    del.tech = config.tech;
    del.lasso.policy = config.policy;
    Scope span("compress.delete");
    result.deletion = compress::run_group_connection_deletion(
        lowrank, opt, batcher, test_set, eval, del);
  }
  {
    Scope span("hw.report");
    result.final_report =
        core::build_ncs_report(lowrank, config.tech, config.policy);
  }

  runtime::CompileOptions copts;
  copts.tech = config.tech;
  copts.policy = config.policy;
  runtime::CrossbarProgram program;
  {
    Scope span("runtime.compile");
    program = runtime::compile(lowrank, test_set.sample_shape(), copts);
  }
  {
    const runtime::Executor executor(program);
    Scope span("runtime.evaluate");
    result.runtime_accuracy = runtime::evaluate(executor, test_set, eval);
  }
  result.runtime_tiles = program.tile_count();
  result.runtime_skipped_tiles = program.skipped_tile_count();

  runtime::CompileOptions ropts = copts;
  ropts.repack = true;
  runtime::CrossbarProgram repacked;
  {
    Scope span("runtime.compile");
    repacked = runtime::compile(lowrank, test_set.sample_shape(), ropts);
  }
  {
    const runtime::Executor executor(repacked);
    Scope span("runtime.evaluate");
    result.repacked_accuracy = runtime::evaluate(executor, test_set, eval);
  }
  result.repacked_tiles = repacked.tile_count();
  {
    Scope span("nn.pack_compressed_inference");
    nn::pack_compressed_inference(lowrank);
  }
  {
    Scope span("nn.evaluate");
    result.compressed_digital_accuracy = nn::evaluate(lowrank, test_set, eval);
  }
  nn::clear_compressed_inference(lowrank);

  runtime::CrossbarProgram faulty = program;
  hw::FaultModelConfig faults;
  faults.stuck_rate = config.fault_eval_rate;
  faults.seed = config.fault_eval_seed;
  {
    Scope span("runtime.inject_faults");
    runtime::inject_faults(faulty, faults, "pipeline:");
  }
  {
    const runtime::Executor executor(faulty);
    Scope span("runtime.evaluate");
    result.faulty_accuracy = runtime::evaluate(executor, test_set, eval);
  }
  result.network = std::move(lowrank);
  return result;
}

}  // namespace

Result run_compress_lenet(const Options& options) {
  Result result;
  const core::PipelineConfig config = flagship_config();
  const auto build = [](Rng& rng) { return core::build_lenet(rng); };

  // Set-up: the procedural data sets and the deployment's request pool. The
  // deployment's compile, server start and warm-up, after the pipeline,
  // count as set-up too.
  const auto setup_start = Clock::now();
  const data::SyntheticMnist train_set(kTrainSetSeed, kTrainSamples);
  const data::SyntheticMnist test_set(kTestSetSeed, kTestSamples);
  const SamplePool pool = make_sample_pool(options.seed);
  double setup_s = seconds_between(setup_start, Clock::now());

  const auto start = Clock::now();
  const double cpu_start = process_cpu_seconds();
  core::PipelineResult pipeline =
      core::run_group_scissor(build, train_set, test_set, config);
  const double pipeline_s = seconds_between(start, Clock::now());
  const double pipeline_cpu_s = process_cpu_seconds() - cpu_start;
  const Outcome reference = outcome_of(pipeline);
  result.attempted = 1;

  std::printf("compress_lenet: ranks");
  for (std::size_t r : reference.ranks) std::printf(" %zu", r);
  std::printf(", %zu tiles (%zu skipped, %zu repacked), accuracy %.4f\n",
              reference.tiles, reference.skipped_tiles,
              reference.repacked_tiles, reference.accuracies[3]);
  std::printf("paper references (not bounds): crossbar area 0.1362, "
              "routing area 0.081\n");

  // Output checks: the three inference paths of the compressed network
  // agree exactly (ideal device).
  const double digital = pipeline.deletion.accuracy_after_finetune;
  result.check(pipeline.runtime_accuracy == pipeline.repacked_accuracy,
               "runtime accuracy == repacked accuracy");
  result.check(pipeline.compressed_digital_accuracy == digital,
               "compressed digital accuracy == digital accuracy");
  result.check(pipeline.runtime_accuracy == pipeline.compressed_digital_accuracy,
               "runtime accuracy == compressed digital accuracy");
  result.check(pipeline.runtime_skipped_tiles > 0 &&
                   pipeline.runtime_skipped_tiles < pipeline.runtime_tiles,
               "deletion left some but not all tiles empty");

  if (!options.trace) {
    // Deployment: the compressed network served exactly like serve_lenet.
    const auto deploy_start = Clock::now();
    Deployment deployment(pipeline.network, pool, options.seed);
    setup_s += seconds_between(deploy_start, Clock::now());
    const LoadRun run = drive_deployment(deployment, pool, options.seed,
                                         options.seconds, nullptr);
    const runtime::CrossbarProgram reference_program =
        runtime::compile(pipeline.network, test_set.sample_shape());
    const runtime::Executor reference_executor(reference_program);
    check_deployment(result, run, reference_logits(reference_executor, pool));

    result.add("setup_s", setup_s, "s");
    result.add("pipeline_s", pipeline_s, "s");
    result.add("final_accuracy", digital, "fraction");
    result.add("crossbar_area_ratio", reference.crossbar_area_ratio,
               "fraction");
    result.add("routing_area_ratio", reference.routing_area_ratio,
               "fraction");
    add_serving_metrics(result, run);
    return result;
  }

  // Traced replay of the same pipeline.
  std::size_t train_iters = 0;
  core::PipelineResult replayed;
  double replay_s = 0.0;
  double replay_cpu_s = 0.0;
  std::map<std::string, LayerTime> layers;
  {
    SpanLog log;
    const TimedDataset timed_train(train_set);
    const TimedDataset timed_test(test_set);
    const auto t0 = Clock::now();
    const double cpu0 = process_cpu_seconds();
    {
      Scope span("pipeline");
      replayed = replay_pipeline(timed_train, timed_test, config, train_iters);
    }
    replay_s = seconds_between(t0, Clock::now());
    replay_cpu_s = process_cpu_seconds() - cpu0;
    layers = log.fold();
    log.write(span_path(options));
  }
  result.check(outcome_of(replayed) == reference,
               "traced replay reproduces the untraced pipeline bitwise");

  // Tracing overhead: process CPU of the traced replay against the untraced
  // pipeline (CPU time does not count the host's steal time).
  const double overhead_pct =
      100.0 * (replay_cpu_s - pipeline_cpu_s) / pipeline_cpu_s;
  std::printf("tracing overhead: replay %.3f s wall, %.3f s CPU vs untraced "
              "%.3f s wall, %.3f s CPU (%+.2f%% CPU)\n",
              replay_s, replay_cpu_s, pipeline_s, pipeline_cpu_s,
              overhead_pct);
  add_span_layer_metrics(result, layers, train_iters);
  result.add("runtime.program.tiles", static_cast<double>(reference.tiles),
             "count");
  result.add("runtime.program.skipped_tiles",
             static_cast<double>(reference.skipped_tiles), "count");
  result.add("runtime.program.repacked_tiles",
             static_cast<double>(reference.repacked_tiles), "count");
  // Direct forwards of the compressed network, at the serving thread count.
  const runtime::CrossbarProgram program =
      runtime::compile(replayed.network, test_set.sample_shape());
  ThreadPool executor_pool(kServerThreads);
  const runtime::Executor executor(program, &executor_pool);
  add_executor_metrics(result, executor, pool);
  result.add("trace.overhead_pct", overhead_pct, "%");
  return result;
}

}  // namespace perfbench
