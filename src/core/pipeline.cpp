#include "core/pipeline.hpp"

#include <chrono>
#include <ctime>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "nn/trainer.hpp"
#include "obs/exec_profile.hpp"
#include "runtime/executor.hpp"
#include "runtime/noise_model.hpp"
#include "runtime/shard.hpp"

namespace gs::core {

namespace {

/// Elementwise 0/1 masks freezing the EXACT zeros of every weight matrix —
/// after group connection deletion those are precisely the deleted groups
/// (plus the odd coincidental zero, harmless to freeze). Re-applied after
/// every optimiser step of the nonideal fine-tune, the same projection the
/// deletion fine-tune uses, so the stage can never regrow deleted wires.
struct FrozenMasks {
  std::vector<std::pair<Tensor*, Tensor>> entries;  ///< (live weight, mask)

  void freeze(Tensor& w) {
    Tensor mask(w.shape());
    for (std::size_t i = 0; i < w.numel(); ++i) {
      mask[i] = w[i] != 0.0f ? 1.0f : 0.0f;
    }
    entries.emplace_back(&w, std::move(mask));
  }

  void apply() const {
    for (const auto& [w, mask] : entries) {
      for (std::size_t i = 0; i < w->numel(); ++i) {
        (*w)[i] *= mask[i];
      }
    }
  }
};

/// The wall and process CPU clocks at the start of the current stage.
struct StageClock {
  std::chrono::steady_clock::time_point wall = std::chrono::steady_clock::now();
  std::clock_t cpu = std::clock();

  /// The time since the stage began; the next stage begins now.
  StageTime lap() {
    const StageClock now;
    const StageTime t{std::chrono::duration<double>(now.wall - wall).count(),
                      static_cast<double>(now.cpu - cpu) / CLOCKS_PER_SEC};
    *this = now;
    return t;
  }
};

FrozenMasks freeze_zero_masks(nn::Network& net) {
  FrozenMasks masks;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    for (const nn::WeightMatrix& m : net.layer(i).weight_matrices()) {
      masks.freeze(*m.value);
    }
  }
  return masks;
}

}  // namespace

double train_phase(nn::Network& net, const data::Dataset& train_set,
                   const data::Dataset& test_set, const TrainPhase& phase,
                   std::uint64_t seed, std::size_t eval_samples) {
  Rng rng(seed);
  data::Batcher batcher(train_set, phase.batch_size, rng.split());
  nn::SgdOptimizer opt(phase.sgd);
  nn::train(net, opt, batcher, phase.iterations);
  return nn::evaluate(net, test_set, eval_samples);
}

PipelineResult run_group_scissor(
    const std::function<nn::Network(Rng&)>& build,
    const data::Dataset& train_set, const data::Dataset& test_set,
    const PipelineConfig& config) {
  PipelineResult result;
  StageClock clock;
  Rng rng(config.seed);

  // Phase 0: train the dense baseline.
  nn::Network dense = build(rng);
  GS_LOG_INFO << "pipeline: training baseline ("
              << config.pretrain.iterations << " iters)";
  result.baseline_accuracy =
      train_phase(dense, train_set, test_set, config.pretrain, config.seed + 1,
                  config.eval_samples);
  result.dense_report =
      build_ncs_report(dense, config.tech, config.policy);
  result.times.pretrain = clock.lap();

  // Phase 1: lossless full-rank factorisation (Algorithm 2, line 2).
  FactorizeSpec spec;
  spec.method = config.clipping.method;
  spec.keep_dense = config.keep_dense;
  nn::Network lowrank = to_lowrank(dense, spec);
  result.lowrank_start_accuracy =
      nn::evaluate(lowrank, test_set, config.eval_samples);
  result.times.factorize = clock.lap();

  // Phase 2: rank clipping (Algorithm 2 main loop).
  GS_LOG_INFO << "pipeline: rank clipping (eps=" << config.clipping.epsilon
              << ", S=" << config.clipping.clip_interval << ")";
  {
    Rng clip_rng(config.seed + 2);
    data::Batcher batcher(train_set, config.clipping_phase.batch_size,
                          clip_rng.split());
    nn::SgdOptimizer opt(config.clipping_phase.sgd);
    result.clipping_run =
        compress::run_rank_clipping(lowrank, opt, batcher, config.clipping);
  }
  result.clipped_accuracy =
      nn::evaluate(lowrank, test_set, config.eval_samples);
  result.clipped_report =
      build_ncs_report(lowrank, config.tech, config.policy);
  result.times.clip = clock.lap();

  // Phase 3: group connection deletion + fine-tune.
  GS_LOG_INFO << "pipeline: group connection deletion (lambda="
              << config.deletion.lasso.lambda << ")";
  {
    Rng del_rng(config.seed + 3);
    data::Batcher batcher(train_set, config.deletion_phase.batch_size,
                          del_rng.split());
    nn::SgdOptimizer opt(config.deletion_phase.sgd);
    compress::DeletionConfig del = config.deletion;
    del.tech = config.tech;
    del.lasso.policy = config.policy;
    result.deletion = compress::run_group_connection_deletion(
        lowrank, opt, batcher, test_set, config.eval_samples, del);
  }
  result.times.deletion = clock.lap();
  // Phase 4 (optional): nonideal-aware fine-tune — recompile the compressed
  // network for the nonideal target device and train against sampled chip
  // realisations of ITS OWN compiled program (runtime/noise_model.hpp),
  // masks frozen so deleted wires stay deleted. Runs before the final
  // report so every final accuracy reflects the hardware-tuned weights.
  double digital_accuracy = result.deletion.accuracy_after_finetune;
  if (config.nonideal_finetune.enabled) {
    const NonidealFinetuneConfig& nf = config.nonideal_finetune;
    runtime::CompileOptions nopts;
    nopts.tech = config.tech;
    nopts.policy = config.policy;
    nopts.analog = nf.analog;
    nopts.converters = nf.converters;
    {
      // One compile serves both the eval-only baseline and the noise
      // model's structure (NoiseModel copies what it needs; the weights it
      // perturbs are read live from the network every forward).
      const runtime::CrossbarProgram program =
          runtime::compile(lowrank, test_set.sample_shape(), nopts);
      {
        const runtime::Executor executor(program);
        result.nonideal_accuracy_before =
            runtime::evaluate(executor, test_set, config.eval_samples);
      }
      GS_LOG_INFO << "pipeline: nonideal fine-tune ("
                  << nf.phase.iterations << " iters, eval-only accuracy "
                  << result.nonideal_accuracy_before << ")";
      runtime::NoiseModel noise(program,
                                {nf.noise_seed, nf.resample_every});
      runtime::NoisyForward hook(lowrank, noise);
      const FrozenMasks masks = freeze_zero_masks(lowrank);
      Rng ft_rng(config.seed + 4);
      data::Batcher batcher(train_set, nf.phase.batch_size, ft_rng.split());
      nn::SgdOptimizer opt(nf.phase.sgd);
      nn::train(lowrank, opt, batcher, nf.phase.iterations, {},
                [&masks](nn::Network&, std::size_t) { masks.apply(); });
    }
    {
      const runtime::CrossbarProgram post =
          runtime::compile(lowrank, test_set.sample_shape(), nopts);
      const runtime::Executor executor(post);
      result.nonideal_accuracy_after =
          runtime::evaluate(executor, test_set, config.eval_samples);
    }
    digital_accuracy = nn::evaluate(lowrank, test_set, config.eval_samples);
    GS_LOG_INFO << "pipeline: nonideal accuracy "
                << result.nonideal_accuracy_before << " -> "
                << result.nonideal_accuracy_after << " (digital "
                << digital_accuracy << ")";
    result.times.nonideal_finetune = clock.lap();
  }

  result.final_report =
      build_ncs_report(lowrank, config.tech, config.policy);
  result.final_report.digital_accuracy = digital_accuracy;
  result.final_report.nonideal_accuracy_before =
      result.nonideal_accuracy_before;
  result.final_report.nonideal_accuracy_after = result.nonideal_accuracy_after;

  // End-to-end crossbar inference of the compressed network (ideal device):
  // the analog execution path, not the weight-write-back approximation. The
  // compile marks the all-zero tiles deletion produced; the executor skips
  // them, and the counts land in the final report.
  if (config.runtime_eval) {
    runtime::CompileOptions copts;
    copts.tech = config.tech;
    copts.policy = config.policy;
    const runtime::CrossbarProgram program =
        runtime::compile(lowrank, test_set.sample_shape(), copts);
    const runtime::Executor executor(program);
    result.runtime_accuracy =
        runtime::evaluate(executor, test_set, config.eval_samples);
    result.runtime_tiles = program.tile_count();
    result.runtime_skipped_tiles = program.skipped_tile_count();
    result.final_report.runtime_accuracy = result.runtime_accuracy;
    result.final_report.runtime_tiles = result.runtime_tiles;
    result.final_report.runtime_skipped_tiles = result.runtime_skipped_tiles;
    // Per-sample energy proxies of the compiled program (the observability
    // layer's cost model): what one inference costs in converter and MVM
    // work after deletion's tile skipping.
    const obs::ExecProfile profile = obs::profile_program(program);
    result.final_report.runtime_dac_conversions = profile.dac_conversions;
    result.final_report.runtime_adc_conversions = profile.adc_conversions;
    result.final_report.runtime_analog_mvms = profile.analog_mvms;
    result.final_report.runtime_digital_flops = profile.digital_flops;
    result.final_report.runtime_partial_sum_bytes =
        profile.partial_sum_bytes;
    GS_LOG_INFO << "pipeline: crossbar runtime accuracy "
                << result.runtime_accuracy << " over " << program.tile_count()
                << " tiles (" << result.runtime_skipped_tiles
                << " skipped as empty; per-sample " << profile.adc_conversions
                << " ADC conversions, " << profile.analog_mvms
                << " analog MVMs)";

    if (config.repack_eval) {
      // Repacked compile of the same network: empty crossbars dropped and
      // live rows/columns gathered onto fewer, fuller tiles. The ideal
      // device passes the exactness gate, so the repacked accuracy must
      // equal the padded runtime accuracy above exactly.
      runtime::CompileOptions ropts = copts;
      ropts.repack = true;
      const runtime::CrossbarProgram repacked =
          runtime::compile(lowrank, test_set.sample_shape(), ropts);
      const runtime::Executor repacked_executor(repacked);
      result.repacked_accuracy =
          runtime::evaluate(repacked_executor, test_set, config.eval_samples);
      result.repacked_tiles = repacked.tile_count();
      const std::size_t padded_cells = repacked.padded_cell_count();
      result.repacked_cells_ratio =
          padded_cells == 0
              ? 1.0
              : static_cast<double>(repacked.programmed_cell_count()) /
                    static_cast<double>(padded_cells);
      result.final_report.repacked_accuracy = result.repacked_accuracy;
      result.final_report.repacked_tiles = result.repacked_tiles;
      result.final_report.repacked_cells_ratio = result.repacked_cells_ratio;
      GS_LOG_INFO << "pipeline: repacked runtime accuracy "
                  << result.repacked_accuracy << " over "
                  << repacked.tile_count() << " tiles ("
                  << repacked.removed_tile_count()
                  << " crossbars removed, programmed-cell fraction "
                  << result.repacked_cells_ratio << ")";

      // Digital block-compressed inference: gather/GEMM/scatter over the
      // live rows/columns (linalg/compressed.hpp). Exact, so the accuracy
      // must match the dense digital forward; panels are cleared afterwards
      // so later stages see the plain network.
      const std::size_t packed = nn::pack_compressed_inference(lowrank);
      result.compressed_digital_accuracy =
          nn::evaluate(lowrank, test_set, config.eval_samples);
      nn::clear_compressed_inference(lowrank);
      result.final_report.compressed_digital_accuracy =
          result.compressed_digital_accuracy;
      GS_LOG_INFO << "pipeline: compressed digital accuracy "
                  << result.compressed_digital_accuracy << " (" << packed
                  << " layers packed)";
    }

    if (config.fault_eval_rate > 0.0) {
      // Fault sensitivity: the same compiled program with stuck-at devices
      // injected at the documented default rate. The injection mutates a
      // COPY — the clean program above stays the reference.
      runtime::CrossbarProgram faulty = program;
      hw::FaultModelConfig faults;
      faults.stuck_rate = config.fault_eval_rate;
      faults.seed = config.fault_eval_seed;
      const runtime::FaultInjectionReport injected =
          runtime::inject_faults(faulty, faults, "pipeline:");
      const runtime::Executor faulty_executor(faulty);
      result.faulty_accuracy =
          runtime::evaluate(faulty_executor, test_set, config.eval_samples);
      result.final_report.faulty_accuracy = result.faulty_accuracy;
      result.final_report.fault_rate = config.fault_eval_rate;
      GS_LOG_INFO << "pipeline: faulty-chip runtime accuracy "
                  << result.faulty_accuracy << " (stuck-at rate "
                  << config.fault_eval_rate << ", "
                  << injected.devices.stuck_gmin + injected.devices.stuck_gmax
                  << " stuck devices, " << injected.unskipped_tiles
                  << " skip proofs invalidated)";
    }

    if (config.sharded_eval_replicas >= 2) {
      runtime::ShardConfig shard;
      shard.replicas = config.sharded_eval_replicas;
      runtime::ShardedServer server(lowrank, test_set.sample_shape(), copts,
                                    shard);
      result.sharded_accuracy =
          runtime::evaluate(server, test_set, config.eval_samples);
      result.final_report.sharded_accuracy = result.sharded_accuracy;
      GS_LOG_INFO << "pipeline: sharded serving accuracy "
                  << result.sharded_accuracy << " over " << shard.replicas
                  << " replicas";
    }
  }
  result.times.compile_evaluate = clock.lap();
  result.network = std::move(lowrank);
  return result;
}

}  // namespace gs::core
