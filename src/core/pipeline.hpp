// GroupScissor — the end-to-end two-step pipeline of the paper:
//   train baseline → factorise (full rank) → rank clipping (Algorithm 2)
//   → group connection deletion (§3.2) → fine-tune → hardware report.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "compress/connection_deletion.hpp"
#include "compress/rank_clipping.hpp"
#include "core/models.hpp"
#include "core/ncs_report.hpp"
#include "data/dataset.hpp"
#include "nn/optimizer.hpp"
#include "runtime/program.hpp"

namespace gs::core {

/// Hyper-parameters of one training phase.
struct TrainPhase {
  std::size_t iterations = 1000;
  std::size_t batch_size = 32;
  /// Defaults chosen to train the paper networks stably on the synthetic
  /// tasks (LeNet diverges above ~0.05 with He init on this data).
  nn::SgdConfig sgd{0.02f, 0.9f, 1e-4f};
};

/// Nonideal-aware fine-tuning — the final training stage: the compressed
/// network is recompiled for a NONIDEAL target device and fine-tuned with
/// noise injection derived from that compiled program (fresh chip
/// realisation per resample period, straight-through backward; see
/// runtime/noise_model.hpp), with the frozen deletion masks re-applied
/// after every step so compression survives. Determinism: fixed noise_seed
/// + fixed resample_every ⇒ bitwise-identical training at any
/// GS_NUM_THREADS.
struct NonidealFinetuneConfig {
  bool enabled = false;
  TrainPhase phase{/*iterations=*/600, /*batch_size=*/32,
                   nn::SgdConfig{0.006f, 0.9f, 1e-4f}};
  /// The nonideal device to train for (quantised conductances, variation,
  /// IR-drop); also the device the before/after accuracies are measured on.
  hw::AnalogParams analog;
  runtime::DacAdcParams converters;  ///< DAC/ADC at stage boundaries
  std::uint64_t noise_seed = 77;     ///< chip-realisation sampling streams
  std::size_t resample_every = 1;    ///< forwards per chip realisation
};

/// Full pipeline configuration.
struct PipelineConfig {
  std::uint64_t seed = 1;
  TrainPhase pretrain;
  compress::RankClippingConfig clipping;
  TrainPhase clipping_phase;   ///< sgd/batch settings during Algorithm 2
  compress::DeletionConfig deletion;
  TrainPhase deletion_phase;   ///< sgd/batch settings during §3.2
  std::set<std::string> keep_dense;  ///< classifier layer(s)
  std::size_t eval_samples = 0;      ///< 0 = whole eval set
  hw::TechnologyParams tech;
  hw::MappingPolicy policy = hw::MappingPolicy::kDivisorExact;
  /// Compile the final compressed network into a crossbar program
  /// (runtime/program.hpp, ideal device) and measure its inference accuracy
  /// next to the digital forward in the final report. The compile marks the
  /// empty tiles left by group connection deletion for execution-time
  /// skipping; the skipped-tile count lands in the final report.
  bool runtime_eval = true;
  /// When runtime_eval is on, additionally compile the network with
  /// CompileOptions::repack — empty crossbars dropped, live rows/columns
  /// gathered onto fewer, fuller tiles — evaluate it, and record the
  /// repacked tile count, programmed-cell fraction, and accuracy in the
  /// final report. On the ideal device the repacked accuracy must equal the
  /// padded runtime accuracy exactly. Also packs the digital
  /// block-compressed inference panels (nn::pack_compressed_inference) and
  /// grades that forward next to the dense digital accuracy.
  bool repack_eval = true;
  /// When ≥ 2 (and runtime_eval is on), additionally serve the eval set
  /// through a ShardedServer with this many replicas (ideal device, equal
  /// thread budget) and report the sharded serving accuracy — on the ideal
  /// device it must match the single-program runtime accuracy exactly.
  /// 0 disables the sharded evaluation.
  std::size_t sharded_eval_replicas = 0;
  /// When runtime_eval is on and this rate is > 0, additionally evaluate a
  /// FAULT-INJECTED copy of the compiled program — per-device stuck-at
  /// faults at this rate (half g_min / half g_max, runtime/inject_faults
  /// with fault_eval_seed) — and report `faulty_accuracy` next to the clean
  /// runtime accuracy: the compression's fault sensitivity at a documented
  /// default of 1% stuck devices. 0 disables the fault evaluation.
  double fault_eval_rate = 0.01;
  std::uint64_t fault_eval_seed = 99;  ///< fault realisation stream
  /// Final stage: noise-injected fine-tuning for a nonideal target device,
  /// driven by the compiled crossbar program. Runs after deletion and
  /// before the final report, so every final accuracy reflects the
  /// hardware-tuned weights.
  NonidealFinetuneConfig nonideal_finetune;
};

/// Wall-clock and CPU seconds of one pipeline stage. CPU time is the
/// process's, so it counts every pool thread.
struct StageTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Where run_group_scissor's time went, stage by stage. The stages run back
/// to back, so they sum to at most the run's wall time; a stage that did not
/// run reads zero. Clock reads only: timing moves no result bit.
struct PipelineTimes {
  StageTime pretrain;   ///< baseline training and its NCS report
  StageTime factorize;  ///< full-rank factorisation and its evaluation
  StageTime clip;       ///< rank clipping, its evaluation and NCS report
  StageTime deletion;   ///< group Lasso plus the masked fine-tune
  StageTime nonideal_finetune;  ///< config.nonideal_finetune, when enabled
  /// The final NCS report, then the crossbar compiles and runtime
  /// evaluations of config.runtime_eval.
  StageTime compile_evaluate;
};

/// Everything the pipeline produced.
struct PipelineResult {
  double baseline_accuracy = 0.0;
  double lowrank_start_accuracy = 0.0;  ///< after lossless factorisation
  compress::RankClippingRun clipping_run;
  double clipped_accuracy = 0.0;
  NcsReport dense_report;     ///< baseline network mapping
  NcsReport clipped_report;   ///< after rank clipping
  compress::DeletionResult deletion;
  NcsReport final_report;     ///< after deletion + fine-tune
  /// Ideal-device crossbar-runtime accuracy of the final network (negative
  /// when runtime_eval is off). Also mirrored into final_report.
  double runtime_accuracy = -1.0;
  /// Accuracy through the sharded multi-replica serving path (negative when
  /// sharded_eval_replicas < 2). Also mirrored into final_report.
  double sharded_accuracy = -1.0;
  /// Crossbar accuracy on the nonideal target device before / after the
  /// nonideal_finetune stage (negative when the stage is off). Mirrored
  /// into final_report; the margin (after − before) is the recovery the
  /// hardware-in-the-loop training buys.
  double nonideal_accuracy_before = -1.0;
  double nonideal_accuracy_after = -1.0;
  /// Runtime accuracy of the final network on a fault-injected chip
  /// (stuck-at rate config.fault_eval_rate; negative when disabled).
  /// Also mirrored into final_report.
  double faulty_accuracy = -1.0;
  /// Tile schedule of the compiled final network: total tiles and the
  /// all-zero tiles the compiler marked for execution-time skipping (group
  /// connection deletion empties whole crossbars). Zero when runtime_eval
  /// is off. Also mirrored into final_report.
  std::size_t runtime_tiles = 0;
  std::size_t runtime_skipped_tiles = 0;
  /// Repacked compile of the same network (config.repack_eval): programmed
  /// tile count after empty crossbars are dropped, programmed-cell fraction
  /// of the padded schedule, and accuracy through the repacked executor
  /// (must equal runtime_accuracy on the ideal device). Zero / negative
  /// when the repack evaluation is off. Also mirrored into final_report.
  std::size_t repacked_tiles = 0;
  double repacked_cells_ratio = -1.0;
  double repacked_accuracy = -1.0;
  /// Digital block-compressed inference accuracy (compressed panels packed
  /// over the deleted network; must equal the plain digital accuracy).
  /// Negative when the repack evaluation is off. Mirrored into final_report.
  double compressed_digital_accuracy = -1.0;
  /// Per-stage wall and CPU time of this run.
  PipelineTimes times;
  /// The compressed network itself (moved out for further use).
  nn::Network network;
};

/// Runs the full pipeline on a freshly-built dense network.
/// `build` constructs the architecture; `train_set`/`test_set` supply data.
PipelineResult run_group_scissor(
    const std::function<nn::Network(Rng&)>& build,
    const data::Dataset& train_set, const data::Dataset& test_set,
    const PipelineConfig& config);

/// Step helpers (used by benches that need only part of the flow) ----------

/// Trains a network phase and returns final test accuracy.
double train_phase(nn::Network& net, const data::Dataset& train_set,
                   const data::Dataset& test_set, const TrainPhase& phase,
                   std::uint64_t seed, std::size_t eval_samples = 0);

}  // namespace gs::core
