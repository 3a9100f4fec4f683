// Training-time nonideality — hardware-in-the-loop fine-tuning driven by a
// compiled CrossbarProgram.
//
// The paper's accuracy numbers rest on retraining the compressed network FOR
// the target crossbar. This module closes that loop: it derives per-matrix
// effective-weight perturbation samplers from the same compile() lowering
// the executor runs — NOT an ad-hoc Gaussian — and installs them as an
// nn::Network::ForwardHook so every training forward sees a sampled chip
// while backward updates the clean weights (straight-through).
//
// Noise taxonomy (all derived from CompileOptions, per stage):
//  * conductance quantisation residual — programming the current clean
//    weights through the stage's tile grid at `AnalogParams::levels`
//    conductance states (hw::analog_effective_matrix, the exact per-tile
//    AnalogCrossbar path compile() uses). Deterministic given the weights;
//    re-derived every forward because the weights drift during training.
//  * device variation — the lognormal programming perturbation, drawn from
//    a stream keyed by (noise seed, stage name, realisation index). One
//    realisation IS one chip: its variation profile persists for
//    `resample_every` forwards (the chip is reprogrammed with the current
//    weights each step), then the next realisation models a fresh chip.
//  * converter rounding — DAC quantisation of the activations entering a
//    crossbar step and ADC rounding of the partial sums leaving it, using
//    quantize_uniform (whose exact bits the executor's LaneQuantizer
//    returns) with the executor's full-scale conventions (per input vector
//    for the DAC; x_max·w_max·rows for the ADC). Training applies the ADC at MATRIX granularity (the single-tile
//    equivalent, after the bias) and only to single-stage steps — a coarser
//    stand-in for the executor's per-tile pre-bias rounding that exposes
//    training to quantisation roughness without reimplementing the tile
//    loop in the autograd path. Two-stage (low-rank) steps receive weight
//    noise on both factors but no intermediate converter rounding.
//
// Straight-through contract: on_forward_begin programs the sampled chip
// into the layers' weight tensors (clean weights saved aside) and
// on_forward_end restores them, so nn backward/optimiser steps always act
// on clean weights while forward activations carry the full nonideal
// perturbation. Masked (deleted) weights stay zero in the clean copy; their
// sampled effective values may leak tiny conduction exactly as the runtime
// models it.
//
// Determinism: sampling is sequential per stage with streams keyed by
// (seed, stage name, realisation) — independent of thread count, of every
// other stage, and of how many OTHER noisy matrices exist (adding a layer
// never shifts another layer's stream). Fixed noise seed + fixed resample
// schedule ⇒ bitwise-identical training at any GS_NUM_THREADS.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/network.hpp"
#include "runtime/program.hpp"

namespace gs::runtime {

/// Knobs of the training-time noise injection.
struct NoiseConfig {
  /// Master seed of every realisation stream (keyed per stage name).
  std::uint64_t seed = 1;
  /// Train forwards per chip realisation: 1 = a fresh chip every step
  /// (maximum stochastic regularisation), N = the variation profile is held
  /// for N forwards (reprogrammed with the drifting weights each step).
  std::size_t resample_every = 1;

  void validate() const;
};

/// Per-matrix effective-weight perturbation samplers derived from a compiled
/// program. Holds only the STRUCTURE of the lowering (stage names, tile
/// grids, device/converter options) — weights are passed in at sample time,
/// because training mutates them between samples. Immutable after
/// construction; thread-safe to share.
class NoiseModel {
 public:
  /// One weight matrix lowered by compile(): its stage name ("fc1",
  /// "conv2_u", …), the network layer it came from, and its tile grid.
  struct Stage {
    std::string name;
    std::size_t layer_index = 0;  ///< index into the source network
    std::size_t stage_index = 0;  ///< 0 = dense/conv weight or U, 1 = Vᵀ
    std::size_t stages_in_step = 1;
    hw::TileGrid grid;
  };

  /// Derives the samplers from `program` (structure copied; the program may
  /// be discarded afterwards).
  explicit NoiseModel(const CrossbarProgram& program, NoiseConfig config = {});

  const NoiseConfig& config() const { return config_; }
  /// Device/converter options of the compiled program the model mirrors.
  const CompileOptions& options() const { return options_; }
  const std::vector<Stage>& stages() const { return stages_; }
  const Stage* find_stage(const std::string& name) const;

  /// Seed of the (stage, realisation) variation stream — exposed so tests
  /// can pin the keying contract.
  std::uint64_t stream_seed(const std::string& stage_name,
                            std::uint64_t realisation) const;

  /// Samples the effective weights chip `realisation` realises for stage
  /// `stage_name` given its CURRENT clean weights `w`: quantisation residual
  /// + device variation through the stage's tile grid, exactly the
  /// programming path compile() runs (per-matrix w_max, row-major tile
  /// order). Bitwise deterministic in (model, w, realisation); `w` must
  /// match the stage's compiled dimensions.
  Tensor sample_effective(const std::string& stage_name, const Tensor& w,
                          std::uint64_t realisation) const;

 private:
  NoiseConfig config_;
  CompileOptions options_;
  std::vector<Stage> stages_;
};

/// The installable hardware-in-the-loop hook. Construction binds the
/// compiled stages to `net`'s layers (by layer index — `net` must be the
/// network the program was compiled from, structurally unchanged) and
/// installs the hook; destruction uninstalls it and restores clean weights
/// if a forward was interrupted.
///
/// Thread-safety: none — training forwards are single-threaded at this
/// level (parallelism lives inside the layers). Determinism: the realisation
/// schedule counts train forwards only, so a fixed seed and schedule give
/// bitwise-identical training at any pool size.
class NoisyForward final : public nn::Network::ForwardHook {
 public:
  NoisyForward(nn::Network& net, const NoiseModel& model);
  ~NoisyForward() override;

  NoisyForward(const NoisyForward&) = delete;
  NoisyForward& operator=(const NoisyForward&) = delete;

  /// Train forwards seen so far.
  std::size_t forwards() const { return forwards_; }
  /// Realisation (chip) index the NEXT train forward will sample.
  std::uint64_t realisation() const {
    return forwards_ / model_->config().resample_every;
  }

  void on_forward_begin(nn::Network& net, Tensor& input) override;
  void on_layer_output(nn::Network& net, std::size_t index,
                       Tensor& x) override;
  void on_forward_end(nn::Network& net) override;

 private:
  /// One bound weight matrix: where the layer stores it + its noise stage.
  struct Target {
    const NoiseModel::Stage* stage = nullptr;
    Tensor* weight = nullptr;  ///< the layer's live weight tensor
    Tensor clean;              ///< saved clean weights while swapped
    double w_max = 1e-6;       ///< max |clean w| of the current forward
  };

  /// DAC-quantises (and scale-records) the activations entering layer
  /// `layer`; no-op when that layer is not a crossbar step.
  void prepare_input(std::size_t layer, Tensor& x);
  void restore_clean_weights();

  nn::Network* net_;
  const NoiseModel* model_;
  std::vector<Target> targets_;
  /// layer index → first target index (SIZE_MAX = not a crossbar step).
  std::vector<std::size_t> layer_first_target_;
  std::vector<double> pending_scales_;  ///< per-row/sample max |x| of the
                                        ///< input to the next crossbar step
  std::size_t forwards_ = 0;
  bool swapped_ = false;
};

}  // namespace gs::runtime
