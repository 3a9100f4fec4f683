// Crossbar program compiler — lowers a trained gs::nn network into a tiled
// analog execution plan.
//
// The rest of the repo *analyzes* the NCS mapping (area, wires, effective
// weights); this module *runs* it. compile() walks a network layer by layer
// and lowers every weight matrix the same way the hardware report does:
//  * dense / low-rank / conv weights (conv via the im2col unrolled view) are
//    tiled onto library crossbars with hw::make_tile_grid under the chosen
//    MappingPolicy, and every tile is programmed as an hw::AnalogCrossbar —
//    differential conductance pairs, programming quantisation, process
//    variation, IR-drop — seeded exactly like hw::analog_effective_matrix so
//    runtime weights and the robustness bench agree bit for bit;
//  * zero weights (deleted groups) program both halves of the differential
//    pair to g_min, i.e. a zero pair: a deleted wire contributes nothing;
//  * tiles that are COMPLETELY zero (group connection deletion empties whole
//    crossbars) are marked `skip` when their contribution is provably zero
//    for every input, so the executor elides their MVM→ADC work — see
//    CompileOptions::skip_empty_tiles;
//  * with CompileOptions::repack, each matrix is lowered onto its repacked
//    placement (hw/repack.hpp, the paper's Figure 9 closing observation):
//    every tile is programmed from its live rows × live cols only, carries
//    input-gather/output-scatter index maps, and fully-empty tiles are not
//    programmed at all — fewer, fuller crossbars instead of padded ones;
//  * low-rank layers lower to TWO chained crossbar stages (U then Vᵀ), the
//    interconnected arrays of Figure 4, each with its own DAC/ADC boundary;
//  * stateless layers (ReLU, pooling, flatten, dropout-at-eval) become
//    digital peripheral steps.
//
// Execution semantics (runtime/executor.hpp) are fixed by the program:
// per-input-vector DAC quantisation, per-tile analog MVM, per-tile ADC
// quantisation, then digital partial-sum accumulation over tile rows in
// fixed order — bitwise deterministic at any thread count.
//
// Thread-safety: compile() is a pure function; a CrossbarProgram is
// immutable under the executor EXCEPT through inject_faults(), which the
// caller must serialise against concurrent forwards (the sharded server
// holds the replica's program lock exclusively — runtime/shard.hpp).
// Determinism: programming is seeded identically to
// hw::analog_effective_matrix and fault realisations are pure functions of
// their stream keys, so programs and checksums replay bitwise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hw/analog.hpp"
#include "hw/crossbar.hpp"
#include "hw/fault_model.hpp"
#include "hw/tiling.hpp"
#include "nn/network.hpp"
#include "tensor/im2col.hpp"

namespace gs::runtime {

/// Digital/analog converter resolution at each crossbar stage boundary.
/// `levels` counts uniformly-spaced states across the full scale; 0 keeps
/// the boundary ideal (float passthrough), mirroring AnalogParams::levels.
/// validate() admits 0 or 2..kMaxConverterLevels (runtime/lane_quantizer.hpp
/// — the executor's quantiser indexes states in int32).
struct DacAdcParams {
  std::size_t dac_levels = 0;  ///< input-voltage states (0 = ideal DAC)
  std::size_t adc_levels = 0;  ///< readout states (0 = ideal ADC)

  void validate() const;
};

/// The shared converter model: snaps `v` to the nearest of `levels`
/// uniformly-spaced states across [-full_scale, +full_scale], clamping at
/// the rails. The mid state of an odd level count returns exactly 0.0 (the
/// tile-skip contract requires a zero partial sum to round-trip through an
/// odd-count ADC). The converter model of the training-time noise model
/// (noise_model.hpp) and the oracle of the executor's LaneQuantizer
/// (lane_quantizer.hpp), which returns its exact bits, so training and
/// execution quantise identically. Requires levels >= 2.
double quantize_uniform(double v, double full_scale, std::size_t levels);

/// Everything compile() needs to know about the target hardware. The
/// defaults are the paper technology with an ideal device (continuous
/// conductances, no variation, no IR-drop, ideal converters) — the
/// float-reference mode that must reproduce the digital forward.
struct CompileOptions {
  hw::TechnologyParams tech = hw::paper_technology();
  hw::MappingPolicy policy = hw::MappingPolicy::kDivisorExact;
  hw::AnalogParams analog;
  DacAdcParams converters;
  /// Mark tiles whose analog contribution is provably zero for every input
  /// (all-zero weight tile per hw::analyze_tiles, all-zero EFFECTIVE weights
  /// after programming, and an ADC that maps 0→0) so the executor skips
  /// their MVM→ADC work entirely. Group connection deletion produces exactly
  /// such tiles. Logits are bitwise identical with skipping on or off — the
  /// marking criterion admits only tiles that contribute exactly nothing and
  /// the partial-sum order of the remaining tiles is unchanged — so the
  /// switch exists only for ablation benches.
  bool skip_empty_tiles = true;
  /// Lower each matrix onto its repacked placement (hw::repack_tiles): every
  /// tile is programmed from its live rows × live columns only, with
  /// per-tile gather/scatter index maps, and fully-empty tiles vanish from
  /// the schedule — the executor then runs the COMPRESSED network (fewer
  /// DAC/ADC conversions, less partial-sum traffic) instead of skipping
  /// holes in the padded one.
  ///
  /// Repacking applies only when the lowering is provably exact, i.e. when
  /// dropping a dead wire removes exactly-zero terms: the ADC must map 0→0
  /// (ideal or odd-level — the tile-skip criterion) AND programming must be
  /// deterministic per cell (variation_sigma == 0) AND IR-drop must be off
  /// (wire_resistance == 0; attenuation depends on tile geometry, so a
  /// smaller array would realise different live weights). When any of these
  /// fail, compile() falls back to the padded lowering with skip marks —
  /// exactly the conditions that block a skip proof block repacking. On an
  /// admitted device the repacked logits are bitwise identical to the padded
  /// path (the differential property suite asserts this).
  bool repack = false;
};

/// One programmed crossbar tile and the matrix slice it implements.
struct ProgramTile {
  hw::GroupSlice slice;     ///< element range within the weight matrix
  hw::AnalogCrossbar xbar;  ///< programmed differential-pair array
  /// Compile-time proof that this tile contributes exactly zero to every
  /// partial sum (see CompileOptions::skip_empty_tiles); the executor skips
  /// its MVM and ADC.
  bool skip = false;
  /// Repacked lowering only (MatrixPlan::repacked; empty on padded plans):
  /// absolute matrix row index feeding each crossbar input wire — the
  /// executor gathers activation element in_gather[i] into wire i — and
  /// absolute matrix column index each crossbar output wire scatters its
  /// ADC result to. Both ascending, so partial-sum order is preserved.
  std::vector<std::uint32_t> in_gather;
  std::vector<std::uint32_t> out_scatter;
};

/// Tiled analog mapping of one (in × out) weight matrix: the schedule is
/// row-major over (tile_row, tile_col); all tiles of one tile column feed
/// the same output slice and are accumulated in ascending tile-row order
/// (skip-marked tiles drop out of the sum without disturbing that order).
struct MatrixPlan {
  std::string name;      ///< nn::WeightMatrix name: "fc1", "conv2_u", …
  hw::TileGrid grid;
  double w_max = 0.0;    ///< hw::full_scale_weight of the matrix (DAC ref)
  std::vector<ProgramTile> tiles;
  /// Occupancy of the source matrix at tolerance 0 (hw::summarize_occupancy)
  /// — recorded at compile so callers can query emptiness without rescans.
  hw::OccupancySummary occupancy;
  /// True when this plan was lowered onto the repacked placement (see
  /// CompileOptions::repack). Padded plans keep the dense row-major layout
  /// (`tiles[tr * grid_cols + tc]`); repacked plans drop removed tiles from
  /// `tiles` and index the survivors through `column_tiles`.
  bool repacked = false;
  /// Repacked plans only: row-major indices into `tiles` per tile column,
  /// ascending tile row — the executor's fixed partial-sum order.
  std::vector<std::vector<std::uint32_t>> column_tiles;
  /// Distinct matrix rows that feed at least one programmed tile — the DAC
  /// conversions one input vector costs. Equals grid.rows on padded plans.
  std::size_t live_input_wires = 0;
  /// Physically programmed crossbar cells, and what the padded lowering of
  /// the same matrix programs (the clamped-tile census — matches
  /// hw::RepackReport::repacked_cells / original_cells at tolerance 0).
  std::size_t programmed_cells = 0;
  std::size_t padded_cells = 0;
  /// Repacked plans only: fully-empty tiles removed from the schedule.
  std::size_t removed_tiles = 0;

  std::size_t tile_count() const { return tiles.size(); }
  std::size_t skipped_tile_count() const;
};

/// One executable step of the lowered network.
struct Step {
  enum class Kind {
    kLinear,    ///< dense or low-rank FC: 1–2 crossbar stages + bias
    kConv,      ///< conv via im2col: 1–2 crossbar stages + bias + re-tile
    kRelu,      ///< digital peripheral max(0, x)
    kMaxPool,   ///< digital peripheral pooling (ceil mode)
    kAvgPool,
    kFlatten,   ///< B×C×H×W → B×(C·H·W)
    kIdentity,  ///< eval-time no-op (dropout)
  };

  Kind kind = Kind::kIdentity;
  std::string name;
  std::vector<MatrixPlan> stages;  ///< crossbar stages, executed in order
  Tensor bias;                     ///< added digitally after the last stage
  ConvGeometry geometry;           ///< kConv only
  std::size_t pool_kernel = 0;     ///< pooling steps only
  std::size_t pool_stride = 0;
  Shape in_shape;   ///< per-sample shape entering the step
  Shape out_shape;  ///< per-sample shape leaving the step
};

/// What one inject_faults() pass did to a program (per-device tallies from
/// hw::FaultSummary plus the tile-level consequences).
struct FaultInjectionReport {
  std::size_t tiles = 0;            ///< programmed tiles visited
  std::size_t faulty_tiles = 0;     ///< tiles with ≥1 stuck or drifted device
  std::size_t unskipped_tiles = 0;  ///< skip proofs invalidated by a fault
  hw::FaultSummary devices;         ///< per-device stuck/drift tallies
};

/// A compiled network: the full tile schedule plus the shapes it serves.
/// Immutable after compile() returns; safe to share across threads (the
/// executor and the serving engines only read it).
class CrossbarProgram {
 public:
  const std::vector<Step>& steps() const { return steps_; }
  const CompileOptions& options() const { return options_; }
  /// Per-sample input shape the program was compiled for (C,H,W or features).
  const Shape& input_shape() const { return input_shape_; }
  /// Per-sample output (logits) shape.
  const Shape& output_shape() const { return output_shape_; }

  /// Total programmed crossbar tiles across all steps and stages.
  std::size_t tile_count() const;
  /// Tiles marked skippable (provably-zero contribution; see
  /// CompileOptions::skip_empty_tiles) — the executor never touches them.
  std::size_t skipped_tile_count() const;
  /// Total crossbar stages (matrix plans) — 2 per low-rank layer.
  std::size_t stage_count() const;
  /// True when every stage was lowered onto its repacked placement — the
  /// exactness gate admitted the device (see CompileOptions::repack). False
  /// means the padded fallback ran (even if options().repack was requested).
  bool repacked() const;
  /// Repacked lowering only: fully-empty tiles dropped from the schedule
  /// (they are NOT part of tile_count()).
  std::size_t removed_tile_count() const;
  /// Physically programmed crossbar cells, and the padded-lowering cell
  /// count of the same matrices — their ratio is the Figure 9 area saving
  /// the program actually realises.
  std::size_t programmed_cell_count() const;
  std::size_t padded_cell_count() const;

 private:
  friend CrossbarProgram compile(const nn::Network&, const Shape&,
                                 const CompileOptions&);
  friend FaultInjectionReport inject_faults(CrossbarProgram&,
                                            const hw::FaultModelConfig&,
                                            std::string_view);
  std::vector<Step> steps_;
  CompileOptions options_;
  Shape input_shape_;
  Shape output_shape_;
};

/// Lowers `net` (dense, low-rank, conv, pooling, ReLU, flatten, dropout
/// layers) into a crossbar program for samples of `sample_shape`. Throws via
/// GS_CHECK on unsupported layer types.
CrossbarProgram compile(const nn::Network& net, const Shape& sample_shape,
                        const CompileOptions& options = {});

/// Mutates `program` in place with a deterministic fault realisation:
/// stuck-at devices and conductance drift per hw::apply_faults, with each
/// tile's two fault streams keyed by
///   derive_stream_seed(config.seed, "fault:stuck:<label><plan>", tile)
///   derive_stream_seed(config.seed, "fault:drift:<label><plan>", tile)
/// (`label` is the caller's scope — the sharded server passes
/// "replica<r>:" so each replica chip realises its own faults; `plan` is
/// the stage name, `tile` the index within the plan's tile schedule —
/// row-major over the programmed tiles, so on a repacked plan removed
/// crossbars have no stream at all: a crossbar that does not exist cannot
/// fault). A realisation is a
/// pure function of its key: injecting the same (seed, label) into a
/// bitwise-equal program yields a bitwise-equal faulty program, and no
/// tile's faults depend on any other tile, matrix, or replica.
///
/// Tiles whose skip proof a fault invalidates (a stuck device makes a
/// provably-zero tile conduct) have `skip` cleared so the executor runs
/// them again — fault injection never breaks the bitwise skip contract.
/// Injection composes: calling it twice models two fault events on the
/// same chip (the second pass mutates the already-faulty conductances).
///
/// NOT thread-safe against concurrent executor forwards on the same
/// program — callers serialise (the sharded server holds the replica's
/// program lock).
FaultInjectionReport inject_faults(CrossbarProgram& program,
                                   const hw::FaultModelConfig& config,
                                   std::string_view label = {});

/// FNV-1a fingerprint of the full programmed state: every tile's
/// conductance pairs, effective weights, skip flag, and (repacked plans)
/// gather/scatter index maps, in schedule order.
/// Bitwise-equal programs (including their fault state) ⇒ equal checksums;
/// the fault-determinism tests and the serving_faults bench replay gate
/// compare these across runs.
std::uint64_t program_checksum(const CrossbarProgram& program);

}  // namespace gs::runtime
