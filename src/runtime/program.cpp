#include "runtime/program.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "nn/activations.hpp"
#include "nn/dropout.hpp"
#include "nn/pool2d.hpp"
#include "nn/weight_path.hpp"
#include "runtime/lane_quantizer.hpp"

namespace gs::runtime {

double quantize_uniform(double v, double full_scale, std::size_t levels) {
  const double step = 2.0 * full_scale / static_cast<double>(levels - 1);
  double idx = std::round((v + full_scale) / step);
  idx = std::clamp(idx, 0.0, static_cast<double>(levels - 1));
  // The mid state of an odd-count quantizer represents exactly 0. Return it
  // as such: the -fs + idx·step reconstruction below carries rounding error
  // whenever (levels-1) is not a power of two, and the tile-skip contract
  // requires a zero partial sum to round-trip to exactly 0 through an
  // odd-count ADC.
  if (levels % 2 == 1 && idx == static_cast<double>((levels - 1) / 2)) {
    return 0.0;
  }
  return -full_scale + idx * step;
}

void DacAdcParams::validate() const {
  GS_CHECK_MSG(dac_levels == 0 || dac_levels >= 2,
               "dac_levels must be 0 (ideal) or >= 2");
  GS_CHECK_MSG(adc_levels == 0 || adc_levels >= 2,
               "adc_levels must be 0 (ideal) or >= 2");
  GS_CHECK_MSG(dac_levels <= kMaxConverterLevels &&
                   adc_levels <= kMaxConverterLevels,
               "converter levels must be <= " << kMaxConverterLevels);
}

std::size_t MatrixPlan::skipped_tile_count() const {
  std::size_t n = 0;
  for (const ProgramTile& tile : tiles) {
    if (tile.skip) ++n;
  }
  return n;
}

std::size_t CrossbarProgram::tile_count() const {
  std::size_t n = 0;
  for (const Step& step : steps_) {
    for (const MatrixPlan& plan : step.stages) n += plan.tile_count();
  }
  return n;
}

std::size_t CrossbarProgram::skipped_tile_count() const {
  std::size_t n = 0;
  for (const Step& step : steps_) {
    for (const MatrixPlan& plan : step.stages) {
      n += plan.skipped_tile_count();
    }
  }
  return n;
}

std::size_t CrossbarProgram::stage_count() const {
  std::size_t n = 0;
  for (const Step& step : steps_) n += step.stages.size();
  return n;
}

bool CrossbarProgram::repacked() const {
  for (const Step& step : steps_) {
    for (const MatrixPlan& plan : step.stages) {
      if (!plan.repacked) return false;
    }
  }
  return stage_count() > 0;
}

std::size_t CrossbarProgram::removed_tile_count() const {
  std::size_t n = 0;
  for (const Step& step : steps_) {
    for (const MatrixPlan& plan : step.stages) n += plan.removed_tiles;
  }
  return n;
}

std::size_t CrossbarProgram::programmed_cell_count() const {
  std::size_t n = 0;
  for (const Step& step : steps_) {
    for (const MatrixPlan& plan : step.stages) n += plan.programmed_cells;
  }
  return n;
}

std::size_t CrossbarProgram::padded_cell_count() const {
  std::size_t n = 0;
  for (const Step& step : steps_) {
    for (const MatrixPlan& plan : step.stages) n += plan.padded_cells;
  }
  return n;
}

namespace {

/// True when the ADC maps a 0.0 partial sum to exactly 0.0: always for an
/// ideal converter, and for quantised converters only when the level count
/// is odd (an even count has no mid-scale state — zero would round to
/// ±step/2, so a skipped tile would not be a no-op).
bool adc_preserves_zero(const DacAdcParams& converters) {
  return converters.adc_levels == 0 || converters.adc_levels % 2 == 1;
}

/// True when every element is exactly 0.0f.
bool all_zero(const Tensor& t) {
  for (std::size_t i = 0; i < t.numel(); ++i) {
    if (t[i] != 0.0f) return false;
  }
  return true;
}

/// True when the repacked lowering of this device is provably exact, i.e.
/// bitwise identical to the padded execution it replaces: the ADC must map
/// a 0.0 partial sum to exactly 0.0 (dead columns would have contributed
/// ADC(0)), programming must be a pure per-cell function (variation_sigma
/// == 0 — a zero weight then realises an exactly-zero differential pair and
/// no RNG stream alignment is at stake), and IR-drop must be off (the
/// attenuation of a live cell depends on the array geometry, so a smaller
/// array would realise DIFFERENT live weights). These are the same physics
/// that gate a skip proof; when they fail, compile() falls back to the
/// padded lowering.
bool repack_is_exact(const CompileOptions& options) {
  return adc_preserves_zero(options.converters) &&
         options.analog.variation_sigma == 0.0 &&
         options.analog.wire_resistance == 0.0;
}

/// Lowers one weight matrix onto its repacked placement (hw::repack_tiles
/// realised as programmed crossbars): per tile, only the live rows × live
/// columns are programmed, with gather/scatter maps tying the small array
/// back to the matrix index space; fully-empty tiles are not programmed.
/// Caller guarantees repack_is_exact().
MatrixPlan make_repacked_plan(MatrixPlan plan, const Tensor& w,
                              const CompileOptions& options) {
  plan.repacked = true;
  plan.column_tiles.assign(plan.grid.grid_cols(), {});

  // DAC census: a matrix row is converted iff it feeds ≥1 live cell.
  for (std::size_t i = 0; i < w.rows(); ++i) {
    const float* row = w.data() + i * w.cols();
    for (std::size_t j = 0; j < w.cols(); ++j) {
      if (row[j] != 0.0f) {
        ++plan.live_input_wires;
        break;
      }
    }
  }

  // The repacked program is its own chip realisation with its own
  // programming pass; under the exactness gate (variation_sigma == 0) the
  // Rng is never drawn from, so live cells realise the identical effective
  // weights the padded programming would.
  Rng rng(options.analog.seed);
  for (std::size_t tr = 0; tr < plan.grid.grid_rows(); ++tr) {
    for (std::size_t tc = 0; tc < plan.grid.grid_cols(); ++tc) {
      const hw::GroupSlice slice = hw::tile_slice(plan.grid, tr, tc);
      plan.padded_cells += (slice.row_end - slice.row_begin) *
                           (slice.col_end - slice.col_begin);
      std::vector<std::uint32_t> live_rows;
      std::vector<std::uint32_t> live_cols;
      for (std::size_t i = slice.row_begin; i < slice.row_end; ++i) {
        for (std::size_t j = slice.col_begin; j < slice.col_end; ++j) {
          if (w.at(i, j) != 0.0f) {
            live_rows.push_back(static_cast<std::uint32_t>(i));
            break;
          }
        }
      }
      for (std::size_t j = slice.col_begin; j < slice.col_end; ++j) {
        for (std::size_t i = slice.row_begin; i < slice.row_end; ++i) {
          if (w.at(i, j) != 0.0f) {
            live_cols.push_back(static_cast<std::uint32_t>(j));
            break;
          }
        }
      }
      if (live_rows.empty() || live_cols.empty()) {
        ++plan.removed_tiles;  // Figure 9: the empty crossbar vanishes.
        continue;
      }
      Tensor tile(Shape{live_rows.size(), live_cols.size()});
      for (std::size_t ii = 0; ii < live_rows.size(); ++ii) {
        for (std::size_t jj = 0; jj < live_cols.size(); ++jj) {
          tile.at(ii, jj) = w.at(live_rows[ii], live_cols[jj]);
        }
      }
      ProgramTile programmed{
          slice, hw::AnalogCrossbar(tile, plan.w_max, options.analog, rng),
          /*skip=*/false, std::move(live_rows), std::move(live_cols)};
      plan.programmed_cells += tile.numel();
      plan.column_tiles[tc].push_back(
          static_cast<std::uint32_t>(plan.tiles.size()));
      plan.tiles.push_back(std::move(programmed));
    }
  }
  return plan;
}

/// Tiles and programs one weight matrix. The Rng is seeded per matrix from
/// the analog seed and tiles are visited row-major — the exact variation
/// stream of hw::analog_effective_matrix, so the runtime realises the same
/// nonideal weights the robustness analysis reports. (Skip-marked tiles are
/// still programmed, keeping that variation stream — and therefore every
/// non-skipped tile's weights — independent of the skip option.)
MatrixPlan make_plan(std::string name, const Tensor& w,
                     const CompileOptions& options) {
  GS_CHECK(w.rank() == 2);
  MatrixPlan plan;
  plan.name = std::move(name);
  plan.grid =
      hw::make_tile_grid(w.rows(), w.cols(), options.tech, options.policy);

  plan.w_max = hw::full_scale_weight(w);

  // Occupancy of the source matrix: the empty tiles produced by group
  // connection deletion are the skip (or removal) candidates.
  const std::vector<hw::TileOccupancy> occupancy =
      hw::analyze_tiles(w, plan.grid);
  plan.occupancy = hw::summarize_occupancy(occupancy);

  if (options.repack && repack_is_exact(options)) {
    return make_repacked_plan(std::move(plan), w, options);
  }

  const bool may_skip =
      options.skip_empty_tiles && adc_preserves_zero(options.converters);

  plan.live_input_wires = plan.grid.rows;
  Rng rng(options.analog.seed);
  plan.tiles.reserve(plan.grid.tile_count());
  for (std::size_t tr = 0; tr < plan.grid.grid_rows(); ++tr) {
    for (std::size_t tc = 0; tc < plan.grid.grid_cols(); ++tc) {
      const hw::GroupSlice slice = hw::tile_slice(plan.grid, tr, tc);
      Tensor tile(Shape{slice.row_end - slice.row_begin,
                        slice.col_end - slice.col_begin});
      for (std::size_t i = slice.row_begin; i < slice.row_end; ++i) {
        for (std::size_t j = slice.col_begin; j < slice.col_end; ++j) {
          tile.at(i - slice.row_begin, j - slice.col_begin) = w.at(i, j);
        }
      }
      plan.programmed_cells += tile.numel();
      plan.padded_cells += tile.numel();
      ProgramTile programmed{
          slice, hw::AnalogCrossbar(tile, plan.w_max, options.analog, rng),
          /*skip=*/false, /*in_gather=*/{}, /*out_scatter=*/{}};
      // Skip only on compile-time proof of a zero contribution: the weight
      // tile is empty AND the programmed array realises exactly-zero
      // effective weights (process variation perturbs the two g_min halves
      // differently, so a nonideal zero pair may still conduct — the
      // effective-weight check rejects those tiles automatically).
      if (may_skip && occupancy[tr * plan.grid.grid_cols() + tc].empty() &&
          all_zero(programmed.xbar.effective_weights())) {
        programmed.skip = true;
      }
      plan.tiles.push_back(std::move(programmed));
    }
  }
  return plan;
}

}  // namespace

CrossbarProgram compile(const nn::Network& net, const Shape& sample_shape,
                        const CompileOptions& options) {
  options.tech.validate();
  options.analog.validate();
  options.converters.validate();
  GS_CHECK_MSG(net.layer_count() > 0, "compile of an empty network");

  CrossbarProgram program;
  program.options_ = options;
  program.input_shape_ = sample_shape;

  Shape shape = sample_shape;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    const nn::Layer& layer = net.layer(i);
    Step step;
    step.name = layer.name();
    step.in_shape = shape;

    if (const auto* weighted = dynamic_cast<const nn::WeightLayer*>(&layer)) {
      // One stage per crossbar matrix: W, or U then Vᵀ (Figure 4).
      const auto* conv = dynamic_cast<const nn::ConvWeightLayer*>(weighted);
      step.kind = conv != nullptr ? Step::Kind::kConv : Step::Kind::kLinear;
      if (conv != nullptr) step.geometry = conv->geometry(shape);
      for (const nn::WeightMatrix& m : weighted->weight_matrices()) {
        step.stages.push_back(make_plan(m.name, *m.value, options));
      }
      step.bias = weighted->bias();
    } else if (const auto* p = dynamic_cast<const nn::Pool2dLayer*>(&layer)) {
      step.kind = p->mode() == nn::PoolMode::kMax ? Step::Kind::kMaxPool
                                                  : Step::Kind::kAvgPool;
      step.pool_kernel = p->kernel();
      step.pool_stride = p->stride();
    } else if (dynamic_cast<const nn::ReluLayer*>(&layer) != nullptr) {
      step.kind = Step::Kind::kRelu;
    } else if (dynamic_cast<const nn::FlattenLayer*>(&layer) != nullptr) {
      step.kind = Step::Kind::kFlatten;
    } else if (dynamic_cast<const nn::DropoutLayer*>(&layer) != nullptr) {
      step.kind = Step::Kind::kIdentity;  // inference-time identity
    } else {
      GS_CHECK_MSG(false, "runtime compile: unsupported layer '"
                              << layer.name() << "'");
    }

    shape = layer.output_shape(shape);
    step.out_shape = shape;
    program.steps_.push_back(std::move(step));
  }
  program.output_shape_ = shape;
  return program;
}

FaultInjectionReport inject_faults(CrossbarProgram& program,
                                   const hw::FaultModelConfig& config,
                                   std::string_view label) {
  config.validate();
  FaultInjectionReport report;
  for (Step& step : program.steps_) {
    for (MatrixPlan& plan : step.stages) {
      const std::string scope = std::string(label) + plan.name;
      const std::string stuck_label = "fault:stuck:" + scope;
      const std::string drift_label = "fault:drift:" + scope;
      for (std::size_t t = 0; t < plan.tiles.size(); ++t) {
        ProgramTile& tile = plan.tiles[t];
        Rng stuck_rng = derive_stream(config.seed, stuck_label, t);
        Rng drift_rng = derive_stream(config.seed, drift_label, t);
        const hw::FaultSummary summary =
            hw::apply_faults(tile.xbar, config, stuck_rng, drift_rng);
        ++report.tiles;
        report.devices += summary;
        if (summary.stuck_gmin + summary.stuck_gmax + summary.drifted > 0) {
          ++report.faulty_tiles;
        }
        // A fault can invalidate the compile-time skip proof (a stuck
        // device makes a provably-zero tile conduct): clear the mark so the
        // executor runs the tile again. Faults never CREATE a skip — the
        // proof also requires an all-zero weight tile, which injection
        // cannot establish.
        if (tile.skip && !all_zero(tile.xbar.effective_weights())) {
          tile.skip = false;
          ++report.unskipped_tiles;
        }
      }
    }
  }
  return report;
}

namespace {

void checksum_bytes(std::uint64_t& hash, const void* data, std::size_t size) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;  // FNV-1a 64-bit prime
  }
}

}  // namespace

std::uint64_t program_checksum(const CrossbarProgram& program) {
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis
  for (const Step& step : program.steps()) {
    for (const MatrixPlan& plan : step.stages) {
      for (const ProgramTile& tile : plan.tiles) {
        const Tensor& gp = tile.xbar.conductance_plus();
        const Tensor& gm = tile.xbar.conductance_minus();
        const Tensor& eff = tile.xbar.effective_weights();
        checksum_bytes(hash, gp.data(), gp.numel() * sizeof(float));
        checksum_bytes(hash, gm.data(), gm.numel() * sizeof(float));
        checksum_bytes(hash, eff.data(), eff.numel() * sizeof(float));
        const unsigned char skip = tile.skip ? 1 : 0;
        checksum_bytes(hash, &skip, 1);
        // Repacked tiles: the index maps are part of the programmed state
        // (they decide which wires the small array serves). Empty on padded
        // plans, so padded checksums are unchanged.
        checksum_bytes(hash, tile.in_gather.data(),
                       tile.in_gather.size() * sizeof(std::uint32_t));
        checksum_bytes(hash, tile.out_scatter.data(),
                       tile.out_scatter.size() * sizeof(std::uint32_t));
      }
    }
  }
  return hash;
}

}  // namespace gs::runtime
