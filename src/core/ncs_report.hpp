// Whole-network NCS design report: every weight matrix mapped to crossbars,
// with synapse area and routing-wire census — the machinery behind Table 1's
// area claims, Table 3, and Figures 7–8.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "hw/area.hpp"
#include "nn/network.hpp"

namespace gs::core {

/// One mapped weight matrix of the design.
struct MatrixReport {
  std::string name;      ///< "conv2_u", "fc2", …
  std::size_t rows = 0;
  std::size_t cols = 0;
  hw::CrossbarSpec mbc;  ///< selected crossbar size
  std::size_t tile_count = 0;
  std::size_t cells = 0;          ///< physical crossbar cells
  double area_f2 = 0.0;           ///< synapse-array area
  hw::WireCount wires;            ///< routing census at tol=0
  double routing_area_ratio = 0;  ///< (remaining/total)²
  std::size_t empty_tiles = 0;    ///< removable crossbars
};

/// Aggregates over a network.
struct NcsReport {
  std::vector<MatrixReport> matrices;
  std::size_t total_cells = 0;
  double total_area_f2 = 0.0;
  std::size_t total_wires = 0;
  std::size_t remaining_wires = 0;
  std::size_t total_tiles = 0;

  /// Accuracy of the same network through the digital forward pass, through
  /// the crossbar runtime (runtime/executor.hpp), and through the sharded
  /// multi-replica serving path (runtime/shard.hpp). Negative = not
  /// measured; the pipeline fills these for its final report so analog
  /// inference is graded next to the digital reference.
  double digital_accuracy = -1.0;
  double runtime_accuracy = -1.0;
  double sharded_accuracy = -1.0;

  /// Crossbar-runtime accuracy on the NONIDEAL target device before and
  /// after the nonideal-aware fine-tune stage (noise-injected training from
  /// the compiled program — runtime/noise_model.hpp). Negative = stage not
  /// run. The before number is the eval-only baseline the stage exists to
  /// beat; digital_accuracy is re-measured after the stage so drift of the
  /// clean network is visible next to the recovered analog accuracy.
  double nonideal_accuracy_before = -1.0;
  double nonideal_accuracy_after = -1.0;

  /// Crossbar-runtime accuracy on a FAULT-INJECTED chip (stuck-at devices
  /// at `fault_rate`, runtime/inject_faults with the pipeline's fault seed)
  /// — the compression's fault sensitivity, graded next to
  /// nonideal/runtime accuracy. Negative = not measured.
  double faulty_accuracy = -1.0;
  double fault_rate = 0.0;  ///< per-device stuck-at rate behind the number

  /// Tile schedule of the compiled runtime program: total crossbar tiles and
  /// how many of them the compiler proved skippable (all-zero tiles left by
  /// group connection deletion — runtime/program.hpp). Only populated when
  /// the pipeline's runtime evaluation ran.
  std::size_t runtime_tiles = 0;
  std::size_t runtime_skipped_tiles = 0;

  /// Repacked compile of the same network (CompileOptions::repack): crossbar
  /// tiles actually programmed after empty tiles are dropped and live
  /// rows/columns gathered, the programmed-cell fraction of the padded
  /// schedule (programmed / padded cells), and the eval accuracy through the
  /// repacked executor — on the exactness-gated ideal device it must equal
  /// runtime_accuracy bitwise. Zero tiles / negative values = repack
  /// evaluation did not run.
  std::size_t repacked_tiles = 0;
  double repacked_cells_ratio = -1.0;
  double repacked_accuracy = -1.0;

  /// Digital block-compressed inference accuracy (linalg/compressed.hpp
  /// panels packed over the deleted network) — must equal digital_accuracy;
  /// recorded so the differential gate is visible in the report. Negative =
  /// not measured.
  double compressed_digital_accuracy = -1.0;

  /// Per-sample energy proxies of the same compiled program — one
  /// inference's converter/MVM/digital work under the paper's cost model
  /// (obs/exec_profile.hpp counts them from the tile schedule; skipped
  /// tiles contribute nothing). Only populated when the pipeline's runtime
  /// evaluation ran.
  std::uint64_t runtime_dac_conversions = 0;
  std::uint64_t runtime_adc_conversions = 0;
  std::uint64_t runtime_analog_mvms = 0;
  std::uint64_t runtime_digital_flops = 0;
  std::uint64_t runtime_partial_sum_bytes = 0;

  /// Cell count the same network would need with every factorised layer
  /// dense (N·M) — the denominator of the paper's crossbar-area ratios.
  std::size_t dense_baseline_cells = 0;

  double crossbar_area_ratio() const {
    return dense_baseline_cells == 0
               ? 1.0
               : static_cast<double>(total_cells) / dense_baseline_cells;
  }
  /// Mean over matrices of per-matrix (wire ratio)² — the §4.2 aggregation.
  double mean_routing_area_ratio() const;
};

/// Builds the report by walking every weight matrix of `net`
/// (Layer::weight_matrices(): U and Vᵀ of a factorised layer, the weight of
/// a dense/conv layer). `zero_tol` is the |w| threshold for the wire census.
NcsReport build_ncs_report(nn::Network& net, const hw::TechnologyParams& tech,
                           hw::MappingPolicy policy =
                               hw::MappingPolicy::kDivisorExact,
                           float zero_tol = 0.0f);

/// Pretty-prints the report as an ASCII table.
void print_ncs_report(std::ostream& out, const NcsReport& report);

}  // namespace gs::core
