// Area and routing estimation (§3.3) for matrices mapped onto crossbars.
//
// Crossbar (synapse) area: cells × 4F². Under the paper's divisor-exact
// tiling the cell count of an n×k matrix is exactly n·k; under padded
// tiling it is tile_count·P·Q (padding wastes cells).
//
// Routing: every tile consumes P input + Q output wires. A wire can be
// deleted iff its whole connection group is zero. Eq. (8) models routing
// area as Ar = α·Nw², so a layer whose wire count drops to ratio r keeps
// routing-area ratio r².
//
// Everything here is a pure function of its inputs (count_routing_wires
// sweeps tiles in parallel but each tile owns disjoint counters, so the
// census is identical at any pool size); results are value types that are
// thread-safe to share.
//
// Thread-safety: all functions are const sweeps over caller-owned data;
// concurrent calls on distinct outputs are safe. Results are value types.
// Determinism: pure functions of their inputs — the parallel tile census
// gives each tile disjoint counters and folds in fixed index order, so
// results are bitwise identical at any GS_NUM_THREADS.
#pragma once

#include <cstddef>

#include "hw/tiling.hpp"

namespace gs::hw {

/// Synapse-array area of one mapped matrix.
struct CrossbarArea {
  std::size_t cells = 0;       ///< physical cells incl. padding
  std::size_t used_cells = 0;  ///< n·k weight cells
  double area_f2 = 0.0;        ///< cells × cell_area
  std::size_t tile_count = 0;
};

/// Area of an n×k matrix under the grid's tiling.
CrossbarArea crossbar_area(const TileGrid& grid, const TechnologyParams& tech);

/// Convenience: area of an n×k matrix (builds the grid internally).
CrossbarArea crossbar_area(std::size_t n, std::size_t k,
                           const TechnologyParams& tech,
                           MappingPolicy policy = MappingPolicy::kDivisorExact);

/// Crossbar cell count of a rank-K factor pair (N·K + K·M) versus the dense
/// matrix (N·M) — the Eq. (2) accounting used for Table 1/Fig. 7 ratios.
struct FactorAreaComparison {
  std::size_t dense_cells = 0;
  std::size_t factored_cells = 0;
  double ratio() const {
    return dense_cells == 0
               ? 0.0
               : static_cast<double>(factored_cells) / dense_cells;
  }
};
FactorAreaComparison compare_factor_area(std::size_t n, std::size_t m,
                                         std::size_t k);

/// Wire census of a (possibly pruned) matrix on a tile grid.
struct WireCount {
  std::size_t total = 0;          ///< wires of the unpruned array
  std::size_t remaining = 0;      ///< wires whose group has a nonzero weight
  std::size_t deleted() const { return total - remaining; }
  double remaining_ratio() const {
    return total == 0 ? 0.0 : static_cast<double>(remaining) / total;
  }
};

/// Counts remaining routing wires: one wire per non-zero row group plus one
/// per non-zero column group (zero = all |w| ≤ tol). Sweeps one parallel
/// task per run of tiles (parallel_for_tile_runs; `pool` defaults to
/// ThreadPool::global()); the count is identical at any pool size.
WireCount count_routing_wires(const Tensor& m, const TileGrid& grid,
                              float tol = 0.0f, ThreadPool* pool = nullptr);

/// Eq. (8): routing area for a given wire count.
double routing_area(std::size_t wire_count, const TechnologyParams& tech);

/// Remaining routing-area ratio for a wire census: (remaining/total)².
double routing_area_ratio(const WireCount& wires);

}  // namespace gs::hw
