// Tiling of a weight matrix onto an array of crossbars (Figure 4), and the
// row/column connection groups that group connection deletion operates on.
//
// For an n×k matrix tiled by P×Q crossbars:
//  * a ROW GROUP (i, tc) is the segment of matrix row i inside tile-column
//    tc — the connections driven by ONE crossbar input wire;
//  * a COLUMN GROUP (tr, j) is the segment of matrix column j inside
//    tile-row tr — the connections feeding ONE crossbar output wire.
// Deleting a group ⇔ removing that wire. These definitions are shared by the
// hardware wire counter (hw/area.hpp) and the group-Lasso regulariser
// (compress/group_lasso.hpp), so "what the trainer zeroes" and "what the
// wire counter deletes" are the same object by construction.
//
// Thread-safety: pure functions of the matrix/crossbar dimensions
// returning value types; safe to call concurrently.
// Determinism: tile and group enumeration is arithmetic on indices in
// fixed order — no randomness, no unordered iteration.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "hw/crossbar.hpp"
#include "tensor/tensor.hpp"

namespace gs {
class ThreadPool;
}

namespace gs::hw {

/// Geometry of one matrix→crossbar-array mapping. Plain value type: freely
/// copyable and thread-safe to share.
struct TileGrid {
  std::size_t rows = 0;       ///< matrix rows n
  std::size_t cols = 0;       ///< matrix cols k
  CrossbarSpec tile;          ///< selected crossbar P×Q

  std::size_t grid_rows() const {  ///< ⌈n/P⌉
    return (rows + tile.rows - 1) / tile.rows;
  }
  std::size_t grid_cols() const {  ///< ⌈k/Q⌉
    return (cols + tile.cols - 1) / tile.cols;
  }
  std::size_t tile_count() const { return grid_rows() * grid_cols(); }
  /// True when the tiling has no padded cells (always true for
  /// kDivisorExact selection).
  bool exact() const {
    return rows % tile.rows == 0 && cols % tile.cols == 0;
  }
  /// Number of row groups = n·⌈k/Q⌉ (one crossbar input wire each).
  std::size_t row_group_count() const { return rows * grid_cols(); }
  /// Number of column groups = k·⌈n/P⌉ (one crossbar output wire each).
  std::size_t col_group_count() const { return cols * grid_rows(); }
  /// Total wires of the unpruned array (row + column groups).
  std::size_t total_wires() const {
    return row_group_count() + col_group_count();
  }
};

/// Builds the tile grid for an n×k matrix under the given policy.
TileGrid make_tile_grid(std::size_t n, std::size_t k,
                        const TechnologyParams& tech,
                        MappingPolicy policy = MappingPolicy::kDivisorExact);

/// Half-open element range of a group within the matrix.
struct GroupSlice {
  std::size_t row_begin = 0, row_end = 0;
  std::size_t col_begin = 0, col_end = 0;
  std::size_t count() const {
    return (row_end - row_begin) * (col_end - col_begin);
  }
};

/// Slice of row group (matrix row `i`, tile column `tc`).
GroupSlice row_group_slice(const TileGrid& grid, std::size_t i,
                           std::size_t tc);
/// Slice of column group (tile row `tr`, matrix column `j`).
GroupSlice col_group_slice(const TileGrid& grid, std::size_t tr,
                           std::size_t j);
/// Element range of tile (tr, tc) — clamped at the matrix edge for padded
/// mappings. Every row/column group lies inside exactly one tile, which is
/// why tiles are the parallel work unit of all group sweeps.
GroupSlice tile_slice(const TileGrid& grid, std::size_t tr, std::size_t tc);

/// Smallest number of crossbar cells (P·Q per tile) one task of
/// parallel_for_tile_runs() covers.
inline constexpr std::size_t kTileRunCells = 16384;

/// The parallel loop of every tile sweep: runs fn(first, last) over runs
/// of consecutive tiles [first, last) in row-major (tile_row, tile_col)
/// order, one pool task per run (`pool` defaults to ThreadPool::global()).
/// Each run spans at least kTileRunCells cells, except the grid's last,
/// so a grid of thousands of tiny tiles costs a handful of tasks and a
/// sweep keeps one scratch buffer per run, not per tile. The runs depend
/// only on the grid: a sweep whose per-tile work touches only that tile's
/// outputs is bitwise identical at any pool size.
void parallel_for_tile_runs(
    const TileGrid& grid, ThreadPool* pool,
    const std::function<void(std::size_t first, std::size_t last)>& fn);

/// L2 norm of the matrix elements in a slice (double accumulation).
double group_norm(const Tensor& m, const GroupSlice& slice);

/// True when every element of the slice is ≤ `tol` in magnitude.
bool group_is_zero(const Tensor& m, const GroupSlice& slice, float tol);

/// Per-tile occupancy statistics — backs the Fig. 9 analysis (empty
/// crossbars are removable; zero rows/cols allow a smaller dense crossbar).
///
/// `cells` counts LOGICAL (weight-holding) cells only: ragged edge tiles of
/// a kPaddedMax mapping hold fewer than P·Q weights, and occupancy ratios
/// must be taken against that clamped extent or they are silently
/// understated. Padding needed for area math stays available through
/// `physical_cells`.
struct TileOccupancy {
  std::size_t tile_row = 0;
  std::size_t tile_col = 0;
  std::size_t rows = 0;          ///< logical tile rows (≤ P at the edge)
  std::size_t cols = 0;          ///< logical tile cols (≤ Q at the edge)
  std::size_t nonzero_cells = 0;
  std::size_t nonzero_rows = 0;  ///< rows of the tile with any nonzero
  std::size_t nonzero_cols = 0;  ///< cols of the tile with any nonzero
  std::size_t cells = 0;         ///< logical cells rows·cols
  std::size_t physical_cells = 0;  ///< crossbar capacity P·Q incl. padding
  std::size_t padding_cells() const { return physical_cells - cells; }
  bool empty() const { return nonzero_cells == 0; }
};

/// Scans a matrix and reports occupancy for every tile of the grid (one
/// parallel task per run of tiles, parallel_for_tile_runs; `pool` defaults
/// to ThreadPool::global()). The result is ordered row-major by
/// (tile_row, tile_col) and is bitwise identical at any pool size.
std::vector<TileOccupancy> analyze_tiles(const Tensor& m, const TileGrid& grid,
                                         float tol = 0.0f,
                                         ThreadPool* pool = nullptr);

/// Whole-matrix aggregate of an analyze_tiles() scan — the compact occupancy
/// query surface consumed by the crossbar runtime (empty tiles are execution
/// no-ops the compiler can mark for skipping, see runtime/program.hpp) and
/// by the pipeline/deletion reports. Plain value type; thread-safe to share
/// by copy, deterministic for a given occupancy vector.
struct OccupancySummary {
  std::size_t tiles = 0;
  std::size_t empty_tiles = 0;     ///< tiles with no nonzero cell
  std::size_t nonzero_cells = 0;
  std::size_t logical_cells = 0;   ///< Σ rows·cols (clamped extents)
  std::size_t physical_cells = 0;  ///< Σ P·Q including edge padding

  /// Fraction of logical cells holding a nonzero weight.
  double occupancy() const {
    return logical_cells == 0
               ? 0.0
               : static_cast<double>(nonzero_cells) / logical_cells;
  }
  /// Fraction of tiles that are completely empty (removable crossbars).
  double empty_tile_ratio() const {
    return tiles == 0 ? 0.0 : static_cast<double>(empty_tiles) / tiles;
  }
};

/// Folds a per-tile occupancy scan into its whole-matrix summary.
OccupancySummary summarize_occupancy(const std::vector<TileOccupancy>& tiles);

}  // namespace gs::hw
