#include "hw/tiling.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace gs::hw {

TileGrid make_tile_grid(std::size_t n, std::size_t k,
                        const TechnologyParams& tech, MappingPolicy policy) {
  TileGrid grid;
  grid.rows = n;
  grid.cols = k;
  grid.tile = select_mbc_size(n, k, tech, policy);
  return grid;
}

GroupSlice row_group_slice(const TileGrid& grid, std::size_t i,
                           std::size_t tc) {
  GS_CHECK_MSG(i < grid.rows, "row " << i << " out of " << grid.rows);
  GS_CHECK_MSG(tc < grid.grid_cols(),
               "tile col " << tc << " out of " << grid.grid_cols());
  GroupSlice s;
  s.row_begin = i;
  s.row_end = i + 1;
  s.col_begin = tc * grid.tile.cols;
  s.col_end = std::min(s.col_begin + grid.tile.cols, grid.cols);
  return s;
}

GroupSlice col_group_slice(const TileGrid& grid, std::size_t tr,
                           std::size_t j) {
  GS_CHECK_MSG(j < grid.cols, "col " << j << " out of " << grid.cols);
  GS_CHECK_MSG(tr < grid.grid_rows(),
               "tile row " << tr << " out of " << grid.grid_rows());
  GroupSlice s;
  s.col_begin = j;
  s.col_end = j + 1;
  s.row_begin = tr * grid.tile.rows;
  s.row_end = std::min(s.row_begin + grid.tile.rows, grid.rows);
  return s;
}

GroupSlice tile_slice(const TileGrid& grid, std::size_t tr, std::size_t tc) {
  GS_CHECK_MSG(tr < grid.grid_rows(),
               "tile row " << tr << " out of " << grid.grid_rows());
  GS_CHECK_MSG(tc < grid.grid_cols(),
               "tile col " << tc << " out of " << grid.grid_cols());
  GroupSlice s;
  s.row_begin = tr * grid.tile.rows;
  s.row_end = std::min(s.row_begin + grid.tile.rows, grid.rows);
  s.col_begin = tc * grid.tile.cols;
  s.col_end = std::min(s.col_begin + grid.tile.cols, grid.cols);
  return s;
}

void parallel_for_tile_runs(
    const TileGrid& grid, ThreadPool* pool,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  const std::size_t tiles = grid.tile_count();
  const std::size_t per_run =
      std::max<std::size_t>(1, (kTileRunCells + grid.tile.cells() - 1) /
                                   grid.tile.cells());
  const std::size_t runs = (tiles + per_run - 1) / per_run;
  ThreadPool& tp = pool != nullptr ? *pool : ThreadPool::global();
  tp.parallel_for(runs, [&](std::size_t r) {
    fn(r * per_run, std::min(tiles, (r + 1) * per_run));
  });
}

double group_norm(const Tensor& m, const GroupSlice& slice) {
  GS_CHECK(m.rank() == 2);
  GS_CHECK(slice.row_end <= m.rows() && slice.col_end <= m.cols());
  double acc = 0.0;
  for (std::size_t i = slice.row_begin; i < slice.row_end; ++i) {
    for (std::size_t j = slice.col_begin; j < slice.col_end; ++j) {
      const double v = m.at(i, j);
      acc += v * v;
    }
  }
  return std::sqrt(acc);
}

bool group_is_zero(const Tensor& m, const GroupSlice& slice, float tol) {
  GS_CHECK(m.rank() == 2);
  GS_CHECK(slice.row_end <= m.rows() && slice.col_end <= m.cols());
  for (std::size_t i = slice.row_begin; i < slice.row_end; ++i) {
    for (std::size_t j = slice.col_begin; j < slice.col_end; ++j) {
      if (std::fabs(m.at(i, j)) > tol) return false;
    }
  }
  return true;
}

std::vector<TileOccupancy> analyze_tiles(const Tensor& m, const TileGrid& grid,
                                         float tol, ThreadPool* pool) {
  GS_CHECK(m.rank() == 2);
  GS_CHECK_MSG(m.rows() == grid.rows && m.cols() == grid.cols,
               "matrix shape " << shape_to_string(m.shape())
                               << " does not match grid");
  const std::size_t gc = grid.grid_cols();
  const std::size_t stride = grid.cols;
  const float* base = m.data();
  std::vector<TileOccupancy> tiles(grid.tile_count());
  // Each tile writes only tiles[t], so the result is bitwise identical no
  // matter how the runs are scheduled.
  parallel_for_tile_runs(grid, pool, [&](std::size_t first, std::size_t last) {
    std::vector<char> col_hit(grid.tile.cols);
    for (std::size_t t = first; t < last; ++t) {
      const std::size_t tr = t / gc;
      const std::size_t tc = t % gc;
      const GroupSlice s = tile_slice(grid, tr, tc);
      TileOccupancy occ;
      occ.tile_row = tr;
      occ.tile_col = tc;
      occ.rows = s.row_end - s.row_begin;
      occ.cols = s.col_end - s.col_begin;
      occ.cells = occ.rows * occ.cols;
      occ.physical_cells = grid.tile.cells();
      std::fill(col_hit.begin(), col_hit.begin() + occ.cols, 0);
      for (std::size_t i = s.row_begin; i < s.row_end; ++i) {
        const float* row = base + i * stride + s.col_begin;
        bool row_hit = false;
        for (std::size_t j = 0; j < occ.cols; ++j) {
          if (std::fabs(row[j]) > tol) {
            ++occ.nonzero_cells;
            row_hit = true;
            col_hit[j] = 1;
          }
        }
        if (row_hit) ++occ.nonzero_rows;
      }
      occ.nonzero_cols = static_cast<std::size_t>(
          std::count(col_hit.begin(), col_hit.begin() + occ.cols, 1));
      tiles[t] = occ;
    }
  });
  return tiles;
}

OccupancySummary summarize_occupancy(const std::vector<TileOccupancy>& tiles) {
  OccupancySummary s;
  s.tiles = tiles.size();
  for (const TileOccupancy& t : tiles) {
    if (t.empty()) ++s.empty_tiles;
    s.nonzero_cells += t.nonzero_cells;
    s.logical_cells += t.cells;
    s.physical_cells += t.physical_cells;
  }
  return s;
}

}  // namespace gs::hw
