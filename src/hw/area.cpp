#include "hw/area.hpp"

#include <cmath>
#include <vector>

#include "common/check.hpp"

namespace gs::hw {

CrossbarArea crossbar_area(const TileGrid& grid,
                           const TechnologyParams& tech) {
  tech.validate();
  CrossbarArea area;
  area.tile_count = grid.tile_count();
  area.used_cells = grid.rows * grid.cols;
  area.cells = grid.exact() ? area.used_cells
                            : area.tile_count * grid.tile.cells();
  area.area_f2 = static_cast<double>(area.cells) * tech.cell_area_f2;
  return area;
}

CrossbarArea crossbar_area(std::size_t n, std::size_t k,
                           const TechnologyParams& tech,
                           MappingPolicy policy) {
  return crossbar_area(make_tile_grid(n, k, tech, policy), tech);
}

FactorAreaComparison compare_factor_area(std::size_t n, std::size_t m,
                                         std::size_t k) {
  GS_CHECK(n > 0 && m > 0 && k > 0);
  FactorAreaComparison cmp;
  cmp.dense_cells = n * m;
  cmp.factored_cells = n * k + k * m;
  return cmp;
}

WireCount count_routing_wires(const Tensor& m, const TileGrid& grid,
                              float tol, ThreadPool* pool) {
  GS_CHECK(m.rank() == 2 && m.rows() == grid.rows && m.cols() == grid.cols);
  WireCount wires;
  wires.total = grid.total_wires();
  // Every row group (one input wire) and column group (one output wire) lies
  // inside exactly one tile, so a single fused pass per tile determines the
  // liveness of all its wires. Per-run counts land in disjoint slots and
  // integer summation is order-free — bitwise stable at any pool size.
  const std::size_t gc = grid.grid_cols();
  const std::size_t stride = grid.cols;
  const float* base = m.data();
  std::vector<std::size_t> live(grid.tile_count(), 0);  // at each run's first
  parallel_for_tile_runs(grid, pool, [&](std::size_t first, std::size_t last) {
    std::size_t count = 0;
    for (std::size_t t = first; t < last; ++t) {
      const GroupSlice s = tile_slice(grid, t / gc, t % gc);
      const std::size_t width = s.col_end - s.col_begin;
      // Early-exit scans (a live group usually reveals itself within a few
      // elements); both orientations stay inside this tile, so the whole
      // working set is a few KB.
      for (std::size_t i = s.row_begin; i < s.row_end; ++i) {
        const float* row = base + i * stride + s.col_begin;
        for (std::size_t j = 0; j < width; ++j) {
          if (std::fabs(row[j]) > tol) {
            ++count;
            break;
          }
        }
      }
      for (std::size_t j = 0; j < width; ++j) {
        const float* cell = base + s.row_begin * stride + s.col_begin + j;
        for (std::size_t i = s.row_begin; i < s.row_end;
             ++i, cell += stride) {
          if (std::fabs(*cell) > tol) {
            ++count;
            break;
          }
        }
      }
    }
    live[first] = count;
  });
  for (const std::size_t count : live) wires.remaining += count;
  return wires;
}

double routing_area(std::size_t wire_count, const TechnologyParams& tech) {
  tech.validate();
  // Eq. (8): Ar = α·Nw².
  return tech.routing_alpha * static_cast<double>(wire_count) *
         static_cast<double>(wire_count);
}

double routing_area_ratio(const WireCount& wires) {
  const double r = wires.remaining_ratio();
  return r * r;
}

}  // namespace gs::hw
