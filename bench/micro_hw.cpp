// Micro-benchmarks of the hardware-model primitives at Table 3 matrix
// shapes: MBC size selection, routing-wire census, tile-occupancy analysis,
// area evaluation, and analog crossbar programming (the compile-time cost of
// the runtime subsystem).
//
// Emits BENCH_hw.json (seconds plus derived throughput per case) into the
// working directory and prints the same table to stdout — the same
// bench_util scaffolding as micro_gemm/micro_lasso. Thread count follows
// GS_NUM_THREADS (the census/occupancy sweeps run on gs::ThreadPool). Pass
// --smoke for a tiny-size, few-rep CI run that prints but writes no JSON.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "hw/analog.hpp"
#include "hw/area.hpp"
#include "hw/tiling.hpp"

namespace gs::bench {
namespace {

Tensor random_sparse(std::size_t r, std::size_t c, double density,
                     std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(Shape{r, c});
  for (std::size_t i = 0; i < t.numel(); ++i) {
    if (rng.bernoulli(density)) {
      t[i] = static_cast<float>(rng.gaussian());
    }
  }
  return t;
}

BenchRecord timed(const char* name, const char* kind, double seconds) {
  BenchRecord rec;
  rec.name = name;
  rec.label("kind", kind);
  rec.metric("seconds", seconds);
  std::printf("%-26s %-10s %10.6fs", name, kind, seconds);
  return rec;
}

}  // namespace
}  // namespace gs::bench

int main(int argc, char** argv) {
  using namespace gs;
  using namespace gs::bench;
  using namespace gs::hw;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::size_t rows = smoke ? 128 : 800;
  const std::size_t cols = smoke ? 32 : 64;
  const int reps = smoke ? 3 : 9;

  section(smoke ? "micro_hw (smoke): hardware-model primitives"
                : "micro_hw: hardware-model primitives");
  const TechnologyParams tech = paper_technology();
  std::vector<BenchRecord> records;

  // MBC size selection over the Table 3 dimension set.
  {
    const std::vector<std::size_t> dims{25, 75, 500, 800, 1024};
    const double s = time_median_seconds(
        [&] {
          for (const std::size_t n : dims) {
            volatile auto spec = select_mbc_size(n, 36, tech);
            (void)spec;
          }
        },
        reps);
    BenchRecord rec = timed("select_mbc_size", "mapping", s / 5.0);
    rec.label("dims", "25,75,500,800,1024 x 36");
    std::printf("  per call\n");
    records.push_back(rec);
  }

  // Routing-wire census at three sparsity levels.
  for (const int pct : {5, 50, 100}) {
    const Tensor m = random_sparse(rows, 36, pct / 100.0, 1);
    const TileGrid grid = make_tile_grid(rows, 36, tech);
    const double s = time_median_seconds(
        [&] {
          volatile auto wires = count_routing_wires(m, grid);
          (void)wires;
        },
        reps);
    char name[40];
    std::snprintf(name, sizeof(name), "count_wires_density%d", pct);
    BenchRecord rec = timed(name, "census", s);
    rec.label("shape", std::to_string(rows) + "x36")
        .metric("groups_per_second",
                static_cast<double>(grid.total_wires()) / s);
    std::printf("  %zu groups\n", grid.total_wires());
    records.push_back(rec);
  }

  // Tile-occupancy analysis (the Fig. 9 sweep).
  {
    const Tensor m = random_sparse(rows, cols, 0.3, 2);
    const TileGrid grid = make_tile_grid(rows, cols, tech);
    const double s = time_median_seconds(
        [&] {
          volatile auto tiles = analyze_tiles(m, grid).size();
          (void)tiles;
        },
        reps);
    BenchRecord rec = timed("analyze_tiles", "tiling", s);
    rec.label("shape", std::to_string(rows) + "x" + std::to_string(cols))
        .metric("tiles_per_second",
                static_cast<double>(grid.tile_count()) / s);
    std::printf("  %zu tiles\n", grid.tile_count());
    records.push_back(rec);
  }

  // Area model over the Table 3 dimension set.
  {
    const std::vector<std::size_t> dims{25, 500, 800, 1024};
    const double s = time_median_seconds(
        [&] {
          for (const std::size_t n : dims) {
            volatile auto area = crossbar_area(n, 36, tech).cells;
            (void)area;
          }
        },
        reps);
    BenchRecord rec = timed("crossbar_area", "area", s / 4.0);
    rec.label("dims", "25,500,800,1024 x 36");
    std::printf("  per call\n");
    records.push_back(rec);
  }

  // Analog programming: tile-by-tile differential-pair mapping of a full
  // matrix — the per-matrix compile cost of runtime::compile.
  {
    const Tensor m = random_sparse(rows, cols, 1.0, 3);
    const TileGrid grid = make_tile_grid(rows, cols, tech);
    AnalogParams params;
    params.levels = 64;
    params.variation_sigma = 0.05;
    const double s = time_median_seconds(
        [&] {
          volatile float v = analog_effective_matrix(m, grid, params)[0];
          (void)v;
        },
        reps);
    BenchRecord rec = timed("analog_program", "analog", s);
    rec.label("shape", std::to_string(rows) + "x" + std::to_string(cols))
        .label("device", "64 levels, sigma 0.05")
        .metric("cells_per_second", static_cast<double>(m.numel()) / s);
    std::printf("  %zu cells\n", m.numel());
    records.push_back(rec);
  }

  if (!smoke) {  // a smoke run never overwrites the full-budget record
    write_bench_json("BENCH_hw.json", "hw", records);
    note("\nwrote BENCH_hw.json");
  }
  return 0;
}
