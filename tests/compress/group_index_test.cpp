// Engine-level tests of the GroupIndex analytics subsystem: parity with the
// scalar group sweeps (including non-divisible / prime dimensions under both
// mapping policies) and bitwise determinism across thread-pool sizes.
#include "compress/group_index.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <memory>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "compress/group_lasso.hpp"
#include "hw/area.hpp"
#include "nn/lowrank.hpp"

namespace gs::compress {
namespace {

Tensor random_pruned_matrix(std::size_t n, std::size_t k, std::uint64_t seed) {
  Rng rng(seed);
  Tensor w(Shape{n, k});
  w.fill_gaussian(rng, 0.0f, 1.0f);
  // Exact-zero rows/cols plus a band of tiny near-zero rows, so every census
  // branch (zero, sub-tolerance, live) is exercised.
  for (std::size_t i = 0; i < n; i += 5) {
    for (std::size_t j = 0; j < k; ++j) w.at(i, j) = 0.0f;
  }
  for (std::size_t j = 0; j < k; j += 7) {
    for (std::size_t i = 0; i < n; ++i) w.at(i, j) = 0.0f;
  }
  for (std::size_t i = 3; i < n; i += 11) {
    for (std::size_t j = 0; j < k; ++j) {
      w.at(i, j) = 1e-6f * static_cast<float>(j % 3);
    }
  }
  return w;
}

/// Scalar reference: group-norm census (deleted ⇔ ||W_g|| ≤ tol), both
/// families, same group order as the engine.
hw::WireCount reference_norm_census(const Tensor& w, const hw::TileGrid& grid,
                                    double tol) {
  hw::WireCount wires;
  wires.total = grid.total_wires();
  for (std::size_t i = 0; i < grid.rows; ++i) {
    for (std::size_t tc = 0; tc < grid.grid_cols(); ++tc) {
      if (hw::group_norm(w, hw::row_group_slice(grid, i, tc)) > tol) {
        ++wires.remaining;
      }
    }
  }
  for (std::size_t tr = 0; tr < grid.grid_rows(); ++tr) {
    for (std::size_t j = 0; j < grid.cols; ++j) {
      if (hw::group_norm(w, hw::col_group_slice(grid, tr, j)) > tol) {
        ++wires.remaining;
      }
    }
  }
  return wires;
}

/// Scalar reference for the proximal operator (the pre-engine group sweep).
void reference_proximal(Tensor& w, const hw::TileGrid& grid,
                        double threshold) {
  const auto shrink_group = [&](const hw::GroupSlice& slice) {
    const double norm = hw::group_norm(w, slice);
    const double shrink = norm <= threshold ? 0.0 : 1.0 - threshold / norm;
    const float s = static_cast<float>(shrink);
    if (s >= 1.0f) return;
    for (std::size_t i = slice.row_begin; i < slice.row_end; ++i) {
      for (std::size_t j = slice.col_begin; j < slice.col_end; ++j) {
        w.at(i, j) *= s;
      }
    }
  };
  for (std::size_t i = 0; i < grid.rows; ++i) {
    for (std::size_t tc = 0; tc < grid.grid_cols(); ++tc) {
      shrink_group(hw::row_group_slice(grid, i, tc));
    }
  }
  for (std::size_t tr = 0; tr < grid.grid_rows(); ++tr) {
    for (std::size_t j = 0; j < grid.cols; ++j) {
      shrink_group(hw::col_group_slice(grid, tr, j));
    }
  }
}

/// Scalar reference for the Eq. (6) gradient terms.
void reference_gradient(const Tensor& w, Tensor& g, const hw::TileGrid& grid,
                        double lambda, double epsilon) {
  const auto add_group = [&](const hw::GroupSlice& slice) {
    const double norm = hw::group_norm(w, slice);
    const double scale = lambda / (norm + epsilon);
    for (std::size_t i = slice.row_begin; i < slice.row_end; ++i) {
      for (std::size_t j = slice.col_begin; j < slice.col_end; ++j) {
        g.at(i, j) += static_cast<float>(scale * w.at(i, j));
      }
    }
  };
  for (std::size_t i = 0; i < grid.rows; ++i) {
    for (std::size_t tc = 0; tc < grid.grid_cols(); ++tc) {
      add_group(hw::row_group_slice(grid, i, tc));
    }
  }
  for (std::size_t tr = 0; tr < grid.grid_rows(); ++tr) {
    for (std::size_t j = 0; j < grid.cols; ++j) {
      add_group(hw::col_group_slice(grid, tr, j));
    }
  }
}

/// Scalar reference for the zero-group mask.
Tensor reference_mask(const Tensor& w, const hw::TileGrid& grid, float tol) {
  Tensor mask(w.shape(), 1.0f);
  const auto zero_slice = [&](const hw::GroupSlice& slice) {
    if (!hw::group_is_zero(w, slice, tol)) return;
    for (std::size_t i = slice.row_begin; i < slice.row_end; ++i) {
      for (std::size_t j = slice.col_begin; j < slice.col_end; ++j) {
        mask.at(i, j) = 0.0f;
      }
    }
  };
  for (std::size_t i = 0; i < grid.rows; ++i) {
    for (std::size_t tc = 0; tc < grid.grid_cols(); ++tc) {
      zero_slice(hw::row_group_slice(grid, i, tc));
    }
  }
  for (std::size_t tr = 0; tr < grid.grid_rows(); ++tr) {
    for (std::size_t j = 0; j < grid.cols; ++j) {
      zero_slice(hw::col_group_slice(grid, tr, j));
    }
  }
  return mask;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

/// Shapes where n and/or k are prime (64 never divides them) — the ragged
/// regression sweep — plus a divisor-friendly control, under both policies.
/// gtest names these cases by Case's bytes; the explicit zero tail leaves
/// the struct without padding, whose bytes would differ between builds.
struct Case {
  std::size_t n, k;
  hw::MappingPolicy policy;
  std::uint32_t zero_tail = 0;
};
static_assert(sizeof(Case) == 2 * sizeof(std::size_t) +
                                  sizeof(hw::MappingPolicy) +
                                  sizeof(std::uint32_t),
              "Case must have no padding bytes");

class GroupIndexSweep : public ::testing::TestWithParam<Case> {};

TEST_P(GroupIndexSweep, CensusAtZeroTolMatchesElementwiseCount) {
  const auto [n, k, policy, zero_tail] = GetParam();
  const hw::TileGrid grid =
      hw::make_tile_grid(n, k, hw::paper_technology(), policy);
  const Tensor w = random_pruned_matrix(n, k, 11);
  GroupIndex index(grid);
  index.refresh(w);
  const hw::WireCount from_index = index.census(0.0);
  const hw::WireCount elementwise = hw::count_routing_wires(w, grid, 0.0f);
  EXPECT_EQ(from_index.total, elementwise.total);
  EXPECT_EQ(from_index.remaining, elementwise.remaining);
}

TEST_P(GroupIndexSweep, CensusAtToleranceMatchesNormReference) {
  const auto [n, k, policy, zero_tail] = GetParam();
  const hw::TileGrid grid =
      hw::make_tile_grid(n, k, hw::paper_technology(), policy);
  const Tensor w = random_pruned_matrix(n, k, 12);
  GroupIndex index(grid);
  index.refresh(w);
  for (const double tol : {1e-5, 1e-3, 0.5}) {
    const hw::WireCount from_index = index.census(tol);
    const hw::WireCount ref = reference_norm_census(w, grid, tol);
    EXPECT_EQ(from_index.remaining, ref.remaining) << "tol=" << tol;
  }
}

TEST_P(GroupIndexSweep, MaskMatchesScalarReference) {
  const auto [n, k, policy, zero_tail] = GetParam();
  const hw::TileGrid grid =
      hw::make_tile_grid(n, k, hw::paper_technology(), policy);
  const Tensor w = random_pruned_matrix(n, k, 13);
  GroupIndex index(grid);
  for (const float tol : {0.0f, 1e-5f}) {
    Tensor mask(w.shape(), 1.0f);
    index.zero_group_mask(w, mask, tol);
    EXPECT_TRUE(bitwise_equal(mask, reference_mask(w, grid, tol)))
        << "tol=" << tol;
  }
}

TEST_P(GroupIndexSweep, ProximalMatchesScalarReference) {
  const auto [n, k, policy, zero_tail] = GetParam();
  const hw::TileGrid grid =
      hw::make_tile_grid(n, k, hw::paper_technology(), policy);
  Tensor w_engine = random_pruned_matrix(n, k, 14);
  Tensor w_ref = w_engine;
  const double threshold = 0.05;
  GroupIndex index(grid);
  index.apply_proximal(w_engine, threshold, true, true);
  reference_proximal(w_ref, grid, threshold);
  // The engine accumulates row norms in four chains (a last-ulp difference
  // from the scalar sweep), so compare with a tolerance — and require the
  // exact-zero pattern (what the wire census sees) to agree precisely.
  EXPECT_LT(max_abs_diff(w_engine, w_ref), 1e-6f);
  const hw::WireCount engine_wires =
      hw::count_routing_wires(w_engine, grid, 0.0f);
  const hw::WireCount ref_wires = hw::count_routing_wires(w_ref, grid, 0.0f);
  EXPECT_EQ(engine_wires.remaining, ref_wires.remaining);
}

TEST_P(GroupIndexSweep, GradientMatchesScalarReference) {
  const auto [n, k, policy, zero_tail] = GetParam();
  const hw::TileGrid grid =
      hw::make_tile_grid(n, k, hw::paper_technology(), policy);
  const Tensor w = random_pruned_matrix(n, k, 15);
  Tensor g_engine(w.shape());
  Tensor g_ref(w.shape());
  GroupIndex index(grid);
  index.add_gradient(w, g_engine, 0.5, 1e-12, true, true);
  reference_gradient(w, g_ref, grid, 0.5, 1e-12);
  EXPECT_LT(max_abs_diff(g_engine, g_ref), 1e-5f);
}

TEST_P(GroupIndexSweep, SnapMatchesScalarSemantics) {
  const auto [n, k, policy, zero_tail] = GetParam();
  const hw::TileGrid grid =
      hw::make_tile_grid(n, k, hw::paper_technology(), policy);
  Tensor w = random_pruned_matrix(n, k, 16);
  GroupIndex index(grid);
  const std::size_t snapped = index.snap_zero_groups(w, 1e-4, true, true);
  EXPECT_GT(snapped, 0u);  // the 1e-6 bands must die
  // Nothing sub-tolerance survives: every remaining group norm is 0 or ≥ tol.
  for (std::size_t i = 0; i < grid.rows; ++i) {
    for (std::size_t tc = 0; tc < grid.grid_cols(); ++tc) {
      const double norm = hw::group_norm(w, hw::row_group_slice(grid, i, tc));
      EXPECT_TRUE(norm == 0.0 || norm >= 1e-4) << "row group " << i;
    }
  }
}

TEST_P(GroupIndexSweep, OccupancyLogicalCellsPartitionMatrix) {
  const auto [n, k, policy, zero_tail] = GetParam();
  const hw::TileGrid grid =
      hw::make_tile_grid(n, k, hw::paper_technology(), policy);
  const Tensor w = random_pruned_matrix(n, k, 17);
  std::size_t cell_sum = 0;
  std::size_t nonzero_sum = 0;
  for (const hw::TileOccupancy& occ : hw::analyze_tiles(w, grid)) {
    cell_sum += occ.cells;
    nonzero_sum += occ.nonzero_cells;
    EXPECT_EQ(occ.cells, occ.rows * occ.cols);
    EXPECT_LE(occ.cells, occ.physical_cells);
    EXPECT_LE(occ.nonzero_cells, occ.cells)
        << "occupancy must be taken against logical cells";
    if (grid.exact()) {
      EXPECT_EQ(occ.cells, occ.physical_cells);
    }
  }
  EXPECT_EQ(cell_sum, n * k) << "logical cells must partition the matrix";
  EXPECT_EQ(nonzero_sum, w.numel() - w.count_zeros());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GroupIndexSweep,
    ::testing::Values(Case{97, 53, hw::MappingPolicy::kDivisorExact},
                      Case{97, 53, hw::MappingPolicy::kPaddedMax},
                      Case{67, 101, hw::MappingPolicy::kDivisorExact},
                      Case{67, 101, hw::MappingPolicy::kPaddedMax},
                      Case{131, 10, hw::MappingPolicy::kPaddedMax},
                      Case{800, 36, hw::MappingPolicy::kDivisorExact}));

// ---- Determinism across thread counts --------------------------------------

/// Runs every sweep on one matrix of `grid`'s shape twice, on a one-thread
/// and a four-thread pool, and requires bitwise-equal weights, gradients,
/// caches and counts.
void expect_pool_invariant(const hw::TileGrid& grid, ThreadPool& pool1,
                           ThreadPool& pool4) {
  Tensor w1 = random_pruned_matrix(grid.rows, grid.cols, 21);
  Tensor w4 = w1;
  Tensor g1(w1.shape());
  Tensor g4(w1.shape());
  GroupIndex i1(grid);
  GroupIndex i4(grid);
  for (int step = 0; step < 3; ++step) {
    i1.apply_proximal(w1, 0.02, true, true, &pool1);
    i4.apply_proximal(w4, 0.02, true, true, &pool4);
    i1.add_gradient(w1, g1, 0.5, 1e-12, true, true, &pool1);
    i4.add_gradient(w4, g4, 0.5, 1e-12, true, true, &pool4);
  }
  ASSERT_TRUE(bitwise_equal(w1, w4));
  ASSERT_TRUE(bitwise_equal(g1, g4));
  // Cached squared norms (and thus any census) must agree exactly too.
  ASSERT_EQ(i1.row_sqnorms(), i4.row_sqnorms());
  ASSERT_EQ(i1.col_sqnorms(), i4.col_sqnorms());
  EXPECT_EQ(i1.census(1e-3).remaining, i4.census(1e-3).remaining);

  EXPECT_EQ(i1.snap_zero_groups(w1, 1e-3, true, true, &pool1),
            i4.snap_zero_groups(w4, 1e-3, true, true, &pool4));
  ASSERT_TRUE(bitwise_equal(w1, w4));
  i1.refresh(w1, &pool1);
  i4.refresh(w4, &pool4);
  ASSERT_EQ(i1.row_sqnorms(), i4.row_sqnorms());
  ASSERT_EQ(i1.col_sqnorms(), i4.col_sqnorms());
  Tensor m1(w1.shape(), 1.0f);
  Tensor m4(w4.shape(), 1.0f);
  i1.zero_group_mask(w1, m1, 1e-3f, &pool1);
  i4.zero_group_mask(w4, m4, 1e-3f, &pool4);
  ASSERT_TRUE(bitwise_equal(m1, m4));

  const hw::WireCount c1 = hw::count_routing_wires(w1, grid, 0.0f, &pool1);
  const hw::WireCount c4 = hw::count_routing_wires(w4, grid, 0.0f, &pool4);
  EXPECT_EQ(c1.remaining, c4.remaining);
  const auto t1 = hw::analyze_tiles(w1, grid, 0.0f, &pool1);
  const auto t4 = hw::analyze_tiles(w4, grid, 0.0f, &pool4);
  ASSERT_EQ(t1.size(), t4.size());
  for (std::size_t t = 0; t < t1.size(); ++t) {
    EXPECT_EQ(t1[t].nonzero_cells, t4[t].nonzero_cells);
    EXPECT_EQ(t1[t].nonzero_rows, t4[t].nonzero_rows);
    EXPECT_EQ(t1[t].nonzero_cols, t4[t].nonzero_cols);
  }
}

// The sweeps hand the pool runs of consecutive tiles
// (hw::parallel_for_tile_runs). 97×53 is one run; 800×127 and 127×500 (the
// flagship's fc1 factors at rank 127) span several under both policies.
TEST(GroupIndexDeterminism, BitwiseIdenticalAcrossPoolSizes) {
  ThreadPool pool1(1);
  ThreadPool pool4(4);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {97, 53}, {800, 127}, {127, 500}};
  for (const auto& [n, k] : shapes) {
    for (const auto policy :
         {hw::MappingPolicy::kDivisorExact, hw::MappingPolicy::kPaddedMax}) {
      SCOPED_TRACE(std::to_string(n) + "x" + std::to_string(k));
      const hw::TileGrid grid =
          hw::make_tile_grid(n, k, hw::paper_technology(), policy);
      if (n * k > 2 * hw::kTileRunCells) {
        EXPECT_GT(grid.tile_count() * grid.tile.cells(),
                  2 * hw::kTileRunCells);
      }
      expect_pool_invariant(grid, pool1, pool4);
    }
  }
}

// ---- Incremental norm maintenance ------------------------------------------

TEST(GroupIndexCache, ProximalMaintainsNormsIncrementally) {
  const hw::TileGrid grid = hw::make_tile_grid(97, 53, hw::paper_technology(),
                                               hw::MappingPolicy::kPaddedMax);
  Tensor w = random_pruned_matrix(97, 53, 31);
  GroupIndex incremental(grid);
  for (int step = 0; step < 5; ++step) {
    incremental.apply_proximal(w, 0.03, true, true);
  }
  // A second index refreshed from the final weights is ground truth.
  GroupIndex fresh(grid);
  fresh.refresh(w);
  ASSERT_EQ(incremental.row_sqnorms().size(), fresh.row_sqnorms().size());
  for (std::size_t r = 0; r < fresh.row_sqnorms().size(); ++r) {
    EXPECT_NEAR(incremental.row_sqnorms()[r], fresh.row_sqnorms()[r],
                1e-9 + 1e-7 * fresh.row_sqnorms()[r])
        << "row group " << r;
  }
  for (std::size_t c = 0; c < fresh.col_sqnorms().size(); ++c) {
    EXPECT_NEAR(incremental.col_sqnorms()[c], fresh.col_sqnorms()[c],
                1e-9 + 1e-7 * fresh.col_sqnorms()[c])
        << "col group " << c;
  }
  EXPECT_EQ(incremental.census(1e-3).remaining, fresh.census(1e-3).remaining);
}

TEST(GroupIndexCache, RegularizerExactZeroCensusMatchesElementwise) {
  // Incremental cache maintenance may leave a last-ulp residue on a group
  // the proximal column pass emptied; the regularizer must therefore rescan
  // for a tol = 0 census rather than trust the cache. Aggressive shrinkage
  // over several steps makes emptied groups plentiful.
  Rng rng(41);
  nn::Network net;
  net.add(std::make_unique<nn::LowRankDense>("fc", 97, 101, 5, rng));
  GroupLassoConfig config;
  config.lambda = 1.0;
  GroupLassoRegularizer reg(net, hw::paper_technology(), config);
  ASSERT_FALSE(reg.targets().empty());
  for (int step = 0; step < 6; ++step) reg.apply_proximal(0.1f);
  const std::vector<hw::WireCount> cached = reg.census(0.0);
  for (std::size_t t = 0; t < reg.targets().size(); ++t) {
    const hw::WireCount exact = hw::count_routing_wires(
        reg.targets()[t].values(), reg.targets()[t].grid, 0.0f);
    EXPECT_EQ(cached[t].remaining, exact.remaining)
        << reg.targets()[t].name;
    EXPECT_LT(cached[t].remaining, cached[t].total) << "nothing deleted";
  }
}

TEST(GroupIndexCache, CensusRequiresStats) {
  const hw::TileGrid grid = hw::make_tile_grid(100, 20, hw::paper_technology());
  GroupIndex index(grid);
  EXPECT_FALSE(index.stats_valid());
  EXPECT_THROW(index.census(0.0), Error);
  Tensor w(Shape{100, 20}, 1.0f);
  index.refresh(w);
  EXPECT_TRUE(index.stats_valid());
  EXPECT_EQ(index.census(0.0).remaining, grid.total_wires());
}

}  // namespace
}  // namespace gs::compress
