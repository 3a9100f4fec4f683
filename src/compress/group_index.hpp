// Group-analytics engine: a flattened, cache-friendly index over the
// row/column connection groups of one tiled weight matrix (§3.2).
//
// Key structural fact exploited throughout: every row group (i, tc) and
// every column group (tr, j) lies inside exactly ONE crossbar tile, so the
// tile is the natural unit of work. Each sweep hands gs::ThreadPool runs of
// consecutive tiles (hw::parallel_for_tile_runs, fixed by the grid alone);
// per tile it touches only that tile's weights and its own slots of the
// cached-norm tables, and accumulates in a fixed sequential order —
// results are therefore bitwise identical at any GS_NUM_THREADS. Inner loops run over contiguous row slices through raw
// pointers (no per-element bounds checks) with unrolled double
// accumulators.
//
// The index caches one squared L2 norm per group (row table indexed
// i·grid_cols + tc, column table tr·cols + j). add_gradient and
// apply_proximal refresh the tables as a byproduct of work they must do
// anyway, and apply_proximal folds its shrink factors into the caches
// incrementally (sq ← s²·sq, plus per-element corrections of the row table
// during the column pass) — so the wire census between training snapshots
// is an O(groups) table scan instead of an O(rows·cols) matrix rescan.
#pragma once

#include <cstddef>
#include <vector>

#include "hw/area.hpp"
#include "hw/tiling.hpp"
#include "tensor/tensor.hpp"

namespace gs {
class ThreadPool;
}

namespace gs::compress {

class GroupIndex {
 public:
  GroupIndex() = default;
  explicit GroupIndex(hw::TileGrid grid);

  const hw::TileGrid& grid() const { return grid_; }

  /// True once any sweep has populated the cached norms. The caches track
  /// the weights as of the latest refresh/add_gradient/apply_proximal/
  /// snap_zero_groups call — mutations made outside those entry points
  /// (e.g. an SGD update) are not observed until the next one.
  bool stats_valid() const { return stats_valid_; }

  /// Cached squared group norms; row table indexed i·grid_cols() + tc,
  /// column table tr·cols + j. Valid only when stats_valid().
  const std::vector<double>& row_sqnorms() const { return row_sq_; }
  const std::vector<double>& col_sqnorms() const { return col_sq_; }

  /// Recomputes every cached squared norm from `w` in one fused parallel
  /// pass (row and column accumulators filled tile by tile).
  void refresh(const Tensor& w, ThreadPool* pool = nullptr);

  /// Σ_g ||W_g|| over the enabled group families, summed in fixed group
  /// order (deterministic). Requires stats_valid().
  double penalty_sum(bool row_groups, bool col_groups) const;

  /// Wire census from the cached norms: a group is deleted ⇔ its norm is
  /// ≤ `tol` (compared in the squared domain). Immediately after refresh(),
  /// tol = 0 agrees exactly with the elementwise hw::count_routing_wires
  /// census, because a double-accumulated sum of squares is zero iff every
  /// element is zero — but caches maintained *incrementally* by
  /// apply_proximal can carry a last-ulp positive residue on a group the
  /// column pass emptied, so an exact-zero census must refresh first
  /// (GroupLassoRegularizer::census does this automatically for tol = 0).
  /// At tol > 0 it is the group-norm criterion of snap_zero_groups — the
  /// right predictor of which wires the post-training snap will delete.
  /// Counts both families (wires are physical). Requires stats_valid().
  hw::WireCount census(double tol) const;

  /// Adds the Eq. (6) terms λ·w/(||W_g|| + ε) for every enabled group
  /// containing each weight. Refreshes the cached norms as a byproduct.
  void add_gradient(const Tensor& w, Tensor& g, double lambda, double epsilon,
                    bool row_groups, bool col_groups,
                    ThreadPool* pool = nullptr);

  /// Group-soft-threshold w_g ← max(0, 1 − threshold/||w_g||)·w_g, row
  /// groups first, then column groups on the updated weights (alternating
  /// prox for the overlapping pair). Groups whose float shrink factor
  /// rounds to 1.0f are skipped — a true no-op, multiplying by 1.0f is the
  /// identity. Cached norms are maintained incrementally.
  void apply_proximal(Tensor& w, double threshold, bool row_groups,
                      bool col_groups, ThreadPool* pool = nullptr);

  /// Zeroes every enabled group with 0 < ||W_g|| < tol (row families first,
  /// column norms taken on the updated weights). Returns the number of
  /// groups zeroed; refreshes the caches.
  std::size_t snap_zero_groups(Tensor& w, double tol, bool row_groups,
                               bool col_groups, ThreadPool* pool = nullptr);

  /// Writes 0 into `mask` over every group of `w` whose elements are all
  /// ≤ tol in magnitude (both families — the deletion mask is physical).
  /// Elementwise semantics identical to hw::group_is_zero; does not touch
  /// the cached norms.
  void zero_group_mask(const Tensor& w, Tensor& mask, float tol,
                       ThreadPool* pool = nullptr) const;

 private:
  hw::TileGrid grid_;
  std::vector<double> row_sq_;
  std::vector<double> col_sq_;
  bool stats_valid_ = false;
};

}  // namespace gs::compress
