// Group-Lasso regularisation on crossbar connection groups (§3.2).
//
// Training objective (Eq. 4):
//   E(W) = E_D(W) + λ·( Σ_g ||W_g^(r)|| + Σ_g ||W_g^(c)|| )
// where the row/column groups are exactly the wire groups of the crossbar
// tiling (hw/tiling.hpp). Regularisation targets are all weight matrices
// (Layer::weight_matrices()) that span more than one crossbar: both factors
// (U, Vᵀ) of factorised layers and the plain weights of dense/conv layers
// (the paper's fc_last rows in Table 3 come from the unfactorised
// classifier).
//
// Two mechanisms are provided:
//  * kGradient — Eq. (6): adds λ·w/||W_g|| to the gradient of every weight
//    for each group containing it. Plain subgradient descent never reaches
//    exact zeros, so callers pair it with snap_zero_groups().
//  * kProximal — after each SGD step applies the group-soft-threshold
//    w_g ← max(0, 1 − η·λ/||w_g||)·w_g, first on row groups then on column
//    groups (alternating prox for the overlapping pair). Produces exact
//    zeros; the library default.
#pragma once

#include <string>
#include <vector>

#include "compress/group_index.hpp"
#include "hw/tiling.hpp"
#include "nn/network.hpp"

namespace gs {
class ThreadPool;
}

namespace gs::compress {

/// Regularisation mechanism.
enum class LassoMode { kGradient, kProximal };

/// Hyper-parameters of the group-Lasso pass.
struct GroupLassoConfig {
  double lambda = 1e-3;      ///< λ of Eq. (4)
  LassoMode mode = LassoMode::kProximal;
  double epsilon = 1e-12;    ///< ||·|| guard in Eq. (6) denominators
  hw::MappingPolicy policy = hw::MappingPolicy::kDivisorExact;
  /// Matrices with both dims ≤ max crossbar size are left unregularised
  /// (the paper only regularises matrices spanning multiple crossbars).
  bool skip_single_crossbar = true;
  /// Group-shape ablation: disable one family of Eq. (4)'s two sums.
  /// Row groups delete crossbar INPUT wires, column groups delete OUTPUT
  /// wires; the paper always uses both.
  bool row_groups = true;
  bool col_groups = true;
};

/// One regularised weight matrix and its crossbar tiling. `value`/`grad`
/// point into the owning layer; they remain valid until a structural edit
/// (rank clip) reallocates the layer's factors — rebuild the regulariser
/// after any such edit.
struct LassoTarget {
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
  hw::TileGrid grid;
  std::string name;  ///< e.g. "fc1_u", "fc2"

  Tensor& values() const { return *value; }
  Tensor& grads() const { return *grad; }
};

/// Applies Eq. (4)/(6) to the multi-crossbar weight matrices of a network.
/// All group sweeps run through the per-target GroupIndex engine: parallel
/// over tiles, vectorised over contiguous row slices, bitwise-stable at any
/// GS_NUM_THREADS (see compress/group_index.hpp).
class GroupLassoRegularizer {
 public:
  GroupLassoRegularizer(nn::Network& net, const hw::TechnologyParams& tech,
                        GroupLassoConfig config);

  const std::vector<LassoTarget>& targets() const { return targets_; }
  const GroupLassoConfig& config() const { return config_; }

  /// Pool used for every sweep (nullptr = ThreadPool::global()). Injection
  /// point for the thread-count determinism tests.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// kGradient mode: adds the Eq. (6) regularisation gradient. Call after
  /// backward(), before the optimiser step. Refreshes the cached group
  /// norms as a byproduct.
  void add_gradient();

  /// kProximal mode: group-soft-threshold with step size η = `learning_rate`.
  /// Call after the optimiser step. No-op when λ = 0; groups whose shrink
  /// factor rounds to 1.0f are skipped (a true no-op). Maintains the cached
  /// group norms incrementally.
  void apply_proximal(float learning_rate);

  /// λ·Σ_g ||W_g|| over all registered groups (monitoring). Always
  /// recomputes from the current weights.
  double penalty() const;

  /// Forces every group whose norm is < `tol` to exact zero. Used to
  /// finalise kGradient runs before wire counting.
  std::size_t snap_zero_groups(double tol);

  /// Recomputes every target's cached group norms from the current weights.
  void refresh_group_stats() const;

  /// Per-target wire census from the cached group norms (deleted ⇔ group
  /// norm ≤ tol), aligned with targets(). For tol > 0: O(groups), reusing
  /// the stats cached by the latest lasso sweep — at most one SGD update
  /// old inside the training loop — refreshing only targets never swept
  /// (call refresh_group_stats() first for an exact current-weight
  /// census). tol = 0 demands exactness and always rescans.
  std::vector<hw::WireCount> census(double tol) const;

  /// Zeroes `mask` over every group of target `t` whose weights are all
  /// ≤ tol in magnitude (both families; elementwise semantics of
  /// hw::group_is_zero).
  void zero_group_mask(std::size_t t, Tensor& mask, float tol = 0.0f) const;

 private:
  GroupLassoConfig config_;
  std::vector<LassoTarget> targets_;
  /// Engine state per target (cached norms mutate under const monitoring
  /// calls such as census()).
  mutable std::vector<GroupIndex> indices_;
  ThreadPool* pool_ = nullptr;
};

}  // namespace gs::compress
