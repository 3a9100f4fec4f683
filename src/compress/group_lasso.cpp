#include "compress/group_lasso.hpp"

#include <cmath>

#include "common/check.hpp"

namespace gs::compress {

GroupLassoRegularizer::GroupLassoRegularizer(nn::Network& net,
                                             const hw::TechnologyParams& tech,
                                             GroupLassoConfig config)
    : config_(config) {
  GS_CHECK(config_.lambda >= 0.0);
  tech.validate();

  const auto add_target = [&](Tensor* value, Tensor* grad,
                              const std::string& name) {
    GS_CHECK(value->rank() == 2 && value->same_shape(*grad));
    const std::size_t n = value->rows();
    const std::size_t k = value->cols();
    if (config_.skip_single_crossbar && n <= tech.max_crossbar_dim &&
        k <= tech.max_crossbar_dim) {
      return;  // single crossbar: no inter-crossbar routing to save
    }
    LassoTarget target;
    target.value = value;
    target.grad = grad;
    target.grid = hw::make_tile_grid(n, k, tech, config_.policy);
    target.name = name;
    targets_.push_back(std::move(target));
  };

  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    for (const nn::WeightMatrix& m : net.layer(i).weight_matrices()) {
      add_target(m.value, m.grad, m.name);
    }
  }

  indices_.reserve(targets_.size());
  for (const LassoTarget& target : targets_) {
    indices_.emplace_back(target.grid);
  }
}

void GroupLassoRegularizer::add_gradient() {
  GS_CHECK_MSG(config_.mode == LassoMode::kGradient,
               "add_gradient called in proximal mode");
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    const LassoTarget& target = targets_[t];
    Tensor& w = target.values();
    Tensor& g = target.grads();
    GS_CHECK_MSG(w.same_shape(g) && w.rows() == target.grid.rows &&
                     w.cols() == target.grid.cols,
                 target.name << ": stale tile grid — rebuild the regularizer");
    indices_[t].add_gradient(w, g, config_.lambda, config_.epsilon,
                             config_.row_groups, config_.col_groups, pool_);
  }
}

void GroupLassoRegularizer::apply_proximal(float learning_rate) {
  GS_CHECK_MSG(config_.mode == LassoMode::kProximal,
               "apply_proximal called in gradient mode");
  GS_CHECK(learning_rate > 0.0f);
  if (config_.lambda == 0.0) return;  // threshold 0 ⇒ prox is the identity
  const double threshold = static_cast<double>(learning_rate) * config_.lambda;
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    const LassoTarget& target = targets_[t];
    Tensor& w = target.values();
    GS_CHECK_MSG(w.rows() == target.grid.rows && w.cols() == target.grid.cols,
                 target.name << ": stale tile grid — rebuild the regularizer");
    indices_[t].apply_proximal(w, threshold, config_.row_groups,
                               config_.col_groups, pool_);
  }
}

double GroupLassoRegularizer::penalty() const {
  double acc = 0.0;
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    indices_[t].refresh(targets_[t].values(), pool_);
    acc += indices_[t].penalty_sum(config_.row_groups, config_.col_groups);
  }
  return config_.lambda * acc;
}

std::size_t GroupLassoRegularizer::snap_zero_groups(double tol) {
  GS_CHECK(tol >= 0.0);
  std::size_t snapped = 0;
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    snapped += indices_[t].snap_zero_groups(targets_[t].values(), tol,
                                            config_.row_groups,
                                            config_.col_groups, pool_);
  }
  return snapped;
}

void GroupLassoRegularizer::refresh_group_stats() const {
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    indices_[t].refresh(targets_[t].values(), pool_);
  }
}

std::vector<hw::WireCount> GroupLassoRegularizer::census(double tol) const {
  GS_CHECK(tol >= 0.0);
  std::vector<hw::WireCount> counts;
  counts.reserve(targets_.size());
  for (std::size_t t = 0; t < targets_.size(); ++t) {
    // An exact-zero census cannot tolerate the last-ulp residue that
    // incremental cache maintenance may leave on an emptied group — rescan.
    if (!indices_[t].stats_valid() || tol == 0.0) {
      indices_[t].refresh(targets_[t].values(), pool_);
    }
    counts.push_back(indices_[t].census(tol));
  }
  return counts;
}

void GroupLassoRegularizer::zero_group_mask(std::size_t t, Tensor& mask,
                                            float tol) const {
  GS_CHECK(t < targets_.size());
  indices_[t].zero_group_mask(targets_[t].values(), mask, tol, pool_);
}

}  // namespace gs::compress
