#include "compress/group_index.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace gs::compress {

namespace {

/// Squared L2 norm of a contiguous span, double-accumulated in four
/// independent chains (vectorisable, and deterministic for a fixed length).
double sqnorm_span(const float* p, std::size_t n) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    a0 += static_cast<double>(p[j]) * p[j];
    a1 += static_cast<double>(p[j + 1]) * p[j + 1];
    a2 += static_cast<double>(p[j + 2]) * p[j + 2];
    a3 += static_cast<double>(p[j + 3]) * p[j + 3];
  }
  for (; j < n; ++j) a0 += static_cast<double>(p[j]) * p[j];
  return (a0 + a1) + (a2 + a3);
}

}  // namespace

GroupIndex::GroupIndex(hw::TileGrid grid) : grid_(grid) {
  GS_CHECK(grid_.rows > 0 && grid_.cols > 0);
  GS_CHECK(grid_.tile.rows > 0 && grid_.tile.cols > 0);
  row_sq_.assign(grid_.row_group_count(), 0.0);
  col_sq_.assign(grid_.col_group_count(), 0.0);
}

void GroupIndex::refresh(const Tensor& w, ThreadPool* pool) {
  GS_CHECK(w.rank() == 2 && w.rows() == grid_.rows && w.cols() == grid_.cols);
  const std::size_t gc = grid_.grid_cols();
  const std::size_t stride = grid_.cols;
  const float* base = w.data();
  hw::parallel_for_tile_runs(grid_, pool, [&](std::size_t first,
                                              std::size_t last) {
    std::vector<double> col_acc(grid_.tile.cols);
    for (std::size_t t = first; t < last; ++t) {
      const std::size_t tr = t / gc;
      const std::size_t tc = t % gc;
      const hw::GroupSlice s = hw::tile_slice(grid_, tr, tc);
      const std::size_t width = s.col_end - s.col_begin;
      std::fill(col_acc.begin(), col_acc.begin() + width, 0.0);
      for (std::size_t i = s.row_begin; i < s.row_end; ++i) {
        const float* row = base + i * stride + s.col_begin;
        row_sq_[i * gc + tc] = sqnorm_span(row, width);
        for (std::size_t j = 0; j < width; ++j) {
          col_acc[j] += static_cast<double>(row[j]) * row[j];
        }
      }
      double* col_out = col_sq_.data() + tr * grid_.cols + s.col_begin;
      for (std::size_t j = 0; j < width; ++j) col_out[j] = col_acc[j];
    }
  });
  stats_valid_ = true;
}

double GroupIndex::penalty_sum(bool row_groups, bool col_groups) const {
  GS_CHECK_MSG(stats_valid_, "penalty_sum before any refresh");
  double acc = 0.0;
  if (row_groups) {
    for (const double sq : row_sq_) acc += std::sqrt(sq);
  }
  if (col_groups) {
    for (const double sq : col_sq_) acc += std::sqrt(sq);
  }
  return acc;
}

hw::WireCount GroupIndex::census(double tol) const {
  GS_CHECK_MSG(stats_valid_, "census before any refresh");
  GS_CHECK(tol >= 0.0);
  const double sq_tol = tol * tol;
  hw::WireCount wires;
  wires.total = grid_.total_wires();
  for (const double sq : row_sq_) {
    if (sq > sq_tol) ++wires.remaining;
  }
  for (const double sq : col_sq_) {
    if (sq > sq_tol) ++wires.remaining;
  }
  return wires;
}

void GroupIndex::add_gradient(const Tensor& w, Tensor& g, double lambda,
                              double epsilon, bool row_groups, bool col_groups,
                              ThreadPool* pool) {
  GS_CHECK(w.rank() == 2 && w.rows() == grid_.rows && w.cols() == grid_.cols);
  GS_CHECK(w.same_shape(g));
  const std::size_t gc = grid_.grid_cols();
  const std::size_t stride = grid_.cols;
  const float* base = w.data();
  float* gbase = g.data();
  hw::parallel_for_tile_runs(grid_, pool, [&](std::size_t first,
                                              std::size_t last) {
    std::vector<double> col_acc(grid_.tile.cols);
    std::vector<double> col_scale(grid_.tile.cols);
    std::vector<double> row_scale(grid_.tile.rows);
    for (std::size_t t = first; t < last; ++t) {
      const std::size_t tr = t / gc;
      const std::size_t tc = t % gc;
      const hw::GroupSlice s = hw::tile_slice(grid_, tr, tc);
      const std::size_t width = s.col_end - s.col_begin;
      // Pass 1: all group norms of the tile (cached for the census).
      std::fill(col_acc.begin(), col_acc.begin() + width, 0.0);
      for (std::size_t i = s.row_begin; i < s.row_end; ++i) {
        const float* row = base + i * stride + s.col_begin;
        const double sq = sqnorm_span(row, width);
        row_sq_[i * gc + tc] = sq;
        row_scale[i - s.row_begin] = lambda / (std::sqrt(sq) + epsilon);
        for (std::size_t j = 0; j < width; ++j) {
          col_acc[j] += static_cast<double>(row[j]) * row[j];
        }
      }
      double* col_out = col_sq_.data() + tr * grid_.cols + s.col_begin;
      for (std::size_t j = 0; j < width; ++j) {
        col_out[j] = col_acc[j];
        col_scale[j] = lambda / (std::sqrt(col_acc[j]) + epsilon);
      }
      // Pass 2: Eq. (6) terms, row contribution then column contribution
      // per element (the order the scalar group sweeps applied them in).
      for (std::size_t i = s.row_begin; i < s.row_end; ++i) {
        const float* row = base + i * stride + s.col_begin;
        float* grow = gbase + i * stride + s.col_begin;
        const double rs = row_scale[i - s.row_begin];
        for (std::size_t j = 0; j < width; ++j) {
          const double wij = row[j];
          if (row_groups) grow[j] += static_cast<float>(rs * wij);
          if (col_groups) grow[j] += static_cast<float>(col_scale[j] * wij);
        }
      }
    }
  });
  stats_valid_ = true;
}

void GroupIndex::apply_proximal(Tensor& w, double threshold, bool row_groups,
                                bool col_groups, ThreadPool* pool) {
  GS_CHECK(w.rank() == 2 && w.rows() == grid_.rows && w.cols() == grid_.cols);
  GS_CHECK(threshold > 0.0);
  const std::size_t gc = grid_.grid_cols();
  const std::size_t stride = grid_.cols;
  float* base = w.data();
  hw::parallel_for_tile_runs(grid_, pool, [&](std::size_t first,
                                              std::size_t last) {
    std::vector<double> col_acc(grid_.tile.cols);
    for (std::size_t t = first; t < last; ++t) {
      const std::size_t tr = t / gc;
      const std::size_t tc = t % gc;
      const hw::GroupSlice s = hw::tile_slice(grid_, tr, tc);
      const std::size_t width = s.col_end - s.col_begin;
      // Row pass: soft-threshold each row group of the tile; the shrink folds
      // into the cached squared norm instead of a rescan.
      for (std::size_t i = s.row_begin; i < s.row_end; ++i) {
        float* row = base + i * stride + s.col_begin;
        const double sq = sqnorm_span(row, width);
        double* cached = &row_sq_[i * gc + tc];
        *cached = sq;
        if (!row_groups) continue;
        const double norm = std::sqrt(sq);
        if (norm <= threshold) {
          if (sq != 0.0) {
            for (std::size_t j = 0; j < width; ++j) row[j] = 0.0f;
          }
          *cached = 0.0;
          continue;
        }
        const float shrink = static_cast<float>(1.0 - threshold / norm);
        if (shrink >= 1.0f) continue;  // float no-op: ×1.0f is the identity
        for (std::size_t j = 0; j < width; ++j) row[j] *= shrink;
        *cached = sq * static_cast<double>(shrink) * shrink;
      }
      // Column pass on the row-shrunk weights. Column shrinks are folded back
      // into the row table element-by-element so the caches stay coherent
      // without another sweep.
      std::fill(col_acc.begin(), col_acc.begin() + width, 0.0);
      for (std::size_t i = s.row_begin; i < s.row_end; ++i) {
        const float* row = base + i * stride + s.col_begin;
        for (std::size_t j = 0; j < width; ++j) {
          col_acc[j] += static_cast<double>(row[j]) * row[j];
        }
      }
      double* col_out = col_sq_.data() + tr * grid_.cols + s.col_begin;
      for (std::size_t j = 0; j < width; ++j) {
        const double sq = col_acc[j];
        col_out[j] = sq;
        if (!col_groups) continue;
        const double norm = std::sqrt(sq);
        float* cell = base + s.row_begin * stride + s.col_begin + j;
        if (norm <= threshold) {
          if (sq != 0.0) {
            for (std::size_t i = s.row_begin; i < s.row_end;
                 ++i, cell += stride) {
              const double old = *cell;
              row_sq_[i * gc + tc] -= old * old;
              *cell = 0.0f;
            }
          }
          col_out[j] = 0.0;
          continue;
        }
        const float shrink = static_cast<float>(1.0 - threshold / norm);
        if (shrink >= 1.0f) continue;
        const double sq_scale =
            static_cast<double>(shrink) * shrink;
        for (std::size_t i = s.row_begin; i < s.row_end; ++i, cell += stride) {
          const double old = *cell;
          row_sq_[i * gc + tc] += (sq_scale - 1.0) * old * old;
          *cell *= shrink;
        }
        col_out[j] = sq * sq_scale;
      }
      // Incremental subtraction can leave tiny negative residue on a row
      // group whose mass was removed by the column pass; clamp so later
      // sqrt/census reads stay well-defined.
      for (std::size_t i = s.row_begin; i < s.row_end; ++i) {
        double& sq = row_sq_[i * gc + tc];
        if (sq < 0.0) sq = 0.0;
      }
    }
  });
  stats_valid_ = true;
}

std::size_t GroupIndex::snap_zero_groups(Tensor& w, double tol,
                                         bool row_groups, bool col_groups,
                                         ThreadPool* pool) {
  GS_CHECK(w.rank() == 2 && w.rows() == grid_.rows && w.cols() == grid_.cols);
  GS_CHECK(tol >= 0.0);
  const std::size_t gc = grid_.grid_cols();
  const std::size_t stride = grid_.cols;
  float* base = w.data();
  std::vector<std::size_t> snapped(grid_.tile_count(), 0);
  hw::parallel_for_tile_runs(grid_, pool, [&](std::size_t first,
                                              std::size_t last) {
    std::vector<double> col_acc(grid_.tile.cols);
    for (std::size_t t = first; t < last; ++t) {
      const std::size_t tr = t / gc;
      const std::size_t tc = t % gc;
      const hw::GroupSlice s = hw::tile_slice(grid_, tr, tc);
      const std::size_t width = s.col_end - s.col_begin;
      std::size_t count = 0;
      for (std::size_t i = s.row_begin; i < s.row_end; ++i) {
        float* row = base + i * stride + s.col_begin;
        const double sq = sqnorm_span(row, width);
        const double norm = std::sqrt(sq);
        if (row_groups && norm > 0.0 && norm < tol) {
          for (std::size_t j = 0; j < width; ++j) row[j] = 0.0f;
          row_sq_[i * gc + tc] = 0.0;
          ++count;
        } else {
          row_sq_[i * gc + tc] = sq;
        }
      }
      // Column norms on the row-snapped weights (matches the sequential
      // row-family-first order of the scalar implementation).
      std::fill(col_acc.begin(), col_acc.begin() + width, 0.0);
      for (std::size_t i = s.row_begin; i < s.row_end; ++i) {
        const float* row = base + i * stride + s.col_begin;
        for (std::size_t j = 0; j < width; ++j) {
          col_acc[j] += static_cast<double>(row[j]) * row[j];
        }
      }
      double* col_out = col_sq_.data() + tr * grid_.cols + s.col_begin;
      for (std::size_t j = 0; j < width; ++j) {
        const double norm = std::sqrt(col_acc[j]);
        if (col_groups && norm > 0.0 && norm < tol) {
          float* cell = base + s.row_begin * stride + s.col_begin + j;
          for (std::size_t i = s.row_begin; i < s.row_end;
               ++i, cell += stride) {
            const double old = *cell;
            row_sq_[i * gc + tc] -= old * old;
            *cell = 0.0f;
          }
          col_out[j] = 0.0;
          ++count;
        } else {
          col_out[j] = col_acc[j];
        }
      }
      for (std::size_t i = s.row_begin; i < s.row_end; ++i) {
        double& sq = row_sq_[i * gc + tc];
        if (sq < 0.0) sq = 0.0;
      }
      snapped[t] = count;
    }
  });
  stats_valid_ = true;
  std::size_t total = 0;
  for (const std::size_t count : snapped) total += count;
  return total;
}

void GroupIndex::zero_group_mask(const Tensor& w, Tensor& mask, float tol,
                                 ThreadPool* pool) const {
  GS_CHECK(w.rank() == 2 && w.rows() == grid_.rows && w.cols() == grid_.cols);
  GS_CHECK(w.same_shape(mask));
  const std::size_t gc = grid_.grid_cols();
  const std::size_t stride = grid_.cols;
  const float* base = w.data();
  float* mbase = mask.data();
  hw::parallel_for_tile_runs(grid_, pool, [&](std::size_t first,
                                              std::size_t last) {
    std::vector<char> col_live(grid_.tile.cols);
    for (std::size_t t = first; t < last; ++t) {
      const std::size_t tr = t / gc;
      const std::size_t tc = t % gc;
      const hw::GroupSlice s = hw::tile_slice(grid_, tr, tc);
      const std::size_t width = s.col_end - s.col_begin;
      std::fill(col_live.begin(), col_live.begin() + width, 0);
      for (std::size_t i = s.row_begin; i < s.row_end; ++i) {
        const float* row = base + i * stride + s.col_begin;
        bool row_live = false;
        for (std::size_t j = 0; j < width; ++j) {
          if (std::fabs(row[j]) > tol) {
            row_live = true;
            col_live[j] = 1;
          }
        }
        if (!row_live) {
          float* mrow = mbase + i * stride + s.col_begin;
          for (std::size_t j = 0; j < width; ++j) mrow[j] = 0.0f;
        }
      }
      for (std::size_t j = 0; j < width; ++j) {
        if (col_live[j]) continue;
        float* cell = mbase + s.row_begin * stride + s.col_begin + j;
        for (std::size_t i = s.row_begin; i < s.row_end; ++i, cell += stride) {
          *cell = 0.0f;
        }
      }
    }
  });
}

}  // namespace gs::compress
