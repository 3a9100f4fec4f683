#include "hw/analog.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/check.hpp"

namespace gs::hw {

void AnalogParams::validate() const {
  GS_CHECK(g_min > 0.0 && g_max > g_min);
  GS_CHECK(variation_sigma >= 0.0);
  GS_CHECK(wire_resistance >= 0.0);
}

namespace {

/// Quantises a conductance to the nearest of `levels` states in
/// [g_min, g_max]; levels == 0 means continuous programming.
double quantize(double g, const AnalogParams& p) {
  if (p.levels == 0) return g;
  GS_CHECK(p.levels >= 2);
  const double step = (p.g_max - p.g_min) / static_cast<double>(p.levels - 1);
  const double idx = std::round((g - p.g_min) / step);
  const double clamped =
      std::clamp(idx, 0.0, static_cast<double>(p.levels - 1));
  return p.g_min + clamped * step;
}

constexpr std::size_t kPanel = AnalogCrossbar::kPanelRows;

#if defined(__GNUC__) || defined(__clang__)
// The panel kernel uses GCC/Clang vector extensions, like the GEMM
// micro-kernel (linalg/gemm_kernel.cpp). A full column block is one vector
// register per panel vector — 8 doubles on AVX-512, 4 elsewhere — so the
// kPanelRows accumulators of a block are kPanelRows independent FMA chains
// in flight, enough to hide the FMA latency; narrower blocks finish the
// tile's columns.
#define GS_ANALOG_VECTOR_KERNEL 1
typedef double vd8 __attribute__((vector_size(8 * sizeof(double))));
typedef float vf8 __attribute__((vector_size(8 * sizeof(float))));
typedef double vd4 __attribute__((vector_size(4 * sizeof(double))));
typedef float vf4 __attribute__((vector_size(4 * sizeof(float))));
typedef double vd2 __attribute__((vector_size(2 * sizeof(double))));
typedef float vf2 __attribute__((vector_size(2 * sizeof(float))));

/// N panel vectors × one column block of VD lanes from column j: the
/// block's weights are loaded (and widened) once per weight row and reused
/// by all N vectors, whose accumulators stay in registers.
template <std::size_t N, typename VD, typename VF>
void panel_block(const float* w, std::size_t p, std::size_t q, std::size_t j,
                 const double* panel, double* y, std::size_t ldy) {
  VD acc[N] = {};
  for (std::size_t i = 0; i < p; ++i) {
    VF wf;
    std::memcpy(&wf, w + i * q + j, sizeof wf);
    const VD wd = __builtin_convertvector(wf, VD);
    const double* x = panel + i * kPanel;
    for (std::size_t r = 0; r < N; ++r) acc[r] += x[r] * wd;
  }
  for (std::size_t r = 0; r < N; ++r) {
    std::memcpy(y + r * ldy + j, &acc[r], sizeof acc[r]);
  }
}
#endif

/// matvec_panel for exactly N vectors: full-register column blocks, then
/// narrower blocks, then a scalar column.
template <std::size_t N>
void panel_kernel(const float* w, std::size_t p, std::size_t q,
                  const double* panel, double* y, std::size_t ldy) {
  std::size_t j = 0;
#ifdef GS_ANALOG_VECTOR_KERNEL
#ifdef __AVX512F__
  for (; j + 8 <= q; j += 8) {
    panel_block<N, vd8, vf8>(w, p, q, j, panel, y, ldy);
  }
#endif
  for (; j + 4 <= q; j += 4) {
    panel_block<N, vd4, vf4>(w, p, q, j, panel, y, ldy);
  }
  if (j + 2 <= q) {
    panel_block<N, vd2, vf2>(w, p, q, j, panel, y, ldy);
    j += 2;
  }
#endif
  for (; j < q; ++j) {
    double acc[N] = {};
    for (std::size_t i = 0; i < p; ++i) {
      const double wij = static_cast<double>(w[i * q + j]);
      for (std::size_t r = 0; r < N; ++r) {
        acc[r] += panel[i * kPanel + r] * wij;
      }
    }
    for (std::size_t r = 0; r < N; ++r) y[r * ldy + j] = acc[r];
  }
}

/// One panel_kernel instantiation per vector count 1..kPanelRows.
template <std::size_t... N>
constexpr auto make_panel_kernels(std::index_sequence<N...>) {
  return std::array{&panel_kernel<N + 1>...};
}
constexpr auto kPanelKernels =
    make_panel_kernels(std::make_index_sequence<kPanel>{});

}  // namespace

AnalogCrossbar::AnalogCrossbar(const Tensor& weights, double w_max,
                               const AnalogParams& params, Rng& rng)
    : params_(params), w_max_(w_max) {
  params_.validate();
  GS_CHECK_MSG(weights.rank() == 2, "crossbar weights must be a matrix");
  GS_CHECK_MSG(w_max > 0.0, "w_max must be positive");
  const std::size_t p = weights.rows();
  const std::size_t q = weights.cols();
  g_plus_ = Tensor(Shape{p, q});
  g_minus_ = Tensor(Shape{p, q});
  effective_ = Tensor(Shape{p, q});

  // Weight-to-conductance scale: |w| = w_max maps to the full conductance
  // swing g_max − g_min on one side of the differential pair.
  const double swing = params_.g_max - params_.g_min;
  const double scale = swing / w_max;

  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < q; ++j) {
      const double w =
          std::clamp(static_cast<double>(weights.at(i, j)), -w_max, w_max);
      double gp = params_.g_min + std::max(w, 0.0) * scale;
      double gm = params_.g_min + std::max(-w, 0.0) * scale;
      gp = quantize(gp, params_);
      gm = quantize(gm, params_);
      if (params_.variation_sigma > 0.0) {
        gp *= std::exp(rng.gaussian(0.0, params_.variation_sigma));
        gm *= std::exp(rng.gaussian(0.0, params_.variation_sigma));
      }
      g_plus_.at(i, j) = static_cast<float>(gp);
      g_minus_.at(i, j) = static_cast<float>(gm);
    }
  }

  recompute_effective();
}

void AnalogCrossbar::set_conductances(Tensor g_plus, Tensor g_minus) {
  GS_CHECK_MSG(g_plus.same_shape(g_plus_) && g_minus.same_shape(g_minus_),
               "set_conductances: shape mismatch with the programmed array");
  for (std::size_t i = 0; i < g_plus.numel(); ++i) {
    GS_CHECK_MSG(g_plus[i] > 0.0f && g_minus[i] > 0.0f,
                 "set_conductances: conductances must be positive");
  }
  g_plus_ = std::move(g_plus);
  g_minus_ = std::move(g_minus);
  recompute_effective();
}

void AnalogCrossbar::recompute_effective() {
  // Effective weights: differential read-out with first-order IR-drop.
  // Drivers sit at column 0 (row wires) and row P−1 (column wires, where
  // the sense amplifiers integrate), so the farthest cell is (0, Q−1).
  const std::size_t p = g_plus_.rows();
  const std::size_t q = g_plus_.cols();
  const double scale = (params_.g_max - params_.g_min) / w_max_;
  const double mean_g = 0.5 * (params_.g_min + params_.g_max);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < q; ++j) {
      const double segments =
          static_cast<double>(j + 1) + static_cast<double>(p - i);
      const double attenuation =
          1.0 /
          (1.0 + params_.wire_resistance * mean_g * segments);
      const double diff = static_cast<double>(g_plus_.at(i, j)) -
                          static_cast<double>(g_minus_.at(i, j));
      effective_.at(i, j) =
          static_cast<float>(diff / scale * attenuation);
    }
  }
}

Tensor AnalogCrossbar::matvec(const Tensor& x) const {
  GS_CHECK(x.rank() == 1 && x.dim(0) == effective_.rows());
  Tensor y(Shape{effective_.cols()});
  std::vector<double> acc(effective_.cols(), 0.0);
  accumulate_matvec(x.data(), acc.data());
  for (std::size_t j = 0; j < effective_.cols(); ++j) {
    y[j] = static_cast<float>(acc[j]);
  }
  return y;
}

void AnalogCrossbar::accumulate_matvec(const float* x, double* acc) const {
  const std::size_t p = effective_.rows();
  const std::size_t q = effective_.cols();
  const float* w = effective_.data();
  for (std::size_t i = 0; i < p; ++i) {
    const double xi = static_cast<double>(x[i]);
    if (xi == 0.0) continue;  // adds nothing; skipping preserves the sums
    const float* row = w + i * q;
    for (std::size_t j = 0; j < q; ++j) {
      acc[j] += xi * static_cast<double>(row[j]);
    }
  }
}

void AnalogCrossbar::matvec_panel(const double* panel, std::size_t n,
                                  double* y, std::size_t ldy) const {
  GS_CHECK_MSG(n >= 1 && n <= kPanelRows,
               "matvec_panel: " << n << " vectors, expected 1.." << kPanelRows);
  kPanelKernels[n - 1](effective_.data(), effective_.rows(), effective_.cols(),
                       panel, y, ldy);
}

double full_scale_weight(const Tensor& w) {
  double w_max = 1e-6;
  for (std::size_t i = 0; i < w.numel(); ++i) {
    w_max = std::max(w_max, static_cast<double>(std::fabs(w[i])));
  }
  return w_max;
}

Tensor analog_effective_matrix(const Tensor& m, const TileGrid& grid,
                               const AnalogParams& params) {
  GS_CHECK(m.rank() == 2 && m.rows() == grid.rows && m.cols() == grid.cols);
  params.validate();
  Rng rng(params.seed);

  const double w_max = full_scale_weight(m);

  Tensor effective(m.shape());
  for (std::size_t tr = 0; tr < grid.grid_rows(); ++tr) {
    for (std::size_t tc = 0; tc < grid.grid_cols(); ++tc) {
      const std::size_t r0 = tr * grid.tile.rows;
      const std::size_t r1 = std::min(r0 + grid.tile.rows, grid.rows);
      const std::size_t c0 = tc * grid.tile.cols;
      const std::size_t c1 = std::min(c0 + grid.tile.cols, grid.cols);
      Tensor tile(Shape{r1 - r0, c1 - c0});
      for (std::size_t i = r0; i < r1; ++i) {
        for (std::size_t j = c0; j < c1; ++j) {
          tile.at(i - r0, j - c0) = m.at(i, j);
        }
      }
      const AnalogCrossbar xbar(tile, w_max, params, rng);
      const Tensor& eff = xbar.effective_weights();
      for (std::size_t i = r0; i < r1; ++i) {
        for (std::size_t j = c0; j < c1; ++j) {
          effective.at(i, j) = eff.at(i - r0, j - c0);
        }
      }
    }
  }
  return effective;
}

double weight_rms_error(const Tensor& ideal, const Tensor& effective) {
  GS_CHECK(ideal.same_shape(effective));
  GS_CHECK(ideal.numel() > 0);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < ideal.numel(); ++i) {
    const double d = static_cast<double>(ideal[i]) - effective[i];
    num += d * d;
    den += static_cast<double>(ideal[i]) * ideal[i];
  }
  if (den <= 0.0) return 0.0;
  return std::sqrt(num / den);
}

}  // namespace gs::hw
