// Lane-wise uniform quantiser — the executor's DAC/ADC arithmetic.
//
// quantize_uniform (runtime/program.hpp) re-derives its constants on every
// call: the step 2·fs/(levels−1), the top and mid state indices. The
// executor converts tens of thousands of values per sample against a
// handful of full scales (one per input vector), so LaneQuantizer derives
// those constants once — per lane, for kLanes lanes — and then quantises
// kLanes values per apply() call in one branch-free body (GCC/Clang vector
// extensions, like the analog panel kernel in hw/analog.cpp):
//  * the DAC runs one call per panel row: lane r is panel vector r, each
//    with its own full scale;
//  * the ADC runs on a tile's partial sums, kLanes columns of one vector
//    per call, with the vector's full scale in every lane.
// lane_max_abs is the scan that finds those full scales: one lane-wise
// max |x| per panel row.
//
// Bitwise contract: every lane returns exactly quantize_uniform(v, fs,
// levels) for its full scale fs > 0. The body keeps quantize_uniform's
// arithmetic — the same step expression, the same (v + fs) / step division
// (no reciprocal), the odd count's mid state as exactly 0.0, the same
// −fs + idx·step reconstruction (which a build that contracts a·b + c into
// FMA contracts in both places) — and replaces only libm round(): t is
// clamped to [0, levels−1] first (round-then-clamp and clamp-then-round
// agree), then rounded half away from zero through an exact int32
// truncation. A NaN t never reaches the conversion (it is clamped to 0 and
// restored after), so no lane converts a NaN or out-of-range double to an
// integer; the int32 index is why DacAdcParams::validate() caps level
// counts at kMaxConverterLevels. A lane whose full scale is not > 0 (the
// executor's x_max == 0 pass-through) returns its value untouched.
//
// Thread-safety: a LaneQuantizer is an immutable value after construction;
// apply() is const and touches only the caller's values, so any number of
// threads may share one. lane_max_abs touches only its arguments.
// Determinism: apply() is a pure per-lane function of (value, full scale,
// levels) — bitwise equal to quantize_uniform on the same build — so the
// lane a value lands in and its lane mates never change a bit; the scan is
// a max, exact in any order.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/check.hpp"
#include "hw/analog.hpp"

namespace gs::runtime {

/// Largest converter level count: LaneQuantizer indexes the states in
/// int32, so levels − 1 must fit in one. DacAdcParams::validate() enforces
/// it.
inline constexpr std::size_t kMaxConverterLevels = std::size_t{1} << 31;

/// quantize_uniform for kLanes values at once, its constants derived per
/// lane at construction (see above).
class LaneQuantizer {
 public:
  /// Values one apply() call quantises: the analog kernel's panel width,
  /// so one DAC call covers one panel row.
  static constexpr std::size_t kLanes = hw::AnalogCrossbar::kPanelRows;

  /// Passes every value through (every lane's full scale is 0).
  LaneQuantizer() = default;

  /// quantize_uniform's constants for `levels` (2..kMaxConverterLevels)
  /// states, lane l at full scale `full_scale[l]` (kLanes values).
  LaneQuantizer(std::size_t levels, const double* full_scale)
      : LaneQuantizer(levels) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      full_scale_[l] = full_scale[l];
      step_[l] = step_for(full_scale[l]);
    }
  }

  /// Every lane at one full scale.
  LaneQuantizer(std::size_t levels, double full_scale)
      : LaneQuantizer(levels) {
    const double step = step_for(full_scale);
    for (std::size_t l = 0; l < kLanes; ++l) {
      full_scale_[l] = full_scale;
      step_[l] = step;
    }
  }

  /// Quantises values[0..kLanes) in place, lane l as quantize_uniform(
  /// values[l], full_scale[l], levels) — or untouched when full_scale[l] is
  /// not > 0.
  void apply(double* values) const {
#if defined(__GNUC__) || defined(__clang__)
    typedef double vd __attribute__((vector_size(kLanes * sizeof(double))));
    typedef std::int32_t vi
        __attribute__((vector_size(kLanes * sizeof(std::int32_t))));
    vd v = {};
    vd fs = {};
    vd step = {};
    std::memcpy(&v, values, sizeof v);
    std::memcpy(&fs, full_scale_, sizeof fs);
    std::memcpy(&step, step_, sizeof step);
    const vd zero = {};
    const vd top = zero + top_;
    const vd t = (v + fs) / step;
    vd c = t >= zero ? t : zero;  // also NaN → 0
    c = c <= top ? c : top;
    // c is in [0, levels − 1]: the truncation is exact and in range.
    const vd k = __builtin_convertvector(__builtin_convertvector(c, vi), vd);
    vd idx = c - k >= zero + 0.5 ? k + 1.0 : k;
    idx = t == t ? idx : t;  // a NaN propagates as in quantize_uniform
    vd q = -fs + idx * step;
    q = idx == zero + mid_ ? zero : q;
    q = fs > zero ? q : v;
    std::memcpy(values, &q, sizeof q);
#else
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double t = (values[l] + full_scale_[l]) / step_[l];
      double c = t >= 0.0 ? t : 0.0;
      c = c <= top_ ? c : top_;
      const double k = static_cast<double>(static_cast<std::int32_t>(c));
      double idx = c - k >= 0.5 ? k + 1.0 : k;
      if (t != t) idx = t;
      const double q = idx == mid_ ? 0.0 : -full_scale_[l] + idx * step_[l];
      if (full_scale_[l] > 0.0) values[l] = q;
    }
#endif
  }

 private:
  explicit LaneQuantizer(std::size_t levels)
      : top_(static_cast<double>(levels - 1)),
        mid_(levels % 2 == 1 ? static_cast<double>((levels - 1) / 2) : -1.0) {
    GS_CHECK_MSG(levels >= 2 && levels <= kMaxConverterLevels,
                 "LaneQuantizer: " << levels << " levels, expected 2.."
                                   << kMaxConverterLevels);
  }

  /// quantize_uniform's step, 2·fs / (levels − 1), top_ being levels − 1.
  double step_for(double full_scale) const { return 2.0 * full_scale / top_; }

  alignas(64) double full_scale_[kLanes] = {};
  alignas(64) double step_[kLanes] = {};
  double top_ = 0.0;   ///< levels − 1, the top state index
  double mid_ = -1.0;  ///< an odd count's mid index (the 0.0 state), else −1
};

/// The converters' full-scale scan: lane l of `max_abs` (kLanes values)
/// becomes the max of itself and |v| over the `rows` rows of kLanes values
/// at `values` (row i at values + i·kLanes) — lane-wise
/// std::max(max_abs, std::fabs(v)), so a NaN leaves the max as it is.
inline void lane_max_abs(const double* values, std::size_t rows,
                         double* max_abs) {
  constexpr std::size_t kLanes = LaneQuantizer::kLanes;
#if defined(__GNUC__) || defined(__clang__)
  typedef double vd __attribute__((vector_size(kLanes * sizeof(double))));
  typedef std::uint64_t vu
      __attribute__((vector_size(kLanes * sizeof(std::uint64_t))));
  const vu abs_mask = vu{} + ~(std::uint64_t{1} << 63);
  vd m = {};
  std::memcpy(&m, max_abs, sizeof m);
  for (std::size_t i = 0; i < rows; ++i) {
    vd v = {};
    std::memcpy(&v, values + i * kLanes, sizeof v);
    const vd a = (vd)((vu)v & abs_mask);
    m = m < a ? a : m;
  }
  std::memcpy(max_abs, &m, sizeof m);
#else
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t l = 0; l < kLanes; ++l) {
      const double a = std::fabs(values[i * kLanes + l]);
      if (max_abs[l] < a) max_abs[l] = a;
    }
  }
#endif
}

}  // namespace gs::runtime
