// Differential test of the executor's converter arithmetic: LaneQuantizer
// against its oracle quantize_uniform, compared bitwise lane by lane with a
// different full scale in every lane (lane 0 at full scale 0, which must
// pass its values through untouched), across level counts from 2 to the
// largest DacAdcParams::validate() admits, on exact half-steps and their
// one-ulp neighbours, the rails and beyond, signed zeros, infinities, NaNs,
// subnormals and a seeded random sweep; and the full-scale scan against
// the scalar std::max chain. Runs on every build configuration the runtime
// suite runs on, so the reconstruction is checked both where it contracts
// into an FMA and where it does not.
#include "runtime/lane_quantizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "runtime/program.hpp"

namespace gs::runtime {
namespace {

constexpr std::size_t kLanes = LaneQuantizer::kLanes;
using Limits = std::numeric_limits<double>;

const std::size_t kLevelCounts[] = {2,    3,     4,    255,
                                    256,  4095,  4096, 65535,
                                    kMaxConverterLevels};

/// Two sets of per-lane full scales, lane 0 at 0 in both: converter-sized
/// scales, then extremes (infinite, overflowing step, subnormal).
const double kFullScales[2][kLanes] = {
    {0.0, 1.0, 0.3, 7.25, 1e-3, 123.456, 3e9, 0.0625},
    {0.0, Limits::infinity(), Limits::max(), 1e-310, Limits::denorm_min(),
     3.4028234663852886e38, 1e300, 0.5}};

void add_with_neighbours(std::vector<double>& values, double v) {
  values.push_back(v);
  values.push_back(std::nextafter(v, -Limits::infinity()));
  values.push_back(std::nextafter(v, Limits::infinity()));
}

/// Inputs for one lane at full scale `fs`: exact half-steps
/// −fs + (k + 0.5)·step and their ±1-ulp neighbours (every k for small
/// counts, the ends, the middle and random k for large ones), both rails
/// and beyond, the special values, and a seeded random sweep.
std::vector<double> lane_inputs(double fs, std::size_t levels,
                                std::uint64_t seed) {
  const double step = 2.0 * fs / static_cast<double>(levels - 1);
  const std::size_t top = levels - 1;
  std::vector<std::int64_t> ks{-2, -1};
  if (top <= 64) {
    for (std::size_t k = 0; k <= top; ++k) {
      ks.push_back(static_cast<std::int64_t>(k));
    }
  } else {
    const auto mid = static_cast<std::int64_t>(top / 2);
    const auto last = static_cast<std::int64_t>(top);
    for (const std::int64_t k :
         {std::int64_t{0}, std::int64_t{1}, std::int64_t{2}, mid - 1, mid,
          mid + 1, last - 2, last - 1, last}) {
      ks.push_back(k);
    }
  }
  Rng rng(seed);
  if (top > 64) {
    for (int i = 0; i < 32; ++i) {
      ks.push_back(static_cast<std::int64_t>(rng.uniform_index(top)));
    }
  }
  std::vector<double> values;
  for (const std::int64_t k : ks) {
    add_with_neighbours(values,
                        -fs + (static_cast<double>(k) + 0.5) * step);
  }
  for (const double rail : {fs, -fs, 2.0 * fs, -2.0 * fs, 1e10 * fs}) {
    add_with_neighbours(values, rail);
  }
  for (const double special :
       {0.0, -0.0, Limits::infinity(), -Limits::infinity(),
        Limits::quiet_NaN(), -Limits::quiet_NaN(),
        std::bit_cast<double>(std::uint64_t{0x7ff800000000beefULL}),
        Limits::denorm_min(), -Limits::denorm_min(), 1e-310, -1e-310,
        Limits::min(), -Limits::min(), Limits::max(), -Limits::max()}) {
    values.push_back(special);
  }
  for (int i = 0; i < 256; ++i) {
    values.push_back(rng.uniform(-1.25 * fs, 1.25 * fs));
  }
  for (int i = 0; i < 64; ++i) {
    const double k = static_cast<double>(rng.uniform_index(top + 1));
    values.push_back(-fs + (k + rng.uniform(-0.5, 0.5)) * step);
  }
  return values;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// The bits `value` must come back as from a lane at full scale `fs`.
std::uint64_t expected_bits(double value, double fs, std::size_t levels) {
  return fs > 0.0 ? bits(quantize_uniform(value, fs, levels)) : bits(value);
}

TEST(LaneQuantizerTest, BitwiseEqualsQuantizeUniformPerLane) {
  for (const std::size_t levels : kLevelCounts) {
    for (std::size_t set = 0; set < 2; ++set) {
      const double* const fs = kFullScales[set];
      std::vector<std::vector<double>> inputs;
      std::size_t calls = 0;
      for (std::size_t l = 0; l < kLanes; ++l) {
        // Lane 0 (full scale 0) sees the inputs of a unit full scale.
        inputs.push_back(lane_inputs(fs[l] > 0.0 ? fs[l] : 1.0, levels,
                                     levels * 131 + set * 17 + l));
        calls = std::max(calls, inputs.back().size());
      }
      const LaneQuantizer quantizer(levels, fs);
      std::size_t mismatches = 0;
      for (std::size_t c = 0; c < calls; ++c) {
        double lanes[kLanes] = {};
        for (std::size_t l = 0; l < kLanes; ++l) {
          lanes[l] = inputs[l][c % inputs[l].size()];
        }
        double out[kLanes] = {};
        std::copy(lanes, lanes + kLanes, out);
        quantizer.apply(out);
        for (std::size_t l = 0; l < kLanes; ++l) {
          const std::uint64_t want = expected_bits(lanes[l], fs[l], levels);
          if (bits(out[l]) == want) continue;
          if (++mismatches <= 5) {
            ADD_FAILURE() << levels << " levels, lane " << l << " (fs "
                          << fs[l] << "): quantize(" << lanes[l]
                          << ") = " << out[l] << " (bits " << std::hex
                          << bits(out[l]) << "), quantize_uniform gives bits "
                          << want << std::dec;
          }
        }
      }
      EXPECT_EQ(mismatches, 0u) << levels << " levels, scale set " << set;
    }
  }
}

TEST(LaneQuantizerTest, BroadcastFullScaleMatchesOracleInEveryLane) {
  // The ADC form: kLanes columns of one vector per call, the vector's full
  // scale in every lane.
  for (const std::size_t levels : kLevelCounts) {
    for (const double fs : {1.0, 0.3, 1e-3, 3e9, 1e-310}) {
      const LaneQuantizer quantizer(levels, fs);
      const std::vector<double> values = lane_inputs(fs, levels, levels + 7);
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < values.size(); i += kLanes) {
        double out[kLanes] = {};
        for (std::size_t l = 0; l < kLanes; ++l) {
          out[l] = values[(i + l) % values.size()];
        }
        quantizer.apply(out);
        for (std::size_t l = 0; l < kLanes; ++l) {
          const double v = values[(i + l) % values.size()];
          if (bits(out[l]) != expected_bits(v, fs, levels)) ++mismatches;
        }
      }
      EXPECT_EQ(mismatches, 0u) << levels << " levels, fs " << fs;
    }
  }
}

TEST(LaneQuantizerTest, ZeroFullScaleLanesComeBackUntouched) {
  const double payload_nan =
      std::bit_cast<double>(std::uint64_t{0xfff000000000f00dULL});
  const double in[kLanes] = {-0.0,   payload_nan,   Limits::infinity(),
                             1e-310, -3.5,          Limits::max(),
                             0.1,    -Limits::quiet_NaN()};
  const double scales[kLanes] = {};
  for (const LaneQuantizer& quantizer :
       {LaneQuantizer(), LaneQuantizer(255, scales),
        LaneQuantizer(4096, 0.0)}) {
    double out[kLanes] = {};
    std::copy(in, in + kLanes, out);
    quantizer.apply(out);
    for (std::size_t l = 0; l < kLanes; ++l) {
      EXPECT_EQ(bits(out[l]), bits(in[l])) << "lane " << l;
    }
  }
}

TEST(LaneQuantizerTest, MaxAbsScanMatchesTheScalarMaxChain) {
  // The executor's full-scale scan: per lane, x_max = std::max(x_max,
  // std::fabs(v)) over the rows, from 0 — NaNs skipped, −0.0 and
  // subnormals kept exactly.
  Rng rng(11);
  const double specials[] = {-0.0,   Limits::quiet_NaN(), Limits::infinity(),
                             1e-310, -Limits::denorm_min(), -2.5,
                             -Limits::quiet_NaN()};
  for (const std::size_t rows : {0, 1, 5, 64}) {
    std::vector<double> values(rows * kLanes);
    for (std::size_t i = 0; i < values.size(); ++i) {
      values[i] = rng.bernoulli(0.2) ? specials[rng.uniform_index(7)]
                                     : rng.uniform(-3.0, 3.0);
    }
    for (std::size_t l = 0; l < kLanes; l += 3) {
      for (std::size_t i = 0; i < rows; ++i) values[i * kLanes + l] = 0.0;
    }
    double scanned[kLanes] = {};
    lane_max_abs(values.data(), rows, scanned);
    for (std::size_t l = 0; l < kLanes; ++l) {
      double expected = 0.0;
      for (std::size_t i = 0; i < rows; ++i) {
        expected = std::max(expected, std::fabs(values[i * kLanes + l]));
      }
      EXPECT_EQ(bits(scanned[l]), bits(expected))
          << rows << " rows, lane " << l;
    }
  }
}

TEST(LaneQuantizerTest, RejectsLevelCountsOutsideTheIndexRange) {
  const double scales[kLanes] = {1.0};
  EXPECT_THROW(LaneQuantizer(0, scales), Error);
  EXPECT_THROW(LaneQuantizer(1, scales), Error);
  EXPECT_THROW(LaneQuantizer(kMaxConverterLevels + 1, scales), Error);
  EXPECT_NO_THROW(LaneQuantizer(kMaxConverterLevels, scales));
  EXPECT_NO_THROW(LaneQuantizer(2, 1.0));
}

}  // namespace
}  // namespace gs::runtime
