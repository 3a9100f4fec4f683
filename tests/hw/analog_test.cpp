#include "hw/analog.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace gs::hw {
namespace {

Tensor random_weights(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  Tensor w(Shape{r, c});
  w.fill_gaussian(rng, 0.0f, 0.3f);
  return w;
}

AnalogParams ideal_params() {
  AnalogParams p;
  p.levels = 0;
  p.variation_sigma = 0.0;
  p.wire_resistance = 0.0;
  return p;
}

TEST(AnalogParams, ValidationRejectsBadRanges) {
  AnalogParams p = ideal_params();
  p.g_min = 0.0;
  EXPECT_THROW(p.validate(), Error);
  p = ideal_params();
  p.g_max = p.g_min;
  EXPECT_THROW(p.validate(), Error);
  p = ideal_params();
  p.variation_sigma = -0.1;
  EXPECT_THROW(p.validate(), Error);
}

TEST(AnalogCrossbar, IdealProgrammingIsExact) {
  Rng rng(1);
  const Tensor w = random_weights(16, 8, 2);
  const float w_max = std::max(std::fabs(w.min()), std::fabs(w.max()));
  const AnalogCrossbar xbar(w, w_max, ideal_params(), rng);
  EXPECT_LE(max_abs_diff(xbar.effective_weights(), w), 1e-5f * w_max);
}

TEST(AnalogCrossbar, ConductancesWithinRange) {
  Rng rng(2);
  const Tensor w = random_weights(10, 10, 3);
  AnalogParams p = ideal_params();
  p.levels = 16;
  const AnalogCrossbar xbar(w, 1.0, p, rng);
  EXPECT_GE(xbar.conductance_plus().min(), static_cast<float>(p.g_min) * 0.99f);
  EXPECT_LE(xbar.conductance_plus().max(), static_cast<float>(p.g_max) * 1.01f);
  EXPECT_GE(xbar.conductance_minus().min(),
            static_cast<float>(p.g_min) * 0.99f);
}

TEST(AnalogCrossbar, DifferentialEncodingUsesOneSide) {
  // A positive weight programs G⁺ above g_min and leaves G⁻ at g_min.
  Rng rng(3);
  Tensor w(Shape{1, 2});
  w.at(0, 0) = 0.5f;
  w.at(0, 1) = -0.5f;
  const AnalogCrossbar xbar(w, 1.0, ideal_params(), rng);
  EXPECT_GT(xbar.conductance_plus().at(0, 0),
            xbar.conductance_minus().at(0, 0));
  EXPECT_LT(xbar.conductance_plus().at(0, 1),
            xbar.conductance_minus().at(0, 1));
}

TEST(AnalogCrossbar, QuantizationBoundsError) {
  Rng rng(4);
  const Tensor w = random_weights(20, 10, 5);
  const float w_max = std::max(std::fabs(w.min()), std::fabs(w.max()));
  AnalogParams p = ideal_params();
  p.levels = 32;
  const AnalogCrossbar xbar(w, w_max, p, rng);
  // One quantisation step in weight units: w_max/(levels−1) per side.
  const float step = w_max / 31.0f;
  EXPECT_LE(max_abs_diff(xbar.effective_weights(), w), step * 1.01f);
}

TEST(AnalogCrossbar, FewerLevelsMoreError) {
  Rng rng(5);
  const Tensor w = random_weights(30, 12, 6);
  const float w_max = std::max(std::fabs(w.min()), std::fabs(w.max()));
  double prev = 0.0;
  for (std::size_t levels : {64u, 16u, 4u}) {
    AnalogParams p = ideal_params();
    p.levels = levels;
    Rng r(6);
    const AnalogCrossbar xbar(w, w_max, p, r);
    const double err = weight_rms_error(w, xbar.effective_weights());
    EXPECT_GE(err, prev);
    prev = err;
  }
}

TEST(AnalogCrossbar, VariationIsDeterministicPerRng) {
  const Tensor w = random_weights(8, 8, 7);
  AnalogParams p = ideal_params();
  p.variation_sigma = 0.1;
  Rng r1(9);
  Rng r2(9);
  const AnalogCrossbar a(w, 1.0, p, r1);
  const AnalogCrossbar b(w, 1.0, p, r2);
  EXPECT_TRUE(allclose(a.effective_weights(), b.effective_weights(), 0.0f));
}

TEST(AnalogCrossbar, IrDropAttenuatesFarCells) {
  // With wire resistance, the far corner (row 0, last column) is attenuated
  // more than the near corner (last row, column 0).
  Tensor w(Shape{32, 32}, 0.5f);
  AnalogParams p = ideal_params();
  p.wire_resistance = 10.0;
  Rng rng(10);
  const AnalogCrossbar xbar(w, 1.0, p, rng);
  const Tensor& eff = xbar.effective_weights();
  EXPECT_LT(eff.at(0, 31), eff.at(31, 0));
  EXPECT_LT(eff.at(0, 31), 0.5f);
}

TEST(AnalogCrossbar, LargerCrossbarsSufferMoreIrDrop) {
  // The paper's size-limit motivation: at fixed wire resistance, mean
  // weight degradation grows with crossbar dimension.
  AnalogParams p = ideal_params();
  p.wire_resistance = 5.0;
  double prev = 0.0;
  for (std::size_t dim : {16u, 64u, 128u}) {
    Tensor w(Shape{dim, dim}, 0.5f);
    Rng rng(11);
    const AnalogCrossbar xbar(w, 1.0, p, rng);
    const double err = weight_rms_error(w, xbar.effective_weights());
    EXPECT_GT(err, prev) << "dim=" << dim;
    prev = err;
  }
}

TEST(AnalogCrossbar, MatvecMatchesEffectiveWeights) {
  Rng rng(12);
  const Tensor w = random_weights(6, 4, 13);
  const AnalogCrossbar xbar(w, 1.0, ideal_params(), rng);
  Tensor x(Shape{6});
  x.fill_gaussian(rng, 0.0f, 1.0f);
  const Tensor y = xbar.matvec(x);
  for (std::size_t j = 0; j < 4; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < 6; ++i) {
      acc += double(x[i]) * xbar.effective_weights().at(i, j);
    }
    EXPECT_NEAR(y[j], acc, 1e-4);
  }
}

// Differential test of the executor's row-panel kernel against the scalar
// GEMV it replaced: every output of matvec_panel must equal, bit for bit,
// what accumulate_matvec leaves in a +0.0-filled accumulator — across tile
// shapes that hit every column block and tail, vector counts that fill,
// underfill and straddle panels, and inputs with exact zeros, −0.0 and
// mixed signs.
TEST(AnalogCrossbar, MatvecPanelBitwiseMatchesAccumulateMatvec) {
  constexpr std::size_t kR = AnalogCrossbar::kPanelRows;
  const std::size_t heights[] = {1,  2,  3,  4,  5,  7,  8,  9, 12,
                                 16, 24, 25, 31, 33, 50, 63, 64};
  std::vector<std::size_t> widths;
  for (std::size_t q = 1; q <= 18; ++q) widths.push_back(q);
  for (std::size_t q : {20, 23, 24, 25, 31, 32, 33, 47, 50, 63, 64}) {
    widths.push_back(q);
  }
  AnalogParams params = ideal_params();
  params.levels = 16;  // effective weights with exact zeros and repeats
  Rng rng(21);
  for (const std::size_t p : heights) {
    for (const std::size_t q : widths) {
      const Tensor w = random_weights(p, q, 1000 * p + q);
      const AnalogCrossbar xbar(w, 0.8, params, rng);
      const std::size_t ldy = q + 3;  // a row stride wider than the tile
      for (std::size_t rows = 1; rows <= 2 * kR + 1; ++rows) {
        std::vector<float> x(rows * p);
        for (float& v : x) {
          const double u = rng.uniform(0.0, 1.0);
          v = u < 0.2   ? 0.0f
              : u < 0.3 ? -0.0f
                        : static_cast<float>(rng.gaussian(0.0, 1.0));
        }
        std::vector<double> y(rows * ldy, -1.0);
        std::vector<double> panel(p * kR);
        for (std::size_t r0 = 0; r0 < rows; r0 += kR) {
          const std::size_t n = std::min(kR, rows - r0);
          // Lanes past n hold NaN: reading one would poison an output.
          std::fill(panel.begin(), panel.end(),
                    std::numeric_limits<double>::quiet_NaN());
          for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t i = 0; i < p; ++i) {
              panel[i * kR + r] = x[(r0 + r) * p + i];
            }
          }
          xbar.matvec_panel(panel.data(), n, y.data() + r0 * ldy, ldy);
        }
        for (std::size_t r = 0; r < rows; ++r) {
          std::vector<double> oracle(q, 0.0);
          xbar.accumulate_matvec(x.data() + r * p, oracle.data());
          ASSERT_EQ(std::memcmp(oracle.data(), y.data() + r * ldy,
                                q * sizeof(double)),
                    0)
              << p << "x" << q << " tile, " << rows << " vectors, row " << r;
        }
      }
    }
  }
}

TEST(AnalogCrossbar, MatvecPanelRejectsBadVectorCounts) {
  Rng rng(22);
  const AnalogCrossbar xbar(random_weights(3, 2, 23), 1.0, ideal_params(),
                            rng);
  std::vector<double> panel(3 * AnalogCrossbar::kPanelRows, 1.0);
  std::vector<double> y(2 * (AnalogCrossbar::kPanelRows + 1));
  EXPECT_THROW(xbar.matvec_panel(panel.data(), 0, y.data(), 2), Error);
  EXPECT_THROW(xbar.matvec_panel(panel.data(), AnalogCrossbar::kPanelRows + 1,
                                 y.data(), 2),
               Error);
}

TEST(AnalogEffectiveMatrix, TiledMatchesShapeAndIdealCase) {
  Rng rng(14);
  Tensor m(Shape{150, 24});
  m.fill_gaussian(rng, 0.0f, 0.2f);
  const TileGrid grid = make_tile_grid(150, 24, paper_technology());
  const Tensor eff = analog_effective_matrix(m, grid, ideal_params());
  EXPECT_EQ(eff.shape(), m.shape());
  EXPECT_LE(max_abs_diff(eff, m), 1e-5f);
}

TEST(AnalogEffectiveMatrix, SeedChangesVariation) {
  Rng rng(15);
  Tensor m(Shape{64, 16});
  m.fill_gaussian(rng, 0.0f, 0.2f);
  const TileGrid grid = make_tile_grid(64, 16, paper_technology());
  AnalogParams p = ideal_params();
  p.variation_sigma = 0.2;
  p.seed = 1;
  const Tensor a = analog_effective_matrix(m, grid, p);
  p.seed = 2;
  const Tensor b = analog_effective_matrix(m, grid, p);
  EXPECT_GT(max_abs_diff(a, b), 1e-4f);
}

TEST(WeightRmsError, ZeroForIdentical) {
  const Tensor w = random_weights(5, 5, 16);
  EXPECT_EQ(weight_rms_error(w, w), 0.0);
}

/// Property sweep: variation σ monotonically degrades fidelity (averaged
/// over the whole matrix).
class VariationSweep : public ::testing::TestWithParam<double> {};

TEST_P(VariationSweep, RmsErrorGrowsWithSigma) {
  Rng rng(17);
  Tensor m(Shape{128, 32});
  m.fill_gaussian(rng, 0.0f, 0.2f);
  const TileGrid grid = make_tile_grid(128, 32, paper_technology());
  AnalogParams p = ideal_params();
  p.variation_sigma = GetParam();
  const double err =
      weight_rms_error(m, analog_effective_matrix(m, grid, p));
  // Lognormal multiplicative noise with σ gives relative error ≈ σ on the
  // programmed side; allow a generous band.
  EXPECT_GT(err, GetParam() * 0.2);
  EXPECT_LT(err, GetParam() * 3.0 + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sigmas, VariationSweep,
                         ::testing::Values(0.02, 0.05, 0.1, 0.2));

}  // namespace
}  // namespace gs::hw
