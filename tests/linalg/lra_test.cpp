#include "linalg/lra.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "linalg/pca.hpp"
#include "tensor/matrix.hpp"

namespace gs::linalg {
namespace {

Tensor random_matrix(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  Tensor a(Shape{n, m});
  a.fill_gaussian(rng, 0.0f, 1.0f);
  return a;
}

/// Matrix with a fast-decaying spectrum (clippable), built as a sum of
/// scaled rank-1 terms.
Tensor decaying_matrix(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  Tensor w(Shape{n, m});
  double scale = 1.0;
  for (std::size_t r = 0; r < m; ++r) {
    Tensor u(Shape{n, 1});
    u.fill_gaussian(rng, 0.0f, 1.0f);
    Tensor v(Shape{1, m});
    v.fill_gaussian(rng, 0.0f, 1.0f);
    w.add_scaled(matmul(u, v), static_cast<float>(scale));
    scale *= 0.4;  // geometric decay
  }
  return w;
}

TEST(Lra, MethodNames) {
  EXPECT_EQ(to_string(LraMethod::kPca), "pca");
  EXPECT_EQ(to_string(LraMethod::kPcaCentered), "pca-centered");
  EXPECT_EQ(to_string(LraMethod::kSvd), "svd");
}

TEST(Lra, FactorShapes) {
  Tensor w = random_matrix(12, 8, 1);
  const LraResult r = low_rank_approximate(w, LraMethod::kPca, 3);
  EXPECT_EQ(r.factors.u.rows(), 12u);
  EXPECT_EQ(r.factors.u.cols(), 3u);
  EXPECT_EQ(r.factors.vt.rows(), 3u);
  EXPECT_EQ(r.factors.vt.cols(), 8u);
  EXPECT_EQ(r.rank, 3u);
  EXPECT_EQ(r.factors.cell_count(), 12u * 3 + 3 * 8);
}

TEST(Lra, CenteredPcaAddsMeanRank) {
  Tensor w = random_matrix(12, 8, 2);
  const LraResult r = low_rank_approximate(w, LraMethod::kPcaCentered, 3);
  EXPECT_EQ(r.rank, 4u);  // 3 components + folded mean
  EXPECT_EQ(r.factors.u.cols(), 4u);
}

TEST(Lra, CenteredPcaFullRankReconstructsExactly) {
  Tensor w = random_matrix(10, 5, 3);
  for (std::size_t i = 0; i < w.numel(); ++i) w[i] += 3.0f;  // big mean
  const LraResult r = low_rank_approximate(w, LraMethod::kPcaCentered, 5);
  EXPECT_LE(max_abs_diff(r.factors.reconstruct(), w), 1e-3f);
}

/// Property sweep: PCA and SVD full-rank factorisations are exact and both
/// methods' truncations satisfy the spectral error contract.
class LraMethodSweep : public ::testing::TestWithParam<LraMethod> {};

TEST_P(LraMethodSweep, FullRankIsLossless) {
  Tensor w = random_matrix(15, 9, 4);
  const LraResult r = low_rank_approximate(w, GetParam(), 9);
  EXPECT_LE(max_abs_diff(r.factors.reconstruct(), w), 2e-3f);
  EXPECT_NEAR(r.spectral_error, 0.0, 1e-6);
}

TEST_P(LraMethodSweep, TruncationErrorMatchesMeasured) {
  Tensor w = decaying_matrix(20, 10, 5);
  const LraResult r = low_rank_approximate(w, GetParam(), 4);
  const double measured =
      relative_reconstruction_error(w, r.factors.reconstruct());
  // Centered PCA reconstructs W−μ spectrum plus the folded mean, so the
  // clean Eq. (3) identity applies only to the uncentered methods.
  if (GetParam() != LraMethod::kPcaCentered) {
    EXPECT_NEAR(measured, r.spectral_error, 2e-3);
  } else {
    EXPECT_LE(measured, 1.0);
  }
}

TEST_P(LraMethodSweep, ClipToErrorRespectsBudget) {
  Tensor w = decaying_matrix(30, 12, 6);
  for (double eps : {0.001, 0.01, 0.05, 0.2}) {
    const LraResult r = clip_to_error(w, GetParam(), eps);
    const double measured =
        relative_reconstruction_error(w, r.factors.reconstruct());
    if (GetParam() != LraMethod::kPcaCentered) {
      EXPECT_LE(measured, eps + 5e-3) << "eps=" << eps;
    }
    EXPECT_GE(r.rank, 1u);
  }
}

TEST_P(LraMethodSweep, ClipToErrorMonotoneInEpsilon) {
  Tensor w = decaying_matrix(25, 10, 7);
  std::size_t prev_rank = 11;
  for (double eps : {0.0, 0.005, 0.02, 0.1, 0.5}) {
    const LraResult r = clip_to_error(w, GetParam(), eps);
    EXPECT_LE(r.rank, prev_rank) << "eps=" << eps;
    prev_rank = r.rank;
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, LraMethodSweep,
                         ::testing::Values(LraMethod::kPca,
                                           LraMethod::kPcaCentered,
                                           LraMethod::kSvd));

TEST(Lra, PcaAndSvdAgreeUncentered) {
  // Uncentered PCA factors the same Gram spectrum as SVD: reconstructions at
  // equal rank must coincide (why bench_paper's SVD-vs-PCA ablation clips
  // both to the same ranks).
  Tensor w = decaying_matrix(18, 9, 8);
  const LraResult p = low_rank_approximate(w, LraMethod::kPca, 4);
  const LraResult s = low_rank_approximate(w, LraMethod::kSvd, 4);
  EXPECT_LE(max_abs_diff(p.factors.reconstruct(), s.factors.reconstruct()),
            5e-3f);
}

TEST(Lra, ClipToErrorLowRankMatrixFindsTrueRank) {
  Rng rng(9);
  Tensor u(Shape{20, 3});
  u.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor v(Shape{3, 12});
  v.fill_gaussian(rng, 0.0f, 1.0f);
  Tensor w = matmul(u, v);
  const LraResult r = clip_to_error(w, LraMethod::kPca, 1e-6);
  EXPECT_EQ(r.rank, 3u);
}

TEST(Lra, MinRankFloorHonored) {
  Tensor w = decaying_matrix(10, 8, 10);
  const LraResult r = clip_to_error(w, LraMethod::kPca, 0.9, /*min_rank=*/5);
  EXPECT_GE(r.rank, 5u);
}

TEST(Lra, RankBoundsValidated) {
  Tensor w = random_matrix(6, 4, 11);
  EXPECT_THROW(low_rank_approximate(w, LraMethod::kPca, 0), Error);
  EXPECT_THROW(low_rank_approximate(w, LraMethod::kPca, 5), Error);
}

TEST(Eq2Predicate, MatchesPaperExamples) {
  // LeNet fc1 800×500 rank 36: 36 < 800·500/1300 ≈ 307.7 → saves area.
  EXPECT_TRUE(factorization_saves_area(800, 500, 36));
  // Boundary: K(N+M) = NM exactly ⇒ no saving.
  EXPECT_FALSE(factorization_saves_area(10, 10, 5));  // 5·20 = 100 = 10·10
  EXPECT_TRUE(factorization_saves_area(10, 10, 4));
  // Last classifier layers: rank M=10 never saves (10·(N+10) > 10N).
  EXPECT_FALSE(factorization_saves_area(500, 10, 10));
}

TEST(Eq2Predicate, CellCountConsistency) {
  // The predicate is exactly "factored_cells < dense_cells".
  for (std::size_t k = 1; k <= 20; ++k) {
    const bool predicate = factorization_saves_area(25, 20, k);
    const bool actual = (25 * k + k * 20) < (25 * 20);
    EXPECT_EQ(predicate, actual) << "k=" << k;
  }
}

}  // namespace
}  // namespace gs::linalg
