#include "linalg/eigen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "linalg/gram.hpp"
#include "linalg/pca.hpp"
#include "tensor/matrix.hpp"

namespace gs::linalg {
namespace {

Tensor random_symmetric(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Tensor a(Shape{n, n});
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const float v = static_cast<float>(rng.gaussian());
      a.at(i, j) = v;
      a.at(j, i) = v;
    }
  }
  return a;
}

Tensor random_psd(std::size_t n, std::size_t inner, std::uint64_t seed) {
  Rng rng(seed);
  Tensor b(Shape{inner, n});
  b.fill_gaussian(rng, 0.0f, 1.0f);
  return matmul(b, b, /*ta=*/true, /*tb=*/false);
}

TEST(Eigen, DiagonalMatrixEigenvaluesSorted) {
  Tensor d(Shape{3, 3});
  d.at(0, 0) = 1.0f;
  d.at(1, 1) = 5.0f;
  d.at(2, 2) = 3.0f;
  const EigenResult e = eigen_sym(d);
  EXPECT_NEAR(e.eigenvalues[0], 5.0, 1e-10);
  EXPECT_NEAR(e.eigenvalues[1], 3.0, 1e-10);
  EXPECT_NEAR(e.eigenvalues[2], 1.0, 1e-10);
}

TEST(Eigen, Known2x2) {
  // [[2,1],[1,2]] has eigenvalues 3 and 1.
  Tensor a = Tensor::from_rows({{2, 1}, {1, 2}});
  const EigenResult e = eigen_sym(a);
  EXPECT_NEAR(e.eigenvalues[0], 3.0, 1e-8);
  EXPECT_NEAR(e.eigenvalues[1], 1.0, 1e-8);
  // Eigenvector of 3 is (1,1)/√2 up to sign.
  const float v0 = e.eigenvectors.at(0, 0);
  const float v1 = e.eigenvectors.at(1, 0);
  EXPECT_NEAR(std::fabs(v0), std::sqrt(0.5), 1e-5);
  EXPECT_NEAR(v0, v1, 1e-5);
}

TEST(Eigen, RejectsNonSquare) {
  EXPECT_THROW(eigen_sym(Tensor(Shape{2, 3})), Error);
}

TEST(Eigen, RejectsAsymmetric) {
  Tensor a = Tensor::from_rows({{1, 2}, {0, 1}});
  EXPECT_THROW(eigen_sym(a), Error);
}

TEST(Eigen, IdentityHasUnitEigenvalues) {
  const EigenResult e = eigen_sym(identity(5));
  for (double lambda : e.eigenvalues) {
    EXPECT_NEAR(lambda, 1.0, 1e-10);
  }
}

/// Property sweep over sizes: reconstruction, orthonormality, trace and
/// definiteness invariants.
class EigenSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EigenSweep, ReconstructsInput) {
  const std::size_t n = GetParam();
  Tensor a = random_symmetric(n, 42 + n);
  const EigenResult e = eigen_sym(a);
  EXPECT_LE(max_abs_diff(eigen_reconstruct(e), a), 1e-3f);
}

TEST_P(EigenSweep, EigenvectorsOrthonormal) {
  const std::size_t n = GetParam();
  const EigenResult e = eigen_sym(random_symmetric(n, 7 + n));
  Tensor vtv = matmul(e.eigenvectors, e.eigenvectors, /*ta=*/true);
  EXPECT_LE(max_abs_diff(vtv, identity(n)), 1e-4f);
}

TEST_P(EigenSweep, TracePreserved) {
  const std::size_t n = GetParam();
  Tensor a = random_symmetric(n, 11 + n);
  const EigenResult e = eigen_sym(a);
  double trace = 0.0;
  for (std::size_t i = 0; i < n; ++i) trace += a.at(i, i);
  double sum = 0.0;
  for (double lambda : e.eigenvalues) sum += lambda;
  EXPECT_NEAR(sum, trace, 1e-3);
}

TEST_P(EigenSweep, PsdMatrixHasNonnegativeEigenvalues) {
  const std::size_t n = GetParam();
  const EigenResult e = eigen_sym(random_psd(n, n + 3, 13 + n));
  for (double lambda : e.eigenvalues) {
    EXPECT_GE(lambda, -1e-4);
  }
}

TEST_P(EigenSweep, EigenpairsSatisfyDefinition) {
  const std::size_t n = GetParam();
  Tensor a = random_symmetric(n, 23 + n);
  const EigenResult e = eigen_sym(a);
  // A·v_j = λ_j·v_j for every pair.
  for (std::size_t j = 0; j < n; ++j) {
    Tensor v(Shape{n});
    for (std::size_t i = 0; i < n; ++i) v[i] = e.eigenvectors.at(i, j);
    Tensor av(Shape{n});
    gemv(a, false, v, av);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(av[i], e.eigenvalues[j] * v[i], 2e-3)
          << "pair " << j << " row " << i;
    }
  }
}

// 500 is LeNet fc1's fan-out, the largest Gram the pipeline solves.
INSTANTIATE_TEST_SUITE_P(Sizes, EigenSweep,
                         ::testing::Values<std::size_t>(1, 2, 3, 5, 10, 20,
                                                        50, 128, 500));

TEST(Eigen, RankDeficientMatrixHasZeroEigenvalues) {
  // Rank-2 PSD 5×5 matrix: exactly three (near-)zero eigenvalues.
  Tensor a = random_psd(5, 2, 99);
  const EigenResult e = eigen_sym(a);
  EXPECT_GT(e.eigenvalues[0], 1e-3);
  EXPECT_GT(e.eigenvalues[1], 1e-3);
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_NEAR(e.eigenvalues[i], 0.0, 1e-3);
  }
}

TEST(Eigen, ZeroMatrix) {
  const EigenResult e = eigen_sym(Tensor(Shape{4, 4}));
  for (double lambda : e.eigenvalues) {
    EXPECT_EQ(lambda, 0.0);
  }
}

// ---- Differential test against cyclic Jacobi -------------------------------

/// Sum of squares of off-diagonal entries.
double off_diag_norm2(const std::vector<double>& a, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = a[i * n + j];
      s += 2.0 * v * v;
    }
  }
  return s;
}

/// The cyclic Jacobi solver eigen_sym_double ran before Householder + QL,
/// kept as the differential oracle: same rotations, same 1e-12 relative
/// off-diagonal stop. Eigenvalues only, descending; the solver's eigenvectors
/// are checked through residuals and orthonormality instead, which also hold
/// where a repeated eigenvalue leaves the vectors free.
std::vector<double> jacobi_eigenvalues(std::vector<double> buffer,
                                       std::size_t n) {
  double* const a = buffer.data();
  double frob2 = 0.0;
  for (double x : buffer) frob2 += x * x;
  const double stop = 1e-24 * std::max(frob2, 1e-300);
  for (int sweep = 0; off_diag_norm2(buffer, n) > stop; ++sweep) {
    GS_CHECK_MSG(sweep < 64, "Jacobi oracle failed to converge");
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        const double apq = a[p * n + q];
        if (apq == 0.0) continue;
        const double app = a[p * n + p];
        const double aqq = a[q * n + q];
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0)
                             ? 1.0 / (theta + std::sqrt(1.0 + theta * theta))
                             : 1.0 / (theta - std::sqrt(1.0 + theta * theta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        for (std::size_t k = 0; k < n; ++k) {
          const double akp = a[k * n + p];
          const double akq = a[k * n + q];
          a[k * n + p] = c * akp - s * akq;
          a[k * n + q] = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < n; ++k) {
          const double apk = a[p * n + k];
          const double aqk = a[q * n + k];
          a[p * n + k] = c * apk - s * aqk;
          a[q * n + k] = s * apk + c * aqk;
        }
      }
    }
  }
  std::vector<double> lambda(n);
  for (std::size_t i = 0; i < n; ++i) lambda[i] = a[i * n + i];
  std::sort(lambda.begin(), lambda.end(), std::greater<>());
  return lambda;
}

enum class Input {
  kRandom,          ///< symmetric, Gaussian entries
  kGram,            ///< gram_double of an 800×n float matrix (PCA's input)
  kDiagonal,        ///< Gaussian diagonal
  kNearlyDiagonal,  ///< decaying diagonal plus float-rounding-sized coupling
  kIdentity,        ///< one eigenvalue of multiplicity n
  kEqualBlocks,     ///< diag(B, B): every eigenvalue of B twice
  kRankDeficient,   ///< PSD of rank ⌈n/4⌉
  kZero,
};

const char* input_name(Input kind) {
  switch (kind) {
    case Input::kRandom: return "Random";
    case Input::kGram: return "Gram";
    case Input::kDiagonal: return "Diagonal";
    case Input::kNearlyDiagonal: return "NearlyDiagonal";
    case Input::kIdentity: return "Identity";
    case Input::kEqualBlocks: return "EqualBlocks";
    case Input::kRankDeficient: return "RankDeficient";
    case Input::kZero: return "Zero";
  }
  return "?";
}

void PrintTo(Input kind, std::ostream* os) { *os << input_name(kind); }

/// Inputs whose eigenvalues are a Gram spectrum, as PCA and SVD see them.
bool is_gram(Input kind) {
  return kind == Input::kGram || kind == Input::kNearlyDiagonal ||
         kind == Input::kRankDeficient;
}

/// Row-major symmetric n×n `kind` input, seeded by n.
std::vector<double> make_input(Input kind, std::size_t n) {
  Rng rng(1000 + n);
  std::vector<double> a(n * n, 0.0);
  const auto random_block = [&](std::size_t offset, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      for (std::size_t j = i; j < size; ++j) {
        const double v = rng.gaussian();
        a[(offset + i) * n + offset + j] = v;
        a[(offset + j) * n + offset + i] = v;
      }
    }
  };
  switch (kind) {
    case Input::kRandom:
      random_block(0, n);
      break;
    case Input::kGram: {
      Tensor w(Shape{800, n});
      w.fill_gaussian(rng, 0.0f, 1.0f);
      return detail::gram_double(w, /*right=*/true);
    }
    case Input::kDiagonal:
      for (std::size_t i = 0; i < n; ++i) a[i * n + i] = rng.gaussian();
      break;
    case Input::kNearlyDiagonal:
      // The Gram of U = W·V from a PCA: diagonal up to the float rounding
      // of U's columns (relative 2⁻²⁴).
      for (std::size_t i = 0; i < n; ++i) {
        a[i * n + i] = 800.0 * std::exp(-static_cast<double>(i) / 16.0);
      }
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          const double v = 0x1p-24 * rng.gaussian() *
                           std::sqrt(a[i * n + i] * a[j * n + j]);
          a[i * n + j] = v;
          a[j * n + i] = v;
        }
      }
      break;
    case Input::kIdentity:
      for (std::size_t i = 0; i < n; ++i) a[i * n + i] = 1.0;
      break;
    case Input::kEqualBlocks: {
      const std::size_t half = n / 2;
      random_block(0, half);
      for (std::size_t i = 0; i < half; ++i) {
        for (std::size_t j = 0; j < half; ++j) {
          a[(half + i) * n + half + j] = a[i * n + j];
        }
      }
      if (n % 2 == 1) a[n * n - 1] = 1.0;
      break;
    }
    case Input::kRankDeficient: {
      Tensor b(Shape{(n + 3) / 4, n});
      b.fill_gaussian(rng, 0.0f, 1.0f);
      return detail::gram_double(b, /*right=*/true);
    }
    case Input::kZero:
      break;
  }
  return a;
}

class EigenVsJacobi
    : public ::testing::TestWithParam<std::tuple<Input, std::size_t>> {};

TEST_P(EigenVsJacobi, MatchesOracle) {
  const auto [kind, n] = GetParam();
  const std::vector<double> a = make_input(kind, n);
  const EigenResult e = eigen_sym_double(a, n);
  const std::vector<double> oracle = jacobi_eigenvalues(a, n);
  ASSERT_EQ(e.eigenvalues.size(), n);

  double frob2 = 0.0;
  for (double x : a) frob2 += x * x;
  const double frob = std::sqrt(frob2);
  // Both solvers are backward stable: each eigenvalue is within a small
  // multiple of n·ε·‖A‖ of the exact one.
  const double eps = std::numeric_limits<double>::epsilon();
  const double value_tol = 4.0 * static_cast<double>(n) * eps * frob;
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(e.eigenvalues[j], oracle[j], value_tol) << "eigenvalue " << j;
    if (j > 0) {
      EXPECT_GE(e.eigenvalues[j - 1], e.eigenvalues[j]);
    }
  }

  // Eigenvectors are stored as float: rounding them moves ‖A·v − λ·v‖ by up
  // to 2⁻²³·‖A‖ and vᵢᵀvⱼ by up to 2⁻²³.
  std::vector<double> v(n * n);  // row j = eigenvector j
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) v[j * n + i] = e.eigenvectors.at(i, j);
  }
  const double vector_tol = 0x1p-23 + value_tol / std::max(frob, 1e-300);
  for (std::size_t j = 0; j < n; ++j) {
    const double* vj = v.data() + j * n;
    double residual2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double* ai = a.data() + i * n;
      double av = 0.0;
      for (std::size_t k = 0; k < n; ++k) av += ai[k] * vj[k];
      const double r = av - e.eigenvalues[j] * vj[i];
      residual2 += r * r;
    }
    EXPECT_LE(std::sqrt(residual2), vector_tol * frob) << "pair " << j;
    for (std::size_t k = 0; k <= j; ++k) {
      const double* vk = v.data() + k * n;
      double dot = 0.0;
      for (std::size_t i = 0; i < n; ++i) dot += vj[i] * vk[i];
      EXPECT_NEAR(dot, j == k ? 1.0 : 0.0, vector_tol)
          << "vectors " << j << ", " << k;
    }
  }

  // Rank clipping reads eigenvalues only through Eq. (3)'s tail ratio.
  if (is_gram(kind)) {
    for (const double epsilon : {0.01, 0.03, 0.05}) {
      EXPECT_EQ(min_rank_for_error(e.eigenvalues, epsilon),
                min_rank_for_error(oracle, epsilon))
          << "epsilon " << epsilon;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Oracle, EigenVsJacobi,
    ::testing::Combine(
        ::testing::Values(Input::kRandom, Input::kGram, Input::kDiagonal,
                          Input::kNearlyDiagonal, Input::kIdentity,
                          Input::kEqualBlocks, Input::kRankDeficient,
                          Input::kZero),
        ::testing::Values<std::size_t>(1, 2, 3, 5, 20, 50, 64, 65, 127, 128,
                                       500)),
    [](const ::testing::TestParamInfo<EigenVsJacobi::ParamType>& info) {
      return std::string(input_name(std::get<0>(info.param))) + "_" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Eigen, NonFiniteEntryThrows) {
  for (const std::size_t n : {1u, 2u, 5u, 64u}) {
    for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
      // On the diagonal, and mirrored off it.
      std::vector<double> a = make_input(Input::kRandom, n);
      a[(n / 2) * n + n / 2] = bad;
      EXPECT_THROW(eigen_sym_double(a, n), Error) << n;
      a = make_input(Input::kRandom, n);
      a[n - 1] = bad;
      a[(n - 1) * n] = bad;
      EXPECT_THROW(eigen_sym_double(a, n), Error) << n;
    }
  }
  Tensor t = identity(3);
  t.at(1, 1) = std::numeric_limits<float>::quiet_NaN();
  EXPECT_THROW(eigen_sym(t), Error);
}

TEST(Eigen, OverflowMidSolveThrows) {
  // Finite entries this large overflow inside QL, which multiplies two
  // off-diagonal entries, and send NaN through the rest of the solve: it
  // must throw, not read past its buffers or sort NaN eigenvalues.
  for (const std::size_t n : {3u, 5u, 50u}) {
    std::vector<double> a = make_input(Input::kRandom, n);
    for (double& x : a) x *= 1e300;
    EXPECT_THROW(eigen_sym_double(a, n), Error) << n;
  }
}

}  // namespace
}  // namespace gs::linalg
