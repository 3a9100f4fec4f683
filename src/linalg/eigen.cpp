#include "linalg/eigen.hpp"

#include "tensor/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace gs::linalg {

namespace {

// Implicit-shift QL iterations allowed per eigenvalue before the solver
// gives up (EISPACK tql2's limit).
constexpr int kMaxQlIterations = 30;

// Both routines below are EISPACK's tred2/tql2 (as ported by JAMA) on a
// transposed workspace: z holds Zᵀ, where Z is the matrix the published
// routines update in place. Every published access Z[r][c] reads z[c·n + r],
// so their column sweeps become contiguous row sweeps here, and each QL
// rotation of two columns of Z streams two rows of z. A is symmetric, so the
// workspace starts as A itself.

/// Householder reduction of the symmetric z (n×n) to tridiagonal form.
/// On return d holds the diagonal, e[1..n-1] the subdiagonal (e[0] = 0), and
/// row j of z the j-th column of the orthogonal Q with A = Q·T·Qᵀ.
void tridiagonalize(std::vector<double>& z, std::size_t n,
                    std::vector<double>& d, std::vector<double>& e) {
  double* const zp = z.data();
  for (std::size_t j = 0; j < n; ++j) d[j] = zp[j * n + n - 1];

  for (std::size_t i = n - 1; i > 0; --i) {
    // Scale to avoid under/overflow.
    double scale = 0.0;
    double h = 0.0;
    for (std::size_t k = 0; k < i; ++k) scale += std::fabs(d[k]);
    if (scale == 0.0) {
      e[i] = d[i - 1];
      for (std::size_t j = 0; j < i; ++j) {
        d[j] = zp[j * n + i - 1];
        zp[j * n + i] = 0.0;
        zp[i * n + j] = 0.0;
      }
    } else {
      // Generate the Householder vector u = d[0..i).
      for (std::size_t k = 0; k < i; ++k) {
        d[k] /= scale;
        h += d[k] * d[k];
      }
      double f = d[i - 1];
      double g = std::sqrt(h);
      if (f > 0.0) g = -g;
      e[i] = scale * g;
      h -= f * g;
      d[i - 1] = f - g;
      std::fill(e.begin(), e.begin() + static_cast<std::ptrdiff_t>(i), 0.0);

      // e = A·u over the active block, read from its upper triangle; u is
      // kept in row i for the accumulation pass.
      for (std::size_t j = 0; j < i; ++j) {
        const double* zj = zp + j * n;
        f = d[j];
        zp[i * n + j] = f;
        g = e[j] + zj[j] * f;
        for (std::size_t k = j + 1; k < i; ++k) {
          g += zj[k] * d[k];
          e[k] += zj[k] * f;
        }
        e[j] = g;
      }
      f = 0.0;
      for (std::size_t j = 0; j < i; ++j) {
        e[j] /= h;
        f += e[j] * d[j];
      }
      const double hh = f / (h + h);
      for (std::size_t j = 0; j < i; ++j) e[j] -= hh * d[j];

      // Rank-2 update A -= u·eᵀ + e·uᵀ of the active upper triangle.
      for (std::size_t j = 0; j < i; ++j) {
        double* zj = zp + j * n;
        f = d[j];
        g = e[j];
        for (std::size_t k = j; k < i; ++k) zj[k] -= f * e[k] + g * d[k];
        d[j] = zj[i - 1];
        zj[i] = 0.0;
      }
    }
    d[i] = h;
  }

  // Accumulate the reflectors into Q, one leading block at a time.
  for (std::size_t i = 0; i + 1 < n; ++i) {
    double* zi = zp + i * n;
    double* u = zp + (i + 1) * n;  // reflector i+1, unscaled
    zi[n - 1] = zi[i];
    zi[i] = 1.0;
    const double h = d[i + 1];
    if (h != 0.0) {
      for (std::size_t k = 0; k <= i; ++k) d[k] = u[k] / h;
      for (std::size_t j = 0; j <= i; ++j) {
        double* zj = zp + j * n;
        double g = 0.0;
        for (std::size_t k = 0; k <= i; ++k) g += u[k] * zj[k];
        for (std::size_t k = 0; k <= i; ++k) zj[k] -= g * d[k];
      }
    }
    std::fill(u, u + i + 1, 0.0);
  }
  for (std::size_t j = 0; j < n; ++j) {
    d[j] = zp[j * n + n - 1];
    zp[j * n + n - 1] = 0.0;
  }
  zp[(n - 1) * n + n - 1] = 1.0;
  e[0] = 0.0;
}

/// Implicit-shift QL on the tridiagonal (d, e) from tridiagonalize(),
/// applying every rotation to rows of z. On return d holds the eigenvalues
/// (unsorted) and row j of z the unit eigenvector for d[j].
void ql_implicit(std::vector<double>& z, std::size_t n, std::vector<double>& d,
                 std::vector<double>& e) {
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;

  constexpr double kEps = 0x1p-52;
  double shift_total = 0.0;
  double tst1 = 0.0;
  for (std::size_t l = 0; l < n; ++l) {
    // Find a negligible subdiagonal element e[m], m ≥ l. e[n-1] is zero, so
    // the scan stops there at the latest; the bound on m also holds when a
    // NaN makes every comparison false.
    tst1 = std::max(tst1, std::fabs(d[l]) + std::fabs(e[l]));
    std::size_t m = l;
    while (m + 1 < n && !(std::fabs(e[m]) <= kEps * tst1)) ++m;

    // If m == l, d[l] is already an eigenvalue; otherwise iterate.
    int iter = 0;
    while (m > l && std::fabs(e[l]) > kEps * tst1) {
      GS_CHECK_MSG(++iter <= kMaxQlIterations,
                   "QL failed to converge in " << kMaxQlIterations
                                               << " iterations");
      // Wilkinson-style implicit shift from the leading 2×2 block.
      double g = d[l];
      double p = (d[l + 1] - g) / (2.0 * e[l]);
      double r = std::hypot(p, 1.0);
      if (p < 0.0) r = -r;
      d[l] = e[l] / (p + r);
      d[l + 1] = e[l] * (p + r);
      const double dl1 = d[l + 1];
      double h = g - d[l];
      for (std::size_t i = l + 2; i < n; ++i) d[i] -= h;
      shift_total += h;

      // Chase the bulge from m-1 up to l with plane rotations.
      p = d[m];
      double c = 1.0;
      double c2 = c;
      double c3 = c;
      const double el1 = e[l + 1];
      double s = 0.0;
      double s2 = 0.0;
      for (std::size_t i = m; i-- > l;) {
        c3 = c2;
        c2 = c;
        s2 = s;
        g = c * e[i];
        h = c * p;
        r = std::hypot(p, e[i]);
        e[i + 1] = s * r;
        s = e[i] / r;
        c = p / r;
        p = c * d[i] - s * g;
        d[i + 1] = h + s * (c * g + s * d[i]);
        // Columns i and i+1 of Z are rows i and i+1 of z.
        double* __restrict zi = z.data() + i * n;
        double* __restrict zi1 = zi + n;
        for (std::size_t k = 0; k < n; ++k) {
          const double t = zi1[k];
          zi1[k] = s * zi[k] + c * t;
          zi[k] = c * zi[k] - s * t;
        }
      }
      p = -s * s2 * c3 * el1 * e[l] / dl1;
      e[l] = s * p;
      d[l] = c * p;
    }
    d[l] += shift_total;
    e[l] = 0.0;
  }
}

}  // namespace

EigenResult eigen_sym(const Tensor& a_in, double symmetry_tol) {
  GS_CHECK_MSG(a_in.rank() == 2 && a_in.rows() == a_in.cols(),
               "eigen_sym needs a square matrix, got "
                   << shape_to_string(a_in.shape()));
  const std::size_t n = a_in.rows();

  // Promote to double and validate symmetry.
  std::vector<double> a(n * n);
  double max_abs = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      a[i * n + j] = a_in.at(i, j);
      max_abs = std::max(max_abs, std::fabs(a[i * n + j]));
    }
  }
  const double sym_scale = std::max(1.0, max_abs);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      GS_CHECK_MSG(
          std::fabs(a[i * n + j] - a[j * n + i]) <= symmetry_tol * sym_scale,
          "matrix not symmetric at (" << i << ", " << j << ")");
      // Symmetrise exactly: the solver reads one triangle.
      const double m = 0.5 * (a[i * n + j] + a[j * n + i]);
      a[i * n + j] = a[j * n + i] = m;
    }
  }
  return eigen_sym_double(std::move(a), n);
}

EigenResult eigen_sym_double(std::vector<double> a, std::size_t n) {
  GS_CHECK_MSG(a.size() == n * n, "buffer size mismatch");
  GS_CHECK(n > 0);
  GS_CHECK_MSG(std::all_of(a.begin(), a.end(),
                           [](double x) { return std::isfinite(x); }),
               "eigen_sym needs finite entries");

  std::vector<double> d(n);
  std::vector<double> e(n);
  tridiagonalize(a, n, d, e);
  ql_implicit(a, n, d, e);
  // Finite entries beyond ~1e150 can still overflow mid-solve (QL multiplies
  // two off-diagonal entries); NaN eigenvalues must never reach the sort.
  GS_CHECK_MSG(std::all_of(d.begin(), d.end(),
                           [](double x) { return std::isfinite(x); }),
               "eigen_sym: eigenvalue overflowed the double range");

  // Sort eigenpairs by descending eigenvalue.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return d[x] > d[y]; });

  EigenResult result;
  result.eigenvalues.resize(n);
  result.eigenvectors = Tensor(Shape{n, n});
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t src = order[j];
    result.eigenvalues[j] = d[src];
    const double* v = a.data() + src * n;
    for (std::size_t i = 0; i < n; ++i) {
      result.eigenvectors.at(i, j) = static_cast<float>(v[i]);
    }
  }
  return result;
}

Tensor eigen_reconstruct(const EigenResult& e) {
  const std::size_t n = e.eigenvalues.size();
  GS_CHECK(e.eigenvectors.rank() == 2 && e.eigenvectors.rows() == n);
  Tensor scaled = e.eigenvectors;  // columns scaled by eigenvalues
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = 0; i < n; ++i) {
      scaled.at(i, j) =
          static_cast<float>(e.eigenvectors.at(i, j) * e.eigenvalues[j]);
    }
  }
  Tensor out(Shape{n, n});
  gemm(scaled, false, e.eigenvectors, true, out);
  return out;
}

}  // namespace gs::linalg
