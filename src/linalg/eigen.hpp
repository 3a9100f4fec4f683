// Symmetric eigendecomposition: Householder tridiagonalisation followed by
// implicit-shift QL (the EISPACK tred2/tql2 pair).
//
// Every PCA (Algorithm 1) and SVD in this project eigen-solves a symmetric
// positive semi-definite Gram/covariance matrix and needs *all* eigenpairs:
// Eq. (3)'s clipping error is a sum over the whole spectrum. Householder + QL
// with eigenvectors costs about 9n³ flops, as much as one sweep of cyclic
// Jacobi, which needs several; and it streams contiguous rows where Jacobi's
// column updates stride. LeNet's 500×500 fc1 Gram takes a fraction of a
// second.
//
// Accuracy: the pair is backward stable. Each computed eigenvalue is within
// about c·n·ε·‖A‖₂ of an exact one (ε = 2⁻⁵², c a small constant), ~1e-12·λ₀
// at n = 500. That is absolute, not relative, accuracy, and it is enough
// here: Eq. (3)'s budgets ε ≥ 1e-3 act on eigenvalue sums, and svd()'s rank
// cutoff (σ ≤ 1e-5·σ₀, i.e. λ ≤ 1e-10·λ₀) sits two orders of magnitude above
// the error. Computation is done in double regardless of the float Tensor
// interface.
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace gs::linalg {

/// Result of eigen_sym: eigenvalues sorted in descending order; column j of
/// `eigenvectors` is the unit eigenvector for eigenvalues[j].
struct EigenResult {
  std::vector<double> eigenvalues;
  Tensor eigenvectors;  // n×n, column-major eigenvectors in a row-major tensor
};

/// Eigendecomposition of a symmetric matrix (symmetry is validated up to
/// `symmetry_tol`). Throws gs::Error on non-square/asymmetric input, and as
/// eigen_sym_double does.
EigenResult eigen_sym(const Tensor& a, double symmetry_tol = 1e-4);

/// Double-precision entry point: `a` is a row-major n×n buffer that is
/// assumed symmetric (not re-validated). Used by SVD/PCA so Gram/covariance
/// matrices never round through float — a float round-trip perturbs small
/// eigenvalues by ~1e-7·λ₀, which √-amplifies into spurious singular values.
/// Throws gs::Error on a non-finite entry, on overflow mid-solve (entries
/// beyond ~1e150), or if QL fails to converge.
EigenResult eigen_sym_double(std::vector<double> a, std::size_t n);

/// Reconstructs V·diag(λ)·Vᵀ — used by tests to validate the decomposition.
Tensor eigen_reconstruct(const EigenResult& e);

}  // namespace gs::linalg
