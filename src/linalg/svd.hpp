// Thin singular value decomposition.
//
// Computed via the symmetric eigendecomposition (Householder + QL,
// linalg/eigen.hpp) of the smaller Gram matrix (AᵀA or AAᵀ): for an N×M input
// this costs one min(N,M)³ eigen solve plus two GEMMs — ideal for the skinny
// factor matrices rank clipping produces. Singular vectors for (numerically)
// zero singular values are dropped; the decomposition is thin with rank
// r = #{σᵢ > cutoff}.
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace gs::linalg {

/// Thin SVD: A (N×M) = U·diag(σ)·Vᵀ with U N×r, V M×r, σ descending.
struct SvdResult {
  Tensor u;                          // N×r, orthonormal columns
  std::vector<double> singular_values;  // length r, descending, > 0
  Tensor v;                          // M×r, orthonormal columns

  std::size_t rank() const { return singular_values.size(); }
};

/// Computes the thin SVD. `relative_cutoff` discards σᵢ ≤ cutoff·σ₀.
/// The default sits above float-GEMM noise (inputs are float tensors), so
/// numerically-rank-deficient inputs report their true rank.
SvdResult svd(const Tensor& a, double relative_cutoff = 1e-5);

/// Reconstructs U·diag(σ)·Vᵀ (tests / error evaluation).
Tensor svd_reconstruct(const SvdResult& s, std::size_t n_rows,
                       std::size_t n_cols);

}  // namespace gs::linalg
