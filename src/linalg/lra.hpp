// Low-rank approximation front-end used by rank clipping.
//
// Unifies the PCA and SVD backends behind one factory: every call produces a
// pair of skinny factors (U, Vᵀ) with W ≈ U·Vᵀ — exactly the two-crossbar
// structure of the paper (Eq. 1). Crossbar area shrinks whenever the Eq. (2)
// predicate holds: K < N·M/(N+M).
#pragma once

#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace gs::linalg {

/// LRA backend selection.
enum class LraMethod {
  kPca,          ///< uncentered PCA (covariance eigen) — paper default
  kPcaCentered,  ///< Algorithm-1-literal centering, mean folded as +1 rank
  kSvd,          ///< thin SVD (Gram eigen-solve), σ folded into U
};

std::string to_string(LraMethod method);

/// A rank-K factorisation W ≈ U·Vᵀ with U: N×K and Vᵀ: K×M.
struct LowRankFactors {
  Tensor u;
  Tensor vt;

  std::size_t rank() const { return vt.rows(); }
  /// U·Vᵀ.
  Tensor reconstruct() const;
  /// Crossbar cell count of the factor pair: N·K + K·M.
  std::size_t cell_count() const;
};

/// Result of a clip/approximation call.
struct LraResult {
  LowRankFactors factors;
  std::size_t rank = 0;      ///< effective rank (includes mean fold, if any)
  double spectral_error = 0.0;  ///< Eq. (3) tail-energy at the chosen rank
};

/// Factorises `w` at exactly `rank` components (plus the mean component in
/// kPcaCentered mode).
LraResult low_rank_approximate(const Tensor& w, LraMethod method,
                               std::size_t rank);

/// Chooses the minimum rank whose Eq. (3) error is ≤ epsilon, then
/// factorises. `min_rank` floors the search (rank never drops below it).
LraResult clip_to_error(const Tensor& w, LraMethod method, double epsilon,
                        std::size_t min_rank = 1);

/// Eq. (2): true iff a rank-K factorisation of an N×M matrix uses fewer
/// crossbar cells than the dense matrix.
bool factorization_saves_area(std::size_t n, std::size_t m, std::size_t k);

}  // namespace gs::linalg
