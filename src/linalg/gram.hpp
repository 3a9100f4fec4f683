// Internal helper: double-precision Gram matrices of float tensors.
#pragma once

#include <vector>

#include "tensor/tensor.hpp"

namespace gs::linalg::detail {

/// Returns AᵀA (right=true, M×M result) or A·Aᵀ (right=false, N×N result),
/// row-major, accumulated entirely in double. Keeping the Gram in double is
/// what lets SVD/PCA resolve singular-value ratios below the float epsilon.
std::vector<double> gram_double(const Tensor& a, bool right);

}  // namespace gs::linalg::detail
