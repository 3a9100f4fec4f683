// Dense matrix kernels on rank-2 Tensors.
//
// gemm() is a thin dispatcher over linalg/gemm_kernel.hpp: tiny products run
// a direct triple loop, larger ones the packed/cache-blocked/multithreaded
// SGEMM. Transposed operands are handled in the kernels' packing/indexing —
// no transposed copy is ever materialised. All kernels are checked: operand
// ranks and inner dimensions are validated with GS_CHECK.
#pragma once

#include "tensor/tensor.hpp"

namespace gs {

/// gemm() runs a product of at most this many multiply-adds (m·n·k) as a
/// direct triple loop: below it the packed kernel's tile set-up costs more
/// than it saves. The two paths round differently — the triple loop's
/// arithmetic depends on beta and on the transpose of B, the packed
/// kernel's on neither — so callers that must reproduce a gemm() bit for
/// bit on raw buffers (nn/weight_path.hpp) test this threshold too.
inline constexpr std::size_t kTinyGemmFlops = 32 * 32 * 32;

/// C = alpha * op(A) * op(B) + beta * C, row-major.
/// op(X) = X or Xᵀ per the transpose flags. C must be preallocated with the
/// result shape; aliasing C with A or B is not allowed.
void gemm(const Tensor& a, bool transpose_a, const Tensor& b, bool transpose_b,
          Tensor& c, float alpha = 1.0f, float beta = 0.0f);

/// Returns op(A)*op(B) as a fresh tensor.
Tensor matmul(const Tensor& a, const Tensor& b, bool transpose_a = false,
              bool transpose_b = false);

/// y = alpha * op(A) * x + beta * y for a rank-1 x/y.
void gemv(const Tensor& a, bool transpose_a, const Tensor& x, Tensor& y,
          float alpha = 1.0f, float beta = 0.0f);

/// Returns Aᵀ as a fresh tensor.
Tensor transposed(const Tensor& a);

/// Adds `row` (rank-1, length = a.cols()) to every row of `a` in place.
/// Implements bias addition over a batch.
void add_row_vector(Tensor& a, const Tensor& row);

/// Sums the rows of `a` into a rank-1 tensor of length a.cols().
/// Implements bias gradient accumulation over a batch.
Tensor sum_rows(const Tensor& a);

/// Frobenius inner product <A, B>, accumulated in double.
double frobenius_dot(const Tensor& a, const Tensor& b);

/// Identity matrix of size n.
Tensor identity(std::size_t n);

}  // namespace gs
