#include "tensor/matrix.hpp"

#include <algorithm>

#include "linalg/gemm_kernel.hpp"

namespace gs {

namespace {

// Direct triple-loop GEMM for tiny operands. Transposes are absorbed by
// index arithmetic (loop order chosen per combination so the innermost
// stream is contiguous where possible) — no operand is ever copied.
void gemm_tiny(std::size_t m, std::size_t n, std::size_t k, float alpha,
               const float* pa, std::size_t lda, bool trans_a,
               const float* pb, std::size_t ldb, bool trans_b, float beta,
               float* pc) {
  if (beta == 0.0f) {
    std::fill(pc, pc + m * n, 0.0f);
  } else if (beta != 1.0f) {
    for (std::size_t i = 0; i < m * n; ++i) pc[i] *= beta;
  }
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = pc + i * n;
    if (!trans_b) {
      // i-k-j: stream op(B) rows, accumulate into the C row.
      for (std::size_t p = 0; p < k; ++p) {
        const float av = alpha * (trans_a ? pa[p * lda + i] : pa[i * lda + p]);
        if (av == 0.0f) continue;
        const float* brow = pb + p * ldb;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    } else {
      // i-j-k: B stored n×k, so each dot product streams a contiguous B row.
      for (std::size_t j = 0; j < n; ++j) {
        const float* brow = pb + j * ldb;
        float acc = 0.0f;
        for (std::size_t p = 0; p < k; ++p) {
          acc += (trans_a ? pa[p * lda + i] : pa[i * lda + p]) * brow[p];
        }
        crow[j] += alpha * acc;
      }
    }
  }
}

}  // namespace

Tensor transposed(const Tensor& a) {
  GS_CHECK(a.rank() == 2);
  const std::size_t r = a.rows();
  const std::size_t c = a.cols();
  Tensor t(Shape{c, r});
  const float* src = a.data();
  float* dst = t.data();
  // Simple blocked transpose for cache friendliness.
  constexpr std::size_t kBlock = 32;
  for (std::size_t ib = 0; ib < r; ib += kBlock) {
    const std::size_t imax = std::min(ib + kBlock, r);
    for (std::size_t jb = 0; jb < c; jb += kBlock) {
      const std::size_t jmax = std::min(jb + kBlock, c);
      for (std::size_t i = ib; i < imax; ++i) {
        for (std::size_t j = jb; j < jmax; ++j) {
          dst[j * r + i] = src[i * c + j];
        }
      }
    }
  }
  return t;
}

void gemm(const Tensor& a, bool transpose_a, const Tensor& b, bool transpose_b,
          Tensor& c, float alpha, float beta) {
  GS_CHECK_MSG(a.rank() == 2, "gemm operand must be rank-2, got rank "
                                  << a.rank());
  GS_CHECK_MSG(b.rank() == 2, "gemm operand must be rank-2, got rank "
                                  << b.rank());
  const std::size_t m = transpose_a ? a.cols() : a.rows();
  const std::size_t k = transpose_a ? a.rows() : a.cols();
  const std::size_t kb = transpose_b ? b.cols() : b.rows();
  GS_CHECK_MSG(kb == k, "gemm inner dimension mismatch: " << k << " vs " << kb);
  const std::size_t n = transpose_b ? b.rows() : b.cols();
  GS_CHECK_MSG(c.rank() == 2 && c.rows() == m && c.cols() == n,
               "gemm output shape " << shape_to_string(c.shape())
                                    << " != expected [" << m << ", " << n
                                    << "]");
  GS_CHECK_MSG(c.data() != a.data() && c.data() != b.data(),
               "gemm output must not alias inputs");

  // Thin dispatcher: tiny products take the direct triple loop, everything
  // else goes through the packed/blocked/multithreaded kernel. Both paths
  // absorb the transpose flags without materialising op(A)/op(B).
  if (m * n * k <= kTinyGemmFlops) {
    gemm_tiny(m, n, k, alpha, a.data(), a.cols(), transpose_a, b.data(),
              b.cols(), transpose_b, beta, c.data());
  } else {
    kernel::sgemm(m, n, k, alpha, a.data(), a.cols(), transpose_a, b.data(),
                  b.cols(), transpose_b, beta, c.data(), n);
  }
}

Tensor matmul(const Tensor& a, const Tensor& b, bool transpose_a,
              bool transpose_b) {
  GS_CHECK(a.rank() == 2 && b.rank() == 2);
  const std::size_t m = transpose_a ? a.cols() : a.rows();
  const std::size_t n = transpose_b ? b.rows() : b.cols();
  Tensor c(Shape{m, n});
  gemm(a, transpose_a, b, transpose_b, c);
  return c;
}

void gemv(const Tensor& a, bool transpose_a, const Tensor& x, Tensor& y,
          float alpha, float beta) {
  GS_CHECK(a.rank() == 2 && x.rank() == 1 && y.rank() == 1);
  const std::size_t m = transpose_a ? a.cols() : a.rows();
  const std::size_t k = transpose_a ? a.rows() : a.cols();
  GS_CHECK_MSG(x.dim(0) == k, "gemv x length " << x.dim(0) << " != " << k);
  GS_CHECK_MSG(y.dim(0) == m, "gemv y length " << y.dim(0) << " != " << m);

  for (std::size_t i = 0; i < m; ++i) {
    double acc = 0.0;
    if (!transpose_a) {
      const float* row = a.data() + i * k;
      for (std::size_t p = 0; p < k; ++p) acc += double(row[p]) * x[p];
    } else {
      for (std::size_t p = 0; p < k; ++p) {
        acc += double(a.data()[p * m + i]) * x[p];
      }
    }
    y[i] = alpha * static_cast<float>(acc) + beta * y[i];
  }
}

void add_row_vector(Tensor& a, const Tensor& row) {
  GS_CHECK(a.rank() == 2 && row.rank() == 1);
  GS_CHECK_MSG(row.dim(0) == a.cols(),
               "bias length " << row.dim(0) << " != cols " << a.cols());
  const std::size_t r = a.rows();
  const std::size_t c = a.cols();
  for (std::size_t i = 0; i < r; ++i) {
    float* arow = a.data() + i * c;
    for (std::size_t j = 0; j < c; ++j) arow[j] += row[j];
  }
}

Tensor sum_rows(const Tensor& a) {
  GS_CHECK(a.rank() == 2);
  Tensor out(Shape{a.cols()});
  const std::size_t r = a.rows();
  const std::size_t c = a.cols();
  for (std::size_t i = 0; i < r; ++i) {
    const float* arow = a.data() + i * c;
    for (std::size_t j = 0; j < c; ++j) out[j] += arow[j];
  }
  return out;
}

double frobenius_dot(const Tensor& a, const Tensor& b) {
  GS_CHECK(a.same_shape(b));
  double acc = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    acc += static_cast<double>(a[i]) * b[i];
  }
  return acc;
}

Tensor identity(std::size_t n) {
  Tensor eye(Shape{n, n});
  for (std::size_t i = 0; i < n; ++i) eye.at(i, i) = 1.0f;
  return eye;
}

}  // namespace gs
