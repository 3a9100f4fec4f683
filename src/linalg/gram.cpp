#include "linalg/gram.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "tensor/matrix.hpp"

namespace gs::linalg::detail {

namespace {

// Gram tiles: square output tiles accumulated in double over the full
// contraction dimension. Inputs stay float32 (one convert per load, which
// vectorises); products and sums are double end-to-end because the SVD rank
// cutoff (1e-5 relative on σ, 1e-10 on λ) sits ~5 orders above double
// round-off but only ~1 order below float round-off.
//
// 64×64 output tiles keep both row operands of a tile hot across its
// kTile² dot products.
constexpr std::size_t kLeftTile = 64;

// Explicit 8-lane double vectors for the dot-product reduction: a strictly
// sequential FP sum cannot be auto-vectorised (reassociation), so we fix a
// deterministic 8-way interleaved summation order instead. Lane sums change
// the result vs. the seed's scalar order only at double epsilon — far below
// every downstream eigen/SVD threshold.
#if defined(__GNUC__) || defined(__clang__)
#define GS_GRAM_VECTOR_KERNEL 1
typedef double v8df __attribute__((vector_size(8 * sizeof(double)),
                                   aligned(8), may_alias));
#endif

/// <rp, rq> over `m` double elements. Four independent vector accumulators
/// break the FMA latency chain; their fixed merge order keeps the result
/// deterministic.
double dot_double(const double* __restrict rp, const double* __restrict rq,
                  std::size_t m) {
  std::size_t j = 0;
  double acc = 0.0;
#ifdef GS_GRAM_VECTOR_KERNEL
  v8df partial[4] = {};
  for (; j + 32 <= m; j += 32) {
    for (std::size_t u = 0; u < 4; ++u) {
      partial[u] += *reinterpret_cast<const v8df*>(rp + j + 8 * u) *
                    *reinterpret_cast<const v8df*>(rq + j + 8 * u);
    }
  }
  for (; j + 8 <= m; j += 8) {
    partial[0] += *reinterpret_cast<const v8df*>(rp + j) *
                  *reinterpret_cast<const v8df*>(rq + j);
  }
  const v8df merged = (partial[0] + partial[1]) + (partial[2] + partial[3]);
  for (std::size_t lane = 0; lane < 8; ++lane) acc += merged[lane];
#endif
  for (; j < m; ++j) acc += rp[j] * rq[j];
  return acc;
}

struct TilePair {
  std::size_t p0, q0;
};

// Upper-triangle tile list; each entry owns a disjoint region of G, so the
// ThreadPool dispatch below is deterministic for any thread count.
std::vector<TilePair> upper_tiles(std::size_t side, std::size_t tile) {
  std::vector<TilePair> tiles;
  for (std::size_t p0 = 0; p0 < side; p0 += tile) {
    for (std::size_t q0 = p0; q0 < side; q0 += tile) {
      tiles.push_back({p0, q0});
    }
  }
  return tiles;
}

// Shared core: G[p][q] = <row_p, row_q> over `count` double rows of length
// `len`, upper triangle only, tiled for row reuse and dispatched over the
// pool. The caller widens (and, for the right case, transposes) the float
// input into `rows` once — an O(count·len) pass that removes every
// float→double convert from the O(count²·len) dot loops, which then run at
// pure double-FMA load throughput.
void gram_from_rows(const std::vector<double>& rows, std::size_t count,
                    std::size_t len, std::size_t ldr, std::vector<double>& g) {
  const std::vector<TilePair> tiles = upper_tiles(count, kLeftTile);
  ThreadPool::global().parallel_for(tiles.size(), [&](std::size_t t) {
    const std::size_t p0 = tiles[t].p0;
    const std::size_t q0 = tiles[t].q0;
    const std::size_t pe = std::min(p0 + kLeftTile, count);
    const std::size_t qe = std::min(q0 + kLeftTile, count);
    for (std::size_t p = p0; p < pe; ++p) {
      const double* rp = rows.data() + p * ldr;
      for (std::size_t q = std::max(q0, p); q < qe; ++q) {
        g[p * count + q] = dot_double(rp, rows.data() + q * ldr, len);
      }
    }
  });
}

/// Contiguous float→double widen (vectorises to a straight convert stream).
std::vector<double> widen(const float* src, std::size_t numel) {
  std::vector<double> out(numel);
  for (std::size_t i = 0; i < numel; ++i) out[i] = src[i];
  return out;
}

// G = AᵀA (side = cols): one fused blocked transpose+widen puts every
// column into a contiguous double run, then the same dot-tile core as the
// left case. The O(n·m) pass is noise next to the O(n·m²) products.
void gram_right(const Tensor& a, std::vector<double>& g) {
  const std::size_t n = a.rows();
  const std::size_t m = a.cols();
  // Pad the transposed leading dimension off the power-of-2 grid: with
  // ldr == n a multiple of 4 KiB, the scattered stores of each transpose
  // block all land in one L1 set and thrash it.
  const std::size_t ldr = (n % 512 == 0) ? n + 8 : n;
  std::vector<double> at(m * ldr);
  constexpr std::size_t kBlock = 32;
  for (std::size_t ib = 0; ib < n; ib += kBlock) {
    const std::size_t imax = std::min(ib + kBlock, n);
    for (std::size_t jb = 0; jb < m; jb += kBlock) {
      const std::size_t jmax = std::min(jb + kBlock, m);
      for (std::size_t i = ib; i < imax; ++i) {
        for (std::size_t j = jb; j < jmax; ++j) {
          at[j * ldr + i] = a.data()[i * m + j];
        }
      }
    }
  }
  gram_from_rows(at, m, n, ldr, g);
}

// G = A·Aᵀ (side = rows): rows are already contiguous; widen in one pass.
void gram_left(const Tensor& a, std::vector<double>& g) {
  gram_from_rows(widen(a.data(), a.numel()), a.rows(), a.cols(), a.cols(), g);
}

/// <a, b> over `n` contiguous floats, accumulated in double via a fixed
/// 8-lane interleaved order (deterministic; differs from a strictly
/// sequential sum only at double epsilon).
double dot_float_double(const float* a, const float* b, std::size_t n) {
  std::size_t j = 0;
  double acc = 0.0;
#ifdef GS_GRAM_VECTOR_KERNEL
  typedef float v8sf __attribute__((vector_size(8 * sizeof(float)),
                                    aligned(4), may_alias));
  v8df partial[4] = {};
  for (; j + 32 <= n; j += 32) {
    for (std::size_t u = 0; u < 4; ++u) {
      const v8sf fa = *reinterpret_cast<const v8sf*>(a + j + 8 * u);
      const v8sf fb = *reinterpret_cast<const v8sf*>(b + j + 8 * u);
      partial[u] += __builtin_convertvector(fa, v8df) *
                    __builtin_convertvector(fb, v8df);
    }
  }
  const v8df merged = (partial[0] + partial[1]) + (partial[2] + partial[3]);
  for (std::size_t lane = 0; lane < 8; ++lane) acc += merged[lane];
#endif
  for (; j < n; ++j) acc += static_cast<double>(a[j]) * b[j];
  return acc;
}

// Below this product volume the transpose/widen staging buffers cost more
// than they save; run the seed-style direct loops instead.
constexpr std::size_t kDirectGramWork = 1u << 23;

void gram_direct(const Tensor& a, bool right, std::vector<double>& g) {
  const std::size_t n = a.rows();
  const std::size_t m = a.cols();
  if (right) {
    for (std::size_t i = 0; i < n; ++i) {
      const float* row = a.data() + i * m;
      for (std::size_t p = 0; p < m; ++p) {
        const double v = row[p];
        if (v == 0.0) continue;
        double* grow = g.data() + p * m;
        for (std::size_t q = p; q < m; ++q) {
          grow[q] += v * static_cast<double>(row[q]);
        }
      }
    }
  } else {
    for (std::size_t p = 0; p < n; ++p) {
      const float* rp = a.data() + p * m;
      for (std::size_t q = p; q < n; ++q) {
        g[p * n + q] = dot_float_double(rp, a.data() + q * m, m);
      }
    }
  }
}

}  // namespace

std::vector<double> gram_double(const Tensor& a, bool right) {
  GS_CHECK(a.rank() == 2);
  const std::size_t side = right ? a.cols() : a.rows();
  std::vector<double> g(side * side, 0.0);
  const std::size_t work = side * side * (right ? a.rows() : a.cols());
  if (work < kDirectGramWork) {
    gram_direct(a, right, g);
  } else if (right) {
    gram_right(a, g);
  } else {
    gram_left(a, g);
  }
  // Mirror the upper triangle.
  for (std::size_t p = 0; p < side; ++p) {
    for (std::size_t q = p + 1; q < side; ++q) {
      g[q * side + p] = g[p * side + q];
    }
  }
  return g;
}

}  // namespace gs::linalg::detail
