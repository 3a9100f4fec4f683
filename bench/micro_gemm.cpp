// GEMM kernel-subsystem benchmark: packed/blocked kernel vs. the seed
// materialize+i-k-j kernel on the shapes the Group Scissor pipeline actually
// hits (im2col tall-skinny products, dense backward products, the conv
// frame's per-sample LeNet products), plus end-to-end Gram cases at the
// shapes SVD/PCA feed the eigensolver.
//
// Each case times its seed and kernel arms in interleaved rounds
// (bench_util's time_interleaved) and records both arms' median [min, max]
// and the paired speedup. Emits BENCH_gemm.json into the working directory
// and prints the same table to stdout. Thread count follows GS_NUM_THREADS;
// run with GS_NUM_THREADS=1 for the single-thread comparison quoted in the
// README. Pass --smoke for a small-size, few-rep CI run that prints but
// writes no JSON.
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "linalg/gemm_kernel.hpp"
#include "linalg/gram.hpp"
#include "tensor/matrix.hpp"

namespace gs::bench {
namespace {

Tensor random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(Shape{r, c});
  t.fill_gaussian(rng, 0.0f, 1.0f);
  return t;
}

// ---- Seed-kernel replicas --------------------------------------------------
// Verbatim re-implementations of the pre-kernel-subsystem hot paths, kept
// here so the speedup trajectory stays measurable against the original
// baseline after the library moves on.

/// Seed gemm: materialise op(A)/op(B) as full transposed copies, then a
/// serial i-k-j triple loop (the seed's non-OpenMP path).
void seed_gemm(const Tensor& a, bool ta, const Tensor& b, bool tb, Tensor& c,
               float alpha = 1.0f, float beta = 0.0f) {
  const Tensor at = ta ? transposed(a) : a;
  const Tensor bt = tb ? transposed(b) : b;
  const std::size_t m = at.rows();
  const std::size_t k = at.cols();
  const std::size_t n = bt.cols();
  const float* pa = at.data();
  const float* pb = bt.data();
  float* pc = c.data();
  if (beta == 0.0f) {
    std::fill(pc, pc + m * n, 0.0f);
  } else if (beta != 1.0f) {
    for (std::size_t i = 0; i < m * n; ++i) pc[i] *= beta;
  }
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = pc + i * n;
    const float* arow = pa + i * k;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = alpha * arow[p];
      if (av == 0.0f) continue;
      const float* brow = pb + p * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// Seed gram: outer-product order (right) / row-pair dots (left), serial.
std::vector<double> seed_gram_double(const Tensor& a, bool right) {
  const std::size_t n = a.rows();
  const std::size_t m = a.cols();
  const std::size_t side = right ? m : n;
  std::vector<double> g(side * side, 0.0);
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
        const float* rq = a.data() + q * m;
        double acc = 0.0;
        for (std::size_t j = 0; j < m; ++j) {
          acc += static_cast<double>(rp[j]) * rq[j];
        }
        g[p * side + q] = acc;
      }
    }
  }
  for (std::size_t p = 0; p < side; ++p) {
    for (std::size_t q = p + 1; q < side; ++q) {
      g[q * side + p] = g[p * side + q];
    }
  }
  return g;
}

// ---- Cases -----------------------------------------------------------------

struct GemmCase {
  const char* name;
  const char* role;
  std::size_t m, n, k;
  bool ta, tb;
};

/// Times the seed and kernel arms of one case in `reps` interleaved rounds
/// and records each arm's seconds and the paired speedup as median
/// [min, max]. `flops` > 0 adds each arm's GF/s.
BenchRecord timed_pair(const std::string& name, double flops,
                       const std::function<void()>& seed_fn,
                       const std::function<void()>& kernel_fn, int reps) {
  const InterleavedTimes times = time_interleaved({seed_fn, kernel_fn}, reps);
  BenchRecord rec;
  rec.name = name;
  rec.spread("seed_seconds", times.arm(0))
      .spread("kernel_seconds", times.arm(1));
  if (flops > 0.0) {
    const auto gflops = [flops](double s) { return flops / s * 1e-9; };
    rec.spread("seed_gflops", times.arm(0).map(gflops))
        .spread("kernel_gflops", times.arm(1).map(gflops));
  }
  rec.spread("speedup", times.ratio(0, 1));
  return rec;
}

/// The value of metric `key` (the median, for a spread).
double metric(const BenchRecord& rec, const std::string& key) {
  for (const auto& [k, v] : rec.metrics) {
    if (k == key) return v;
  }
  return 0.0;
}

BenchRecord run_gemm_case(const GemmCase& cs, std::size_t scale, int reps) {
  const std::size_t m = std::max<std::size_t>(1, cs.m / scale);
  const std::size_t n = std::max<std::size_t>(1, cs.n / scale);
  const std::size_t k = std::max<std::size_t>(1, cs.k / scale);
  const Tensor a = cs.ta ? random_matrix(k, m, 11) : random_matrix(m, k, 11);
  const Tensor b = cs.tb ? random_matrix(n, k, 13) : random_matrix(k, n, 13);
  Tensor c(Shape{m, n});

  BenchRecord rec = timed_pair(
      cs.name, 2.0 * m * n * k, [&] { seed_gemm(a, cs.ta, b, cs.tb, c); },
      [&] {
        kernel::sgemm(m, n, k, 1.0f, a.data(), a.cols(), cs.ta, b.data(),
                      b.cols(), cs.tb, 0.0f, c.data(), n);
      },
      reps);
  char shape[64];
  std::snprintf(shape, sizeof shape, "%zux%zux%zu%s%s", m, n, k,
                cs.ta ? " ta" : "", cs.tb ? " tb" : "");
  rec.label("kind", "gemm").label("role", cs.role).label("shape", shape);
  std::printf("%-22s %-20s %-16s seed %7.2f GF/s  kernel %7.2f GF/s  "
              "x%.2f [%.2f, %.2f]\n",
              rec.name.c_str(), cs.role, shape, metric(rec, "seed_gflops"),
              metric(rec, "kernel_gflops"), metric(rec, "speedup"),
              metric(rec, "speedup_min"), metric(rec, "speedup_max"));
  return rec;
}

BenchRecord run_gram_case(const char* name, std::size_t rows,
                          std::size_t cols, bool right, std::uint64_t seed,
                          int reps) {
  const Tensor g = random_matrix(rows, cols, seed);
  BenchRecord rec = timed_pair(
      name, 0.0, [&] { seed_gram_double(g, right); },
      [&] { linalg::detail::gram_double(g, right); }, reps);
  const std::size_t side = right ? cols : rows;
  const std::string shape = std::to_string(rows) + "x" + std::to_string(cols) +
                            " -> " + std::to_string(side) + "^2";
  rec.label("kind", "gram").label("shape", shape);
  std::printf("%-22s %-37s seed %8.4fs  kernel %8.4fs  x%.2f [%.2f, %.2f]\n",
              name, shape.c_str(), metric(rec, "seed_seconds"),
              metric(rec, "kernel_seconds"), metric(rec, "speedup"),
              metric(rec, "speedup_min"), metric(rec, "speedup_max"));
  return rec;
}

}  // namespace
}  // namespace gs::bench

int main(int argc, char** argv) {
  using namespace gs;
  using namespace gs::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  // A smoke run divides every dimension by 8.
  const std::size_t scale = smoke ? 8 : 1;
  const int reps = smoke ? 3 : 11;

  section(smoke ? "micro_gemm (smoke): packed/blocked kernel vs seed i-k-j"
                : "micro_gemm: packed/blocked kernel vs seed i-k-j");
  std::vector<BenchRecord> records;

  // Shapes hit by LeNet/ConvNet training + rank clipping. im2col products
  // are tall-skinny (positions×batch rows, patch-sized k, filter-count n);
  // the 512³ square is the acceptance shape; the ta/tb cases mirror
  // Dense/Conv backward. The conv frame's cases are one LeNet sample's
  // products in the low-rank conv2 (rank 24, 64 positions, 500 patch rows):
  // Hᵀ = Uᵀ·Xᵀ, the dU term Xᵀ·G₀ and dXᵀ = U·G₀ᵀ.
  const GemmCase gemm_cases[] = {
      {"square_512", "acceptance", 512, 512, 512, false, false},
      {"lenet_conv2_im2col", "im2col tall-skinny", 1600, 50, 500, false,
       false},
      {"convnet_conv3_im2col", "im2col tall-skinny", 1024, 64, 800, false,
       false},
      {"dense_backward_dW", "dW=Xt*dY", 800, 500, 256, true, false},
      {"dense_backward_dX", "dX=dY*Wt", 256, 800, 500, false, true},
      {"frame_conv2_forward", "frame Ht=Ut*Xt", 24, 64, 500, true, false},
      {"frame_conv2_dU_term", "frame dU term Xt*G0", 500, 24, 64, false,
       true},
      {"frame_conv2_dX", "frame dXt=U*G0t", 500, 64, 24, false, false},
  };
  for (const GemmCase& cs : gemm_cases) {
    records.push_back(run_gemm_case(cs, scale, reps));
  }

  // End-to-end Gram cases.
  records.push_back(run_gram_case("gram_right_2048x512", 2048 / scale,
                                  512 / scale, true, 21, reps));
  records.push_back(run_gram_case("gram_right_800x64", 800 / scale,
                                  64 / scale, true, 22, reps));
  records.push_back(run_gram_case("gram_left_512x2048", 512 / scale,
                                  2048 / scale, false, 23, reps));

  if (!smoke) {  // a smoke run never overwrites the full-budget record
    write_bench_json("BENCH_gemm.json", "gemm", records);
    note("\nwrote BENCH_gemm.json");
  }
  return 0;
}
