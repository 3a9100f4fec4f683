// GEMM kernel-subsystem benchmark: packed/blocked kernel vs. the seed
// materialize+i-k-j kernel on the shapes the Group Scissor pipeline actually
// hits (im2col tall-skinny products, dense backward products), plus
// end-to-end Gram cases at the shapes SVD/PCA feed the eigensolver.
//
// Emits BENCH_gemm.json (GFLOP/s and speedup per case) into the working
// directory and prints the same table to stdout. Thread count follows
// GS_NUM_THREADS; run with GS_NUM_THREADS=1 for the single-thread
// comparison quoted in the README.
#include <cstdio>
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

BenchRecord run_gemm_case(const GemmCase& cs) {
  const Tensor a = cs.ta ? random_matrix(cs.k, cs.m, 11)
                         : random_matrix(cs.m, cs.k, 11);
  const Tensor b = cs.tb ? random_matrix(cs.n, cs.k, 13)
                         : random_matrix(cs.k, cs.n, 13);
  Tensor c(Shape{cs.m, cs.n});
  const double flops = 2.0 * cs.m * cs.n * cs.k;

  const double seed_s =
      time_median_seconds([&] { seed_gemm(a, cs.ta, b, cs.tb, c); });
  const double new_s = time_median_seconds([&] {
    kernel::sgemm(cs.m, cs.n, cs.k, 1.0f, a.data(), a.cols(), cs.ta, b.data(),
                  b.cols(), cs.tb, 0.0f, c.data(), cs.n);
  });

  BenchRecord rec;
  rec.name = cs.name;
  rec.label("kind", "gemm").label("role", cs.role);
  char shape[64];
  std::snprintf(shape, sizeof shape, "%zux%zux%zu%s%s", cs.m, cs.n, cs.k,
                cs.ta ? " ta" : "", cs.tb ? " tb" : "");
  rec.label("shape", shape);
  rec.metric("seed_seconds", seed_s)
      .metric("kernel_seconds", new_s)
      .metric("seed_gflops", flops / seed_s * 1e-9)
      .metric("kernel_gflops", flops / new_s * 1e-9)
      .metric("speedup", seed_s / new_s);
  return rec;
}

BenchRecord run_pair(const char* name, const char* kind, const char* shape,
                     const std::function<void()>& seed_fn,
                     const std::function<void()>& new_fn) {
  const double seed_s = time_median_seconds(seed_fn);
  const double new_s = time_median_seconds(new_fn);
  BenchRecord rec;
  rec.name = name;
  rec.label("kind", kind).label("shape", shape);
  rec.metric("seed_seconds", seed_s)
      .metric("kernel_seconds", new_s)
      .metric("speedup", seed_s / new_s);
  return rec;
}

}  // namespace
}  // namespace gs::bench

int main() {
  using namespace gs;
  using namespace gs::bench;

  section("micro_gemm: packed/blocked kernel vs seed i-k-j");
  std::vector<BenchRecord> records;

  // Shapes hit by LeNet/ConvNet training + rank clipping. im2col products
  // are tall-skinny (positions×batch rows, patch-sized k, filter-count n);
  // the 512³ square is the acceptance shape; the ta/tb cases mirror
  // Dense/Conv backward.
  const GemmCase gemm_cases[] = {
      {"square_512", "acceptance", 512, 512, 512, false, false},
      {"lenet_conv2_im2col", "im2col tall-skinny", 1600, 50, 500, false,
       false},
      {"convnet_conv3_im2col", "im2col tall-skinny", 1024, 64, 800, false,
       false},
      {"dense_backward_dW", "dW=Xt*dY", 800, 500, 256, true, false},
      {"dense_backward_dX", "dX=dY*Wt", 256, 800, 500, false, true},
  };
  for (const GemmCase& cs : gemm_cases) {
    records.push_back(run_gemm_case(cs));
    const BenchRecord& r = records.back();
    std::printf("%-22s %-18s seed %7.2f GF/s  kernel %7.2f GF/s  x%.2f\n",
                r.name.c_str(), r.labels[2].second.c_str(),
                r.metrics[2].second, r.metrics[3].second, r.metrics[4].second);
  }
  const std::size_t gemm_record_count = records.size();

  // End-to-end Gram cases.
  const Tensor g1 = random_matrix(2048, 512, 21);
  const Tensor g2 = random_matrix(800, 64, 22);
  const Tensor g3 = random_matrix(512, 2048, 23);
  records.push_back(run_pair(
      "gram_right_2048x512", "gram", "2048x512 -> 512^2",
      [&] { seed_gram_double(g1, true); },
      [&] { linalg::detail::gram_double(g1, true); }));
  records.push_back(run_pair(
      "gram_right_800x64", "gram", "800x64 -> 64^2",
      [&] { seed_gram_double(g2, true); },
      [&] { linalg::detail::gram_double(g2, true); }));
  records.push_back(run_pair(
      "gram_left_512x2048", "gram", "512x2048 -> 512^2",
      [&] { seed_gram_double(g3, false); },
      [&] { linalg::detail::gram_double(g3, false); }));
  for (std::size_t i = gemm_record_count; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    std::printf("%-22s %-18s seed %8.4fs  kernel %8.4fs  x%.2f\n",
                r.name.c_str(), r.labels[1].second.c_str(),
                r.metrics[0].second, r.metrics[1].second, r.metrics[2].second);
  }

  write_bench_json("BENCH_gemm.json", "gemm", records);
  note("\nwrote BENCH_gemm.json");
  return 0;
}
