// Micro-benchmarks of the LRA solvers at the covariance sizes rank clipping
// actually eigen-solves (the fan-out M of each paper layer).
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "linalg/eigen.hpp"
#include "linalg/lra.hpp"
#include "linalg/pca.hpp"
#include "linalg/svd.hpp"
#include "tensor/matrix.hpp"

namespace gs::linalg {
namespace {

Tensor random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(Shape{r, c});
  t.fill_gaussian(rng, 0.0f, 1.0f);
  return t;
}

void BM_SymEigen(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Tensor a = matmul(random_matrix(n, n, 1), random_matrix(n, n, 1),
                          /*ta=*/true);
  for (auto _ : state) {
    const EigenResult e = eigen_sym(a);
    benchmark::DoNotOptimize(e.eigenvalues.data());
  }
}
// 500 is LeNet fc1's fan-out, the largest Gram the pipeline solves.
BENCHMARK(BM_SymEigen)->Arg(20)->Arg(50)->Arg(127)->Arg(500);

void BM_SvdThin(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const Tensor a = random_matrix(n, m, 2);
  for (auto _ : state) {
    const SvdResult s = svd(a);
    benchmark::DoNotOptimize(s.singular_values.data());
  }
}
BENCHMARK(BM_SvdThin)
    ->Args({500, 50})   // LeNet conv2 weight
    ->Args({800, 64})   // ConvNet conv3 weight
    ->Args({64, 64});

void BM_PcaFactorize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const Tensor w = random_matrix(n, m, 3);
  for (auto _ : state) {
    const PcaResult p = pca(w, m / 2);
    benchmark::DoNotOptimize(p.u.data());
  }
}
BENCHMARK(BM_PcaFactorize)->Args({500, 50})->Args({800, 64});

void BM_ClipToError(benchmark::State& state) {
  // The inner operation of Algorithm 2 line 6 at LeNet conv2 size.
  const Tensor w = random_matrix(500, 50, 4);
  for (auto _ : state) {
    const LraResult r = clip_to_error(w, LraMethod::kPca, 0.03);
    benchmark::DoNotOptimize(r.rank);
  }
}
BENCHMARK(BM_ClipToError);

}  // namespace
}  // namespace gs::linalg

BENCHMARK_MAIN();
