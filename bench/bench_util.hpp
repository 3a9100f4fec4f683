// Shared scaffolding for the experiment-reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper on the
// synthetic datasets (DESIGN.md §2) at a laptop-scale training budget, prints
// the paper's row/series layout with a `paper=` reference column, and writes
// a CSV (<bench-name>.csv, next to the working directory) for replotting.
//
// Scale note: budgets are sized so each binary completes in roughly a minute
// or two on CPU. Set GS_BENCH_SCALE=N (integer ≥ 1) to multiply every
// training budget for higher-fidelity runs.
//
// Thread-safety: free functions here are called from the bench mains' single
// driver thread; nothing in this header owns shared mutable state.
// Determinism: datasets and baselines are seeded (fixed seeds inside the
// factories); scale() reads GS_BENCH_SCALE once — results depend only on the
// environment knobs, never on wall-clock or scheduling.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/csv.hpp"
#include "common/rng.hpp"
#include "core/models.hpp"
#include "core/pipeline.hpp"
#include "data/synthetic_cifar.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/network.hpp"

namespace gs::bench {

/// Training-budget multiplier from GS_BENCH_SCALE (default 1).
std::size_t scale();

/// Scaled iteration count.
std::size_t iters(std::size_t base);

/// Canonical synthetic datasets (sizes chosen for bench budgets).
data::SyntheticMnist mnist_train();
data::SyntheticMnist mnist_test();
data::SyntheticCifar cifar_train();
data::SyntheticCifar cifar_test();

/// A trained dense baseline plus its test accuracy.
struct TrainedModel {
  nn::Network net;
  double accuracy = 0.0;
};

/// Trains the paper's LeNet / ConvNet baselines on the synthetic tasks.
TrainedModel trained_lenet(std::size_t iterations, std::uint64_t seed = 1);
TrainedModel trained_convnet(std::size_t iterations, std::uint64_t seed = 1);

/// Console formatting helpers.
void section(const std::string& title);
void note(const std::string& text);
/// "label: measured=X paper=Y" line.
void paper_vs(const std::string& label, double measured, double paper_value);

/// Standard SGD settings for each network on the synthetic tasks.
nn::SgdConfig lenet_sgd();
nn::SgdConfig convnet_sgd();

// --- Machine-readable benchmark trajectories (BENCH_*.json) ----------------

/// min/median/max of one series of repeated measurements.
struct Spread {
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;

  /// The spread of f(x) for a monotone f (a decreasing f swaps min and max).
  Spread map(const std::function<double(double)>& f) const;
};

/// One benchmark case: a name, string labels (shape, variant, …) and numeric
/// metrics (seconds, gflops, speedup, …). Insertion order is preserved in
/// the emitted JSON.
struct BenchRecord {
  std::string name;
  std::vector<std::pair<std::string, std::string>> labels;
  std::vector<std::pair<std::string, double>> metrics;

  BenchRecord& label(std::string key, std::string value);
  BenchRecord& metric(std::string key, double value);
  /// Emits `key` (the median) plus `key_min` and `key_max`.
  BenchRecord& spread(const std::string& key, const Spread& s);
};

/// Writes `{"bench": <bench_name>, "env": {...}, "records": [...]}` to
/// `path`, e.g. BENCH_gemm.json in the working directory. Strings are
/// JSON-escaped; non-finite metrics are emitted as null. The `env` block
/// records `hardware_concurrency` (cores the OS reports) and
/// `gs_num_threads` (the effective global pool size after GS_NUM_THREADS),
/// so numbers measured on a single-core container — where multi-replica
/// overlap cannot exceed 1× — are self-describing.
void write_bench_json(const std::string& path, const std::string& bench_name,
                      const std::vector<BenchRecord>& records);

// --- Timing -----------------------------------------------------------------

/// Spread of `values` (must be non-empty; the median of an even count is the
/// upper middle element).
Spread spread_of(std::vector<double> values);

/// Wall-clock seconds of several arms timed in interleaved rounds.
struct InterleavedTimes {
  std::vector<std::vector<double>> seconds;  ///< [arm][round]

  Spread arm(std::size_t a) const;
  /// Spread of f(seconds[a][r], seconds[b][r]) over the rounds r — a paired
  /// estimator: both arms of one round saw the same machine state.
  Spread paired(std::size_t a, std::size_t b,
                const std::function<double(double, double)>& f) const;
  /// paired() with f = division: how many times faster arm `den` ran than
  /// arm `num`.
  Spread ratio(std::size_t num, std::size_t den) const;
};

/// The one timing helper: one untimed warm-up round, then `reps` rounds that
/// each call every arm once, in order, so machine drift on a shared host
/// hits all arms alike. Compare arms through ratio() and report spreads.
InterleavedTimes time_interleaved(
    const std::vector<std::function<void()>>& arms, int reps);

/// Median wall-clock seconds of fn() over `reps` timed runs (after one
/// untimed warm-up call) — time_interleaved with a single arm.
double time_median_seconds(const std::function<void()>& fn, int reps = 5);

}  // namespace gs::bench
