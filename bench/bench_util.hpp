// Shared scaffolding for the bench binaries: the synthetic MNIST set and
// LeNet baseline that bench_runtime_serving and bench_paper train on, the
// `--smoke` flag, console helpers, the BENCH_*.json writer and the one
// interleaved timing helper.
//
// Thread-safety: free functions here are called from the bench mains' single
// driver thread; nothing in this header owns shared mutable state.
// Determinism: datasets and baselines are seeded (fixed seeds inside the
// factories), so results never depend on wall-clock or scheduling; only the
// timings do.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/models.hpp"
#include "core/pipeline.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/network.hpp"

namespace gs::bench {

/// The benches' one command-line flag: true for `--smoke`, false for no
/// argument. Anything else prints a usage line to stderr and exits with
/// code 2, so a mistyped flag never runs the full budget, which would
/// overwrite the committed record.
bool smoke_flag(int argc, char** argv);

/// Canonical synthetic MNIST sets (sizes chosen for bench budgets).
data::SyntheticMnist mnist_train();
data::SyntheticMnist mnist_test();

/// A trained dense baseline plus its test accuracy.
struct TrainedModel {
  nn::Network net;
  double accuracy = 0.0;
};

/// Trains the paper's LeNet baseline on synthetic MNIST.
TrainedModel trained_lenet(std::size_t iterations, std::uint64_t seed = 1);

/// Console formatting helpers.
void section(const std::string& title);
void note(const std::string& text);

/// Standard SGD settings for LeNet on synthetic MNIST.
nn::SgdConfig lenet_sgd();

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

/// One record as a single-line JSON object, as write_bench_json emits it.
std::string to_json(const BenchRecord& record);

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
