// Shared plumbing of the benchmark: command-line options, the result line,
// timing helpers, and the in-memory span log the traced runs record.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public functions — nothing inside src/ is instrumented. Every
// span is opened and closed on the thread that created the log (the main
// thread, which is also the request generator), so the log needs no lock.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

double seconds_between(Clock::time_point a, Clock::time_point b);
/// CPU seconds consumed by every thread of the process so far.
double process_cpu_seconds();
/// Median of `values` (0 when empty).
double median(std::vector<double> values);
/// Nearest-rank percentile q of `values` (0 when empty).
double percentile(std::vector<double> values, double q);

/// One run's outcome: the output checks, the request accounting and the
/// metrics, printed as the final JSON line of standard output.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failed_checks;

  void add(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check when `ok` is false.
  void check(bool ok, const std::string& what);
  bool correct() const { return failed_checks.empty(); }
};

/// Prints one human-readable line per metric and failed check, then the
/// JSON result as the last line of standard output.
void print_result(const Result& result);

/// One timed interval. `parent` indexes the enclosing span in the log (-1 at
/// the top); `id` is the request index for per-request spans, 0 otherwise.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Totals of every span with one name: how many, their summed duration,
/// and their summed self time (duration minus the part of the interval the
/// span's children cover).
struct LayerTime {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// In-memory span log. While a log is active (SpanLog::active() non-null),
/// Scope and TimedDataset record into it; with no active log they cost one
/// pointer test. Spans stay in memory and are written out by write().
class SpanLog {
 public:
  SpanLog();
  ~SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// The log Scope records into, or nullptr when tracing is off or paused.
  static SpanLog* active();
  /// Pauses (false) or resumes (true) recording into this log.
  void set_recording(bool on);

  /// Opens a span nested under the innermost open one; returns its index.
  std::size_t open(const char* name, std::uint64_t id = 0);
  void close(std::size_t index);
  /// Adds an already-finished span with an explicit parent (-1 = top).
  void record(const char* name, std::uint64_t id, std::int64_t parent,
              Clock::time_point start, Clock::time_point end);
  /// Index of the innermost open span (-1 when none is open).
  std::int64_t current() const;

  std::map<std::string, LayerTime> fold() const;
  /// Writes one JSON object per span, one per line.
  void write(const std::string& path) const;

 private:
  std::int64_t to_ns(Clock::time_point t) const;

  Clock::time_point epoch_;
  std::thread::id owner_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span around one call; records nothing when no log is active.
class Scope {
 public:
  explicit Scope(const char* name, std::uint64_t id = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_ = 0;
};

/// Dataset wrapper that puts every get() in a "data.get" span.
class TimedDataset final : public gs::data::Dataset {
 public:
  explicit TimedDataset(const gs::data::Dataset& inner) : inner_(inner) {}
  std::size_t size() const override { return inner_.size(); }
  gs::data::Sample get(std::size_t index) const override;
  gs::Shape sample_shape() const override { return inner_.sample_shape(); }
  std::size_t num_classes() const override { return inner_.num_classes(); }
  std::string name() const override { return inner_.name(); }

 private:
  const gs::data::Dataset& inner_;
};

/// Per-layer metrics read from a traced run's spans: data access, training,
/// evaluation, factorisation, clipping, deletion, hardware reports and
/// compiles. `train_iters` is the SGD steps run inside the training spans.
void add_span_layer_metrics(Result& result,
                            const std::map<std::string, LayerTime>& layers,
                            std::size_t train_iters);

/// Puts the metrics in BENCHMARK.json order: every end-to-end metric
/// (untraced run) or every per-layer metric (traced run). A per-layer metric
/// the workload does not exercise reads 0; a missing end-to-end metric or an
/// unknown name fails the run.
void finalize_metrics(Result& result, bool trace);

// Workload entry points (one translation unit each).
Result run_compress_lenet(const Options& options);
Result run_serve_lenet(const Options& options);
Result run_fleet_lenet(const Options& options);

}  // namespace perfbench
