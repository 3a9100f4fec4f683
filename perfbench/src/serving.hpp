// Serving-side pieces shared by the workloads: the fixed served network, the
// request pool, the single-threaded load generator (open and closed loop),
// and the metric helpers.
//
// Load generation runs on the calling thread and never busy-waits: between
// due times it blocks on the oldest outstanding future, and each time it
// wakes it stamps every future that has become ready. Latency runs from a
// request's due send time to that observed completion, so generator stalls
// count against the requests they delay.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/thread_pool.hpp"
#include "nn/network.hpp"
#include "runtime/executor.hpp"
#include "runtime/server.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

// Serving settings fixed by the benchmark (see README.md).
constexpr std::size_t kMaxBatch = 32;
constexpr std::chrono::microseconds kCoalesce{2000};
constexpr std::size_t kServerThreads = 2;  ///< executor threads, all engines
constexpr std::size_t kInFlight = 2 * kMaxBatch;  ///< closed-loop window
constexpr double kLatencyLimitMs = 25.0;   ///< SLO limit on every request
constexpr std::size_t kPoolSamples = 256;  ///< distinct request samples

/// The compressed LeNet both serving workloads serve, built from the seed
/// without the pipeline's iterative phases: a briefly trained dense LeNet,
/// core::to_lowrank at the flagship's final ranks (12/24/127), and seeded
/// masks that empty as many whole crossbars per matrix as the flagship run.
struct ServedModel {
  gs::nn::Network net;
  double crossbar_area_ratio = 0.0;
  double routing_area_ratio = 0.0;  ///< mean over the masked matrices
};
ServedModel build_served_lenet(std::uint64_t seed);
/// SGD steps of the served network's brief dense training.
constexpr std::size_t kServedTrainIters = 60;

/// Tile geometry the served network must compile to (the flagship's).
constexpr std::size_t kServedTiles = 3325;
constexpr std::size_t kServedSkippedTiles = 3201;

/// Request samples, drawn from a seeded synthetic test set.
struct SamplePool {
  std::vector<gs::Tensor> samples;
};
SamplePool make_sample_pool(std::uint64_t seed);

/// One request the generator sent.
struct Sent {
  std::uint64_t id = 0;  ///< run-wide request index (span id)
  std::size_t sample = 0;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  double submit_us = 0.0;
  bool completed = false;
  gs::Tensor logits;

  double latency_ms() const {
    return 1e3 * seconds_between(due, done);
  }
};

/// A scheduled action of the open loop: a request (sample index) or, when
/// `sample` is kNoSample, a call of the generator's event handler.
struct Event {
  static constexpr std::size_t kNoSample = static_cast<std::size_t>(-1);
  double at_s = 0.0;  ///< offset from the phase start
  std::size_t sample = kNoSample;
  int kind = 0;       ///< handler argument for non-request events
};

/// What one load phase did.
struct Phase {
  std::vector<Sent> requests;
  Clock::time_point start;
  Clock::time_point end;
  double cpu_s = 0.0;
  std::size_t completed = 0;

  double wall_s() const { return seconds_between(start, end); }
};

using SubmitFn = std::function<std::future<gs::Tensor>(gs::Tensor)>;
using EventFn = std::function<void(const Event&)>;

/// Sends `events` on schedule (sorted by at_s), then waits for every reply.
/// With tracing on, each submit call sits in a span named `submit_span`, and
/// each request gets a "request" span from due time to observed completion;
/// both carry the request's id.
Phase run_open_loop(const std::vector<Event>& events, const SamplePool& pool,
                    const SubmitFn& submit, const EventFn& on_event,
                    const char* submit_span);

/// Keeps kInFlight requests outstanding for `seconds` (or, when
/// `max_requests` is nonzero, until that many were sent), then drains.
/// Samples cycle through `order`.
Phase run_closed_loop(double seconds, const std::vector<std::size_t>& order,
                      const SamplePool& pool, const SubmitFn& submit,
                      const char* submit_span, std::size_t max_requests = 0);

/// Closed-loop warm-up traffic: the first forwards run markedly slower than
/// steady state.
void warm_up(const SamplePool& pool, std::uint64_t seed,
             const SubmitFn& submit);

/// A stretch [from_s, to_s) of an open-loop schedule at one arrival rate.
struct RateSegment {
  double rate = 0.0;  ///< arrivals per second
  double from_s = 0.0;
  double to_s = 0.0;
};
/// Seeded Poisson arrivals over consecutive `segments`.
std::vector<Event> poisson_arrivals(std::uint64_t seed,
                                    const std::vector<RateSegment>& segments);
/// Seeded sample order of `n` requests over the pool.
std::vector<std::size_t> sample_order(std::uint64_t seed, std::size_t n);

/// Reference logits of every pool sample: one batch-1 Executor::forward each.
std::vector<gs::Tensor> reference_logits(const gs::runtime::Executor& executor,
                                         const SamplePool& pool);
bool bitwise_equal(const gs::Tensor& a, const gs::Tensor& b);
/// Share of pool samples whose top-1 class in `logits` equals the top-1 of
/// `net`'s digital forward — how faithfully a chip runs the network.
double digital_agreement(const std::vector<gs::Tensor>& logits,
                         gs::nn::Network& net, const SamplePool& pool);

/// Latency percentile over the completed requests of `phases`.
double latency_ms(const std::vector<const Phase*>& phases, double q);
/// Completed within kLatencyLimitMs ÷ attempted, over `phases`.
double slo_attainment(const std::vector<const Phase*>& phases);

/// Median wall time of a direct Executor::forward at batch `batch`, in µs,
/// after a warm-up.
double forward_us(const gs::runtime::Executor& executor,
                  const SamplePool& pool, std::size_t batch, int reps);

/// The per-layer executor metrics: forward time at batch 1 and 32, the
/// derived ns per analog MVM, and the program's per-sample conversion counts.
void add_executor_metrics(Result& result,
                          const gs::runtime::Executor& executor,
                          const SamplePool& pool);

/// Where a traced run writes its span log (under .bench_build/).
std::string span_path(const Options& options);

/// Open-loop arrival rate of the BatchingServer workloads, about a third of
/// the closed-loop capacity on a 4-core host (mean batch ≈ 2).
constexpr double kOpenRate = 600.0;
/// A run's measured time is split into kRounds rounds, each an open-loop
/// slice (kOpenShare of the round) followed by a closed-loop slice. Host
/// speed on a shared VM swings by ±15% within half a second; interleaving
/// spreads both load shapes over the whole run.
constexpr std::size_t kRounds = 8;
constexpr double kOpenShare = 0.5;

/// Requests completed and batches executed (a counter delta).
struct BatchCounts {
  std::size_t completed = 0;
  std::size_t batches = 0;
  double mean() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(completed) /
                              static_cast<double>(batches);
  }
};

/// The measured load of one run: the open- and closed-loop slice of every
/// round, the engine's completions and batches summed per load shape, and
/// its counters before and after the drive.
struct LoadRun {
  std::vector<Phase> open;
  std::vector<Phase> closed;
  std::vector<bool> traced;  ///< per round: recorded into the span log
  BatchCounts open_counts;
  BatchCounts closed_counts;
  gs::runtime::ServerStats first;
  gs::runtime::ServerStats last;

  std::size_t requests() const;
  std::size_t completed() const;
  /// Rejected + shed + failed, from the engine's counters.
  std::size_t dropped() const;
  std::vector<const Phase*> open_phases() const;
  /// Process CPU ÷ completions of round `r`, both load shapes, in µs.
  double cpu_us_per_req(std::size_t r) const;
};

using StatsFn = std::function<gs::runtime::ServerStats()>;
/// Open-loop events of round `round`, spanning `seconds`.
using OpenEventsFn =
    std::function<std::vector<Event>(std::size_t round, double seconds)>;

/// Runs kRounds rounds over `seconds` through `submit`, reading the
/// engine's counters through `stats` at every slice boundary. With a span
/// log (a traced run) it runs 2 × kRounds rounds of the same length over
/// twice the time and records only the even ones, so the traced rounds
/// interleave with untraced ones and trace_overhead_pct can compare them.
LoadRun drive_rounds(double seconds, SpanLog* log, std::uint64_t seed,
                     const SamplePool& pool, const SubmitFn& submit,
                     const StatsFn& stats, const OpenEventsFn& open_events,
                     const EventFn& on_event, const char* submit_span);

/// Completed requests whose row `row_is_correct` rejects.
std::size_t count_mismatches(
    const LoadRun& run, const std::function<bool(const Sent&)>& row_is_correct);

/// Output check of every serving run: requests sent = completed + rejected +
/// shed + failed, and the engine's completions equal the generator's. Adds
/// the measured requests to result.attempted / result.failed.
void check_accounting(Result& result, const LoadRun& run);

/// slo_attainment over every open-loop request; capacity_rps (closed-loop
/// completions ÷ closed-loop wall time) and cpu_us_per_req (process CPU ÷
/// completions, both load shapes), each over the whole run.
void add_serving_metrics(Result& result, const LoadRun& run);

/// Per-layer metrics of the load itself: open-loop latency p50 and p99, the
/// median time inside the engine's submit (`submit_metric`), generator
/// lateness, mean batch and batch count per load shape, dropped requests,
/// the open loop's queue + coalescing wait (latency p50 minus a direct
/// forward at its mean batch), and the tracing overhead.
void add_load_layer_metrics(Result& result, const LoadRun& run,
                            const gs::runtime::Executor& executor,
                            const SamplePool& pool,
                            const std::string& submit_metric);

/// One network compiled (ideal device) and served by a BatchingServer in
/// the production config on a private kServerThreads executor pool.
class Deployment {
 public:
  /// Compiles, starts the server, and warms it up with closed-loop traffic.
  Deployment(const gs::nn::Network& net, const SamplePool& pool,
             std::uint64_t seed);
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  const gs::runtime::CrossbarProgram& program() const { return program_; }
  const gs::runtime::Executor& executor() const { return *executor_; }
  gs::runtime::BatchingServer& server() { return *server_; }

 private:
  gs::runtime::CrossbarProgram program_;
  std::unique_ptr<gs::ThreadPool> pool_;
  std::unique_ptr<gs::runtime::Executor> executor_;
  std::unique_ptr<gs::runtime::BatchingServer> server_;
};

/// drive_rounds over a Deployment with seeded Poisson arrivals at
/// kOpenRate.
LoadRun drive_deployment(Deployment& deployment, const SamplePool& pool,
                         std::uint64_t seed, double seconds, SpanLog* log);

/// Output checks of a BatchingServer run: every served row bitwise-equals
/// Executor::forward of its sample on a separately compiled program, and
/// check_accounting.
void check_deployment(Result& result, const LoadRun& run,
                      const std::vector<gs::Tensor>& reference);

}  // namespace perfbench
