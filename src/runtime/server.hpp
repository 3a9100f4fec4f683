// Batched serving of one crossbar Executor — and the serving contract every
// engine replica keeps.
//
// BatchingServer is a thin facade over the repo's one serving engine,
// runtime::ShardedServer (runtime/shard.hpp), run as ONE replica over the
// borrowed Executor: no compile, no canary, no maintenance thread. The
// engine's dispatcher coalesces the queue into batches — a batch launches as
// soon as `max_batch` requests are waiting or the oldest request has waited
// `max_delay` (the latency deadline), whichever comes first — runs one
// batched Executor::forward, and completes every request's future with its
// logits row. Because the executor's DAC scales are per input vector,
// coalescing never changes a request's result: a sample returns bitwise the
// same logits at any batch composition.
//
// Overload behaviour (the robustness layer, per replica queue):
//  * the queue is kept in deadline-then-priority order (earlier deadline
//    first; equal deadlines, higher priority first; ties FIFO), so batch
//    formation serves the most urgent work first. Requests without
//    deadlines queue behind dated ones in priority order.
//  * the queue is bounded (`max_queue_depth`); a full queue rejects new
//    work at submit — EXCEPT when the new request outranks the worst-ranked
//    queued request (latest deadline, then lowest priority), in which case
//    the laggard is displaced (shed) in its favour. Overload therefore sheds
//    the work most likely to miss anyway, not the most recent arrival.
//  * requests may carry a deadline; with admission control enabled the
//    server predicts the queueing delay from the current depth and rejects
//    at submit any request it expects to miss — failing fast beats
//    accepting work it will throw away.
//  * at batch formation, requests whose deadline has already passed are
//    shed instead of executed (their futures reject immediately) — a
//    late result is worthless, the batch slot is not.
// Every rejected or shed future carries a std::runtime_error whose message
// names the reason; no future is ever left dangling (see ServerStats).
//
// The engine records per-request latency (submit → completion) and batch
// sizes; stats() folds them into throughput-style aggregates and latency
// percentiles for the serving bench (bench/runtime_serving.cpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "obs/trace.hpp"
#include "runtime/executor.hpp"

namespace gs::runtime {

class ShardedServer;

/// Deadline-based admission control knobs. Admission predicts the queueing
/// delay of a new request from the target queue's depth,
///     predicted_wait = ceil((depth + 1) / max_batch) · batch_cost,
/// and rejects at submit when now + predicted_wait exceeds the request's
/// deadline. `batch_cost` is `assumed_batch_cost` when set (fixed cost —
/// the deterministic mode the fault bench replays), otherwise an EWMA of
/// measured batch execution times.
struct AdmissionConfig {
  /// Off by default: requests without deadlines are never admission-tested,
  /// and the server behaves exactly as before this knob existed.
  bool enabled = false;
  /// Deadline applied to submit(sample) calls that do not pass one
  /// explicitly; 0 = no deadline (never expires, never admission-tested).
  std::chrono::microseconds default_deadline{0};
  /// Fixed per-batch execution cost for the wait prediction; 0 = use the
  /// EWMA of measured batch times instead.
  std::chrono::microseconds assumed_batch_cost{0};

  void validate() const;
};

/// Coalescing knobs.
struct BatchingConfig {
  std::size_t max_batch = 32;  ///< launch as soon as this many are queued
  std::chrono::microseconds max_delay{1000};  ///< oldest-request deadline
  /// Queue bound: beyond this depth, submissions are rejected (or displace
  /// a later-deadline queued request — see the overload notes above).
  std::size_t max_queue_depth = 4096;
  AdmissionConfig admission;  ///< deadline admission control (default off)
  /// Metrics/tracing knobs (obs/trace.hpp). Metrics are on by default (a
  /// handful of lock-free counter bumps per batch); tracing defaults off.
  obs::ObservabilityConfig observability;

  void validate() const;
};

/// Per-request serving options. Queue order and displacement shedding are
/// deadline-then-priority ordered; the defaults make a request behave
/// exactly like a plain submit(sample) call.
struct RequestOptions {
  /// Time allowed from submit to completion; 0 = none (the engine falls back
  /// to AdmissionConfig::default_deadline).
  std::chrono::microseconds deadline{0};
  /// Tenant owning the request. The engine enforces the per-tenant inflight
  /// cap (ShardConfig::max_inflight_per_tenant) against it; BatchingServer
  /// records it but applies no cap (its one-replica engine runs uncapped).
  std::uint64_t tenant = 0;
  /// Higher wins among equal deadlines — both for queue position and for
  /// choosing displacement victims under overload.
  int priority = 0;
};

/// Latency samples each replica retains for its percentile window.
inline constexpr std::size_t kLatencyWindow = 16384;

/// Absolute time representing "no deadline" (never expires).
inline constexpr std::chrono::steady_clock::time_point kNoDeadline =
    std::chrono::steady_clock::time_point::max();

/// Nearest-rank percentile — the ⌈q·n⌉-th smallest element of `sorted`
/// (ascending); 0 when empty.
double latency_percentile(const std::vector<double>& sorted, double q);

/// True when the nearest-rank percentile q over n samples degenerates to the
/// sample maximum — i.e. n·(1−q) < 1, so ⌈q·n⌉ == n. p99 needs ≥ 100
/// samples, p99.9 needs ≥ 1000; below that the reported tail is just the max
/// (ServerStats marks these — see docs/OBSERVABILITY.md "Small-sample
/// percentiles").
bool percentile_saturated(std::size_t n, double q);

/// Atomically folds `sample` into an EWMA accumulator with a
/// compare-exchange loop (α = `alpha`; the first sample seeds the
/// accumulator directly). Lock-free and lossless under concurrent callers —
/// a plain load→blend→store drops concurrent updates.
void ewma_record(std::atomic<double>& accumulator, double sample,
                 double alpha = 0.125);

/// Bounded ring of the most recent latency samples (kLatencyWindow per
/// replica). Not thread-safe; the engine guards it with its stats mutex.
class LatencyWindow {
 public:
  explicit LatencyWindow(std::size_t capacity) : capacity_(capacity) {}

  void record(double ms) {
    ++total_;
    if (samples_.size() < capacity_) {
      samples_.push_back(ms);
    } else {
      samples_[next_] = ms;
    }
    next_ = (next_ + 1) % capacity_;
  }

  /// Retained samples, unordered (ring layout).
  const std::vector<double>& samples() const { return samples_; }

  /// Samples EVER recorded — the percentile-provenance counter: when it
  /// exceeds samples().size(), the window has discarded (the percentiles
  /// cover only the most recent `capacity` samples).
  std::uint64_t total() const { return total_; }

 private:
  std::size_t capacity_;
  std::vector<double> samples_;
  std::size_t next_ = 0;  ///< ring write position
  std::uint64_t total_ = 0;
};

/// Serving counters; latency aggregates cover the most recent window of
/// completed requests (kLatencyWindow samples per replica), so a
/// long-running server keeps bounded memory and stats() cost.
/// Every submitted request lands in exactly one of completed / rejected /
/// shed / failed — futures never dangle.
struct ServerStats {
  std::size_t completed = 0;
  std::size_t rejected = 0;  ///< refused at submit (full / shut down / miss)
  /// Subset of `rejected` refused by admission control (predicted deadline
  /// miss) rather than by queue depth or shutdown.
  std::size_t admission_rejected = 0;
  /// Accepted but dropped before execution: deadline expired in the queue,
  /// or displaced by an earlier-deadline request under overload.
  std::size_t shed = 0;
  std::size_t failed = 0;    ///< accepted but the executor threw
  std::size_t batches = 0;   ///< successfully executed batches
  double mean_batch = 0.0;        ///< completed / batches
  std::size_t max_batch_seen = 0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_p999_ms = 0.0;
  double latency_max_ms = 0.0;
  /// Latency samples EVER recorded (percentile provenance): when this
  /// exceeds the window capacity, the percentiles above cover only the most
  /// recent kLatencyWindow samples — older ones were silently discarded
  /// before this counter existed.
  std::uint64_t latency_samples_total = 0;
  /// Small-sample markers (percentile_saturated over the retained window):
  /// true when the corresponding tail percentile degenerated to the window
  /// maximum — fewer than 100 retained samples for p99, fewer than 1000 for
  /// p99.9. SLO reporting must not gate on a saturated percentile; use the
  /// per-request deadline counters below instead.
  bool latency_p99_saturated = false;
  bool latency_p999_saturated = false;
  /// Per-request deadline outcomes over EXECUTED requests: a completed
  /// request whose result arrived by its deadline is a hit, otherwise a
  /// miss. Requests without deadlines count in neither; rejected/shed
  /// requests are tracked by their own counters. These are the inputs SLO
  /// attainment is computed from (not the windowed tail percentiles).
  std::size_t deadline_hits = 0;
  std::size_t deadline_misses = 0;
};

/// Thread-safety: submit()/infer()/stats() are safe from any number of
/// threads; shutdown() is idempotent and also runs in the destructor.
/// submit() AFTER shutdown() returns an immediately-rejected future (not
/// UB) — though calling any method on a destroyed server remains UB, as for
/// every C++ object. All of it is the engine's contract; the facade holds no
/// state of its own.
/// Determinism: results inherit the Executor contract — a sample's logits
/// are bitwise independent of batch composition, pool size, and coalescing
/// timing; only the latency statistics are timing-dependent. Observability
/// (metrics under engine="batching", deterministic request-id-keyed trace
/// sampling, execution profiling) only observes: logits are bitwise
/// identical with it on or off.
class BatchingServer {
 public:
  /// Starts the one-replica engine's dispatch thread. `executor` is borrowed
  /// and must outlive the server.
  explicit BatchingServer(const Executor& executor, BatchingConfig config = {});
  ~BatchingServer();

  BatchingServer(const BatchingServer&) = delete;
  BatchingServer& operator=(const BatchingServer&) = delete;

  /// Enqueues one sample (the program's per-sample input shape) and returns
  /// a future for its logits (rank-1, classes). `options` carries the
  /// deadline (0 = `config.admission.default_deadline`), tenant id and
  /// priority. The queue and displacement shedding order by (deadline, then
  /// priority); `tenant` is recorded on the request but no per-tenant cap
  /// applies. A full queue, a shut-down server, or a predicted deadline miss
  /// rejects: the future carries std::runtime_error naming the reason.
  std::future<Tensor> submit(Tensor sample, const RequestOptions& options = {});

  /// Blocking convenience: submit + get.
  Tensor infer(const Tensor& sample);

  /// Stops accepting work, drains the queue, joins the dispatch thread.
  /// Idempotent; also run by the destructor. Queued requests still execute
  /// (drain, not abort); expired ones are shed as usual.
  void shutdown();

  /// The engine's aggregate counters (ShardStats::aggregate).
  ServerStats stats() const;

  /// The tracer sampling this server's requests (nullptr when tracing is
  /// off) — completed span trees are read through it.
  const obs::Tracer* tracer() const;

 private:
  std::unique_ptr<ShardedServer> engine_;
};

}  // namespace gs::runtime
