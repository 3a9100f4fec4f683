// Per-request tracing — span trees threaded through the serving stack.
//
// A Trace is the span tree of ONE request: submit → admission → queue →
// coalesce → batch → per-stage execute → reply, with steal / re-route /
// retry hops recorded as annotations on the spans they happen in (see
// docs/OBSERVABILITY.md for the span taxonomy). Spans carry steady-clock
// start/end times and key=value notes; they never touch the arithmetic of
// the request they describe.
//
// Sampling is deterministic and request-id-keyed: request r is traced iff
// sample_every > 0 and r % sample_every == 0. Request ids are assigned in
// submit order by each server, so which requests are traced is a pure
// function of the submit sequence — never of scheduling — and traced runs
// produce bitwise-identical logits to untraced runs (tracing only observes).
//
// The Tracer retains a bounded ring of completed traces (oldest evicted,
// counted in gs_trace_dropped_total) and, when bound to a Registry, exports
// gs_trace_sampled_total / gs_trace_spans_total / gs_trace_dropped_total.
//
// Thread-safety: Trace methods are safe from any number of threads (steal
// and re-route hops annotate a trace from foreign dispatchers); Tracer
// start/finish/completed are safe concurrently.
// Determinism: the sampling decision and the span TREE (names, parents,
// notes) are deterministic for a fixed submit sequence; span timestamps and
// which dispatcher executed a span are scheduling-dependent by nature and
// excluded from every determinism gate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <chrono>
#include <deque>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/annotations.hpp"
#include "common/sync.hpp"
#include "obs/metrics.hpp"

namespace gs::obs {

/// One recorded span. `parent` is 0 for the root span; `end` equals `start`
/// until end_span() runs.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  std::chrono::steady_clock::time_point start;
  std::chrono::steady_clock::time_point end;
  std::vector<std::pair<std::string, std::string>> notes;
};

/// Span tree of one request. Construction opens the root span (id 1, name
/// "request"); begin_span() opens children under any live parent.
class Trace {
 public:
  explicit Trace(std::uint64_t request_id);

  std::uint64_t request_id() const { return request_id_; }

  /// Root span id (always 1).
  static constexpr std::uint64_t kRoot = 1;

  /// Opens a child span under `parent` (which must be an existing span id)
  /// and returns its id. Ids are assigned in call order.
  std::uint64_t begin_span(const std::string& name, std::uint64_t parent);

  /// Closes `span` (records its end time). Idempotent on a closed span.
  void end_span(std::uint64_t span);

  /// Attaches a key=value note to `span`.
  void annotate(std::uint64_t span, const std::string& key,
                const std::string& value);

  /// Snapshot of all spans in creation order.
  std::vector<SpanRecord> spans() const;

  std::size_t span_count() const;

 private:
  const std::uint64_t request_id_;
  mutable Mutex mutex_;
  std::vector<SpanRecord> spans_ GS_GUARDED_BY(mutex_);
};

/// Deterministic sampler + bounded ring of completed traces.
class Tracer {
 public:
  /// `sample_every` = 0 disables tracing entirely; N traces every N-th
  /// request id. `keep` bounds the completed-trace ring. When `registry` is
  /// non-null the tracer exports its gs_trace_* counters there.
  explicit Tracer(std::size_t sample_every, std::size_t keep = 64,
                  Registry* registry = nullptr);

  std::size_t sample_every() const { return sample_every_; }

  /// The deterministic sampling decision for a request id.
  bool sampled(std::uint64_t request_id) const {
    return sample_every_ > 0 && request_id % sample_every_ == 0;
  }

  /// Starts a trace for `request_id` when sampled; nullptr otherwise.
  std::shared_ptr<Trace> start(std::uint64_t request_id);

  /// Completes a trace: closes its root span, counts its spans, and retains
  /// it in the ring (evicting + counting the oldest when full). Null-safe.
  void finish(const std::shared_ptr<Trace>& trace);

  /// Completed traces, oldest first.
  std::vector<std::shared_ptr<const Trace>> completed() const;

 private:
  const std::size_t sample_every_;
  const std::size_t keep_;
  Counter* sampled_total_ = nullptr;
  Counter* spans_total_ = nullptr;
  Counter* dropped_total_ = nullptr;

  mutable Mutex mutex_;
  std::deque<std::shared_ptr<Trace>> ring_ GS_GUARDED_BY(mutex_);
};

/// Renders a trace as an indented ASCII tree (span durations in ms, notes
/// inline) — the quickstart's human view of a request's life.
std::string render(const Trace& trace);

/// Observability knobs of the serving engine (BatchingConfig and, through
/// it, ShardConfig). Defaults keep metrics on (cheap: a handful of
/// lock-free counter bumps per batch) and tracing off.
struct ObservabilityConfig {
  /// Export serving/executor counters, gauges, and histograms.
  bool metrics = true;
  /// Trace every N-th request id (0 = tracing off). Deterministic: the
  /// sampled set depends only on submit order.
  std::size_t trace_sample_every = 0;
  /// Completed traces retained by the server-owned tracer.
  std::size_t trace_keep = 64;
  /// Registry to export to; nullptr = Registry::global(). Tests inject a
  /// private registry for isolation.
  Registry* registry = nullptr;
  /// External tracer to use instead of a server-owned one (nullptr = the
  /// server constructs its own when trace_sample_every > 0).
  Tracer* tracer = nullptr;
};

}  // namespace gs::obs
