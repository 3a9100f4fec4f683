// Pre-registered metric bundles for the serving engine.
//
// Every serving metric NAME in the repo is registered in exactly one place —
// serving_metrics.cpp — so the gslint `metric-name` rule can enforce the
// naming pattern and single-registration statically, and the catalogue in
// docs/OBSERVABILITY.md stays the single source of truth. Each
// runtime::ShardedServer constructs one ServingMetrics, labelled by the
// constructor that built it: engine="sharded" for a fleet compiled from a
// network (which adds one ReplicaMetrics per replica), engine="batching"
// for the borrowed one-replica engine behind BatchingServer (no
// ReplicaMetrics). Engine instances sharing a registry share children:
// counters aggregate across instances, gauges are last-writer (tests
// wanting isolation pass a private Registry via ObservabilityConfig).
//
// Thread-safety: construction registers against the registry mutex; the
// bundled references are lock-free afterwards (the Counter/Gauge/Histogram
// contracts).
// Determinism: pure registration — no behaviour beyond the metrics
// contracts in obs/metrics.hpp.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "obs/exec_profile.hpp"
#include "obs/metrics.hpp"

namespace gs::obs {

/// Per-engine serving + execution-profile metrics. All counters are
/// cumulative over the engine's lifetime (unlike ServerStats' bounded
/// latency window, the latency histogram here never discards).
struct ServingMetrics {
  ServingMetrics(Registry& registry, const std::string& engine);

  Counter& completed;
  Counter& rejected;
  Counter& shed;
  Counter& failed;
  Counter& admission_rejected;
  Counter& tenant_rejected;
  Counter& batches;
  Counter& batches_stolen;
  Counter& retries;
  Counter& deadline_hits;
  Counter& deadline_misses;
  Gauge& queue_depth;
  Gauge& inflight;
  Histogram& latency_ms;
  Histogram& batch_size;

  Counter& exec_forwards;
  Counter& exec_samples;
  Counter& exec_dac_conversions;
  Counter& exec_adc_conversions;
  Counter& exec_analog_mvms;
  Counter& exec_tiles_executed;
  Counter& exec_tiles_skipped;
  Counter& exec_digital_flops;
  Counter& exec_partial_sum_bytes;

  /// Adds one executed forward of `batch` samples priced by the per-sample
  /// profile (tile counts are per-sample schedule counts, summed over
  /// samples — see obs/exec_profile.hpp).
  void record_forward(const ExecProfile& per_sample, std::size_t batch);
};

/// Fleet-elasticity metrics (ShardedServer only — the autoscale controller's
/// outputs; its INPUTS are the gs_server_queue_depth gauge and the deadline
/// outcome counters above).
struct FleetMetrics {
  explicit FleetMetrics(Registry& registry);

  Gauge& active_replicas;
  Counter& scale_ups;
  Counter& scale_downs;
  Counter& drained;  ///< requests re-routed off a retiring replica
};

/// Per-replica fleet-lifecycle metrics (ShardedServer only). Health states
/// are exported numerically: 0 = healthy, 1 = degraded, 2 = quarantined.
struct ReplicaMetrics {
  ReplicaMetrics(Registry& registry, std::size_t replica);

  Gauge& queue_depth;
  Gauge& health_state;
  Counter& probes;
  Counter& fault_injections;
  Counter& recalibrations;
  /// Health transitions by destination state, indexed by the numeric state
  /// (the runtime::ReplicaHealth values).
  std::array<Counter*, 3> transitions_to;
};

}  // namespace gs::obs
