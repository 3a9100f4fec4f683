// Observability is pure observation. The contracts under test:
//  * registry-backed counters reconcile exactly with the engines' own
//    stats() folds (no double counting, no lost events, inflight drains
//    to zero);
//  * logits are BITWISE identical with metrics + every-request tracing on
//    versus fully off;
//  * span trees stay well-formed (every parent precedes its children)
//    through the messy paths — work stealing and quarantine re-routing —
//    and the hops are annotated where they happen.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/dense.hpp"
#include "obs/exec_profile.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/server.hpp"
#include "runtime/shard.hpp"

namespace gs::runtime {
namespace {

nn::Network small_net(std::uint64_t seed = 3) {
  Rng rng(seed);
  nn::Network net;
  net.add(std::make_unique<nn::DenseLayer>("fc", 64, 10, rng));
  return net;
}

Tensor random_sample(std::uint64_t seed) {
  Tensor t(Shape{64});
  Rng rng(seed);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

/// Reference logits for one sample through a bare executor forward.
Tensor reference_logits(const Executor& executor, const Tensor& sample) {
  Tensor batch(Shape{1, 64});
  std::copy(sample.data(), sample.data() + 64, batch.data());
  Tensor logits = executor.forward(batch);
  Tensor row(Shape{logits.numel()});
  std::copy(logits.data(), logits.data() + logits.numel(), row.data());
  return row;
}

/// Heavy stuck-at-g_max damage — quarantines on the first probe.
hw::FaultModelConfig heavy_faults(std::uint64_t seed = 5) {
  hw::FaultModelConfig faults;
  faults.stuck_rate = 0.2;
  faults.stuck_at_gmax_fraction = 1.0;
  faults.seed = seed;
  return faults;
}

/// Every parent id must have been created before its children (ids are
/// creation-ordered), and every non-root parent must exist in the tree.
void expect_well_formed(const obs::Trace& trace) {
  const auto spans = trace.spans();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans[0].id, obs::Trace::kRoot);
  for (const obs::SpanRecord& span : spans) {
    if (span.id == obs::Trace::kRoot) {
      EXPECT_EQ(span.parent, 0u);
      continue;
    }
    EXPECT_LT(span.parent, span.id)
        << "parent of '" << span.name << "' created after it";
    EXPECT_GE(span.parent, obs::Trace::kRoot);
  }
}

/// The first note value for `key` across all spans; "" when absent.
std::string find_note(const obs::Trace& trace, const std::string& key) {
  for (const obs::SpanRecord& span : trace.spans()) {
    for (const auto& [k, v] : span.notes) {
      if (k == key) return v;
    }
  }
  return "";
}

bool has_span(const obs::Trace& trace, const std::string& name) {
  const auto spans = trace.spans();
  return std::any_of(spans.begin(), spans.end(),
                     [&](const obs::SpanRecord& s) { return s.name == name; });
}

TEST(ObservabilityTest, BatchingCountersReconcileWithStats) {
  nn::Network net = small_net();
  const CrossbarProgram program = compile(net, Shape{64});
  const Executor executor(program);
  const obs::ExecProfile profile = executor.profile();

  obs::Registry registry;
  BatchingConfig config;
  config.observability.registry = &registry;
  config.observability.trace_sample_every = 1;
  BatchingServer server(executor, config);

  constexpr std::uint64_t kRequests = 12;
  for (std::uint64_t s = 0; s < kRequests; ++s) {
    (void)server.infer(random_sample(s));
  }
  server.shutdown();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.latency_samples_total, kRequests);
  EXPECT_GT(stats.latency_p50_ms, 0.0);
  EXPECT_GE(stats.latency_p999_ms, stats.latency_p99_ms);
  EXPECT_LE(stats.latency_p999_ms, stats.latency_max_ms);

  const obs::Labels engine{{"engine", "batching"}};
  const auto requests = [&](const char* result) {
    return registry
        .counter("gs_server_requests_total", "",
                 obs::Labels{{"engine", "batching"}, {"result", result}})
        .value();
  };
  EXPECT_EQ(requests("completed"), stats.completed);
  EXPECT_EQ(requests("rejected"), stats.rejected);
  EXPECT_EQ(requests("shed"), stats.shed);
  EXPECT_EQ(requests("failed"), stats.failed);
  EXPECT_EQ(registry.counter("gs_server_batches_total", "", engine).value(),
            stats.batches);
  // Inflight drains to zero once every future resolved.
  EXPECT_EQ(registry.gauge("gs_server_inflight", "", engine).value(), 0.0);

  // The execution profile prices each request with the SAME per-sample
  // schedule costs the compiler reported.
  const auto exec = [&](const char* name) {
    return registry.counter(name, "", engine).value();
  };
  EXPECT_EQ(exec("gs_exec_samples_total"), kRequests);
  EXPECT_EQ(exec("gs_exec_forwards_total"),
            static_cast<std::uint64_t>(stats.batches));
  EXPECT_EQ(exec("gs_exec_dac_conversions_total"),
            profile.dac_conversions * kRequests);
  EXPECT_EQ(exec("gs_exec_adc_conversions_total"),
            profile.adc_conversions * kRequests);
  EXPECT_EQ(exec("gs_exec_analog_mvms_total"),
            profile.analog_mvms * kRequests);
  EXPECT_EQ(exec("gs_exec_tiles_executed_total"),
            profile.tiles_executed * kRequests);
  EXPECT_EQ(exec("gs_exec_tiles_skipped_total"),
            profile.tiles_skipped * kRequests);
  // Per-sample skip counts agree with the compile-time marks.
  EXPECT_EQ(profile.tiles_executed + profile.tiles_skipped,
            program.tile_count());
  EXPECT_EQ(profile.tiles_skipped, program.skipped_tile_count());

  // The latency histogram never discards: its count equals the provenance
  // counter, not the bounded window.
  for (const obs::MetricSample& sample : registry.snapshot()) {
    if (sample.name == "gs_server_latency_ms") {
      EXPECT_EQ(sample.count, stats.latency_samples_total);
    }
  }
}

TEST(ObservabilityTest, LogitsBitwiseIdenticalObservabilityOnAndOff) {
  nn::Network net = small_net();
  const CrossbarProgram program = compile(net, Shape{64});
  const Executor executor(program);

  BatchingConfig off;
  off.observability.metrics = false;
  off.observability.trace_sample_every = 0;
  BatchingServer dark(executor, off);

  obs::Registry registry;
  BatchingConfig on;
  on.observability.registry = &registry;
  on.observability.trace_sample_every = 1;  // trace EVERY request
  BatchingServer lit(executor, on);

  for (std::uint64_t s = 0; s < 16; ++s) {
    const Tensor sample = random_sample(s);
    const Tensor reference = reference_logits(executor, sample);
    const Tensor dark_logits = dark.infer(sample);
    const Tensor lit_logits = lit.infer(sample);
    ASSERT_EQ(dark_logits.numel(), reference.numel());
    ASSERT_EQ(lit_logits.numel(), reference.numel());
    EXPECT_EQ(std::memcmp(dark_logits.data(), reference.data(),
                          reference.numel() * sizeof(float)),
              0)
        << "observability OFF diverged on sample " << s;
    EXPECT_EQ(std::memcmp(lit_logits.data(), reference.data(),
                          reference.numel() * sizeof(float)),
              0)
        << "observability ON diverged on sample " << s;
  }
}

// Tracing has a fixed, deterministic cost. With metrics on and every
// request traced, each request records the same request-level spans
// whatever batch it rides in; each executed batch adds one set of
// execution-detail spans (step/stage) to its first traced request; and the
// registry grows no per-request children. The counts are pinned, so a
// change that records more per request fails here instead of drifting the
// wall-clock overhead in BENCH_runtime.json.
TEST(ObservabilityTest, TracingCostIsFixedSpansPerRequestAndBatch) {
  // request, submit, queue, batch, execute, reply.
  constexpr std::size_t kRequestSpans = 6;
  // step:fc and stage:fc — the small net compiles to one crossbar step.
  constexpr std::size_t kDetailSpans = 2;
  const auto is_detail = [](const obs::SpanRecord& span) {
    return span.name.rfind("step:", 0) == 0 ||
           span.name.rfind("stage:", 0) == 0;
  };

  nn::Network net = small_net();
  obs::Registry registry;
  ShardConfig config;
  config.replicas = 1;
  config.batching.max_batch = 8;
  config.batching.observability.registry = &registry;
  config.batching.observability.trace_sample_every = 1;
  config.batching.observability.trace_keep = 64;
  ShardedServer server(net, Shape{64}, CompileOptions{}, config);

  (void)server.infer(random_sample(0));
  const std::size_t children_after_one = registry.snapshot().size();

  // Fifteen more requests in batches of 8, 4, 1, 1 and 1.
  server.set_paused(true);
  std::vector<std::future<Tensor>> burst;
  for (std::uint64_t s = 1; s <= 12; ++s) {
    burst.push_back(server.submit(random_sample(s)));
  }
  server.set_paused(false);
  for (auto& f : burst) (void)f.get();
  for (std::uint64_t s = 13; s < 16; ++s) (void)server.infer(random_sample(s));
  server.shutdown();

  const ShardStats stats = server.stats();
  ASSERT_EQ(stats.aggregate.completed, 16u);
  EXPECT_EQ(stats.aggregate.batches, 6u);
  EXPECT_EQ(stats.aggregate.max_batch_seen, 8u);
  const auto traces = server.tracer()->completed();
  ASSERT_EQ(traces.size(), 16u);
  std::size_t detailed = 0;
  for (const auto& trace : traces) {
    const auto spans = trace->spans();
    const auto detail = static_cast<std::size_t>(
        std::count_if(spans.begin(), spans.end(), is_detail));
    EXPECT_EQ(spans.size() - detail, kRequestSpans)
        << "request " << trace->request_id();
    EXPECT_TRUE(detail == 0 || detail == kDetailSpans)
        << "request " << trace->request_id() << " holds " << detail;
    if (detail != 0) ++detailed;
  }
  EXPECT_EQ(detailed, stats.aggregate.batches);
  EXPECT_EQ(registry.counter("gs_trace_spans_total", "").value(),
            kRequestSpans * 16 + kDetailSpans * stats.aggregate.batches);
  EXPECT_EQ(registry.snapshot().size(), children_after_one);
}

TEST(ObservabilityTest, RerouteAnnotatedAndSpanTreesWellFormedUnderQuarantine) {
  nn::Network net = small_net();
  const CrossbarProgram reference = compile(net, Shape{64});
  const Executor executor(reference);

  obs::Registry registry;
  ShardConfig config;
  config.replicas = 2;
  config.seed_stride = 0;  // identical chips → replica 0 stays bitwise clean
  config.steal_work = false;
  config.batching.observability.registry = &registry;
  config.batching.observability.trace_sample_every = 1;
  config.batching.observability.trace_keep = 64;
  ShardedServer server(net, Shape{64}, CompileOptions{}, config);

  // Freeze dispatch, build the alternating 4 + 4 queue state, then
  // quarantine replica 1 so its half re-routes onto replica 0.
  server.set_paused(true);
  std::vector<Tensor> samples;
  std::vector<std::future<Tensor>> futures;
  for (std::uint64_t s = 0; s < 8; ++s) {
    samples.push_back(random_sample(s));
    futures.push_back(server.submit(samples.back()));
  }
  server.inject_replica_faults(1, heavy_faults());
  (void)server.probe_now(1);
  ASSERT_EQ(server.health(1), ReplicaHealth::kQuarantined);
  EXPECT_EQ(server.stats().retried, 4u);
  server.set_paused(false);

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Tensor logits = futures[i].get();
    const Tensor expected = reference_logits(executor, samples[i]);
    EXPECT_EQ(std::memcmp(logits.data(), expected.data(),
                          expected.numel() * sizeof(float)),
              0)
        << "request " << i;
  }
  server.shutdown();

  ASSERT_NE(server.tracer(), nullptr);
  const auto traces = server.tracer()->completed();
  ASSERT_EQ(traces.size(), 8u);
  std::size_t rerouted = 0;
  for (const auto& trace : traces) {
    expect_well_formed(*trace);
    EXPECT_EQ(find_note(*trace, "result"), "ok");
    EXPECT_TRUE(has_span(*trace, "submit"));
    EXPECT_TRUE(has_span(*trace, "queue"));
    EXPECT_TRUE(has_span(*trace, "batch"));
    EXPECT_TRUE(has_span(*trace, "reply"));
    if (find_note(*trace, "reroute") == "1->0") ++rerouted;
  }
  EXPECT_EQ(rerouted, 4u);

  // The re-route hops landed on the sharded retries counter too.
  EXPECT_EQ(registry
                .counter("gs_server_retries_total", "",
                         obs::Labels{{"engine", "sharded"}})
                .value(),
            4u);
  // Replica 1's lifecycle: one probe, one injection, quarantined state.
  const obs::Labels r1{{"replica", "1"}};
  EXPECT_EQ(registry.counter("gs_replica_fault_injections_total", "", r1)
                .value(),
            1u);
  EXPECT_EQ(registry.gauge("gs_replica_health_state", "", r1).value(), 2.0);
  EXPECT_EQ(registry
                .counter("gs_replica_health_transitions_total", "",
                         obs::Labels{{"replica", "1"}, {"to", "quarantined"}})
                .value(),
            1u);
}

TEST(ObservabilityTest, StolenBatchesAnnotateTheBatchSpan) {
  nn::Network net = small_net();
  obs::Registry registry;
  ShardConfig config;
  config.replicas = 2;
  config.seed_stride = 0;
  config.steal_work = true;
  config.batching.max_batch = 4;
  config.batching.observability.registry = &registry;
  config.batching.observability.trace_sample_every = 1;
  config.batching.observability.trace_keep = 128;
  ShardedServer server(net, Shape{64}, CompileOptions{}, config);

  // Enough traffic that stealing CAN happen; whether it does is
  // scheduling-dependent, so assert consistency, not occurrence: every
  // trace is well-formed and the stolen_from annotations agree with the
  // stolen-batch counters.
  constexpr std::uint64_t kRequests = 64;
  std::vector<std::future<Tensor>> futures;
  for (std::uint64_t s = 0; s < kRequests; ++s) {
    futures.push_back(server.submit(random_sample(s)));
  }
  for (auto& future : futures) (void)future.get();
  server.shutdown();

  const ShardStats stats = server.stats();
  EXPECT_EQ(stats.aggregate.completed, kRequests);
  EXPECT_EQ(stats.aggregate.latency_samples_total, kRequests);
  EXPECT_GE(stats.aggregate.latency_p999_ms, stats.aggregate.latency_p99_ms);

  ASSERT_NE(server.tracer(), nullptr);
  std::size_t stolen_annotated = 0;
  for (const auto& trace : server.tracer()->completed()) {
    expect_well_formed(*trace);
    EXPECT_EQ(find_note(*trace, "result"), "ok");
    if (!find_note(*trace, "stolen_from").empty()) ++stolen_annotated;
  }
  if (stats.stolen_batches == 0) {
    EXPECT_EQ(stolen_annotated, 0u);
  } else {
    EXPECT_GE(stolen_annotated, stats.stolen_batches);
  }
  EXPECT_EQ(registry
                .counter("gs_server_batches_stolen_total", "",
                         obs::Labels{{"engine", "sharded"}})
                .value(),
            stats.stolen_batches);
  EXPECT_EQ(registry
                .gauge("gs_server_inflight", "",
                       obs::Labels{{"engine", "sharded"}})
                .value(),
            0.0);
}

TEST(ObservabilityTest, DroppedRequestsFinishTheirTraces) {
  nn::Network net = small_net();
  const CrossbarProgram program = compile(net, Shape{64});
  const Executor executor(program);

  obs::Registry registry;
  BatchingConfig config;
  config.observability.registry = &registry;
  config.observability.trace_sample_every = 1;
  BatchingServer server(executor, config);
  server.shutdown();  // everything submitted from here on is rejected

  auto future = server.submit(random_sample(0));
  EXPECT_THROW((void)future.get(), std::runtime_error);

  const auto traces = server.tracer()->completed();
  ASSERT_EQ(traces.size(), 1u);
  expect_well_formed(*traces.front());
  EXPECT_EQ(find_note(*traces.front(), "result"), "rejected");
  EXPECT_EQ(registry
                .counter("gs_server_requests_total", "",
                         obs::Labels{{"engine", "batching"},
                                     {"result", "rejected"}})
                .value(),
            1u);
  EXPECT_EQ(registry
                .gauge("gs_server_inflight", "",
                       obs::Labels{{"engine", "batching"}})
                .value(),
            0.0);
}

}  // namespace
}  // namespace gs::runtime
