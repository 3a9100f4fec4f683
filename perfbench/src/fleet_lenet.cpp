// fleet_lenet: the parts of the serving tier serve_lenet skips — a
// ShardedServer with 2 replicas at serve_lenet's total thread budget, work
// stealing on, on a chip with converters (64-level cells, 255-level DAC,
// 4095-level ADC; odd converter level counts keep the tile-skip proofs
// valid). Open-loop slices are seeded and bursty, with peaks under the
// fleet's capacity; closed-loop slices follow as in serve_lenet.
//
// In the fifth round the generator thread also drives the replica
// lifecycle: stuck-at faults injected into replica 1, canary probes at a
// fixed period until the replica is quarantined, then a recalibration.
// Reprogramming one chip runs beside forwards on the other. Autoscaling is
// left out: its ticks read the live queue depth, so scale events would
// differ from run to run.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "runtime/health.hpp"
#include "runtime/shard.hpp"
#include "serving.hpp"

namespace perfbench {

namespace {

using namespace gs;

constexpr double kBaseRate = 225.0;      ///< arrivals per second off-burst
constexpr double kBurstRate = 450.0;     ///< inside a burst (under capacity)
constexpr double kBurstShare = 0.25;     ///< of every open-loop slice
constexpr std::size_t kLifecycleRound = kRounds / 2;
/// Injection time and probe period as shares of that round's open slice
/// (50 ms and 100 ms at the benchmark's 8-s runs), so the replica is
/// quarantined and rejoins inside the slice at any run length.
constexpr double kInjectAt = 0.1;
constexpr double kProbePeriod = 0.2;

enum EventKind { kInject = 1, kProbeTick = 2 };

runtime::CompileOptions chip_options() {
  runtime::CompileOptions options;
  options.analog.levels = 64;
  options.converters.dac_levels = 255;
  options.converters.adc_levels = 4095;
  return options;
}

runtime::ShardConfig fleet_config() {
  runtime::ShardConfig config;
  config.replicas = 2;
  config.total_threads = kServerThreads;
  config.seed_stride = 0;  // identical clean chips: one clean reference
  config.steal_work = true;
  // probe_interval stays 0: no maintenance thread runs, so probes and
  // recalibration happen only when the generator calls them.
  config.batching.max_batch = kMaxBatch;
  config.batching.max_delay = kCoalesce;
  return config;
}

hw::FaultModelConfig fault_event(std::uint64_t seed) {
  hw::FaultModelConfig faults;
  faults.stuck_rate = 0.05;
  faults.stuck_at_gmax_fraction = 1.0;
  faults.seed = derive_stream_seed(seed, "perfbench:faults");
  return faults;
}

/// Seeded Poisson arrivals over [0, seconds) whose rate steps up from
/// kBaseRate to kBurstRate for one burst at a seeded offset.
std::vector<Event> bursty_arrivals(std::uint64_t seed, double seconds) {
  Rng rng = derive_stream(seed, "perfbench:burst");
  const double from = rng.uniform(0.0, (1.0 - kBurstShare) * seconds);
  const double to = from + kBurstShare * seconds;
  return poisson_arrivals(seed, {{kBaseRate, 0.0, from},
                                 {kBurstRate, from, to},
                                 {kBaseRate, to, seconds}});
}

/// The scripted lifecycle of replica 1, driven from the generator thread.
struct Lifecycle {
  enum class Stage { kHealthy, kFaulty, kQuarantined, kRejoined };
  Stage stage = Stage::kHealthy;
  Clock::time_point injected;
  Clock::time_point rejoined;
  runtime::FaultInjectionReport report;
  double inject_ms = 0.0;
  double probe_ms = 0.0;
  std::size_t probes = 0;
  double recalibrate_ms = 0.0;

  void on_event(runtime::ShardedServer& server, const Event& e,
                const hw::FaultModelConfig& faults) {
    const auto t0 = Clock::now();
    if (e.kind == kInject && stage == Stage::kHealthy) {
      {
        Scope span("runtime.shard.inject");
        report = server.inject_replica_faults(1, faults);
      }
      injected = t0;
      inject_ms = 1e3 * seconds_between(t0, Clock::now());
      stage = Stage::kFaulty;
    } else if (e.kind == kProbeTick && stage == Stage::kFaulty) {
      {
        Scope span("runtime.shard.probe");
        server.probe_now(1);
      }
      probe_ms += 1e3 * seconds_between(t0, Clock::now());
      ++probes;
      if (server.health(1) == runtime::ReplicaHealth::kQuarantined) {
        stage = Stage::kQuarantined;
      }
    } else if (e.kind == kProbeTick && stage == Stage::kQuarantined) {
      bool rejoined_now = false;
      {
        Scope span("runtime.shard.recalibrate");
        rejoined_now = server.recalibrate_now(1);
      }
      rejoined = Clock::now();
      recalibrate_ms = 1e3 * seconds_between(t0, rejoined);
      if (rejoined_now) stage = Stage::kRejoined;
    }
  }

  double fault_window_ms() const {
    return 1e3 * seconds_between(injected, rejoined);
  }
};

std::vector<Event> open_slice_events(std::uint64_t seed, std::size_t round,
                                     double seconds) {
  std::vector<Event> events = bursty_arrivals(
      derive_stream_seed(seed, "perfbench:round", round), seconds);
  if (round == kLifecycleRound) {
    Event inject;
    inject.at_s = kInjectAt * seconds;
    inject.kind = kInject;
    events.push_back(inject);
    for (double t = (kInjectAt + kProbePeriod) * seconds; t < seconds;
         t += kProbePeriod * seconds) {
      Event tick;
      tick.at_s = t;
      tick.kind = kProbeTick;
      events.push_back(tick);
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) {
                       return a.at_s < b.at_s;
                     });
  }
  return events;
}

struct FleetRun {
  LoadRun load;
  Lifecycle lifecycle;
};

FleetRun drive_fleet(runtime::ShardedServer& server, const SamplePool& pool,
                     std::uint64_t seed, double seconds, SpanLog* log) {
  const hw::FaultModelConfig faults = fault_event(seed);
  FleetRun run;
  run.load = drive_rounds(
      seconds, log, seed, pool,
      [&server](Tensor s) { return server.submit(std::move(s)); },
      [&server] { return server.stats().aggregate; },
      [seed](std::size_t round, double open_s) {
        return open_slice_events(seed, round, open_s);
      },
      [&](const Event& e) { run.lifecycle.on_event(server, e, faults); },
      "runtime.shard.submit");
  return run;
}

bool overlaps(const Sent& s, Clock::time_point from, Clock::time_point to) {
  return s.sent <= to && s.done >= from;
}

}  // namespace

Result run_fleet_lenet(const Options& options) {
  Result result;
  std::unique_ptr<SpanLog> log;
  if (options.trace) log = std::make_unique<SpanLog>();
  const runtime::CompileOptions chip = chip_options();

  // Set-up, as in serve_lenet: the served network (pipeline_s), the
  // request pool, the replica compiles and canaries, the dispatchers and
  // the warm-up.
  const auto start = Clock::now();
  ServedModel model = build_served_lenet(options.seed);
  const double build_s = seconds_between(start, Clock::now());
  const SamplePool pool = make_sample_pool(options.seed);
  std::unique_ptr<runtime::ShardedServer> server;
  {
    Scope span("runtime.compile");
    server = std::make_unique<runtime::ShardedServer>(
        model.net, pool.samples.front().shape(), chip, fleet_config());
  }
  warm_up(pool, options.seed,
          [&server](Tensor x) { return server->submit(std::move(x)); });
  const double setup_s = seconds_between(start, Clock::now());

  const runtime::ShardStats before = server->stats();
  const FleetRun run =
      drive_fleet(*server, pool, options.seed, options.seconds, log.get());
  const runtime::ShardStats stats = server->stats();

  // References: the clean chip, and a copy with replica 1's fault
  // realisation (same seed, same "replica1:" label).
  const Shape& shape = pool.samples.front().shape();
  const runtime::CrossbarProgram clean =
      runtime::compile(model.net, shape, chip);
  runtime::CrossbarProgram faulty = clean;
  runtime::inject_faults(faulty, fault_event(options.seed), "replica1:");
  const runtime::Executor clean_executor(clean);
  const runtime::Executor faulty_executor(faulty);
  const std::vector<Tensor> clean_rows = reference_logits(clean_executor, pool);
  const std::vector<Tensor> faulty_rows =
      reference_logits(faulty_executor, pool);

  const Lifecycle& life = run.lifecycle;
  result.check(life.stage == Lifecycle::Stage::kRejoined,
               "replica 1 was quarantined, recalibrated and rejoined");
  result.check(clean.tile_count() == kServedTiles &&
                   clean.skipped_tile_count() == kServedSkippedTiles,
               "served program has the flagship tile geometry");
  std::size_t served_faulty = 0;
  const std::size_t mismatched = count_mismatches(run.load, [&](const Sent& s) {
    if (bitwise_equal(s.logits, clean_rows[s.sample])) return true;
    const bool faulty_ok = overlaps(s, life.injected, life.rejoined) &&
                           bitwise_equal(s.logits, faulty_rows[s.sample]);
    served_faulty += faulty_ok ? 1 : 0;
    return faulty_ok;
  });
  result.check(mismatched == 0,
               "every row equals the clean chip's, or the faulty replica's "
               "inside its fault window (" +
                   std::to_string(mismatched) + " differ)");
  check_accounting(result, run.load);
  std::printf("fleet_lenet: %zu rows served by the faulty replica inside a "
              "%.1f ms fault window\n",
              served_faulty, life.fault_window_ms());

  if (!options.trace) {
    result.add("setup_s", setup_s, "s");
    result.add("pipeline_s", build_s, "s");
    result.add("final_accuracy",
               digital_agreement(clean_rows, model.net, pool), "fraction");
    result.add("crossbar_area_ratio", model.crossbar_area_ratio, "fraction");
    result.add("routing_area_ratio", model.routing_area_ratio, "fraction");
    add_serving_metrics(result, run.load);
    return result;
  }

  const std::map<std::string, LayerTime> layers = log->fold();
  log->write(span_path(options));
  add_span_layer_metrics(result, layers, kServedTrainIters);
  result.add("runtime.program.tiles", static_cast<double>(clean.tile_count()),
             "count");
  result.add("runtime.program.skipped_tiles",
             static_cast<double>(clean.skipped_tile_count()), "count");
  // Direct forwards at one replica's share of the thread budget.
  ThreadPool replica_pool(kServerThreads / 2);
  const runtime::Executor replica_executor(clean, &replica_pool);
  add_executor_metrics(result, replica_executor, pool);
  add_load_layer_metrics(result, run.load, replica_executor, pool,
                         "runtime.shard.submit_us_p50");
  // Counters of the measured drive only.
  const runtime::ServerStats& agg = run.load.last;
  const runtime::ServerStats& agg0 = run.load.first;
  result.add("runtime.shard.inject_ms", life.inject_ms, "ms");
  result.add("runtime.shard.probe_ms",
             life.probes == 0 ? 0.0 : life.probe_ms / life.probes, "ms");
  result.add("runtime.shard.recalibrate_ms", life.recalibrate_ms, "ms");
  result.add("runtime.shard.fault_window_ms", life.fault_window_ms(), "ms");
  result.add("runtime.shard.stolen_batches",
             static_cast<double>(stats.stolen_batches - before.stolen_batches),
             "count");
  result.add("runtime.shard.retried",
             static_cast<double>(stats.retried - before.retried), "count");
  result.add("runtime.shard.shed", static_cast<double>(agg.shed - agg0.shed),
             "count");
  result.add("runtime.shard.rejected",
             static_cast<double>(agg.rejected - agg0.rejected), "count");
  result.add("runtime.shard.unskipped_tiles",
             static_cast<double>(life.report.unskipped_tiles), "count");
  return result;
}

}  // namespace perfbench
