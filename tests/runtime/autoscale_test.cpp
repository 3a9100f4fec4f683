// Elastic serving: the autoscale controller and the per-tenant fairness cap.
//
// The controller's decisions must be pure functions of the counters sampled
// at each tick, so every test drives ticks manually against PAUSED
// dispatchers — the queue state each tick sees is exactly what the test
// submitted, and the resulting decision log (and its checksum) is asserted
// bitwise. The controller samples only its own server's queues and
// counters, so fleets sharing a metrics registry do not steer each other.
#include "runtime/shard.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "nn/dense.hpp"
#include "obs/metrics.hpp"
#include "obs/serving_metrics.hpp"
#include "runtime/health.hpp"

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

/// Heavy stuck-at damage: quarantines on the first probe.
hw::FaultModelConfig heavy_faults(std::uint64_t seed = 5) {
  hw::FaultModelConfig faults;
  faults.stuck_rate = 0.2;
  faults.stuck_at_gmax_fraction = 1.0;
  faults.seed = seed;
  return faults;
}

/// Base elastic config: one initial replica, headroom to three, deterministic
/// manual ticks (no maintenance thread), isolated metrics.
ShardConfig elastic_config(obs::Registry& registry) {
  ShardConfig config;
  config.replicas = 1;
  config.seed_stride = 0;
  config.steal_work = false;
  config.batching.observability.registry = &registry;
  config.autoscale.enabled = true;
  config.autoscale.min_replicas = 1;
  config.autoscale.max_replicas = 3;
  config.autoscale.scale_up_depth = 4.0;
  config.autoscale.up_ticks = 1;
  config.autoscale.scale_down_depth = 0.0;
  config.autoscale.down_ticks = 2;
  return config;
}

TEST(AutoscaleTest, ScaleUpOnSustainedQueueDepth) {
  nn::Network net = small_net();
  obs::Registry registry;
  ShardConfig config = elastic_config(registry);
  config.autoscale.up_ticks = 2;  // depth must persist across two ticks
  ShardedServer server(net, Shape{64}, CompileOptions{}, config);
  ASSERT_EQ(server.active_replica_count(), 1u);

  server.set_paused(true);
  std::vector<std::future<Tensor>> futures;
  for (std::uint64_t s = 0; s < 8; ++s) {
    futures.push_back(server.submit(random_sample(s)));
  }

  // Tick 1: depth 8 per one replica >= 4 is an up signal, but the streak is
  // below up_ticks — the controller holds.
  AutoscaleDecision first = server.autoscale_tick_now();
  EXPECT_EQ(first.tick, 1u);
  EXPECT_EQ(first.queue_depth, 8u);
  EXPECT_EQ(first.active_replicas, 1u);
  EXPECT_EQ(first.action, AutoscaleAction::kHold);
  EXPECT_EQ(server.active_replica_count(), 1u);

  // Tick 2: the sustained signal acts — the lowest inactive slot (1) is
  // compiled, canary-admitted, and joins placement.
  AutoscaleDecision second = server.autoscale_tick_now();
  EXPECT_EQ(second.action, AutoscaleAction::kUp);
  EXPECT_EQ(second.target, 1u);
  EXPECT_EQ(server.active_replica_count(), 2u);

  server.set_paused(false);
  for (auto& f : futures) EXPECT_EQ(f.get().numel(), 10u);
  server.shutdown();
  const ShardStats stats = server.stats();
  EXPECT_EQ(stats.aggregate.completed, 8u);
  EXPECT_EQ(stats.autoscale_ups, 1u);
  EXPECT_EQ(stats.autoscale_downs, 0u);
  EXPECT_TRUE(stats.replicas[1].active);
  EXPECT_FALSE(stats.replicas[2].active);  // headroom slot never activated
}

TEST(AutoscaleTest, ScaleDownOnIdleClampsAtMinReplicas) {
  nn::Network net = small_net();
  obs::Registry registry;
  ShardConfig config = elastic_config(registry);
  config.replicas = 2;  // start wide, no traffic at all
  ShardedServer server(net, Shape{64}, CompileOptions{}, config);
  ASSERT_EQ(server.active_replica_count(), 2u);

  // Empty queues: tick 1 builds the down streak, tick 2 acts. Ties retire
  // the HIGHEST index so the active set stays packed toward low slots.
  EXPECT_EQ(server.autoscale_tick_now().action, AutoscaleAction::kHold);
  const AutoscaleDecision down = server.autoscale_tick_now();
  EXPECT_EQ(down.action, AutoscaleAction::kDown);
  EXPECT_EQ(down.target, 1u);
  EXPECT_EQ(server.active_replica_count(), 1u);

  // Still idle, but the fleet is at min_replicas: the clamp holds forever.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(server.autoscale_tick_now().action, AutoscaleAction::kHold);
  }
  EXPECT_EQ(server.active_replica_count(), 1u);

  // The surviving replica still serves.
  EXPECT_EQ(server.infer(random_sample(1)).numel(), 10u);
  server.shutdown();
  EXPECT_EQ(server.stats().autoscale_downs, 1u);
}

TEST(AutoscaleTest, ScaleUpClampsAtMaxReplicas) {
  nn::Network net = small_net();
  obs::Registry registry;
  ShardConfig config = elastic_config(registry);
  config.autoscale.max_replicas = 2;
  config.autoscale.scale_up_depth = 1.0;
  ShardedServer server(net, Shape{64}, CompileOptions{}, config);
  EXPECT_EQ(server.replica_count(), 2u);  // capacity == max_replicas

  server.set_paused(true);
  std::vector<std::future<Tensor>> futures;
  for (std::uint64_t s = 0; s < 6; ++s) {
    futures.push_back(server.submit(random_sample(s)));
  }
  EXPECT_EQ(server.autoscale_tick_now().action, AutoscaleAction::kUp);
  EXPECT_EQ(server.active_replica_count(), 2u);

  // The up signal persists (the queue is still deep) but the fleet is at
  // capacity: the controller holds instead of acting.
  const AutoscaleDecision clamped = server.autoscale_tick_now();
  EXPECT_EQ(clamped.action, AutoscaleAction::kHold);
  EXPECT_EQ(clamped.active_replicas, 2u);
  EXPECT_EQ(server.active_replica_count(), 2u);

  server.set_paused(false);
  for (auto& f : futures) EXPECT_EQ(f.get().numel(), 10u);
  server.shutdown();
}

TEST(AutoscaleTest, NoScalingWhileAnyReplicaQuarantined) {
  nn::Network net = small_net();
  obs::Registry registry;
  ShardConfig config = elastic_config(registry);
  config.replicas = 2;
  config.autoscale.scale_up_depth = 1.0;
  config.auto_recalibrate = false;
  ShardedServer server(net, Shape{64}, CompileOptions{}, config);

  server.set_paused(true);
  std::vector<std::future<Tensor>> futures;
  for (std::uint64_t s = 0; s < 8; ++s) {
    futures.push_back(server.submit(random_sample(s)));
  }
  server.inject_replica_faults(1, heavy_faults());
  server.probe_now(1);
  ASSERT_EQ(server.health(1), ReplicaHealth::kQuarantined);

  // Deep queue + an up signal that would otherwise fire — but the fault
  // loop owns the fleet: quarantine freezes scaling and resets streaks.
  const AutoscaleDecision held = server.autoscale_tick_now();
  EXPECT_TRUE(held.quarantine_hold);
  EXPECT_EQ(held.action, AutoscaleAction::kHold);
  EXPECT_EQ(server.active_replica_count(), 2u);

  // Recalibration rejoins the replica; the next sustained signal scales.
  EXPECT_TRUE(server.recalibrate_now(1));
  const AutoscaleDecision after = server.autoscale_tick_now();
  EXPECT_FALSE(after.quarantine_hold);
  EXPECT_EQ(after.action, AutoscaleAction::kUp);
  EXPECT_EQ(after.target, 2u);

  server.set_paused(false);
  for (auto& f : futures) EXPECT_EQ(f.get().numel(), 10u);
  server.shutdown();
}

TEST(AutoscaleTest, DecisionLogReplaysBitwise) {
  nn::Network net = small_net();
  // The same scripted traffic against two fresh fleets must produce
  // bitwise-equal decision logs, logits and counters — at any thread
  // budget; perturbing one submission must change the log.
  struct Replay {
    std::uint64_t decisions = 0;
    std::uint64_t fingerprint = 0;  ///< logits checksums, then counters
  };
  const auto run_script = [&](std::size_t burst, std::size_t threads) {
    obs::Registry registry;
    ShardConfig config = elastic_config(registry);
    config.total_threads = threads;
    ShardedServer server(net, Shape{64}, CompileOptions{}, config);
    server.set_paused(true);
    std::vector<std::future<Tensor>> futures;
    for (std::uint64_t s = 0; s < burst; ++s) {
      futures.push_back(server.submit(random_sample(s)));
    }
    server.autoscale_tick_now();  // kUp at burst >= 4
    for (std::uint64_t s = 0; s < 3; ++s) {
      futures.push_back(server.submit(random_sample(100 + s)));
    }
    server.autoscale_tick_now();
    server.autoscale_tick_now();
    server.set_paused(false);
    Replay replay;
    const auto fold = [&](std::uint64_t value) {
      replay.fingerprint = (replay.fingerprint ^ value) * 1099511628211ULL;
    };
    for (auto& f : futures) fold(tensor_checksum(f.get()));
    server.shutdown();
    const std::vector<AutoscaleDecision> log = server.autoscale_log();
    EXPECT_EQ(log.size(), 3u);
    const ShardStats stats = server.stats();
    for (const std::size_t counter :
         {stats.aggregate.completed, stats.aggregate.rejected,
          stats.autoscale_ups, stats.autoscale_downs, stats.drained}) {
      fold(counter);
    }
    replay.decisions = server.autoscale_log_checksum();
    return replay;
  };

  const Replay first = run_script(8, 1);
  const Replay replay = run_script(8, 1);
  const Replay wide = run_script(8, 4);
  const Replay perturbed = run_script(7, 1);
  EXPECT_EQ(first.decisions, replay.decisions);
  EXPECT_EQ(first.fingerprint, replay.fingerprint);
  EXPECT_EQ(first.decisions, wide.decisions);
  EXPECT_EQ(first.fingerprint, wide.fingerprint);
  EXPECT_NE(first.decisions, perturbed.decisions);
}

TEST(AutoscaleTest, ElasticFleetHitsMoreDeadlinesThanFixedReplica) {
  // A scripted burst against one fixed replica and an elastic fleet of 1..3
  // at the same thread budget. Per tick: dispatch freezes, the tick's
  // arrivals are submitted with a lax deadline, the controller ticks, and
  // every future resolves before the next tick. Each replica queues 8, so
  // burst arrivals beyond the active replicas' queues are rejected: the
  // fixed replica rejects 12 per burst tick, while the elastic fleet scales
  // up as its queues fill and absorbs the later burst ticks.
  nn::Network net = small_net();
  const std::size_t arrivals[] = {4, 20, 20, 20, 4};
  const auto run = [&](bool elastic) {
    obs::Registry registry;
    ShardConfig config = elastic_config(registry);
    config.autoscale.enabled = elastic;
    config.total_threads = 3;
    config.batching.max_queue_depth = 8;
    ShardedServer server(net, Shape{64}, CompileOptions{}, config);
    std::uint64_t next = 0;
    for (const std::size_t count : arrivals) {
      server.set_paused(true);
      std::vector<std::future<Tensor>> futures;
      for (std::size_t i = 0; i < count; ++i) {
        futures.push_back(server.submit(
            random_sample(next++), {.deadline = std::chrono::seconds(30)}));
      }
      if (elastic) server.autoscale_tick_now();
      server.set_paused(false);
      for (auto& f : futures) {
        try {
          (void)f.get();
        } catch (const std::runtime_error&) {
          // queue-full rejection: counted by the server
        }
      }
    }
    server.shutdown();
    return server.stats();
  };

  const ShardStats fixed = run(/*elastic=*/false);
  const ShardStats scaled = run(/*elastic=*/true);
  EXPECT_EQ(fixed.autoscale_ups, 0u);
  EXPECT_GE(scaled.autoscale_ups, 1u);
  EXPECT_EQ(fixed.aggregate.deadline_hits, fixed.aggregate.completed);
  EXPECT_EQ(scaled.aggregate.deadline_hits, scaled.aggregate.completed);
  EXPECT_GT(scaled.aggregate.deadline_hits, fixed.aggregate.deadline_hits);
}

TEST(AutoscaleTest, ControllerInputsAgreeWithInternalCounters) {
  nn::Network net = small_net();
  obs::Registry registry;
  ShardConfig config = elastic_config(registry);
  ShardedServer server(net, Shape{64}, CompileOptions{}, config);

  // Deadlined traffic: every executed request decides a hit (lax deadline).
  std::vector<std::future<Tensor>> futures;
  for (std::uint64_t s = 0; s < 6; ++s) {
    futures.push_back(server.submit(random_sample(s),
                                    {.deadline = std::chrono::seconds(30)}));
  }
  for (auto& f : futures) f.get();

  // The controller reads the internal counters; the exported registry
  // counters equal them exactly, so the tick's deltas match what stats()
  // and the dashboards report.
  const AutoscaleDecision decision = server.autoscale_tick_now();
  const ShardStats stats = server.stats();
  EXPECT_EQ(stats.aggregate.deadline_hits, 6u);
  EXPECT_EQ(decision.deadline_hits_delta, 6u);
  EXPECT_EQ(decision.deadline_misses_delta, stats.aggregate.deadline_misses);
  // A second bundle against the same registry resolves to the SAME children
  // (shared by name + labels): the exported values equal the stats.
  obs::ServingMetrics probe(registry, "sharded");
  EXPECT_EQ(static_cast<std::size_t>(probe.deadline_hits.value()),
            stats.aggregate.deadline_hits);
  EXPECT_EQ(static_cast<std::size_t>(probe.completed.value()),
            stats.aggregate.completed);
  server.shutdown();
}

TEST(AutoscaleTest, FleetsSharingARegistryDecideOnTheirOwnTraffic) {
  // Two elastic fleets on one registry share its engine="sharded" children.
  // Fleet B serves deadlined traffic, then builds a backlog behind a pause;
  // idle fleet A must neither see B's depth nor count B's deadline hits.
  nn::Network net = small_net();
  obs::Registry registry;
  ShardedServer fleet_a(net, Shape{64}, CompileOptions{},
                        elastic_config(registry));
  ShardedServer fleet_b(net, Shape{64}, CompileOptions{},
                        elastic_config(registry));

  for (std::uint64_t s = 0; s < 3; ++s) {
    EXPECT_EQ(
        fleet_b.submit(random_sample(s), {.deadline = std::chrono::seconds(30)})
            .get()
            .numel(),
        10u);
  }
  fleet_b.set_paused(true);
  std::vector<std::future<Tensor>> backlog;
  for (std::uint64_t s = 0; s < 8; ++s) {
    backlog.push_back(fleet_b.submit(random_sample(10 + s)));
  }

  const AutoscaleDecision idle = fleet_a.autoscale_tick_now();
  EXPECT_EQ(idle.queue_depth, 0u);
  EXPECT_EQ(idle.deadline_hits_delta, 0u);
  EXPECT_EQ(idle.action, AutoscaleAction::kHold);
  EXPECT_EQ(fleet_a.active_replica_count(), 1u);

  const AutoscaleDecision busy = fleet_b.autoscale_tick_now();
  EXPECT_EQ(busy.queue_depth, 8u);
  EXPECT_EQ(busy.deadline_hits_delta, 3u);
  EXPECT_EQ(busy.action, AutoscaleAction::kUp);

  fleet_b.set_paused(false);
  for (auto& f : backlog) EXPECT_EQ(f.get().numel(), 10u);
}

TEST(FairnessTest, AdversarialTenantHitsItsCapWhileOthersKeepPlacing) {
  nn::Network net = small_net();
  ShardConfig config;
  config.replicas = 1;
  config.max_inflight_per_tenant = 2;
  ShardedServer server(net, Shape{64}, CompileOptions{}, config);

  server.set_paused(true);
  RequestOptions hog;
  hog.tenant = 7;
  RequestOptions polite;
  polite.tenant = 9;

  // The adversarial tenant floods: its first two requests hold the cap, the
  // rest bounce off it — without consuming any queue slot.
  std::vector<std::future<Tensor>> accepted;
  std::vector<std::future<Tensor>> capped;
  for (std::uint64_t s = 0; s < 5; ++s) {
    auto f = server.submit(random_sample(s), hog);
    (s < 2 ? accepted : capped).push_back(std::move(f));
  }
  // The polite tenant is unaffected by the hog's rejections.
  for (std::uint64_t s = 10; s < 12; ++s) {
    accepted.push_back(server.submit(random_sample(s), polite));
  }
  server.set_paused(false);

  for (auto& f : accepted) EXPECT_EQ(f.get().numel(), 10u);
  for (auto& f : capped) {
    try {
      f.get();
      FAIL() << "expected a tenant-cap rejection";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("tenant"), std::string::npos);
    }
  }
  server.shutdown();

  const ShardStats stats = server.stats();
  EXPECT_EQ(stats.aggregate.completed, 4u);
  EXPECT_EQ(stats.tenant_rejected, 3u);
  // Tenant rejections are a subset of the rejected counter.
  EXPECT_EQ(stats.aggregate.rejected, 3u);
}

TEST(FairnessTest, TenantCapReleasesAsRequestsComplete) {
  nn::Network net = small_net();
  ShardConfig config;
  config.replicas = 1;
  config.max_inflight_per_tenant = 1;
  ShardedServer server(net, Shape{64}, CompileOptions{}, config);

  RequestOptions options;
  options.tenant = 3;
  // Serial blocking requests never overlap: the cap of one is never hit —
  // completion must RELEASE the tenant's slot (queued AND executing).
  for (std::uint64_t s = 0; s < 4; ++s) {
    EXPECT_EQ(server.submit(random_sample(s), options).get().numel(), 10u);
  }
  server.shutdown();
  const ShardStats stats = server.stats();
  EXPECT_EQ(stats.aggregate.completed, 4u);
  EXPECT_EQ(stats.tenant_rejected, 0u);
}

}  // namespace
}  // namespace gs::runtime
