// Fault-tolerant serving: the quarantine → re-route → recalibrate → rejoin
// loop, overload behaviour (admission control, displacement, shedding), and
// the promise that a shed request always fails loudly — no future ever
// resolves with logits the server cannot vouch for.
#include "runtime/shard.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "nn/dense.hpp"
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

/// Reference logits for one sample through a clean single-program executor.
Tensor reference_logits(const Executor& executor, const Tensor& sample) {
  Tensor batch(Shape{1, 64});
  std::copy(sample.data(), sample.data() + 64, batch.data());
  Tensor logits = executor.forward(batch);
  Tensor row(Shape{logits.numel()});
  std::copy(logits.data(), logits.data() + logits.numel(), row.data());
  return row;
}

/// Heavy stuck-at-g_max damage — divergence far past the default
/// quarantine threshold on the first probe.
hw::FaultModelConfig heavy_faults(std::uint64_t seed = 5) {
  hw::FaultModelConfig faults;
  faults.stuck_rate = 0.2;
  faults.stuck_at_gmax_fraction = 1.0;
  faults.seed = seed;
  return faults;
}

/// What one run of the scripted fault drill served, and its fingerprint:
/// every response's logits checksum (a sentinel per rejection) folded with
/// the fleet's final counters.
struct DrillResult {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::uint64_t fingerprint = 0;
};

/// The serving_faults scenario of BENCH_runtime.json on the small net:
///   A. healthy burst — both identical chips serve;
///   B. stuck-at event on replica 1 with requests queued — the probe
///      quarantines it and re-routes its half; `recalibrate` reprograms it;
///   C. a second event on replica 0 — with replica 1 back, the probe
///      quarantines it too and `recalibrate` heals it; without, replica 0
///      is the last active chip and serves clamped to Degraded;
///   D. a burst larger than one replica's queue — rejections without
///      recalibration.
/// Dispatch is frozen while each burst builds and every probe is manual,
/// so the run must be a pure function of `recalibrate`.
DrillResult run_fault_drill(const nn::Network& net, std::size_t total_threads,
                            bool recalibrate) {
  ShardConfig config;
  config.replicas = 2;
  config.seed_stride = 0;
  config.steal_work = false;
  config.auto_recalibrate = false;
  config.total_threads = total_threads;
  config.batching.max_queue_depth = 8;
  ShardedServer server(net, Shape{64}, CompileOptions{}, config);

  DrillResult result;
  const auto fold = [&](std::uint64_t value) {
    result.fingerprint = (result.fingerprint ^ value) * 1099511628211ULL;
  };
  std::vector<std::future<Tensor>> futures;
  std::uint64_t next = 0;
  const auto queue = [&](std::size_t count) {
    server.set_paused(true);
    for (std::size_t i = 0; i < count; ++i) {
      futures.push_back(server.submit(random_sample(next++)));
    }
  };
  const auto release = [&] {
    server.set_paused(false);
    for (auto& future : futures) {
      ++result.submitted;
      try {
        fold(tensor_checksum(future.get()));
        ++result.completed;
      } catch (const std::runtime_error&) {
        fold(0xDEADull);
      }
    }
    futures.clear();
  };

  queue(8);  // A
  release();
  queue(4);  // B
  server.inject_replica_faults(1, heavy_faults(5));
  server.probe_now(1);
  release();
  if (recalibrate) server.recalibrate_now(1);
  server.inject_replica_faults(0, heavy_faults(6));  // C
  server.probe_now(0);
  if (recalibrate) server.recalibrate_now(0);
  queue(16);  // D
  release();
  server.shutdown();

  const ShardStats stats = server.stats();
  for (const std::size_t counter :
       {stats.aggregate.completed, stats.aggregate.rejected,
        stats.aggregate.shed, stats.retried, stats.recalibrations}) {
    fold(counter);
  }
  return result;
}

TEST(FailoverTest, QuarantineReroutesQueuedRequestsToHealthyReplica) {
  nn::Network net = small_net();
  const CrossbarProgram reference = compile(net, Shape{64});
  const Executor executor(reference);

  ShardConfig config;
  config.replicas = 2;
  config.seed_stride = 0;  // identical chips: any clean replica is bitwise
                           // the reference
  config.steal_work = false;
  ShardedServer server(net, Shape{64}, CompileOptions{}, config);

  // Freeze dispatch and build an exact queue state: shortest-queue
  // placement alternates the 8 requests across the two replicas.
  server.set_paused(true);
  std::vector<Tensor> samples;
  std::vector<std::future<Tensor>> futures;
  for (std::uint64_t s = 0; s < 8; ++s) {
    samples.push_back(random_sample(s));
    futures.push_back(server.submit(samples.back()));
  }

  // Replica 1 degrades mid-flight; the probe catches it and re-routes its
  // queued half onto replica 0.
  server.inject_replica_faults(1, heavy_faults());
  const CanaryProbe probe = server.probe_now(1);
  EXPECT_FALSE(probe.bitwise_clean);
  EXPECT_EQ(server.health(1), ReplicaHealth::kQuarantined);
  EXPECT_EQ(server.health(0), ReplicaHealth::kHealthy);
  EXPECT_EQ(server.stats().retried, 4u);

  server.set_paused(false);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const Tensor logits = futures[i].get();  // no request may be lost
    const Tensor expected = reference_logits(executor, samples[i]);
    ASSERT_EQ(logits.numel(), expected.numel());
    EXPECT_EQ(std::memcmp(logits.data(), expected.data(),
                          logits.numel() * sizeof(float)),
              0)
        << "request " << i << " served with wrong logits after failover";
  }
  server.shutdown();
  const ShardStats stats = server.stats();
  EXPECT_EQ(stats.aggregate.completed, 8u);
  EXPECT_EQ(stats.aggregate.shed, 0u);
  // The quarantined replica served nothing after the re-route.
  EXPECT_EQ(stats.replicas[1].health, ReplicaHealth::kQuarantined);
}

TEST(FailoverTest, RecalibrationRestoresBitwiseCleanProgramAndRejoins) {
  nn::Network net = small_net();
  ShardConfig config;
  config.replicas = 2;
  ShardedServer server(net, Shape{64}, CompileOptions{}, config);

  const std::uint64_t clean = server.replica_program_checksum(0);
  const std::uint64_t reference = server.replica_reference_checksum(0);

  server.inject_replica_faults(0, heavy_faults());
  EXPECT_NE(server.replica_program_checksum(0), clean);
  server.probe_now(0);
  ASSERT_EQ(server.health(0), ReplicaHealth::kQuarantined);

  // Reprogramming from the pristine clone with the replica's own compile
  // options is bitwise the original program — and the rejoin probe matches
  // the clean canary reference exactly.
  EXPECT_TRUE(server.recalibrate_now(0));
  EXPECT_EQ(server.replica_program_checksum(0), clean);
  EXPECT_EQ(server.health(0), ReplicaHealth::kHealthy);
  const CanaryProbe probe = server.probe_now(0);
  EXPECT_EQ(probe.divergence, 0.0);
  EXPECT_TRUE(probe.bitwise_clean);
  EXPECT_EQ(probe.checksum, reference);

  const ShardStats stats = server.stats();
  EXPECT_EQ(stats.recalibrations, 1u);
  EXPECT_EQ(stats.replicas[0].recalibrations, 1u);
  EXPECT_EQ(stats.replicas[0].fault_injections, 1u);
}

TEST(FailoverTest, LastActiveReplicaIsClampedToDegradedAndKeepsServing) {
  nn::Network net = small_net();
  ShardConfig config;
  config.replicas = 2;
  config.seed_stride = 0;
  ShardedServer server(net, Shape{64}, CompileOptions{}, config);

  server.inject_replica_faults(1, heavy_faults(5));
  server.probe_now(1);
  ASSERT_EQ(server.health(1), ReplicaHealth::kQuarantined);

  // Replica 0 now degrades too — but it is the last active chip, so it is
  // clamped to Degraded and keeps answering (degraded beats nothing).
  server.inject_replica_faults(0, heavy_faults(6));
  server.probe_now(0);
  EXPECT_EQ(server.health(0), ReplicaHealth::kDegraded);
  const Tensor logits = server.infer(random_sample(1));
  EXPECT_EQ(logits.numel(), 10u);

  // Once a peer rejoins, the clamp is re-evaluated: the next probe pulls
  // the still-faulty replica 0 out.
  ASSERT_TRUE(server.recalibrate_now(1));
  ASSERT_EQ(server.health(1), ReplicaHealth::kHealthy);
  server.probe_now(0);
  EXPECT_EQ(server.health(0), ReplicaHealth::kQuarantined);

  // And the fleet still serves — through replica 1.
  const Tensor after = server.infer(random_sample(2));
  EXPECT_EQ(after.numel(), 10u);
}

TEST(FailoverTest, OutOfRetriesRequestsAreShedLoudly) {
  nn::Network net = small_net();
  const CrossbarProgram reference = compile(net, Shape{64});
  const Executor executor(reference);

  ShardConfig config;
  config.replicas = 2;
  config.seed_stride = 0;
  config.steal_work = false;
  config.max_retries = 0;  // no retry budget: quarantine sheds the queue
  ShardedServer server(net, Shape{64}, CompileOptions{}, config);

  server.set_paused(true);
  std::vector<Tensor> samples;
  std::vector<std::future<Tensor>> futures;
  for (std::uint64_t s = 0; s < 4; ++s) {
    samples.push_back(random_sample(s));
    futures.push_back(server.submit(samples.back()));
  }
  server.inject_replica_faults(1, heavy_faults());
  server.probe_now(1);
  ASSERT_EQ(server.health(1), ReplicaHealth::kQuarantined);
  server.set_paused(false);

  // Every future resolves: either with the exact clean logits, or with the
  // shed exception — never silently, never with garbage.
  std::size_t served = 0;
  std::size_t shed = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    try {
      const Tensor logits = futures[i].get();
      const Tensor expected = reference_logits(executor, samples[i]);
      ASSERT_EQ(logits.numel(), expected.numel());
      EXPECT_EQ(std::memcmp(logits.data(), expected.data(),
                            logits.numel() * sizeof(float)),
                0);
      ++served;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("shed"), std::string::npos);
      ++shed;
    }
  }
  EXPECT_EQ(served, 2u);
  EXPECT_EQ(shed, 2u);
  server.shutdown();
  const ShardStats stats = server.stats();
  EXPECT_EQ(stats.aggregate.shed, 2u);
  EXPECT_EQ(stats.retried, 0u);
  EXPECT_EQ(stats.aggregate.completed, 2u);
}

TEST(FailoverTest, AdmissionControlRejectsPredictedDeadlineMisses) {
  nn::Network net = small_net();
  ShardConfig config;
  config.replicas = 2;
  config.batching.admission.enabled = true;
  // Deterministic cost model: every batch "costs" 10ms.
  config.batching.admission.assumed_batch_cost =
      std::chrono::microseconds(10'000);
  ShardedServer server(net, Shape{64}, CompileOptions{}, config);

  // A 1ms deadline cannot survive a predicted 10ms wait.
  auto doomed = server.submit(random_sample(1),
                              {.deadline = std::chrono::milliseconds(1)});
  try {
    doomed.get();
    FAIL() << "expected admission rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("admission"), std::string::npos);
  }
  // A generous deadline is admitted and served.
  const Tensor ok =
      server.submit(random_sample(2), {.deadline = std::chrono::seconds(10)})
          .get();
  EXPECT_EQ(ok.numel(), 10u);
  // No deadline means no prediction to miss.
  const Tensor free = server.infer(random_sample(3));
  EXPECT_EQ(free.numel(), 10u);

  const ShardStats stats = server.stats();
  EXPECT_EQ(stats.aggregate.admission_rejected, 1u);
  EXPECT_EQ(stats.aggregate.rejected, 1u);
  EXPECT_EQ(stats.aggregate.completed, 2u);
}

TEST(FailoverTest, FullQueueShedsByDeadlinePriority) {
  nn::Network net = small_net();
  ShardConfig config;
  config.replicas = 1;
  config.batching.max_queue_depth = 1;
  ShardedServer server(net, Shape{64}, CompileOptions{}, config);
  server.set_paused(true);

  // Queue holds one request with a lax deadline…
  auto lax =
      server.submit(random_sample(1), {.deadline = std::chrono::seconds(20)});
  // …an URGENT request displaces it…
  auto urgent =
      server.submit(random_sample(2), {.deadline = std::chrono::seconds(5)});
  // …and a second lax request (deadline later than the queued urgent one)
  // is rejected outright.
  auto rejected =
      server.submit(random_sample(3), {.deadline = std::chrono::seconds(30)});

  try {
    lax.get();
    FAIL() << "expected the displaced request to be shed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("displaced"), std::string::npos);
  }
  try {
    rejected.get();
    FAIL() << "expected a queue-full rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("queue full"), std::string::npos);
  }
  server.set_paused(false);
  EXPECT_EQ(urgent.get().numel(), 10u);  // the urgent request survived

  const ShardStats stats = server.stats();
  EXPECT_EQ(stats.aggregate.shed, 1u);
  EXPECT_EQ(stats.aggregate.rejected, 1u);
  EXPECT_EQ(stats.aggregate.completed, 1u);
}

TEST(FailoverTest, MaintenanceThreadHealsInjectedFaultsAutomatically) {
  nn::Network net = small_net();
  ShardConfig config;
  config.replicas = 2;
  config.probe_interval = std::chrono::microseconds(200);
  config.auto_recalibrate = true;
  ShardedServer server(net, Shape{64}, CompileOptions{}, config);

  const std::uint64_t clean = server.replica_program_checksum(1);
  server.inject_replica_faults(1, heavy_faults());
  ASSERT_NE(server.replica_program_checksum(1), clean);

  // The background probe must quarantine, reprogram, and readmit the
  // replica without any manual call.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    if (server.stats().recalibrations >= 1 &&
        server.health(1) == ReplicaHealth::kHealthy) {
      break;
    }
    std::this_thread::yield();
  }
  EXPECT_GE(server.stats().recalibrations, 1u);
  EXPECT_EQ(server.health(1), ReplicaHealth::kHealthy);
  EXPECT_EQ(server.replica_program_checksum(1), clean);

  // Serving stays correct throughout.
  const Tensor logits = server.infer(random_sample(9));
  EXPECT_EQ(logits.numel(), 10u);
}

TEST(FailoverTest, SubmitAfterShutdownRejectsWithClearError) {
  nn::Network net = small_net();
  ShardedServer server(net, Shape{64});
  server.shutdown();
  auto future = server.submit(random_sample(1));
  try {
    future.get();
    FAIL() << "expected a shutdown rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("shut down"), std::string::npos);
  }
  EXPECT_EQ(server.stats().aggregate.rejected, 1u);
}

TEST(FailoverTest, FaultDrillReplaysBitwiseAtAnyThreadBudget) {
  nn::Network net = small_net();
  const DrillResult healed = run_fault_drill(net, 1, /*recalibrate=*/true);
  const DrillResult replay = run_fault_drill(net, 1, /*recalibrate=*/true);
  const DrillResult wide = run_fault_drill(net, 4, /*recalibrate=*/true);
  EXPECT_EQ(healed.fingerprint, replay.fingerprint);
  EXPECT_EQ(healed.fingerprint, wide.fingerprint);

  const DrillResult unhealed = run_fault_drill(net, 1, /*recalibrate=*/false);
  const DrillResult unhealed_wide =
      run_fault_drill(net, 4, /*recalibrate=*/false);
  EXPECT_EQ(unhealed.fingerprint, unhealed_wide.fingerprint);

  // Recalibration is what keeps the fleet's capacity: without it the last
  // (degraded) chip's queue overflows in burst D.
  EXPECT_EQ(healed.submitted, 28u);
  EXPECT_EQ(unhealed.submitted, healed.submitted);
  EXPECT_EQ(healed.completed, healed.submitted);
  EXPECT_LT(unhealed.completed, healed.completed);
}

}  // namespace
}  // namespace gs::runtime
