// ShardedServer: multi-replica serving correctness.
//
// The load balancer and work stealer may route a request to ANY replica, so
// the tests pin down what must hold regardless of routing: on an ideal
// device every replica is bitwise identical to the single Executor, all
// accepted requests complete exactly once, per-replica counters sum to the
// aggregate, and nonideal replicas genuinely differ (distinct chips) unless
// seed_stride is 0.
#include "runtime/shard.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "core/models.hpp"
#include "data/synthetic_mnist.hpp"
#include "nn/dense.hpp"
#include "nn/trainer.hpp"
#include "obs/metrics.hpp"

namespace gs::runtime {
namespace {

/// Small dense net: fast to compile many replicas of.
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

TEST(ShardedServerTest, IdealReplicasMatchSingleExecutorBitwise) {
  nn::Network net = small_net();
  const CrossbarProgram reference = compile(net, Shape{64});
  const Executor executor(reference);

  ShardConfig config;
  config.replicas = 3;
  config.batching.max_delay = std::chrono::microseconds(200);
  ShardedServer server(net, Shape{64}, CompileOptions{}, config);
  ASSERT_EQ(server.replica_count(), 3u);

  for (std::uint64_t s = 0; s < 8; ++s) {
    const Tensor sample = random_sample(s);
    Tensor batch(Shape{1, 64});
    std::copy(sample.data(), sample.data() + 64, batch.data());
    const Tensor expected = executor.forward(batch);
    const Tensor logits = server.infer(sample);
    ASSERT_EQ(logits.numel(), expected.numel());
    EXPECT_EQ(std::memcmp(logits.data(), expected.data(),
                          logits.numel() * sizeof(float)),
              0)
        << "sample " << s;
  }

  server.shutdown();
  const ShardStats stats = server.stats();
  EXPECT_EQ(stats.aggregate.completed, 8u);
  EXPECT_EQ(stats.aggregate.rejected, 0u);
  EXPECT_EQ(stats.aggregate.failed, 0u);
  std::size_t replica_sum = 0;
  for (const ReplicaStats& r : stats.replicas) replica_sum += r.completed;
  EXPECT_EQ(replica_sum, stats.aggregate.completed);
}

TEST(ShardedServerTest, ConcurrentClientsAllServedWithAndWithoutStealing) {
  nn::Network net = small_net();
  const CrossbarProgram reference = compile(net, Shape{64});
  const Executor executor(reference);

  for (const bool steal : {true, false}) {
    ShardConfig config;
    config.replicas = 2;
    config.steal_work = steal;
    config.batching.max_batch = 4;
    config.batching.max_delay = std::chrono::microseconds(300);
    ShardedServer server(net, Shape{64}, CompileOptions{}, config);

    constexpr std::size_t kClients = 6;
    constexpr std::size_t kPerClient = 10;
    std::vector<std::thread> clients;
    std::vector<int> mismatches(kClients, 0);
    for (std::size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t i = 0; i < kPerClient; ++i) {
          const std::uint64_t seed = c * kPerClient + i;
          const Tensor sample = random_sample(seed);
          Tensor batch(Shape{1, 64});
          std::copy(sample.data(), sample.data() + 64, batch.data());
          const Tensor expected = executor.forward(batch);
          const Tensor logits = server.infer(sample);
          if (std::memcmp(logits.data(), expected.data(),
                          logits.numel() * sizeof(float)) != 0) {
            ++mismatches[c];
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    server.shutdown();

    for (std::size_t c = 0; c < kClients; ++c) {
      EXPECT_EQ(mismatches[c], 0) << "client " << c << " steal=" << steal;
    }
    const ShardStats stats = server.stats();
    EXPECT_EQ(stats.aggregate.completed, kClients * kPerClient);
    EXPECT_EQ(stats.aggregate.failed, 0u);
    EXPECT_GE(stats.aggregate.batches, 1u);
    EXPECT_GT(stats.aggregate.mean_batch, 0.0);
    if (!steal) {
      EXPECT_EQ(stats.stolen_batches, 0u);
    }
  }
}

TEST(ShardedServerTest, IdleReplicaStealsRipeForeignWork) {
  // One replica, then a second with an always-empty queue: force ripeness
  // by submitting more than max_batch in one burst while the owner is busy.
  nn::Network net = small_net();
  ShardConfig config;
  config.replicas = 2;
  config.batching.max_batch = 2;
  config.batching.max_delay = std::chrono::microseconds(100);
  ShardedServer server(net, Shape{64}, CompileOptions{}, config);

  std::vector<std::future<Tensor>> futures;
  for (std::uint64_t s = 0; s < 40; ++s) {
    futures.push_back(server.submit(random_sample(s)));
  }
  for (auto& f : futures) f.get();
  server.shutdown();

  const ShardStats stats = server.stats();
  EXPECT_EQ(stats.aggregate.completed, 40u);
  // Shortest-queue placement puts half the burst on each queue; every
  // request completed, so either both replicas executed their own work or
  // an idle replica stole ripe foreign batches (on a single hardware core
  // the first dispatcher to run typically steals the other's whole queue
  // before that dispatcher is ever scheduled — both outcomes demonstrate
  // the load moving to whichever replica is free).
  const bool both_executed = stats.replicas[0].completed > 0 &&
                             stats.replicas[1].completed > 0;
  EXPECT_TRUE(both_executed || stats.stolen_batches > 0);
}

TEST(ShardedServerTest, SeedStrideControlsReplicaVariation) {
  nn::Network net = small_net();
  CompileOptions nonideal;
  nonideal.analog.variation_sigma = 0.05;

  const auto first_tile_weights = [](const CrossbarProgram& p) {
    return &p.steps().front().stages.front().tiles.front().xbar
                .effective_weights();
  };

  {
    ShardConfig config;
    config.replicas = 2;  // distinct seeds → distinct chips
    ShardedServer server(net, Shape{64}, nonideal, config);
    const Tensor& a = *first_tile_weights(server.program(0));
    const Tensor& b = *first_tile_weights(server.program(1));
    EXPECT_NE(std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)), 0);
  }
  {
    ShardConfig config;
    config.replicas = 2;
    config.seed_stride = 0;  // identical programming for all replicas
    ShardedServer server(net, Shape{64}, nonideal, config);
    const Tensor& a = *first_tile_weights(server.program(0));
    const Tensor& b = *first_tile_weights(server.program(1));
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)), 0);
  }
}

TEST(ShardedServerTest, EvaluateMatchesSingleProgramRuntime) {
  Rng rng(5);
  nn::Network net = core::build_lenet(rng);
  const data::SyntheticMnist test_set(/*seed=*/2, /*count=*/24);

  const CrossbarProgram program = compile(net, test_set.sample_shape());
  const Executor executor(program);
  const double single = evaluate(executor, test_set, 24);

  ShardConfig config;
  config.replicas = 2;
  ShardedServer server(net, test_set.sample_shape(), CompileOptions{}, config);
  const double sharded = evaluate(server, test_set, 24);
  // Ideal device: replicas are bitwise identical to the single program, so
  // serving-path accuracy is exactly the runtime accuracy.
  EXPECT_DOUBLE_EQ(sharded, single);
}

TEST(ShardedServerTest, RejectsAfterShutdownAndBadShapes) {
  nn::Network net = small_net();
  ShardedServer server(net, Shape{64});
  EXPECT_THROW(server.submit(Tensor(Shape{63})), Error);

  server.shutdown();
  auto future = server.submit(random_sample(1));
  EXPECT_THROW(future.get(), std::runtime_error);
  EXPECT_EQ(server.stats().aggregate.rejected, 1u);
  server.shutdown();  // idempotent
}

TEST(ShardedServerTest, ValidatesConfig) {
  nn::Network net = small_net();
  ShardConfig config;
  config.replicas = 0;
  EXPECT_THROW(ShardedServer(net, Shape{64}, CompileOptions{}, config),
               Error);
}

TEST(ShardedServerTest, ThreadBudgetSplitsAcrossReplicas) {
  nn::Network net = small_net();
  ShardConfig config;
  config.replicas = 2;
  config.total_threads = 4;
  ShardedServer server(net, Shape{64}, CompileOptions{}, config);
  EXPECT_EQ(server.thread_split(), (std::vector<std::size_t>{2, 2}));
  EXPECT_EQ(server.threads_for_replica(0), 2u);

  // A non-divisible budget distributes the remainder to the FIRST
  // total%replicas replicas instead of idling it — the shares sum to the
  // budget exactly.
  ShardConfig uneven;
  uneven.replicas = 3;
  uneven.total_threads = 8;
  ShardedServer mid(net, Shape{64}, CompileOptions{}, uneven);
  EXPECT_EQ(mid.thread_split(), (std::vector<std::size_t>{3, 3, 2}));

  ShardConfig starved;
  starved.replicas = 4;
  starved.total_threads = 2;  // budget below replica count → 1 each
  ShardedServer small(net, Shape{64}, CompileOptions{}, starved);
  EXPECT_EQ(small.thread_split(), (std::vector<std::size_t>{1, 1, 1, 1}));
}

TEST(ShardedServerTest, BorrowedExecutorIsAOneReplicaBatchingEngine) {
  nn::Network net = small_net();
  const CrossbarProgram program = compile(net, Shape{64});
  ThreadPool pool(3);
  const Executor executor(program, &pool);
  obs::Registry registry;
  BatchingConfig config;
  config.max_batch = 4;
  config.max_delay = std::chrono::microseconds(200);
  config.observability.registry = &registry;
  ShardedServer server(executor, config);

  // Nothing compiled, cloned or recorded: the one replica serves the
  // borrowed program itself on the borrowed pool, and has no canary.
  ASSERT_EQ(server.replica_count(), 1u);
  EXPECT_EQ(&server.program(0), &program);
  EXPECT_EQ(server.threads_for_replica(0), pool.size());
  EXPECT_EQ(server.thread_split(), (std::vector<std::size_t>{3}));
  EXPECT_THROW(server.replica_reference_checksum(0), Error);
  // No fault lifecycle and no autoscaling on a borrowed replica.
  hw::FaultModelConfig faults;
  faults.stuck_rate = 0.2;
  EXPECT_THROW(server.inject_replica_faults(0, faults), Error);
  EXPECT_THROW(server.probe_now(0), Error);
  EXPECT_THROW(server.recalibrate_now(0), Error);
  EXPECT_THROW(server.autoscale_tick_now(), Error);

  // Mixed batch compositions: bursts queued while paused and released at
  // once run as batches of 1, 3, a full 4, and 4 + 3.
  std::uint64_t served = 0;
  for (const std::uint64_t burst : {1u, 3u, 4u, 7u}) {
    server.set_paused(true);
    std::vector<std::future<Tensor>> futures;
    for (std::uint64_t i = 0; i < burst; ++i) {
      futures.push_back(server.submit(random_sample(served + i)));
    }
    server.set_paused(false);
    for (std::uint64_t i = 0; i < burst; ++i) {
      const Tensor sample = random_sample(served + i);
      Tensor batch(Shape{1, 64});
      std::copy(sample.data(), sample.data() + 64, batch.data());
      const Tensor expected = executor.forward(batch);
      const Tensor logits = futures[i].get();
      ASSERT_EQ(logits.numel(), expected.numel());
      EXPECT_EQ(std::memcmp(logits.data(), expected.data(),
                            logits.numel() * sizeof(float)),
                0)
          << "burst " << burst << " request " << i;
    }
    served += burst;
  }
  server.shutdown();
  const ShardStats stats = server.stats();
  EXPECT_EQ(stats.aggregate.completed, served);
  EXPECT_EQ(stats.aggregate.max_batch_seen, 4u);

  // Serving metrics land under engine="batching"; the engine exports no
  // sharded or per-replica (gs_replica_*) series.
  for (const obs::MetricSample& sample : registry.snapshot()) {
    EXPECT_NE(sample.name.rfind("gs_replica_", 0), 0u) << sample.name;
    const auto engine = sample.labels.find("engine");
    if (engine != sample.labels.end()) {
      EXPECT_EQ(engine->second, "batching") << sample.name;
    }
  }
  EXPECT_EQ(registry
                .counter("gs_server_requests_total", "",
                         obs::Labels{{"engine", "batching"},
                                     {"result", "completed"}})
                .value(),
            served);
}

TEST(ShardedServerTest, SplitThreadBudgetSumsToBudget) {
  for (std::size_t replicas = 1; replicas <= 6; ++replicas) {
    for (std::size_t total = replicas; total <= 24; ++total) {
      const std::vector<std::size_t> split =
          split_thread_budget(total, replicas);
      ASSERT_EQ(split.size(), replicas);
      std::size_t sum = 0;
      for (std::size_t r = 0; r < replicas; ++r) {
        sum += split[r];
        // Remainder goes to the first total%replicas replicas: shares are
        // non-increasing and differ by at most one.
        if (r > 0) {
          EXPECT_LE(split[r], split[r - 1]);
          EXPECT_LE(split[r - 1] - split[r], 1u);
        }
      }
      EXPECT_EQ(sum, total) << total << " threads over " << replicas;
    }
  }
}

}  // namespace
}  // namespace gs::runtime
