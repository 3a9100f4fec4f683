#include "runtime/server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"

namespace gs::runtime {
namespace {

/// Small FC network + program shared by the serving tests.
struct Fixture {
  nn::Network net;
  CrossbarProgram program;
  Executor executor;

  static Fixture make() {
    Rng rng(21);
    nn::Network net;
    net.add(std::make_unique<nn::FlattenLayer>("flatten"));
    net.add(std::make_unique<nn::DenseLayer>("fc1", 64, 48, rng));
    net.add(std::make_unique<nn::ReluLayer>("relu"));
    net.add(std::make_unique<nn::DenseLayer>("fc2", 48, 10, rng));
    CrossbarProgram program = compile(net, Shape{1, 8, 8});
    return Fixture{std::move(net), std::move(program)};
  }

  Fixture(nn::Network n, CrossbarProgram p)
      : net(std::move(n)), program(std::move(p)), executor(program) {}
};

Tensor sample(std::uint64_t seed) {
  Tensor t(Shape{1, 8, 8});
  Rng rng(seed);
  t.fill_uniform(rng, -1.0f, 1.0f);
  return t;
}

TEST(BatchingServerTest, ConcurrentRequestsGetTheirOwnLogits) {
  Fixture fx = Fixture::make();
  BatchingConfig config;
  config.max_batch = 8;
  config.max_delay = std::chrono::microseconds(200);
  BatchingServer server(fx.executor, config);

  constexpr std::size_t kClients = 8;
  constexpr std::size_t kPerClient = 5;
  std::vector<std::thread> clients;
  std::vector<std::vector<Tensor>> results(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t r = 0; r < kPerClient; ++r) {
        results[c].push_back(server.infer(sample(100 + c * kPerClient + r)));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.shutdown();

  // Every request's logits equal a direct batch-1 forward of its sample —
  // bitwise, because the executor is batch-composition invariant.
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t r = 0; r < kPerClient; ++r) {
      const Tensor s = sample(100 + c * kPerClient + r);
      Tensor single(Shape{1, 1, 8, 8});
      std::copy(s.data(), s.data() + s.numel(), single.data());
      const Tensor expected = fx.executor.forward(single);
      const Tensor& got = results[c][r];
      ASSERT_EQ(got.numel(), expected.numel());
      EXPECT_EQ(std::memcmp(got.data(), expected.data(),
                            expected.numel() * sizeof(float)),
                0)
          << "client " << c << " request " << r;
    }
  }

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, kClients * kPerClient);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_GE(stats.batches, (kClients * kPerClient) / config.max_batch);
  EXPECT_LE(stats.max_batch_seen, config.max_batch);
  EXPECT_GE(stats.mean_batch, 1.0);
  EXPECT_GT(stats.latency_max_ms, 0.0);
  EXPECT_LE(stats.latency_p50_ms, stats.latency_p99_ms);
}

TEST(BatchingServerTest, CoalescesBurstIntoOneBatch) {
  Fixture fx = Fixture::make();
  BatchingConfig config;
  config.max_batch = 8;
  // A generous deadline: the burst below lands well inside it.
  config.max_delay = std::chrono::microseconds(2'000'000);
  BatchingServer server(fx.executor, config);

  std::vector<std::future<Tensor>> futures;
  for (std::size_t i = 0; i < config.max_batch; ++i) {
    futures.push_back(server.submit(sample(i)));
  }
  for (auto& f : futures) f.get();
  server.shutdown();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, config.max_batch);
  // The full burst must not have been served one request at a time.
  EXPECT_GE(stats.max_batch_seen, 2u);
  EXPECT_LE(stats.batches, config.max_batch - 1);
}

TEST(BatchingServerTest, DeadlineReleasesLonelyRequest) {
  Fixture fx = Fixture::make();
  BatchingConfig config;
  config.max_batch = 32;
  config.max_delay = std::chrono::microseconds(1000);
  BatchingServer server(fx.executor, config);
  // One request, no batch mates: the deadline must release it.
  const Tensor logits = server.infer(sample(7));
  EXPECT_EQ(logits.numel(), 10u);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.batches, 1u);
}

TEST(BatchingServerTest, RejectsAfterShutdownAndBadShapes) {
  Fixture fx = Fixture::make();
  BatchingServer server(fx.executor);
  EXPECT_THROW(server.submit(Tensor(Shape{3, 8, 8})), Error);
  server.shutdown();
  // submit() after shutdown() is a defined path: an immediately-rejected
  // future naming the reason — never UB, never a hang.
  auto future = server.submit(sample(1));
  try {
    future.get();
    FAIL() << "expected a shutdown rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("shut down"), std::string::npos);
  }
  EXPECT_EQ(server.stats().rejected, 1u);
}

TEST(BatchingServerTest, AdmissionControlRejectsPredictedDeadlineMisses) {
  Fixture fx = Fixture::make();
  BatchingConfig config;
  config.admission.enabled = true;
  // Deterministic cost model: a batch "costs" 10ms, so a 1ms deadline is a
  // predicted miss at submit time.
  config.admission.assumed_batch_cost = std::chrono::microseconds(10'000);
  config.max_delay = std::chrono::microseconds(200);
  BatchingServer server(fx.executor, config);

  auto doomed =
      server.submit(sample(1), {.deadline = std::chrono::milliseconds(1)});
  try {
    doomed.get();
    FAIL() << "expected an admission rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("admission"), std::string::npos);
  }
  // Generous deadline → admitted; no deadline → nothing to predict.
  EXPECT_EQ(server.submit(sample(2), {.deadline = std::chrono::seconds(10)})
                .get()
                .numel(),
            10u);
  EXPECT_EQ(server.infer(sample(3)).numel(), 10u);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.admission_rejected, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(BatchingServerTest, FullQueueShedsByDeadlinePriority) {
  Fixture fx = Fixture::make();
  BatchingConfig config;
  config.max_queue_depth = 1;
  // Long coalescing window: the queued request stays queued while the test
  // submits competitors against the full queue.
  config.max_delay = std::chrono::microseconds(200'000);
  BatchingServer server(fx.executor, config);

  // A no-deadline request holds the only slot…
  auto lax = server.submit(sample(1));
  // …an urgent request displaces it (earlier deadline wins the slot)…
  auto urgent =
      server.submit(sample(2), {.deadline = std::chrono::seconds(5)});
  // …and a later-deadline request bounces off the full queue.
  auto bounced =
      server.submit(sample(3), {.deadline = std::chrono::seconds(30)});

  try {
    lax.get();
    FAIL() << "expected the displaced request to be shed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("displaced"), std::string::npos);
  }
  try {
    bounced.get();
    FAIL() << "expected a queue-full rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("queue full"), std::string::npos);
  }
  EXPECT_EQ(urgent.get().numel(), 10u);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(ServerStatsTest, SmallSamplePercentilesAreMarkedSaturated) {
  // The rule (docs/OBSERVABILITY.md "Small-sample percentiles"): a tail
  // quantile over n samples degenerates to the window max when n·(1−q) < 1.
  EXPECT_TRUE(percentile_saturated(1, 0.5));
  EXPECT_TRUE(percentile_saturated(99, 0.99));
  EXPECT_FALSE(percentile_saturated(100, 0.99));
  EXPECT_TRUE(percentile_saturated(999, 0.999));
  EXPECT_FALSE(percentile_saturated(1000, 0.999));

  Fixture fx = Fixture::make();
  BatchingServer server(fx.executor);
  constexpr std::size_t kRequests = 5;
  for (std::size_t i = 0; i < kRequests; ++i) {
    server.infer(sample(i));
  }
  server.shutdown();
  const ServerStats stats = server.stats();
  // Percentile provenance: the count the percentiles were computed from is
  // reported, and at 5 samples both tail percentiles are saturated — SLO
  // reporting must fall back to the per-request deadline counters.
  EXPECT_EQ(stats.latency_samples_total, kRequests);
  EXPECT_TRUE(stats.latency_p99_saturated);
  EXPECT_TRUE(stats.latency_p999_saturated);
  EXPECT_DOUBLE_EQ(stats.latency_p99_ms, stats.latency_max_ms);
}

TEST(ServerStatsTest, EwmaRecordIsExactUnderConcurrentFolds) {
  // Regression for the ewma_batch_cost_us_ race: the old read-blend-store
  // lost concurrent updates; the compare-exchange loop folds every sample.
  // With a constant input the EWMA is a fixed point, so ANY interleaving of
  // correct folds lands bitwise on the constant — a lost or torn update
  // cannot hide.
  std::atomic<double> accumulator{0.0};
  constexpr double kCost = 10.0;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 500;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        ewma_record(accumulator, kCost);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(accumulator.load(), kCost);
}

TEST(BatchingServerTest, AdmissionEwmaSafeUnderConcurrentCompletions) {
  // The serving-path regression (TSan-covered in CI): with measured batch
  // costs, every completion WRITES the EWMA while every submit READS it —
  // the exact interleaving the ewma_batch_cost_us_ race hit.
  Fixture fx = Fixture::make();
  BatchingConfig config;
  config.max_batch = 4;
  config.max_delay = std::chrono::microseconds(200);
  config.admission.enabled = true;  // assumed_batch_cost 0 → measured EWMA
  BatchingServer server(fx.executor, config);

  constexpr std::size_t kClients = 6;
  constexpr std::size_t kPerClient = 8;
  std::atomic<std::size_t> served{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = 0; i < kPerClient; ++i) {
        // Generous deadline: admission predicts against the live EWMA but
        // never rejects, so every request exercises read + write.
        auto f = server.submit(sample(c * kPerClient + i),
                               {.deadline = std::chrono::seconds(30)});
        if (f.get().numel() == 10u) served.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  server.shutdown();
  EXPECT_EQ(served.load(), kClients * kPerClient);
  EXPECT_EQ(server.stats().deadline_hits, kClients * kPerClient);
}

}  // namespace
}  // namespace gs::runtime
