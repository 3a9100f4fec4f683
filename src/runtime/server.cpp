#include "runtime/server.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "runtime/shard.hpp"

namespace gs::runtime {

double latency_percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t idx = std::min(
      sorted.size() - 1, static_cast<std::size_t>(std::max(rank - 1.0, 0.0)));
  return sorted[idx];
}

bool percentile_saturated(std::size_t n, double q) {
  // ⌈q·n⌉ == n exactly when n·(1−q) < 1: the nearest-rank index is the last
  // element, so the "percentile" is just the sample maximum.
  return static_cast<double>(n) * (1.0 - q) < 1.0;
}

void ewma_record(std::atomic<double>& accumulator, double sample,
                 double alpha) {
  double prev = accumulator.load(std::memory_order_relaxed);
  double next;
  do {
    next = prev == 0.0 ? sample : prev + alpha * (sample - prev);
  } while (!accumulator.compare_exchange_weak(prev, next,
                                              std::memory_order_relaxed));
}

void AdmissionConfig::validate() const {
  GS_CHECK(default_deadline.count() >= 0);
  GS_CHECK(assumed_batch_cost.count() >= 0);
}

void BatchingConfig::validate() const {
  GS_CHECK(max_batch >= 1);
  GS_CHECK(max_queue_depth >= 1);
  GS_CHECK(max_delay.count() >= 0);
  admission.validate();
}

BatchingServer::BatchingServer(const Executor& executor, BatchingConfig config)
    : engine_(std::make_unique<ShardedServer>(executor, std::move(config))) {}

BatchingServer::~BatchingServer() = default;

std::future<Tensor> BatchingServer::submit(Tensor sample,
                                           const RequestOptions& options) {
  return engine_->submit(std::move(sample), options);
}

Tensor BatchingServer::infer(const Tensor& sample) {
  return engine_->infer(sample);
}

void BatchingServer::shutdown() { engine_->shutdown(); }

ServerStats BatchingServer::stats() const { return engine_->stats().aggregate; }

const obs::Tracer* BatchingServer::tracer() const { return engine_->tracer(); }

}  // namespace gs::runtime
