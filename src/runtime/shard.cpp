#include "runtime/shard.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "core/models.hpp"
#include "nn/trainer.hpp"

namespace gs::runtime {

namespace {
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// FNV-1a fold of one integral value into a running hash.
std::uint64_t fnv1a_fold(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (byte * 8)) & 0xffu;
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Strict deadline-then-priority order: a outranks b when a's deadline is
/// earlier, or deadlines are equal and a's priority is higher. Requests
/// without deadlines (kNoDeadline) rank behind every dated request and
/// among themselves by priority only. NOT a total order over requests —
/// equal (deadline, priority) pairs tie, and ties keep FIFO order.
bool request_outranks(std::chrono::steady_clock::time_point deadline_a,
                      int priority_a,
                      std::chrono::steady_clock::time_point deadline_b,
                      int priority_b) {
  if (deadline_a != deadline_b) return deadline_a < deadline_b;
  return priority_a > priority_b;
}

/// Deadline-then-priority ordered insertion into a request queue (FIFO
/// among equal ranks): walks back from the tail past every queued request
/// the new one outranks. With default options on every request this
/// degenerates to push_back — plain FIFO.
template <typename RequestType>
void insert_ranked(std::deque<RequestType>& queue, RequestType&& request) {
  auto it = queue.end();
  while (it != queue.begin() &&
         request_outranks(request.deadline, request.priority,
                          std::prev(it)->deadline, std::prev(it)->priority)) {
    --it;
  }
  queue.insert(it, std::move(request));
}

/// Earliest enqueue time in `queue` (the coalescing-launch horizon). With
/// ranked insertion the FRONT is the most urgent request, not necessarily
/// the oldest — the max_delay guarantee is owed to the oldest.
template <typename RequestType>
std::chrono::steady_clock::time_point oldest_enqueued(
    const std::deque<RequestType>& queue) {
  auto oldest = std::chrono::steady_clock::time_point::max();
  for (const RequestType& request : queue) {
    if (request.enqueued < oldest) oldest = request.enqueued;
  }
  return oldest;
}
}  // namespace

void AutoscaleConfig::validate() const {
  if (!enabled) return;
  GS_CHECK_MSG(min_replicas >= 1, "AutoscaleConfig: min_replicas >= 1");
  GS_CHECK(scale_up_depth >= 0.0);
  GS_CHECK(scale_down_depth >= 0.0);
  GS_CHECK_MSG(up_ticks >= 1 && down_ticks >= 1,
               "AutoscaleConfig: streak lengths are at least one tick");
  GS_CHECK(slo_target >= 0.0 && slo_target <= 1.0);
}

void ShardConfig::validate() const {
  GS_CHECK_MSG(replicas >= 1, "ShardConfig: need at least one replica");
  GS_CHECK(probe_interval.count() >= 0);
  batching.validate();
  health.validate();
  autoscale.validate();
  if (autoscale.enabled) {
    GS_CHECK_MSG(autoscale.min_replicas <= replicas,
                 "AutoscaleConfig: min_replicas exceeds the initial fleet");
    GS_CHECK_MSG(
        autoscale.max_replicas == 0 || autoscale.max_replicas >= replicas,
        "AutoscaleConfig: max_replicas below the initial fleet");
  }
}

std::vector<std::size_t> split_thread_budget(std::size_t total,
                                             std::size_t replicas) {
  GS_CHECK(replicas >= 1);
  GS_CHECK(total >= 1);
  std::vector<std::size_t> split(replicas, std::max<std::size_t>(
                                               1, total / replicas));
  if (total >= replicas) {
    const std::size_t remainder = total % replicas;
    for (std::size_t r = 0; r < remainder; ++r) ++split[r];
    std::size_t sum = 0;
    for (const std::size_t share : split) sum += share;
    GS_CHECK_MSG(sum == total,
                 "split_thread_budget: shares " << sum
                                                << " != budget " << total);
  }
  return split;
}

ShardedServer::ShardedServer(const nn::Network& net, const Shape& sample_shape,
                             const CompileOptions& options, ShardConfig config)
    : config_(std::move(config)),
      network_(core::clone_network(net)),
      sample_shape_(sample_shape),
      base_options_(options) {
  config_.validate();
  capacity_ = config_.autoscale.enabled && config_.autoscale.max_replicas != 0
                  ? config_.autoscale.max_replicas
                  : config_.replicas;
  const std::size_t budget = config_.total_threads != 0
                                 ? config_.total_threads
                                 : ThreadPool::global().size();
  thread_split_ = split_thread_budget(budget, capacity_);
  init_serving(/*borrowed=*/false);
  // Initially-active replicas compile eagerly; headroom slots (autoscale
  // capacity beyond the initial fleet) compile lazily on first activation.
  for (std::size_t r = 0; r < config_.replicas; ++r) build_replica(r);
  start_threads();
}

ShardedServer::ShardedServer(const Executor& executor, BatchingConfig config)
    : sample_shape_(executor.program().input_shape()),
      capacity_(1),
      thread_split_{executor.pool().size()} {
  config_.replicas = 1;
  config_.batching = std::move(config);
  config_.validate();
  init_serving(/*borrowed=*/true);
  auto replica = std::make_unique<Replica>();
  replica->executor = &executor;
  {
    MutexLock lock(mutex_);
    replicas_[0] = std::move(replica);
  }
  start_threads();
}

void ShardedServer::init_serving(bool borrowed) {
  const obs::ObservabilityConfig& obs_config = config_.batching.observability;
  obs::Registry& registry = obs_config.registry != nullptr
                                ? *obs_config.registry
                                : obs::Registry::global();
  if (obs_config.metrics) {
    metrics_ = std::make_unique<obs::ServingMetrics>(
        registry, borrowed ? "batching" : "sharded");
    if (config_.autoscale.enabled) {
      fleet_metrics_ = std::make_unique<obs::FleetMetrics>(registry);
      fleet_metrics_->active_replicas.set(
          static_cast<double>(config_.replicas));
    }
    if (!borrowed) {
      replica_metrics_.reserve(capacity_);
      for (std::size_t r = 0; r < capacity_; ++r) {
        replica_metrics_.push_back(
            std::make_unique<obs::ReplicaMetrics>(registry, r));
        replica_metrics_.back()->health_state.set(
            static_cast<double>(static_cast<int>(ReplicaHealth::kHealthy)));
      }
    }
  }
  if (obs_config.tracer != nullptr) {
    tracer_ = obs_config.tracer;
  } else if (obs_config.trace_sample_every > 0) {
    owned_tracer_ = std::make_unique<obs::Tracer>(
        obs_config.trace_sample_every, obs_config.trace_keep,
        obs_config.metrics ? &registry : nullptr);
    tracer_ = owned_tracer_.get();
  }

  {
    MutexLock lock(mutex_);
    replicas_.resize(capacity_);  // null until built or activated
    queues_.resize(capacity_);
    health_.assign(capacity_, ReplicaHealth::kHealthy);
    trackers_.reserve(capacity_);
    for (std::size_t r = 0; r < capacity_; ++r) {
      trackers_.push_back(std::make_unique<HealthTracker>(config_.health));
    }
    active_.assign(capacity_, 0);
    for (std::size_t r = 0; r < config_.replicas; ++r) active_[r] = 1;
  }
  MutexLock lock(stats_mutex_);
  counters_.resize(capacity_);
}

void ShardedServer::start_threads() {
  // Dispatchers start only after every initial replica exists — they scan
  // the whole replica vector for steal victims.
  MutexLock join_lock(join_mutex_);
  dispatchers_.reserve(capacity_);
  for (std::size_t r = 0; r < capacity_; ++r) {
    dispatchers_.emplace_back([this, r] { dispatch_loop(r); });
  }
  if (config_.probe_interval.count() > 0) {
    maintenance_ = std::thread([this] { maintenance_loop(); });
  }
}

ShardedServer::~ShardedServer() { shutdown(); }

void ShardedServer::build_replica(std::size_t r) {
  GS_CHECK(r < capacity_);
  {
    MutexLock lock(mutex_);
    if (replicas_[r] != nullptr) return;
  }
  auto replica = std::make_unique<Replica>();
  CompileOptions replica_options = base_options_;
  replica_options.analog.seed =
      base_options_.analog.seed + r * config_.seed_stride;
  replica->options = replica_options;
  {
    SharedWriterLock plock(replica->program_mutex);
    replica->program = compile(network_, sample_shape_, replica_options);
    replica->pool = std::make_unique<ThreadPool>(thread_split_[r]);
    replica->owned_executor =
        std::make_unique<Executor>(replica->program, replica->pool.get());
    replica->executor = replica->owned_executor.get();
    // Record the clean canary reference while the chip is known pristine —
    // this is the bitwise target every future probe (and recalibration)
    // compares against.
    replica->canary =
        std::make_unique<CanarySet>(sample_shape_, config_.health);
    replica->canary->record_reference(*replica->executor);
  }
  MutexLock lock(mutex_);
  GS_CHECK_MSG(replicas_[r] == nullptr,
               "replica slot " << r << " built twice (concurrent activation "
                                        "is serialised by autoscale_mutex_)");
  replicas_[r] = std::move(replica);
}

ShardedServer::Replica& ShardedServer::replica_ref(std::size_t r) const {
  GS_CHECK(r < capacity_);
  Replica* replica = nullptr;
  {
    MutexLock lock(mutex_);
    replica = replicas_[r].get();
  }
  GS_CHECK_MSG(replica != nullptr,
               "replica " << r << " is an unbuilt autoscale headroom slot");
  return *replica;
}

ShardedServer::Replica& ShardedServer::lifecycle_ref(std::size_t r) const {
  Replica& replica = replica_ref(r);
  GS_CHECK_MSG(replica.canary != nullptr,
               "replica " << r
                          << " serves a borrowed executor: no fault lifecycle");
  return replica;
}

const CrossbarProgram& ShardedServer::program(std::size_t r) const {
  Replica& replica = replica_ref(r);
  // The reader lock satisfies the guard for the access itself; as documented
  // in the header, the RETURNED reference is not synchronised against later
  // mutation — callers quiesce injection/recalibration first.
  SharedReaderLock plock(replica.program_mutex);
  return replica.executor->program();
}

std::size_t ShardedServer::placement_target(std::size_t exclude) const {
  std::size_t target = kNone;
  for (std::size_t r = 0; r < capacity_; ++r) {
    if (r == exclude) continue;
    if (!active_[r]) continue;
    if (health_[r] == ReplicaHealth::kQuarantined) continue;
    if (target == kNone || queues_[r].size() < queues_[target].size()) {
      target = r;
    }
  }
  return target;
}

void ShardedServer::release_tenant(std::uint64_t tenant) {
  if (config_.max_inflight_per_tenant == 0) return;
  auto it = tenant_inflight_.find(tenant);
  if (it == tenant_inflight_.end()) return;
  if (--it->second == 0) tenant_inflight_.erase(it);
}

void ShardedServer::finish_dropped(Request& request,
                                   const char* result) const {
  if (!request.trace) return;
  if (request.queue_span != 0) {
    request.trace->end_span(request.queue_span);
    request.queue_span = 0;
  }
  request.trace->annotate(obs::Trace::kRoot, "result", result);
  if (tracer_ != nullptr) tracer_->finish(request.trace);
  request.trace.reset();
}

void ShardedServer::update_queue_gauges() const {
  if (!metrics_) return;
  std::size_t total = 0;
  for (const std::deque<Request>& queue : queues_) total += queue.size();
  for (std::size_t r = 0; r < replica_metrics_.size(); ++r) {
    replica_metrics_[r]->queue_depth.set(
        static_cast<double>(queues_[r].size()));
  }
  metrics_->queue_depth.set(static_cast<double>(total));
}

void ShardedServer::record_health(std::size_t r, ReplicaHealth state) const {
  if (!metrics_) return;
  const int index = static_cast<int>(state);
  replica_metrics_[r]->health_state.set(static_cast<double>(index));
  replica_metrics_[r]->transitions_to[static_cast<std::size_t>(index)]->inc();
}

std::future<Tensor> ShardedServer::submit(Tensor sample,
                                          const RequestOptions& options) {
  const std::chrono::microseconds deadline =
      options.deadline.count() > 0 ? options.deadline
                                   : config_.batching.admission.default_deadline;
  // Every replica program's input_shape() is the sample_shape_ the server
  // compiled with, so validation needs no program lock.
  GS_CHECK_MSG(sample.shape() == sample_shape_,
               "sharded server sample " << shape_to_string(sample.shape())
                                        << " does not match program input "
                                        << shape_to_string(sample_shape_));
  Request request;
  request.sample = std::move(sample);
  request.enqueued = std::chrono::steady_clock::now();
  request.deadline = deadline.count() > 0
                         ? request.enqueued + deadline
                         : kNoDeadline;
  request.tenant = options.tenant;
  request.priority = options.priority;
  request.id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  if (tracer_ != nullptr) request.trace = tracer_->start(request.id);
  std::uint64_t submit_span = 0;
  if (request.trace) {
    submit_span = request.trace->begin_span("submit", obs::Trace::kRoot);
  }
  std::future<Tensor> future = request.promise.get_future();

  std::string reject_reason;
  bool admission_miss = false;
  bool tenant_miss = false;
  Request displaced;
  bool have_displaced = false;
  bool accepted = false;
  {
    MutexLock lock(mutex_);
    bool tenant_capped = false;
    if (config_.max_inflight_per_tenant > 0) {
      const auto it = tenant_inflight_.find(request.tenant);
      tenant_capped = it != tenant_inflight_.end() &&
                      it->second >= config_.max_inflight_per_tenant;
    }
    if (stopping_) {
      reject_reason = "ShardedServer: rejected — server is shut down";
    } else if (tenant_capped) {
      // Per-tenant fairness: a tenant already holding its inflight cap is
      // rejected while other tenants keep being placed.
      std::ostringstream msg;
      msg << "ShardedServer: rejected — tenant " << request.tenant
          << " at its inflight cap (max_inflight_per_tenant="
          << config_.max_inflight_per_tenant << ")";
      reject_reason = msg.str();
      tenant_miss = true;
    } else {
      // Shortest-queue placement over ACTIVE replicas (quarantined chips
      // take no new work).
      const std::size_t target = placement_target(kNone);
      if (target == kNone) {
        reject_reason = "ShardedServer: rejected — no active replica";
      } else {
        std::deque<Request>& queue = queues_[target];
        if (config_.batching.admission.enabled &&
            request.deadline != kNoDeadline) {
          const double cost_us =
              config_.batching.admission.assumed_batch_cost.count() > 0
                  ? static_cast<double>(
                        config_.batching.admission.assumed_batch_cost.count())
                  : ewma_batch_cost_us_.load(std::memory_order_relaxed);
          const double batches_ahead =
              std::ceil(static_cast<double>(queue.size() + 1) /
                        static_cast<double>(config_.batching.max_batch));
          const auto predicted_wait = std::chrono::microseconds(
              static_cast<long long>(batches_ahead * cost_us));
          if (request.enqueued + predicted_wait > request.deadline) {
            reject_reason =
                "ShardedServer: rejected — admission control predicts a "
                "deadline miss";
            admission_miss = true;
          }
        }
        if (reject_reason.empty() &&
            queue.size() >= config_.batching.max_queue_depth) {
          // The shortest active queue being full means every active queue is
          // full. The queue is deadline-then-priority ranked, so its BACK is
          // the worst-ranked entry: shed it if ours strictly outranks it,
          // otherwise reject ours.
          if (!queue.empty() &&
              request_outranks(request.deadline, request.priority,
                               queue.back().deadline,
                               queue.back().priority)) {
            displaced = std::move(queue.back());
            queue.pop_back();
            have_displaced = true;
            release_tenant(displaced.tenant);
          } else {
            std::ostringstream msg;
            msg << "ShardedServer: rejected — queue full (max_queue_depth="
                << config_.batching.max_queue_depth << ")";
            reject_reason = msg.str();
          }
        }
        if (reject_reason.empty()) {
          if (request.trace) {
            request.trace->end_span(submit_span);
            request.queue_span =
                request.trace->begin_span("queue", obs::Trace::kRoot);
            request.trace->annotate(request.queue_span, "replica",
                                    std::to_string(target));
          }
          if (config_.max_inflight_per_tenant > 0) {
            ++tenant_inflight_[request.tenant];
          }
          insert_ranked(queue, std::move(request));
          accepted = true;
          update_queue_gauges();
        }
      }
    }
  }
  if (have_displaced) {
    {
      MutexLock lock(stats_mutex_);
      ++shed_;
    }
    if (metrics_) {
      metrics_->shed.inc();
      metrics_->inflight.add(-1.0);
    }
    finish_dropped(displaced, "displaced");
    displaced.promise.set_exception(std::make_exception_ptr(std::runtime_error(
        "ShardedServer: shed — displaced by an earlier-deadline request "
        "under overload")));
  }
  if (!reject_reason.empty()) {
    {
      MutexLock lock(stats_mutex_);
      ++rejected_;
      if (admission_miss) ++admission_rejected_;
      if (tenant_miss) ++tenant_rejected_;
    }
    if (metrics_) {
      metrics_->rejected.inc();
      if (admission_miss) metrics_->admission_rejected.inc();
      if (tenant_miss) metrics_->tenant_rejected.inc();
    }
    if (request.trace) request.trace->end_span(submit_span);
    finish_dropped(request,
                   admission_miss ? "admission_rejected" : "rejected");
    request.promise.set_exception(
        std::make_exception_ptr(std::runtime_error(reject_reason)));
    return future;
  }
  if (accepted && metrics_) metrics_->inflight.add(1.0);
  // All dispatchers share one cv: the owner must wake to coalesce, and idle
  // replicas must wake to re-evaluate their steal horizon.
  queue_cv_.notify_all();
  return future;
}

Tensor ShardedServer::infer(const Tensor& sample) {
  return submit(sample).get();
}

void ShardedServer::shutdown() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  MutexLock join_lock(join_mutex_);
  if (maintenance_.joinable()) maintenance_.join();
  for (std::thread& dispatcher : dispatchers_) {
    if (dispatcher.joinable()) dispatcher.join();
  }
}

void ShardedServer::set_paused(bool paused) {
  {
    MutexLock lock(mutex_);
    paused_ = paused;
  }
  queue_cv_.notify_all();
}

FaultInjectionReport ShardedServer::inject_replica_faults(
    std::size_t r, const hw::FaultModelConfig& config) {
  Replica& replica = lifecycle_ref(r);
  const std::string label = "replica" + std::to_string(r) + ":";
  FaultInjectionReport report;
  {
    SharedWriterLock plock(replica.program_mutex);
    report = inject_faults(replica.program, config, label);
  }
  {
    MutexLock lock(stats_mutex_);
    ++counters_[r].fault_injections;
  }
  if (metrics_) replica_metrics_[r]->fault_injections.inc();
  GS_LOG_DEBUG.field("replica", r)
          .field("faulty_tiles", report.faulty_tiles)
          .field("unskipped_tiles", report.unskipped_tiles)
      << "fault injection";
  return report;
}

std::size_t ShardedServer::reroute_queue(std::size_t r,
                                         std::vector<Request>& shed,
                                         bool count_retry) {
  std::size_t rerouted = 0;
  while (!queues_[r].empty()) {
    Request request = std::move(queues_[r].front());
    queues_[r].pop_front();
    if (count_retry) ++request.attempts;
    const std::size_t target = placement_target(r);
    if ((count_retry && request.attempts > config_.max_retries) ||
        target == kNone ||
        queues_[target].size() >= config_.batching.max_queue_depth) {
      shed.push_back(std::move(request));
    } else {
      if (request.trace && request.queue_span != 0) {
        request.trace->annotate(
            request.queue_span, "reroute",
            std::to_string(r) + "->" + std::to_string(target));
      }
      insert_ranked(queues_[target], std::move(request));
      ++rerouted;
    }
  }
  return rerouted;
}

CanaryProbe ShardedServer::probe_now(std::size_t r) {
  Replica& replica = lifecycle_ref(r);
  CanaryProbe probe;
  {
    SharedReaderLock plock(replica.program_mutex);
    probe = replica.canary->probe(*replica.executor);
  }
  if (metrics_) replica_metrics_[r]->probes.inc();
  std::vector<Request> shed;
  std::size_t rerouted = 0;
  ReplicaHealth prev = ReplicaHealth::kHealthy;
  ReplicaHealth current = ReplicaHealth::kHealthy;
  {
    MutexLock lock(mutex_);
    prev = health_[r];
    const ReplicaHealth next = trackers_[r]->observe(probe.divergence);
    if (next == ReplicaHealth::kQuarantined) {
      std::size_t active_others = 0;
      for (std::size_t i = 0; i < capacity_; ++i) {
        if (i != r && active_[i] &&
            health_[i] != ReplicaHealth::kQuarantined) {
          ++active_others;
        }
      }
      if (active_others == 0) {
        // Never quarantine the last active replica: a degraded answer beats
        // no answer. Clamp to Degraded; the tracker keeps voting Quarantined
        // and the clamp is re-evaluated at every probe, so the replica is
        // pulled as soon as a peer rejoins.
        health_[r] = ReplicaHealth::kDegraded;
      } else {
        health_[r] = ReplicaHealth::kQuarantined;
        // Re-route the quarantined replica's queued requests onto active
        // replicas (the mid-flight retry path). Requests out of retries or
        // finding every active queue full are shed.
        rerouted = reroute_queue(r, shed, /*count_retry=*/true);
        update_queue_gauges();
      }
    } else {
      health_[r] = next;
    }
    current = health_[r];
  }
  if (current != prev) {
    record_health(r, current);
    GS_LOG_DEBUG.field("replica", r)
            .field("state", to_string(current))
            .field("divergence", probe.divergence)
            .field("rerouted", rerouted)
            .field("shed", shed.size())
        << "replica health transition";
  }
  if (rerouted > 0) {
    {
      MutexLock lock(stats_mutex_);
      retried_ += rerouted;
    }
    if (metrics_) metrics_->retries.inc(rerouted);
  }
  shed_requests(shed,
                "ShardedServer: shed — could not re-route off quarantined "
                "replica");
  queue_cv_.notify_all();
  return probe;
}

bool ShardedServer::recalibrate_now(std::size_t r) {
  Replica& replica = lifecycle_ref(r);
  {
    // Reprogramming: a fresh chip from the pristine weights, compiled with
    // the replica's original options (same analog seed) — bitwise the
    // program it started with. Move-assignment mutates the program at the
    // same address, so the borrowed Executor stays valid; the exclusive
    // lock keeps forwards out while conductances change.
    SharedWriterLock plock(replica.program_mutex);
    replica.program = compile(network_, sample_shape_, replica.options);
  }
  CanaryProbe probe;
  {
    SharedReaderLock plock(replica.program_mutex);
    probe = replica.canary->probe(*replica.executor);
  }
  // Rejoin only on a bitwise-clean canary — the readmission gate.
  if (!probe.bitwise_clean) return false;
  ReplicaHealth prev = ReplicaHealth::kHealthy;
  {
    MutexLock lock(mutex_);
    prev = health_[r];
    trackers_[r]->reset();
    health_[r] = ReplicaHealth::kHealthy;
  }
  {
    MutexLock lock(stats_mutex_);
    ++counters_[r].recalibrations;
  }
  if (metrics_) replica_metrics_[r]->recalibrations.inc();
  if (prev != ReplicaHealth::kHealthy) {
    record_health(r, ReplicaHealth::kHealthy);
  }
  GS_LOG_DEBUG.field("replica", r).field("state", "healthy")
      << "replica recalibrated and rejoined";
  queue_cv_.notify_all();
  return true;
}

ReplicaHealth ShardedServer::health(std::size_t r) const {
  GS_CHECK(r < capacity_);
  MutexLock lock(mutex_);
  return health_[r];
}

std::uint64_t ShardedServer::replica_program_checksum(std::size_t r) const {
  Replica& replica = replica_ref(r);
  SharedReaderLock plock(replica.program_mutex);
  return program_checksum(replica.executor->program());
}

std::uint64_t ShardedServer::replica_reference_checksum(std::size_t r) const {
  return lifecycle_ref(r).canary->reference_checksum();
}

double ShardedServer::evaluate_replica(std::size_t r,
                                       const data::Dataset& dataset,
                                       std::size_t max_samples,
                                       std::size_t batch_size) const {
  Replica& replica = replica_ref(r);
  SharedReaderLock plock(replica.program_mutex);
  return runtime::evaluate(*replica.executor, dataset, max_samples,
                           batch_size);
}

void ShardedServer::shed_requests(std::vector<Request>& requests,
                                  const char* reason) {
  if (requests.empty()) return;
  if (config_.max_inflight_per_tenant > 0) {
    MutexLock lock(mutex_);
    for (const Request& request : requests) release_tenant(request.tenant);
  }
  {
    MutexLock lock(stats_mutex_);
    shed_ += requests.size();
  }
  if (metrics_) {
    metrics_->shed.inc(requests.size());
    metrics_->inflight.add(-static_cast<double>(requests.size()));
  }
  for (Request& request : requests) {
    finish_dropped(request, "shed");
    request.promise.set_exception(
        std::make_exception_ptr(std::runtime_error(reason)));
  }
  requests.clear();
}

std::vector<ShardedServer::Request> ShardedServer::take_batch(
    std::size_t victim, std::vector<Request>& expired) {
  std::deque<Request>& queue = queues_[victim];
  const auto now = std::chrono::steady_clock::now();
  std::vector<Request> batch;
  batch.reserve(std::min(config_.batching.max_batch, queue.size()));
  // Expired requests are shed, not executed — they do not consume batch
  // slots, so one take can drain more than max_batch queue entries.
  while (!queue.empty() && batch.size() < config_.batching.max_batch) {
    Request request = std::move(queue.front());
    queue.pop_front();
    if (request.deadline < now) {
      expired.push_back(std::move(request));
    } else {
      batch.push_back(std::move(request));
    }
  }
  update_queue_gauges();
  return batch;
}

std::size_t ShardedServer::ripe_victim(
    std::size_t self, std::chrono::steady_clock::time_point now) const {
  std::size_t best = kNone;
  std::size_t best_depth = 0;
  for (std::size_t r = 0; r < capacity_; ++r) {
    if (r == self) continue;
    if (!active_[r]) continue;
    // A quarantined replica's queue is re-routed, not stolen (re-routing
    // counts retries and respects max_retries; stealing would bypass both).
    if (health_[r] == ReplicaHealth::kQuarantined) continue;
    const std::deque<Request>& queue = queues_[r];
    if (queue.empty()) continue;
    // With ranked insertion the front is the most urgent request, not the
    // oldest — the coalescing ripeness is owed to the OLDEST enqueue.
    const bool ripe = queue.size() >= config_.batching.max_batch ||
                      oldest_enqueued(queue) + config_.batching.max_delay <=
                          now;
    if (ripe && queue.size() > best_depth) {
      best = r;
      best_depth = queue.size();
    }
  }
  return best;
}

void ShardedServer::dispatch_loop(std::size_t self) {
  for (;;) {
    std::vector<Request> batch;
    std::vector<Request> expired;
    std::size_t victim = self;
    bool exit_after_shed = false;
    {
      MutexLock lock(mutex_);
      for (;;) {
        if (stopping_) {
          // Drain: own queue first, then — only when stealing is allowed —
          // whatever is left anywhere. With steal_work off every request
          // must run on the replica placement chose (the controlled-
          // experiment guarantee the flag exists for), and each queue's own
          // dispatcher drains it before returning, so nothing is orphaned.
          // An INACTIVE slot exits immediately: its queue was drained at
          // retirement (or never took placement), and an unbuilt or stale
          // retired program must not execute anyone else's work.
          if (!active_[self]) {
            exit_after_shed = true;
            break;
          }
          victim = queues_[self].empty() ? kNone : self;
          if (victim == kNone && config_.steal_work) {
            for (std::size_t r = 0; r < capacity_; ++r) {
              if (!queues_[r].empty()) {
                victim = r;
                break;
              }
            }
          }
          if (victim == kNone) {
            exit_after_shed = true;
            break;
          }
          batch = take_batch(victim, expired);
          break;
        }
        // Paused dispatchers let work accumulate (the deterministic bench's
        // burst builder); inactive replica slots idle until the autoscaler
        // admits them; quarantined replicas take no work at all — their
        // queue was re-routed at quarantine and placement avoids them.
        if (paused_ || !active_[self] ||
            health_[self] == ReplicaHealth::kQuarantined) {
          queue_cv_.wait(mutex_);
          continue;
        }
        if (!queues_[self].empty()) {
          // Own work: coalescing — launch when full, or when the OLDEST
          // request's coalescing deadline passes (with ranked
          // insertion the front is the most urgent, not the oldest). The
          // launch decision is made against the CURRENT queue; the wait
          // below is only a timed sleep, re-evaluated from scratch on every
          // wake (a thief may steal mid-sleep, which would leave a stale
          // horizon — launching on it would fire newer requests early).
          const auto launch =
              oldest_enqueued(queues_[self]) + config_.batching.max_delay;
          if (queues_[self].size() >= config_.batching.max_batch ||
              launch <= std::chrono::steady_clock::now()) {
            victim = self;
            batch = take_batch(self, expired);
            break;
          }
          while (!stopping_ && !paused_ &&
                 queues_[self].size() < config_.batching.max_batch) {
            if (queue_cv_.wait_until(mutex_, launch) ==
                std::cv_status::timeout) {
              break;
            }
          }
          continue;
        }
        // Idle: steal ripe work (a full batch, or past-deadline requests
        // whose owner is busy executing).
        if (config_.steal_work) {
          const auto now = std::chrono::steady_clock::now();
          const std::size_t v = ripe_victim(self, now);
          if (v != kNone) {
            victim = v;
            batch = take_batch(v, expired);
            break;
          }
          // Sleep until new work arrives or the earliest foreign deadline
          // ripens.
          std::optional<std::chrono::steady_clock::time_point> horizon;
          for (std::size_t r = 0; r < capacity_; ++r) {
            if (r == self || queues_[r].empty()) continue;
            const auto t = oldest_enqueued(queues_[r]) +
                           config_.batching.max_delay;
            if (!horizon || t < *horizon) horizon = t;
          }
          if (horizon) {
            queue_cv_.wait_until(mutex_, *horizon);
          } else {
            queue_cv_.wait(mutex_);
          }
        } else {
          while (!stopping_ && !paused_ && queues_[self].empty()) {
            queue_cv_.wait(mutex_);
          }
        }
      }
    }
    shed_requests(expired,
                  "ShardedServer: shed — deadline expired before execution");
    if (exit_after_shed) return;
    if (!batch.empty()) run_batch(self, victim, batch);
  }
}

void ShardedServer::maintenance_loop() {
  MutexLock lock(mutex_);
  auto next = std::chrono::steady_clock::now() + config_.probe_interval;
  while (!stopping_) {
    if (queue_cv_.wait_until(mutex_, next) != std::cv_status::timeout) {
      continue;  // submit traffic or shutdown — re-check and re-sleep
    }
    if (stopping_) break;
    const bool paused = paused_;
    lock.unlock();
    if (!paused) {
      for (std::size_t r = 0; r < capacity_; ++r) {
        // Retired/never-activated slots are not probed: an inactive chip
        // serves nothing, and probing an unbuilt slot would compile it.
        bool serving = false;
        {
          MutexLock probe_lock(mutex_);
          serving = active_[r] != 0 && replicas_[r] != nullptr;
        }
        if (!serving) continue;
        probe_now(r);
        if (config_.auto_recalibrate &&
            health(r) == ReplicaHealth::kQuarantined) {
          recalibrate_now(r);
        }
      }
      if (config_.autoscale.enabled) autoscale_tick_now();
    }
    lock.lock();
    next = std::chrono::steady_clock::now() + config_.probe_interval;
  }
}

void ShardedServer::run_batch(std::size_t self, std::size_t victim,
                              std::vector<Request>& requests) {
  Replica& replica = replica_ref(self);
  const std::size_t count = requests.size();
  // Every replica program's input shape is sample_shape_ (the compile-time
  // contract), so batch assembly needs no program lock.
  const std::size_t sample_numel = shape_numel(sample_shape_);

  Shape batch_shape;
  batch_shape.reserve(sample_shape_.size() + 1);
  batch_shape.push_back(count);
  batch_shape.insert(batch_shape.end(), sample_shape_.begin(),
                     sample_shape_.end());
  Tensor batch(batch_shape);
  for (std::size_t i = 0; i < count; ++i) {
    std::copy(requests[i].sample.data(),
              requests[i].sample.data() + sample_numel,
              batch.data() + i * sample_numel);
  }

  // Close queue spans, open batch/execute spans on every sampled request.
  // Execution-detail spans (per step/stage) go to the FIRST sampled trace
  // only — the batch runs once, so the detail belongs to one tree. A stolen
  // batch is annotated with the executing replica on every sampled request.
  std::vector<std::uint64_t> batch_spans(count, 0);
  std::vector<std::uint64_t> execute_spans(count, 0);
  ForwardTrace forward_trace;
  std::uint64_t trace_log_id = 0;
  for (std::size_t i = 0; i < count; ++i) {
    Request& request = requests[i];
    if (!request.trace) continue;
    if (request.queue_span != 0) {
      request.trace->end_span(request.queue_span);
      request.queue_span = 0;
    }
    batch_spans[i] = request.trace->begin_span("batch", obs::Trace::kRoot);
    request.trace->annotate(batch_spans[i], "batch_size",
                            std::to_string(count));
    request.trace->annotate(batch_spans[i], "replica", std::to_string(self));
    if (victim != self) {
      request.trace->annotate(batch_spans[i], "stolen_from",
                              std::to_string(victim));
    }
    execute_spans[i] =
        request.trace->begin_span("execute", batch_spans[i]);
    if (forward_trace.trace == nullptr) {
      forward_trace.trace = request.trace.get();
      forward_trace.parent = execute_spans[i];
      trace_log_id = request.id;
    }
  }
  // Correlate any log lines the forward emits with the sampled request.
  LogTraceScope log_scope(trace_log_id);

  try {
    const auto started = std::chrono::steady_clock::now();
    Tensor logits;
    obs::ExecProfile profile;
    {
      // Shared with other forwards/probes; excluded only by fault injection
      // and recalibration mutating this replica's program.
      SharedReaderLock plock(replica.program_mutex);
      // Re-priced per batch: fault injection and recalibration change the
      // program's skip flags mid-flight.
      if (metrics_) profile = replica.executor->profile();
      logits = replica.executor->forward(batch, forward_trace);
    }
    const std::size_t classes = logits.numel() / count;
    const auto finished = std::chrono::steady_clock::now();
    const double batch_us =
        std::chrono::duration<double, std::micro>(finished - started).count();
    // EWMA of batch cost feeds the admission predictor (α = 1/8). CAS loop:
    // concurrent dispatcher completions must not lose each other's samples.
    ewma_record(ewma_batch_cost_us_, batch_us);
    // Per-request deadline outcomes over EXECUTED requests — the
    // SLO-attainment inputs (no-deadline requests count in neither).
    std::size_t hits = 0;
    std::size_t misses = 0;
    for (const Request& request : requests) {
      if (request.deadline == kNoDeadline) continue;
      (finished <= request.deadline ? hits : misses) += 1;
    }
    {
      MutexLock lock(stats_mutex_);
      ReplicaCounters& counters = counters_[self];
      counters.completed += count;
      ++counters.batches;
      if (victim != self) ++counters.stolen_batches;
      counters.max_batch_seen = std::max(counters.max_batch_seen, count);
      deadline_hits_ += hits;
      deadline_misses_ += misses;
      for (const Request& request : requests) {
        counters.latencies.record(std::chrono::duration<double, std::milli>(
                                      finished - request.enqueued)
                                      .count());
      }
    }
    if (metrics_) {
      metrics_->completed.inc(count);
      metrics_->batches.inc();
      if (victim != self) metrics_->batches_stolen.inc();
      metrics_->batch_size.observe(static_cast<double>(count));
      metrics_->inflight.add(-static_cast<double>(count));
      metrics_->record_forward(profile, count);
      if (hits > 0) metrics_->deadline_hits.inc(hits);
      if (misses > 0) metrics_->deadline_misses.inc(misses);
      for (const Request& request : requests) {
        metrics_->latency_ms.observe(
            std::chrono::duration<double, std::milli>(finished -
                                                      request.enqueued)
                .count());
      }
    }
    // Tenant slots free BEFORE the promises are fulfilled: a client that
    // holds its result must be able to resubmit immediately without
    // bouncing off its own not-yet-released inflight count (the cap covers
    // queued AND executing work, and execution is over).
    if (config_.max_inflight_per_tenant > 0) {
      MutexLock lock(mutex_);
      for (const Request& request : requests) release_tenant(request.tenant);
    }
    for (std::size_t i = 0; i < count; ++i) {
      Request& request = requests[i];
      std::uint64_t reply_span = 0;
      if (request.trace) {
        request.trace->end_span(execute_spans[i]);
        request.trace->end_span(batch_spans[i]);
        reply_span = request.trace->begin_span("reply", obs::Trace::kRoot);
      }
      Tensor row(Shape{classes});
      std::copy(logits.data() + i * classes, logits.data() + (i + 1) * classes,
                row.data());
      request.promise.set_value(std::move(row));
      if (request.trace) {
        request.trace->end_span(reply_span);
        request.trace->annotate(obs::Trace::kRoot, "result", "ok");
        if (tracer_ != nullptr) tracer_->finish(request.trace);
        request.trace.reset();
      }
    }
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    {
      MutexLock lock(stats_mutex_);
      failed_ += count;
    }
    if (metrics_) {
      metrics_->failed.inc(count);
      metrics_->inflight.add(-static_cast<double>(count));
    }
    if (config_.max_inflight_per_tenant > 0) {
      MutexLock lock(mutex_);
      for (const Request& request : requests) release_tenant(request.tenant);
    }
    for (std::size_t i = 0; i < count; ++i) {
      Request& request = requests[i];
      if (request.trace) {
        request.trace->end_span(execute_spans[i]);
        request.trace->end_span(batch_spans[i]);
        request.trace->annotate(obs::Trace::kRoot, "result", "failed");
        if (tracer_ != nullptr) tracer_->finish(request.trace);
        request.trace.reset();
      }
      request.promise.set_exception(error);
    }
  }
}

ShardStats ShardedServer::stats() const {
  ShardStats stats;
  std::vector<ReplicaHealth> health;
  std::vector<char> active;
  {
    MutexLock lock(mutex_);
    health = health_;
    active = active_;
  }
  // Copied under the lock, folded (and sorted) outside it, so a stats()
  // call never stalls the dispatchers' per-batch counter updates.
  std::vector<ReplicaCounters> replica_counters;
  {
    MutexLock lock(stats_mutex_);
    stats.aggregate.rejected = rejected_;
    stats.aggregate.admission_rejected = admission_rejected_;
    stats.aggregate.shed = shed_;
    stats.aggregate.failed = failed_;
    stats.aggregate.deadline_hits = deadline_hits_;
    stats.aggregate.deadline_misses = deadline_misses_;
    stats.retried = retried_;
    stats.tenant_rejected = tenant_rejected_;
    stats.drained = drained_;
    replica_counters = counters_;
  }
  std::vector<double> all_latencies;
  stats.replicas.reserve(capacity_);
  for (std::size_t r = 0; r < capacity_; ++r) {
    const ReplicaCounters& counters = replica_counters[r];
    ReplicaStats rs;
    rs.completed = counters.completed;
    rs.batches = counters.batches;
    rs.stolen_batches = counters.stolen_batches;
    rs.max_batch_seen = counters.max_batch_seen;
    rs.mean_batch = counters.batches == 0
                        ? 0.0
                        : static_cast<double>(counters.completed) /
                              static_cast<double>(counters.batches);
    std::vector<double> latencies = counters.latencies.samples();
    std::sort(latencies.begin(), latencies.end());
    rs.latency_p50_ms = latency_percentile(latencies, 0.50);
    rs.latency_p95_ms = latency_percentile(latencies, 0.95);
    rs.latency_p99_ms = latency_percentile(latencies, 0.99);
    rs.health = health[r];
    rs.active = active[r] != 0;
    rs.fault_injections = counters.fault_injections;
    rs.recalibrations = counters.recalibrations;

    stats.aggregate.completed += rs.completed;
    stats.aggregate.batches += rs.batches;
    stats.aggregate.max_batch_seen =
        std::max(stats.aggregate.max_batch_seen, rs.max_batch_seen);
    stats.stolen_batches += rs.stolen_batches;
    stats.recalibrations += rs.recalibrations;
    stats.aggregate.latency_samples_total += counters.latencies.total();
    all_latencies.insert(all_latencies.end(), latencies.begin(),
                         latencies.end());
    stats.replicas.push_back(rs);
  }
  for (const char a : active) {
    if (a != 0) ++stats.active_replicas;
  }
  {
    MutexLock lock(autoscale_mutex_);
    for (const AutoscaleDecision& decision : decision_log_) {
      if (decision.action == AutoscaleAction::kUp) ++stats.autoscale_ups;
      if (decision.action == AutoscaleAction::kDown) ++stats.autoscale_downs;
    }
  }
  stats.aggregate.mean_batch =
      stats.aggregate.batches == 0
          ? 0.0
          : static_cast<double>(stats.aggregate.completed) /
                static_cast<double>(stats.aggregate.batches);
  if (!all_latencies.empty()) {
    std::sort(all_latencies.begin(), all_latencies.end());
    stats.aggregate.latency_p50_ms = latency_percentile(all_latencies, 0.50);
    stats.aggregate.latency_p95_ms = latency_percentile(all_latencies, 0.95);
    stats.aggregate.latency_p99_ms = latency_percentile(all_latencies, 0.99);
    stats.aggregate.latency_p999_ms = latency_percentile(all_latencies, 0.999);
    stats.aggregate.latency_max_ms = all_latencies.back();
    stats.aggregate.latency_p99_saturated =
        percentile_saturated(all_latencies.size(), 0.99);
    stats.aggregate.latency_p999_saturated =
        percentile_saturated(all_latencies.size(), 0.999);
  }
  return stats;
}

bool ShardedServer::activate_replica(std::size_t r) {
  build_replica(r);
  Replica& replica = replica_ref(r);
  // Scale-up admission runs the same bitwise-clean canary gate quarantined
  // replicas rejoin through: a slot that decayed while retired (e.g. faults
  // injected into it) must not serve divergent logits.
  CanaryProbe probe;
  {
    SharedReaderLock plock(replica.program_mutex);
    probe = replica.canary->probe(*replica.executor);
  }
  if (metrics_) replica_metrics_[r]->probes.inc();
  if (!probe.bitwise_clean) {
    // Reprogram from the pristine clone with the replica's original options
    // (same seed → bitwise the clean program), then re-probe.
    {
      SharedWriterLock plock(replica.program_mutex);
      replica.program = compile(network_, sample_shape_, replica.options);
    }
    {
      SharedReaderLock plock(replica.program_mutex);
      probe = replica.canary->probe(*replica.executor);
    }
    if (metrics_) replica_metrics_[r]->probes.inc();
    if (!probe.bitwise_clean) return false;
  }
  ReplicaHealth prev = ReplicaHealth::kHealthy;
  {
    MutexLock lock(mutex_);
    prev = health_[r];
    trackers_[r]->reset();
    health_[r] = ReplicaHealth::kHealthy;
    active_[r] = 1;
  }
  if (prev != ReplicaHealth::kHealthy) {
    record_health(r, ReplicaHealth::kHealthy);
  }
  GS_LOG_DEBUG.field("replica", r) << "autoscale: replica activated";
  return true;
}

void ShardedServer::retire_replica(std::size_t r) {
  std::vector<Request> shed;
  std::size_t drained = 0;
  {
    MutexLock lock(mutex_);
    active_[r] = 0;
    // Voluntary drain: re-placement does NOT consume retry attempts —
    // retirement is a scaling decision, not a fault.
    drained = reroute_queue(r, shed, /*count_retry=*/false);
    update_queue_gauges();
  }
  if (drained > 0) {
    {
      MutexLock lock(stats_mutex_);
      drained_ += drained;
    }
    if (fleet_metrics_) fleet_metrics_->drained.inc(drained);
  }
  shed_requests(shed,
                "ShardedServer: shed — could not re-route off a replica "
                "retired by scale-down");
  GS_LOG_DEBUG.field("replica", r).field("drained", drained)
      << "autoscale: replica retired";
}

AutoscaleDecision ShardedServer::autoscale_tick_now() {
  GS_CHECK_MSG(config_.autoscale.enabled,
               "autoscale_tick_now: autoscaling is disabled");
  const AutoscaleConfig& knobs = config_.autoscale;
  MutexLock tick_lock(autoscale_mutex_);

  AutoscaleDecision decision;
  decision.tick = ++tick_;

  // --- Sample the controller inputs at this tick. -------------------------
  // Only this server's own queues and counters: registry children are shared
  // by every engine on the registry, so reading them would act on another
  // fleet's traffic.
  bool quarantined = false;
  std::size_t active = 0;
  std::size_t depth = 0;
  {
    MutexLock lock(mutex_);
    for (std::size_t r = 0; r < capacity_; ++r) {
      if (!active_[r]) continue;
      ++active;
      depth += queues_[r].size();
      if (health_[r] == ReplicaHealth::kQuarantined) quarantined = true;
    }
  }
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::size_t shed_total = 0;
  std::size_t rejected_total = 0;
  {
    MutexLock lock(stats_mutex_);
    hits = deadline_hits_;
    misses = deadline_misses_;
    shed_total = shed_;
    rejected_total = rejected_;
  }
  decision.queue_depth = depth;
  decision.active_replicas = active;
  decision.deadline_hits_delta = hits - last_hits_;
  decision.deadline_misses_delta = misses - last_misses_;
  decision.shed_delta = shed_total - last_shed_;
  decision.rejected_delta = rejected_total - last_rejected_;
  decision.quarantine_hold = quarantined;
  last_hits_ = hits;
  last_misses_ = misses;
  last_shed_ = shed_total;
  last_rejected_ = rejected_total;

  // --- Decide (a pure function of the sampled inputs + streak state). -----
  if (quarantined) {
    // The fault loop owns the fleet first: no scaling while any active
    // replica is quarantined, and streaks restart from scratch after.
    up_streak_ = 0;
    down_streak_ = 0;
  } else {
    const double per_replica =
        active == 0 ? 0.0
                    : static_cast<double>(depth) / static_cast<double>(active);
    const std::uint64_t decided =
        decision.deadline_hits_delta + decision.deadline_misses_delta;
    const bool slo_breach =
        knobs.slo_target > 0.0 && decided > 0 &&
        static_cast<double>(decision.deadline_hits_delta) <
            knobs.slo_target * static_cast<double>(decided);
    const bool up_signal = per_replica >= knobs.scale_up_depth || slo_breach;
    const bool down_signal = !up_signal &&
                             per_replica <= knobs.scale_down_depth &&
                             decision.shed_delta == 0 &&
                             decision.rejected_delta == 0;
    up_streak_ = up_signal ? up_streak_ + 1 : 0;
    down_streak_ = down_signal ? down_streak_ + 1 : 0;

    if (up_signal && up_streak_ >= knobs.up_ticks && active < capacity_) {
      // Scale up into the lowest inactive slot (deterministic target
      // choice).
      std::size_t target = kNone;
      {
        MutexLock lock(mutex_);
        for (std::size_t r = 0; r < capacity_; ++r) {
          if (!active_[r]) {
            target = r;
            break;
          }
        }
      }
      if (target != kNone && activate_replica(target)) {
        decision.action = AutoscaleAction::kUp;
        decision.target = target;
        up_streak_ = 0;
      }
    } else if (down_signal && down_streak_ >= knobs.down_ticks &&
               active > knobs.min_replicas) {
      // Scale down the emptiest active replica; ties retire the HIGHEST
      // index, keeping the active set packed toward low slots.
      std::size_t target = kNone;
      std::size_t best_depth = std::numeric_limits<std::size_t>::max();
      {
        MutexLock lock(mutex_);
        for (std::size_t r = 0; r < capacity_; ++r) {
          if (!active_[r]) continue;
          if (queues_[r].size() <= best_depth) {
            best_depth = queues_[r].size();
            target = r;
          }
        }
      }
      if (target != kNone) {
        retire_replica(target);
        decision.action = AutoscaleAction::kDown;
        decision.target = target;
        down_streak_ = 0;
      }
    }
  }

  decision_log_.push_back(decision);
  if (fleet_metrics_) {
    if (decision.action == AutoscaleAction::kUp) {
      fleet_metrics_->scale_ups.inc();
    }
    if (decision.action == AutoscaleAction::kDown) {
      fleet_metrics_->scale_downs.inc();
    }
    std::size_t now_active = active;
    if (decision.action == AutoscaleAction::kUp) ++now_active;
    if (decision.action == AutoscaleAction::kDown) --now_active;
    fleet_metrics_->active_replicas.set(static_cast<double>(now_active));
  }
  GS_LOG_DEBUG.field("tick", decision.tick)
          .field("depth", decision.queue_depth)
          .field("active", decision.active_replicas)
          .field("action", static_cast<int>(decision.action))
          .field("target",
                 decision.target == AutoscaleDecision::kNoTarget
                     ? -1
                     : static_cast<long long>(decision.target))
      << "autoscale tick";
  queue_cv_.notify_all();
  return decision;
}

std::vector<AutoscaleDecision> ShardedServer::autoscale_log() const {
  MutexLock lock(autoscale_mutex_);
  return decision_log_;
}

std::uint64_t ShardedServer::autoscale_log_checksum() const {
  MutexLock lock(autoscale_mutex_);
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a offset basis
  for (const AutoscaleDecision& decision : decision_log_) {
    hash = fnv1a_fold(hash, decision.tick);
    hash = fnv1a_fold(hash, decision.queue_depth);
    hash = fnv1a_fold(hash, decision.active_replicas);
    hash = fnv1a_fold(hash, decision.deadline_hits_delta);
    hash = fnv1a_fold(hash, decision.deadline_misses_delta);
    hash = fnv1a_fold(hash, decision.shed_delta);
    hash = fnv1a_fold(hash, decision.rejected_delta);
    hash = fnv1a_fold(hash, decision.quarantine_hold ? 1 : 0);
    hash = fnv1a_fold(hash, static_cast<std::uint64_t>(decision.action));
    hash = fnv1a_fold(hash, decision.target);
  }
  return hash;
}

std::size_t ShardedServer::active_replica_count() const {
  MutexLock lock(mutex_);
  std::size_t count = 0;
  for (const char a : active_) {
    if (a != 0) ++count;
  }
  return count;
}

double evaluate(ShardedServer& server, const data::Dataset& dataset,
                std::size_t max_samples, std::size_t batch_size) {
  return nn::evaluate_forward(
      [&server](const Tensor& images) {
        const std::size_t batch = images.dim(0);
        const Shape sample_shape(images.shape().begin() + 1,
                                 images.shape().end());
        const std::size_t sample_numel = shape_numel(sample_shape);
        std::vector<std::future<Tensor>> futures;
        futures.reserve(batch);
        for (std::size_t i = 0; i < batch; ++i) {
          Tensor sample(sample_shape);
          std::copy(images.data() + i * sample_numel,
                    images.data() + (i + 1) * sample_numel, sample.data());
          futures.push_back(server.submit(std::move(sample)));
        }
        Tensor logits;
        for (std::size_t i = 0; i < batch; ++i) {
          const Tensor row = futures[i].get();
          if (i == 0) logits = Tensor(Shape{batch, row.numel()});
          std::copy(row.data(), row.data() + row.numel(),
                    logits.data() + i * row.numel());
        }
        return logits;
      },
      dataset, max_samples, batch_size);
}

}  // namespace gs::runtime
