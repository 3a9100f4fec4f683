// Sharded multi-replica serving — one fault-tolerant server over N
// independently-compiled crossbar programs, and the repo's only serving
// engine: runtime::BatchingServer is a facade over a one-replica
// ShardedServer built on a borrowed Executor (the second constructor).
//
// Real multi-chip deployments program the same compressed network onto
// several physical crossbar arrays; each chip realises its own process
// variation — and each chip DEGRADES on its own: devices stick, conductances
// drift. ShardedServer models the whole fleet lifecycle: it compiles
// `replicas` CrossbarPrograms from one network (replica r gets analog seed
// base + r·seed_stride and a private Executor/ThreadPool), serves batched
// requests across them, and keeps serving within deadline SLOs while faulty
// replicas are detected, drained, reprogrammed, and readmitted.
//
// Request flow: submit() places a sample on the queue of the least-loaded
// ACTIVE replica (shortest-queue placement over replicas not quarantined).
// Requests may carry deadlines; admission control (AdmissionConfig) rejects
// predicted misses at submit, full queues shed by deadline priority, and
// expired requests are shed at batch formation — the server.hpp overload
// semantics, per replica. Each replica's dispatcher coalesces its own queue
// into batches; an idle replica additionally WORK-STEALS ripe foreign work
// (a full batch, or past-coalescing-deadline requests), which never launches
// a request earlier than the single-replica server would.
//
// Fault-tolerance loop (see runtime/health.hpp for the state machine):
//  * inject_replica_faults(r, config) mutates replica r's program in place
//    (runtime::inject_faults with label "replica<r>:") — the deterministic
//    stand-in for physical degradation, serialised against that replica's
//    forwards by a per-replica program lock.
//  * probe_now(r) runs the replica's canary batch and feeds the divergence
//    to its HealthTracker. A replica probed into Quarantined stops taking
//    new work and its QUEUED requests are re-routed to active replicas
//    (counted as retries; requests exceeding max_retries, or finding every
//    active queue full past displacement, are shed). The LAST active
//    replica is never quarantined — it is clamped to Degraded and keeps
//    serving (graceful degradation beats serving nothing).
//  * recalibrate_now(r) reprograms the replica from the pristine network
//    clone with its original CompileOptions — same seeds, so the fresh chip
//    is bitwise the clean program — then re-probes; the replica rejoins
//    (Healthy) only when its canary checksum matches the clean reference
//    bitwise.
//  * a maintenance thread automates probe → quarantine → recalibrate →
//    rejoin when probe_interval > 0 (auto_recalibrate gates the reprogram
//    step); with interval 0 the loop is driven manually — the mode the
//    deterministic fault bench replays.
//
// Elasticity (AutoscaleConfig — see docs/ARCHITECTURE.md "Elastic serving &
// traffic replay"): the server provisions CAPACITY for max_replicas but
// activates only `replicas` at start. A controller — run by the maintenance
// thread each probe tick, or manually via autoscale_tick_now() — samples
// its own queue depth and deadline-SLO attainment (never the metrics
// registry, whose children other engines share) and scales the
// active set between min_replicas and max_replicas. Scale-up compiles the
// next replica slot on first use (seed = base + r·seed_stride) and admits it
// through the same bitwise-clean canary gate quarantined replicas rejoin
// through; scale-down retires the emptiest active replica, re-routing its
// queued requests to the survivors (counted as `drained`, not as retries —
// retirement is voluntary, not a fault). Every decision is a pure function
// of the counters sampled at the tick and is appended to a replayable
// decision log (autoscale_log / autoscale_log_checksum). No scaling happens
// while any active replica is quarantined — the fault loop owns the fleet
// first.
//
// Fairness: requests carry a tenant id and a priority (RequestOptions).
// Queues are kept in deadline-then-priority order, displacement shedding
// picks the worst-ranked victim, and max_inflight_per_tenant caps the
// queued+executing requests of any single tenant — an adversarial tenant
// hits its own cap and is rejected (gs_server_tenant_rejected_total) while
// other tenants keep being placed.
//
// Observability (config.batching.observability): the compiling constructor
// exports the engine="sharded" serving metrics plus per-replica lifecycle
// metrics (gs_replica_* — queue depth, health state, probes, fault
// injections, recalibrations, health transitions); the borrowed one-replica
// engine exports the engine="batching" serving metrics only. Both thread
// request traces through
// placement, stealing (annotated on the batch span) and quarantine
// re-routing (annotated on the queue span). Fleet events are logged with
// structured fields at Debug level.
//
// Thread-safety: submit()/infer()/stats()/health()/probe_now()/
// recalibrate_now()/inject_replica_faults()/autoscale_tick_now() are safe
// from any number of threads; shutdown() is idempotent, runs in the
// destructor, and submit() after shutdown() returns an immediately-rejected
// future. Lock order is autoscale_mutex_ → program_mutex (per replica) →
// mutex_ → stats_mutex_, never reversed; trace and metric internals are
// leaves.
// Determinism: per-replica execution inherits the Executor contract; fault
// realisations are pure functions of (config.seed, replica, tile); which
// replica serves a request is scheduling-dependent and only observable when
// replicas differ (nonideal device or faults). Tracing and metrics only
// observe — logits are bitwise identical with observability on or off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotations.hpp"
#include "common/sync.hpp"
#include "obs/serving_metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/health.hpp"
#include "runtime/server.hpp"

namespace gs::runtime {

/// Elastic-scaling knobs. Decisions are pure functions of the counters
/// sampled at each tick (autoscale_tick_now, or the maintenance thread every
/// probe_interval), so a replay with the same tick-by-tick inputs produces a
/// bitwise-identical decision log.
struct AutoscaleConfig {
  bool enabled = false;
  /// The active set never shrinks below this.
  std::size_t min_replicas = 1;
  /// Capacity ceiling; 0 = ShardConfig::replicas (no headroom beyond the
  /// initial fleet). When larger than `replicas`, the extra replica slots
  /// are provisioned (queues, dispatchers, thread-budget shares) up front
  /// but compiled lazily on first activation.
  std::size_t max_replicas = 0;
  /// Scale-up signal: fleet queue depth per active replica at the tick is at
  /// least this.
  double scale_up_depth = 8.0;
  /// Consecutive up-signal ticks required before acting.
  std::size_t up_ticks = 1;
  /// Scale-down signal: depth per active replica is at most this AND no
  /// request was shed or rejected since the previous tick.
  double scale_down_depth = 0.0;
  /// Consecutive down-signal ticks required before acting.
  std::size_t down_ticks = 2;
  /// Additional scale-up signal: deadline-SLO attainment since the previous
  /// tick (hits / (hits + misses), when any deadline was decided) fell below
  /// this. 0 disables the SLO signal (depth only).
  double slo_target = 0.0;

  void validate() const;
};

/// What the controller saw and did at one tick — one entry of the replayable
/// decision log. All fields are integral so the log checksums bitwise.
enum class AutoscaleAction { kHold = 0, kUp = 1, kDown = 2 };
struct AutoscaleDecision {
  /// `target` value when no replica was acted on.
  static constexpr std::size_t kNoTarget = static_cast<std::size_t>(-1);

  std::uint64_t tick = 0;           ///< 1-based controller tick index
  std::size_t queue_depth = 0;      ///< fleet queue depth sampled at the tick
  std::size_t active_replicas = 0;  ///< active replicas BEFORE the action
  std::uint64_t deadline_hits_delta = 0;    ///< since the previous tick
  std::uint64_t deadline_misses_delta = 0;  ///< since the previous tick
  std::size_t shed_delta = 0;               ///< shed since the previous tick
  std::size_t rejected_delta = 0;       ///< rejected since the previous tick
  bool quarantine_hold = false;  ///< a quarantined replica froze scaling
  AutoscaleAction action = AutoscaleAction::kHold;
  std::size_t target = kNoTarget;  ///< replica activated (kUp) / retired (kDown)
};

/// Splits an executor thread budget of `total` across `replicas` pools:
/// every replica gets total/replicas threads and the FIRST total%replicas
/// replicas get one extra, so the shares sum exactly to the budget (no
/// silently idled remainder threads). When replicas exceed the budget, every
/// replica gets the floor of one thread (intentional oversubscription).
std::vector<std::size_t> split_thread_budget(std::size_t total,
                                             std::size_t replicas);

/// Shard-level knobs on top of the per-replica BatchingConfig.
struct ShardConfig {
  std::size_t replicas = 2;
  /// Executor thread budget, split across replica CAPACITY by
  /// split_thread_budget (remainder distributed, shares sum to the budget).
  /// 0 = the global pool size (GS_NUM_THREADS). The split is computed once
  /// over max_replicas slots and never changes, so scale-up/down cannot
  /// perturb any replica's pool size (the determinism contracts hold across
  /// scale events); when replicas exceed the budget, the floor of one pool
  /// thread per replica intentionally oversubscribes it — size replicas ≤
  /// total_threads for equal-budget comparisons against a single-replica
  /// server.
  std::size_t total_threads = 0;
  /// Replica r programs its crossbars with analog seed base + r·stride —
  /// distinct chips realise distinct variation. Stride 0 makes all replicas
  /// program identical (useful for controlled experiments).
  std::uint64_t seed_stride = 1;
  BatchingConfig batching;  ///< per-replica coalescing + admission knobs
  /// Allow idle replicas to take ripe work from other replicas' queues.
  bool steal_work = true;
  HealthConfig health;  ///< canary probe set + lifecycle thresholds
  /// Reprogram quarantined replicas (maintenance thread only; manual
  /// recalibrate_now() always works). Off = quarantined replicas stay out —
  /// the ablation arm of the fault bench.
  bool auto_recalibrate = true;
  /// Period of the background probe/recalibrate thread; 0 = no thread,
  /// probing is manual (probe_now / recalibrate_now).
  std::chrono::microseconds probe_interval{0};
  /// Re-route attempts per request after its replica is quarantined;
  /// beyond this the request is shed.
  std::size_t max_retries = 1;
  /// Elastic replica scaling (default off: the fleet stays at `replicas`).
  AutoscaleConfig autoscale;
  /// Per-tenant fairness: cap on the queued+executing requests any single
  /// tenant (RequestOptions::tenant) may hold; beyond it that tenant's
  /// submits are rejected while other tenants keep being placed. 0 = no cap.
  std::size_t max_inflight_per_tenant = 0;

  void validate() const;
};

/// Per-replica serving counters (latency window per replica: kLatencyWindow
/// samples).
struct ReplicaStats {
  std::size_t completed = 0;
  std::size_t batches = 0;
  std::size_t stolen_batches = 0;  ///< batches taken from another queue
  std::size_t max_batch_seen = 0;
  double mean_batch = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  ReplicaHealth health = ReplicaHealth::kHealthy;
  std::size_t fault_injections = 0;  ///< inject_replica_faults calls
  std::size_t recalibrations = 0;    ///< successful rejoin count
  /// False for a replica slot currently retired (or never activated) by the
  /// autoscaler — it holds no queue and takes no placement.
  bool active = true;
};

/// Aggregate view plus the per-replica breakdown.
struct ShardStats {
  ServerStats aggregate;  ///< counters summed, percentiles over all replicas
  std::vector<ReplicaStats> replicas;
  std::size_t stolen_batches = 0;  ///< Σ replicas[i].stolen_batches
  std::size_t retried = 0;  ///< requests re-routed off a quarantined replica
  std::size_t recalibrations = 0;  ///< Σ replicas[i].recalibrations
  std::size_t active_replicas = 0;  ///< replicas currently taking placement
  /// Rejections issued by the per-tenant inflight cap (subset of
  /// aggregate.rejected).
  std::size_t tenant_rejected = 0;
  /// Requests re-routed off replicas retired by scale-down (voluntary — not
  /// counted as retries).
  std::size_t drained = 0;
  std::size_t autoscale_ups = 0;    ///< kUp decisions applied
  std::size_t autoscale_downs = 0;  ///< kDown decisions applied
};

class ShardedServer {
 public:
  /// Compiles `config.replicas` programs from `net` (per-replica analog
  /// seeds), builds one Executor + private ThreadPool per replica, records
  /// each replica's clean canary reference, and starts the dispatchers
  /// (plus the maintenance thread when probe_interval > 0). A pristine
  /// clone of `net` is kept for recalibration; `net` is only read during
  /// construction.
  ShardedServer(const nn::Network& net, const Shape& sample_shape,
                const CompileOptions& options = {}, ShardConfig config = {});
  /// One replica serving the BORROWED `executor` (which must outlive the
  /// server) with `config` — the BatchingServer engine. No compile, no
  /// network clone, no canary, no maintenance thread; the replica's pool is
  /// the executor's own. inject_replica_faults, probe_now, recalibrate_now,
  /// replica_reference_checksum and autoscale_tick_now reject it (GS_CHECK).
  /// Metrics register under engine="batching", without gs_replica_* series.
  ShardedServer(const Executor& executor, BatchingConfig config);
  ~ShardedServer();

  ShardedServer(const ShardedServer&) = delete;
  ShardedServer& operator=(const ShardedServer&) = delete;

  /// Enqueues one sample on the least-loaded active replica and returns a
  /// future for its logits (rank-1, classes). `options` carries the
  /// deadline (0 = `config.batching.admission.default_deadline`), tenant id
  /// and priority. Placement and displacement shedding order by (deadline,
  /// then priority); the per-tenant inflight cap rejects a tenant already
  /// holding max_inflight_per_tenant queued+executing requests. A full fleet
  /// queue, a shut-down server, or a predicted deadline miss rejects: the
  /// future carries std::runtime_error naming the reason.
  std::future<Tensor> submit(Tensor sample, const RequestOptions& options = {});

  /// Blocking convenience: submit + get.
  Tensor infer(const Tensor& sample);

  /// Stops accepting work, drains every queue, joins all dispatchers and
  /// the maintenance thread. Idempotent; also run by the destructor.
  void shutdown();

  /// Freezes (true) / thaws (false) every dispatcher without stopping
  /// submit(): queued work accumulates while paused. The deterministic
  /// fault bench uses this to build exact queue states before a burst is
  /// released.
  void set_paused(bool paused);

  // --- Fault-tolerance surface -------------------------------------------

  /// Injects a deterministic fault realisation into replica r's program
  /// (runtime::inject_faults, label "replica<r>:"), serialised against that
  /// replica's forwards. The replica keeps serving the faulty program until
  /// a probe catches it — detection is observational, as on real hardware.
  FaultInjectionReport inject_replica_faults(std::size_t r,
                                             const hw::FaultModelConfig& config);

  /// Runs replica r's canary now and advances its health state machine.
  /// On a transition into Quarantined the replica's queued requests are
  /// re-routed to active replicas (or shed). Thread-safe; also called by
  /// the maintenance thread.
  CanaryProbe probe_now(std::size_t r);

  /// Reprograms replica r from the pristine network clone (same compile
  /// options and seeds → bitwise the clean program), re-probes, and
  /// readmits the replica as Healthy when the probe is bitwise clean.
  /// Returns true when the replica rejoined.
  bool recalibrate_now(std::size_t r);

  /// Replica r's current lifecycle state.
  ReplicaHealth health(std::size_t r) const;

  /// Checksum of replica r's current programmed state (program_checksum
  /// under the replica's program lock — safe against concurrent
  /// injection/recalibration).
  std::uint64_t replica_program_checksum(std::size_t r) const;

  /// Checksum of replica r's clean canary reference logits (the
  /// recalibration target).
  std::uint64_t replica_reference_checksum(std::size_t r) const;

  /// Top-1 accuracy of replica r's CURRENT program over `dataset`, measured
  /// directly through its executor (deterministic — no scheduling
  /// dependence), under the replica's program lock.
  double evaluate_replica(std::size_t r, const data::Dataset& dataset,
                          std::size_t max_samples = 0,
                          std::size_t batch_size = 32) const;

  // --- Elasticity surface ------------------------------------------------

  /// Runs one autoscale controller tick NOW (requires autoscale.enabled):
  /// samples the controller inputs, decides, applies the action, appends to
  /// the decision log, and returns the decision. The maintenance thread
  /// calls this every probe tick; benches and tests drive it manually for
  /// deterministic replays.
  AutoscaleDecision autoscale_tick_now();

  /// Copy of the replayable decision log (one entry per tick so far).
  std::vector<AutoscaleDecision> autoscale_log() const;

  /// FNV-1a over every decision's fields in tick order — two replays with
  /// identical tick-by-tick inputs produce equal checksums bitwise.
  std::uint64_t autoscale_log_checksum() const;

  /// Replicas currently taking placement.
  std::size_t active_replica_count() const;

  ShardStats stats() const;

  /// The tracer sampling this server's requests (nullptr when tracing is
  /// off) — completed span trees are read through it.
  const obs::Tracer* tracer() const { return tracer_; }

  /// Provisioned replica SLOTS (the autoscale capacity) — not all of them
  /// are necessarily active or even compiled; see active_replica_count().
  std::size_t replica_count() const { return capacity_; }
  /// Pool threads replica r's executor runs on (the split_thread_budget
  /// share — fixed at construction, stable across scale events).
  std::size_t threads_for_replica(std::size_t r) const {
    return thread_split_.at(r);
  }
  /// The full per-replica thread split (shares sum to the budget whenever
  /// capacity ≤ budget).
  const std::vector<std::size_t>& thread_split() const { return thread_split_; }
  /// The program replica `r` executes (distinct analog seed per replica).
  /// NOT synchronised against concurrent injection/recalibration — callers
  /// quiesce those first (prefer replica_program_checksum for fingerprints).
  const CrossbarProgram& program(std::size_t r) const;

 private:
  struct Request {
    Tensor sample;
    std::promise<Tensor> promise;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline = kNoDeadline;
    std::uint64_t tenant = 0;
    int priority = 0;
    std::size_t attempts = 0;  ///< re-routes consumed (quarantine retries)
    std::uint64_t id = 0;  ///< submit-order id (trace sampling key)
    std::shared_ptr<obs::Trace> trace;  ///< non-null when sampled
    std::uint64_t queue_span = 0;       ///< open "queue" span id
  };

  /// One replica: a compiled program plus its private executor/pool, or a
  /// borrowed executor (the one-replica engine). Only the compiled program
  /// is mutable after construction (fault injection and recalibration), so
  /// only it carries a lock — everything the SERVING state machine mutates
  /// (queues, health, counters) lives in the parallel per-replica vectors
  /// below, where the guarding mutex is a sibling member the thread-safety
  /// analysis can name.
  struct Replica {
    /// Serialises program mutation (fault injection, recalibration) against
    /// forwards: forwards/probes hold it shared, mutators exclusive.
    mutable SharedMutex program_mutex;
    /// The compiled program (unused by a borrowed replica).
    CrossbarProgram program GS_GUARDED_BY(program_mutex);
    CompileOptions options;  ///< exact options (incl. seed) for reprogramming
    std::unique_ptr<ThreadPool> pool;
    std::unique_ptr<Executor> owned_executor;
    /// What forwards run on: owned_executor, or the borrowed executor.
    const Executor* executor = nullptr;
    /// Clean canary reference; null for a borrowed replica (no lifecycle).
    std::unique_ptr<CanarySet> canary;
  };

  /// Per-replica serving counters (guarded by stats_mutex_ as a whole
  /// vector; indexed by replica).
  struct ReplicaCounters {
    std::size_t completed = 0;
    std::size_t batches = 0;
    std::size_t stolen_batches = 0;
    std::size_t max_batch_seen = 0;
    std::size_t fault_injections = 0;
    std::size_t recalibrations = 0;
    LatencyWindow latencies{kLatencyWindow};
  };

  /// Constructor steps shared by both constructors: metrics (engine="sharded"
  /// with gs_replica_* series, or engine="batching" without them when
  /// `borrowed`), the tracer, and the serving state of capacity_ empty
  /// replica slots.
  void init_serving(bool borrowed);
  /// Last constructor step: one dispatcher per slot, plus the maintenance
  /// thread when probe_interval > 0.
  void start_threads();
  void dispatch_loop(std::size_t self);
  void maintenance_loop();
  /// Compiles replica r's program/executor/canary into its slot (no-op when
  /// already built). The compile runs unlocked; the slot install takes
  /// mutex_, which publishes the build to every later reader.
  void build_replica(std::size_t r) GS_EXCLUDES(mutex_);
  /// Replica r's built slot (GS_CHECKs it exists). Slots are never torn down
  /// once built, so the reference stays valid after mutex_ is released.
  Replica& replica_ref(std::size_t r) const GS_EXCLUDES(mutex_);
  /// replica_ref for the fault lifecycle: GS_CHECKs that replica r has one
  /// (a borrowed executor's program is not the server's to mutate or probe).
  Replica& lifecycle_ref(std::size_t r) const GS_EXCLUDES(mutex_);
  /// Re-routes every request queued on replica r to active replicas via
  /// placement; requests that cannot be placed land in `shed`. With
  /// `count_retry` each move consumes a retry attempt (the quarantine path);
  /// without, moves are free (the voluntary scale-down drain). Returns the
  /// number re-routed.
  std::size_t reroute_queue(std::size_t r, std::vector<Request>& shed,
                            bool count_retry) GS_REQUIRES(mutex_);
  /// Decrements `tenant`'s inflight count, erasing the entry at zero. No-op
  /// when the per-tenant cap is disabled (the count is only maintained when
  /// it is enforced).
  void release_tenant(std::uint64_t tenant) GS_REQUIRES(mutex_);
  /// Scale-up admission: builds replica r if needed, probes its canary, and
  /// (when the probe is not bitwise clean — e.g. faults were injected while
  /// the slot was retired) reprograms from the pristine clone and re-probes.
  /// Activates the replica only on a bitwise-clean probe; returns whether it
  /// was admitted.
  bool activate_replica(std::size_t r) GS_EXCLUDES(mutex_);
  /// Scale-down: deactivates replica r and re-routes its queue to the
  /// survivors (the slot stays built and warm for future re-activation).
  void retire_replica(std::size_t r) GS_EXCLUDES(mutex_);
  /// Pops up to max_batch non-expired requests from `victim`'s queue;
  /// expired ones land in `expired`.
  std::vector<Request> take_batch(std::size_t victim,
                                  std::vector<Request>& expired)
      GS_REQUIRES(mutex_);
  /// Ripe steal victim for `self`: an ACTIVE replica whose queue holds a
  /// full batch or whose oldest request passed its coalescing deadline;
  /// SIZE_MAX when none.
  std::size_t ripe_victim(std::size_t self,
                          std::chrono::steady_clock::time_point now) const
      GS_REQUIRES(mutex_);
  void run_batch(std::size_t self, std::size_t victim,
                 std::vector<Request>& requests) GS_EXCLUDES(mutex_);
  /// Sheds `expired` requests (rejects their futures, counts them). Takes
  /// stats_mutex_; must be called without mutex_ held.
  void shed_requests(std::vector<Request>& expired, const char* reason)
      GS_EXCLUDES(mutex_);
  /// Active (non-quarantined) replica with the shortest queue; SIZE_MAX
  /// when none.
  std::size_t placement_target(std::size_t exclude) const GS_REQUIRES(mutex_);
  /// Finishes the trace of a request dropped before execution (annotates the
  /// root span with `result` and hands the trace to the tracer).
  void finish_dropped(Request& request, const char* result) const;
  /// Refreshes the queue-depth gauges (per replica + engine aggregate).
  void update_queue_gauges() const GS_REQUIRES(mutex_);
  /// Records a health transition of replica r into `state` on the replica's
  /// gauge + transition counters (no-op when metrics are off).
  void record_health(std::size_t r, ReplicaHealth state) const;

  ShardConfig config_;
  nn::Network network_;  ///< pristine clone — the recalibration source
  Shape sample_shape_;   ///< == every replica program's input_shape()
  CompileOptions base_options_;  ///< seed base for lazily-built replicas
  std::size_t capacity_ = 0;  ///< provisioned replica slots (autoscale max)
  /// Per-replica pool sizes (split_thread_budget over capacity_) — fixed at
  /// construction so scale events never perturb any replica's pool.
  std::vector<std::size_t> thread_split_;
  /// Replica slots, sized to capacity_ in the constructor. The POINTERS are
  /// guarded by mutex_ (scale-up installs lazily-compiled slots); a slot,
  /// once built, is never torn down, so a non-null Replica* remains valid
  /// after the lock is dropped. Per-replica program state is guarded by each
  /// Replica's own program_mutex.
  std::vector<std::unique_ptr<Replica>> replicas_ GS_GUARDED_BY(mutex_);

  /// Registry-backed serving metrics (null when observability.metrics off).
  /// The per-sample profile is NOT priced once here: fault injection and
  /// recalibration mutate replica programs (including skip flags), so
  /// run_batch re-prices under the replica's program lock.
  std::unique_ptr<obs::ServingMetrics> metrics_;
  std::unique_ptr<obs::FleetMetrics> fleet_metrics_;
  std::vector<std::unique_ptr<obs::ReplicaMetrics>> replica_metrics_;
  std::unique_ptr<obs::Tracer> owned_tracer_;
  obs::Tracer* tracer_ = nullptr;  ///< external or owned; null = no tracing
  std::atomic<std::uint64_t> next_request_id_{1};

  mutable Mutex mutex_;  ///< guards queues, health, paused_, stopping_
  CondVar queue_cv_;
  bool stopping_ GS_GUARDED_BY(mutex_) = false;
  bool paused_ GS_GUARDED_BY(mutex_) = false;
  /// Request queue of replica r (placement, coalescing, stealing and
  /// re-routing all mutate these under mutex_).
  std::vector<std::deque<Request>> queues_ GS_GUARDED_BY(mutex_);
  /// Lifecycle state of replica r.
  std::vector<ReplicaHealth> health_ GS_GUARDED_BY(mutex_);
  /// Hysteresis tracker of replica r (observe() only under mutex_).
  std::vector<std::unique_ptr<HealthTracker>> trackers_ GS_GUARDED_BY(mutex_);
  /// Whether replica r currently takes placement (autoscale active set;
  /// always all-true when autoscaling is off).
  std::vector<char> active_ GS_GUARDED_BY(mutex_);
  /// Queued+executing requests per tenant (std::map: deterministic-iteration
  /// container discipline). Entries are erased at zero so idle tenants don't
  /// accumulate.
  std::map<std::uint64_t, std::size_t> tenant_inflight_ GS_GUARDED_BY(mutex_);

  mutable Mutex stats_mutex_;
  std::vector<ReplicaCounters> counters_ GS_GUARDED_BY(stats_mutex_);
  std::size_t rejected_ GS_GUARDED_BY(stats_mutex_) = 0;
  std::size_t admission_rejected_ GS_GUARDED_BY(stats_mutex_) = 0;
  std::size_t tenant_rejected_ GS_GUARDED_BY(stats_mutex_) = 0;
  std::size_t shed_ GS_GUARDED_BY(stats_mutex_) = 0;
  std::size_t retried_ GS_GUARDED_BY(stats_mutex_) = 0;
  std::size_t drained_ GS_GUARDED_BY(stats_mutex_) = 0;
  std::size_t failed_ GS_GUARDED_BY(stats_mutex_) = 0;
  std::size_t deadline_hits_ GS_GUARDED_BY(stats_mutex_) = 0;
  std::size_t deadline_misses_ GS_GUARDED_BY(stats_mutex_) = 0;
  std::atomic<double> ewma_batch_cost_us_{0.0};

  /// Controller state — serialises ticks and guards the decision log.
  /// Acquired BEFORE any other lock (autoscale_mutex_ → program_mutex →
  /// mutex_ → stats_mutex_); nothing below it ever takes it.
  mutable Mutex autoscale_mutex_;
  std::vector<AutoscaleDecision> decision_log_ GS_GUARDED_BY(autoscale_mutex_);
  std::uint64_t tick_ GS_GUARDED_BY(autoscale_mutex_) = 0;
  std::size_t up_streak_ GS_GUARDED_BY(autoscale_mutex_) = 0;
  std::size_t down_streak_ GS_GUARDED_BY(autoscale_mutex_) = 0;
  /// Counter snapshots from the previous tick (delta inputs).
  std::uint64_t last_hits_ GS_GUARDED_BY(autoscale_mutex_) = 0;
  std::uint64_t last_misses_ GS_GUARDED_BY(autoscale_mutex_) = 0;
  std::size_t last_shed_ GS_GUARDED_BY(autoscale_mutex_) = 0;
  std::size_t last_rejected_ GS_GUARDED_BY(autoscale_mutex_) = 0;

  Mutex join_mutex_;  ///< serializes shutdown()'s joinable-check + join
  /// Dispatcher thread of replica r (started last in the constructor).
  std::vector<std::thread> dispatchers_ GS_GUARDED_BY(join_mutex_);
  /// Runs when config_.probe_interval > 0.
  std::thread maintenance_ GS_GUARDED_BY(join_mutex_);
};

/// Top-1 accuracy through the sharded serving path (submit every sample of
/// the first `max_samples`, 0 = all) — the serving counterpart of
/// runtime::evaluate, so sharded accuracy can be reported next to
/// single-program runtime accuracy. On an ideal device the two are
/// identical by replica bitwise-equality.
double evaluate(ShardedServer& server, const data::Dataset& dataset,
                std::size_t max_samples = 0, std::size_t batch_size = 32);

}  // namespace gs::runtime
