// Batched execution of a compiled CrossbarProgram.
//
// The executor is stateless with respect to requests (forward() is const and
// thread-safe), so one compiled program can serve many concurrent callers —
// the serving engine (runtime/server.hpp) relies on this.
//
// Parallelism & determinism: every crossbar stage is dispatched on the
// gs::ThreadPool as independent input-row-block tasks — one task per
// disjoint output region, as in the GEMM kernel — and each task walks its
// rows in panels of hw::AnalogCrossbar::kPanelRows input vectors. A
// panel's converter front end runs once (per-vector full scale and DAC;
// a conv step's first stage gathers its im2col patch rows straight from
// the image), then one tile loop serves padded and repacked plans: per
// tile column, each tile in ascending tile row runs the row-panel MVM
// (AnalogCrossbar::matvec_panel — each weight loaded once per panel), its
// ADC, and the add into the column's partial sums. Every output keeps the
// per-row arithmetic — MVM from +0.0 in ascending weight-row order, ADC
// per tile, add in ascending tile-row order — so it is a pure function of
// its own input vector and the tile schedule, independent of the thread
// count, the blocking and the batch mates: results are bitwise identical
// for any GS_NUM_THREADS and any batch composition.
//
// Tile skipping: tiles the compiler marked `skip` (provably-zero
// contribution — the empty crossbars group connection deletion leaves
// behind) are elided from the MVM→ADC loop. The marking criterion
// guarantees the elided partial sum is exactly zero, so skipped and
// unskipped programs of the same network produce bitwise-identical logits;
// on heavily-deleted networks skipping removes most of the per-forward
// arithmetic (see BENCH_runtime.json `tile_skip`).
//
// Converter model: DAC full scale is the per-input-vector max |x| (each
// sample / im2col patch row carries its own scale, so batched and
// single-sample execution agree exactly); ADC full scale is the no-overload
// bound x_max · w_max · P for a P-row tile. Both quantise through
// LaneQuantizer (runtime/lane_quantizer.hpp): quantize_uniform's exact bits,
// its constants derived once per vector, 8 conversions per call.
#pragma once

#include <cstddef>
#include <cstdint>

#include "data/dataset.hpp"
#include "obs/exec_profile.hpp"
#include "runtime/program.hpp"

namespace gs {
class ThreadPool;
}

namespace gs::obs {
class Trace;
}

namespace gs::runtime {

/// Optional per-request trace attachment for a forward: when `trace` is
/// non-null the executor records per-step and per-stage spans (annotated
/// with tile/ADC counts) under `parent`. Tracing only observes — it never
/// touches the arithmetic, so traced and untraced forwards are bitwise
/// identical.
struct ForwardTrace {
  obs::Trace* trace = nullptr;
  std::uint64_t parent = 0;  ///< span id the execute detail nests under
};

/// Thread-safety: forward() is const and safe from any number of threads
/// (the serving engines share one executor across dispatchers); the only
/// mutator is set_thread_pool(), which must not race forward().
/// Determinism: logits are bitwise identical at any pool size and invariant
/// to batch composition (per-input-vector converter scales); a traced
/// forward returns bitwise the same logits as an untraced one.
class Executor {
 public:
  /// Binds to `program` (borrowed; must outlive the executor). `pool`
  /// defaults to ThreadPool::global().
  explicit Executor(const CrossbarProgram& program,
                    ThreadPool* pool = nullptr);

  /// Runs a batch (B × sample dims) through the whole program; returns the
  /// logits (B × classes). Thread-safe; bitwise deterministic at any pool
  /// size.
  Tensor forward(const Tensor& batch) const;

  /// As above, recording execution-detail spans into `trace.trace` when
  /// set (see ForwardTrace).
  Tensor forward(const Tensor& batch, const ForwardTrace& trace) const;

  /// Per-sample energy-proxy profile of the bound program's CURRENT state
  /// (skip flags are live; see obs/exec_profile.hpp). Callers serialise
  /// against program mutation exactly as for forward().
  obs::ExecProfile profile() const { return obs::profile_program(*program_); }

  /// Injects an ad-hoc pool (nullptr restores the global pool) — used by the
  /// determinism tests.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }

  /// The pool forward() runs on: the injected one, else ThreadPool::global().
  ThreadPool& pool() const;

  const CrossbarProgram& program() const { return *program_; }

 private:
  /// A dense, low-rank or conv step: its crossbar stages in order, each one
  /// pass over the batch (a conv step streams im2col patch rows into its
  /// first stage and writes channel-major output from its last), with the
  /// bias added as the last stage writes.
  Tensor run_crossbar(const Step& step, const Tensor& act,
                      const ForwardTrace& trace) const;
  Tensor run_pool(const Step& step, const Tensor& act) const;

  const CrossbarProgram* program_;
  ThreadPool* pool_;
};

/// Top-1 accuracy of the compiled program over `dataset` (first
/// `max_samples`, 0 = all) — the runtime counterpart of nn::evaluate, so
/// analog inference accuracy can be reported next to digital accuracy.
double evaluate(const Executor& executor, const data::Dataset& dataset,
                std::size_t max_samples = 0, std::size_t batch_size = 32);

}  // namespace gs::runtime
