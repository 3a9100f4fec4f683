// Crossbar-runtime bench: the runtime numbers nothing else in the repo
// measures.
//
// Trains LeNet briefly, then builds a HEAVILY-DELETED LeNet (tile-aligned
// group-deletion masks + masked fine-tune — the workload the paper's
// pipeline produces, where most crossbars end up completely empty) and
// records:
//  * nonideal_accuracy — accuracy through quantised converters, and their
//    cost per DAC/ADC conversion (batch-32 forward of the quantised program
//    minus the ideal one, priced by the obs::profile_program counts);
//  * tile_skip — the deleted program with and without skip-marked tiles:
//    the forward speedup of eliding the empty tiles, and accuracy;
//  * repack — CompileOptions::repack lowers the deleted network onto fewer,
//    fuller crossbars (speedup vs the skip path, conversion counts), plus
//    the digital block-compressed GEMM arm (nn::pack_compressed_inference)
//    as effective GFLOP/s at the dense nominal flop count;
//  * runtime_observability_profile / _overhead — per-sample energy proxies
//    with skipping on vs off, and the closed-loop throughput cost of full
//    observability (metrics + every-request tracing);
//  * noisy_finetune — fine-tuning against sampled chip realisations vs a
//    digital fine-tune, graded on a nonideal chip and on a held-out chip;
//  * serving_faults — a scripted fault schedule against bursty traffic,
//    recalibration ON vs OFF;
//  * serving_trace — a seeded bursty/diurnal open-loop trace
//    (trace_replay.hpp) against the elastic fleet, autoscale ON vs OFF at
//    equal thread budget.
//
// Every timing comparison runs through time_interleaved (bench_util.hpp)
// and is recorded as min/median/max over its interleaved rounds. Serving
// throughput and latency are measured by perfbench (perfbench/README.md);
// the determinism and accounting invariants behind these scenarios are
// ctest cases (docs/ARCHITECTURE.md names each).
//
// Writes BENCH_runtime.json in the working directory. Thread count follows
// GS_NUM_THREADS. Pass --smoke for a tiny-budget run that prints but writes
// no JSON.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/check.hpp"
#include "trace_replay.hpp"
#include "nn/trainer.hpp"
#include "obs/exec_profile.hpp"
#include "obs/metrics.hpp"
#include "runtime/health.hpp"
#include "runtime/noise_model.hpp"
#include "runtime/shard.hpp"

namespace gs::bench {
namespace {

struct Budget {
  std::size_t train_iters;
  std::size_t clients;
  std::size_t per_client;
  std::size_t eval_samples;
  std::size_t finetune_iters;
  int reps;  ///< interleaved timing rounds
};

Tensor random_samples(std::size_t count, std::uint64_t seed) {
  Tensor t(Shape{count, 1, 28, 28});
  Rng rng(seed);
  t.fill_uniform(rng, 0.0f, 1.0f);
  return t;
}

Tensor slice_sample(const Tensor& batch, std::size_t index) {
  Tensor s(Shape{1, 28, 28});
  const std::size_t n = s.numel();
  std::copy(batch.data() + index * n, batch.data() + (index + 1) * n,
            s.data());
  return s;
}

/// The first 32 samples of `pool` as one batch.
Tensor batch32_of(const Tensor& pool) {
  Tensor batch(Shape{32, 1, 28, 28});
  std::copy(pool.data(), pool.data() + batch.numel(), batch.data());
  return batch;
}

/// One closed-loop serving run: `clients` threads, each issuing
/// `per_client` blocking requests.
void serve_closed_loop(runtime::BatchingServer& server, const Tensor& pool,
                       std::size_t clients, std::size_t per_client) {
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      for (std::size_t r = 0; r < per_client; ++r) {
        server.infer(slice_sample(pool, (c * per_client + r) % pool.dim(0)));
      }
    });
  }
  for (std::thread& w : workers) w.join();
}

/// Zeroes matrix rows [begin, end) — one tile-aligned group-deletion band.
void zero_rows(Tensor& w, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    for (std::size_t j = 0; j < w.cols(); ++j) w.at(i, j) = 0.0f;
  }
}

/// Folds one value into a replay fingerprint (the FNV-1a step perfbench
/// applies to runtime::tensor_checksum values).
std::uint64_t fold(std::uint64_t hash, std::uint64_t value) {
  return (hash ^ value) * 1099511628211ULL;
}

std::string hex(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace
}  // namespace gs::bench

int main(int argc, char** argv) {
  using namespace gs;
  using namespace gs::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const Budget budget = smoke ? Budget{30, 8, 4, 16, 20, 3}
                              : Budget{iters(400), 32, 16, 64, iters(300), 11};

  section(smoke ? "runtime_serving (smoke): crossbar inference runtime"
                : "runtime_serving: crossbar inference runtime");

  // A briefly-trained model, so the accuracy records measure real signal
  // (an untrained net scores chance for every device setting).
  TrainedModel model = trained_lenet(budget.train_iters);
  nn::Network& net = model.net;
  note("lenet trained " + std::to_string(budget.train_iters) +
       " iters, digital accuracy " + std::to_string(model.accuracy));
  const Shape sample_shape{1, 28, 28};
  std::vector<BenchRecord> records;

  // --- Nonideal end-to-end: accuracy through quantised converters, and
  // what the converters cost: batch-32 forwards of the ideal and the
  // quantised program, their per-round difference priced per DAC and ADC
  // conversion of the batch (obs::profile_program counts).
  {
    const Tensor batch32 = batch32_of(random_samples(64, 9));
    const data::SyntheticMnist test_set(/*seed=*/2, budget.eval_samples);
    runtime::CompileOptions nonideal;
    nonideal.analog.levels = 64;
    nonideal.converters.dac_levels = 255;
    nonideal.converters.adc_levels = 4095;
    const runtime::CrossbarProgram ideal = runtime::compile(net, sample_shape);
    const runtime::CrossbarProgram quantized =
        runtime::compile(net, sample_shape, nonideal);
    const runtime::Executor iexec(ideal);
    const runtime::Executor qexec(quantized);
    const double ideal_acc =
        runtime::evaluate(iexec, test_set, budget.eval_samples);
    const double quant_acc =
        runtime::evaluate(qexec, test_set, budget.eval_samples);
    const InterleavedTimes times =
        time_interleaved({[&] { iexec.forward(batch32); },
                          [&] { qexec.forward(batch32); }},
                         budget.reps);
    const obs::ExecProfile profile = obs::profile_program(quantized);
    const double conversions =
        32.0 * static_cast<double>(profile.dac_conversions +
                                   profile.adc_conversions);
    const Spread ns_per_conversion =
        times.paired(1, 0, [&](double quant_s, double ideal_s) {
          return (quant_s - ideal_s) / conversions * 1e9;
        });
    BenchRecord rec;
    rec.name = "nonideal_accuracy";
    rec.label("device", "64-level cells, 8-bit DAC, 12-bit ADC");
    rec.metric("ideal_accuracy", ideal_acc)
        .metric("quantized_accuracy", quant_acc)
        .metric("eval_samples", static_cast<double>(budget.eval_samples))
        .spread("ideal_batch32_seconds", times.arm(0))
        .spread("quantized_batch32_seconds", times.arm(1))
        .spread("converter_ns_per_conversion", ns_per_conversion);
    records.push_back(rec);
    std::printf(
        "nonideal_accuracy           ideal %.3f   quantized %.3f   batch32 "
        "%.2fms vs %.2fms, converters %.2f [%.2f, %.2f] ns/conversion\n",
        ideal_acc, quant_acc, times.arm(0).median * 1e3,
        times.arm(1).median * 1e3, ns_per_conversion.median,
        ns_per_conversion.min, ns_per_conversion.max);
  }

  // --- Heavily-deleted model: the workload group connection deletion
  // produces. Tile-aligned masks delete conv2 rows [100,500) and fc1 rows
  // [200,800) — under the paper technology both matrices tile at 50 rows,
  // so 8/10 conv2 tiles and 120/160 fc1 tiles end up completely empty —
  // then a masked fine-tune recovers accuracy with the wires gone.
  const auto apply_masks = [](nn::Network& n) {
    const nn::Layer* conv2 = n.find("conv2");
    const nn::Layer* fc1 = n.find("fc1");
    GS_CHECK_MSG(conv2 != nullptr && fc1 != nullptr &&
                     conv2->weight_matrices().size() == 1 &&
                     fc1->weight_matrices().size() == 1,
                 "deleted-lenet section expects plain conv2/fc1 layers");
    zero_rows(*conv2->weight_matrices().front().value, 100, 500);
    zero_rows(*fc1->weight_matrices().front().value, 200, 800);
  };
  // Masked SGD at 0.3× the LeNet rate (a gentle recovery phase).
  const auto masked_train = [&](nn::Network& n, std::uint64_t batch_seed) {
    const auto train_set = mnist_train();
    data::Batcher batcher(train_set, 25, Rng(batch_seed));
    nn::SgdConfig sgd = lenet_sgd();
    sgd.learning_rate *= 0.3f;
    nn::SgdOptimizer opt(sgd);
    nn::train(n, opt, batcher, budget.finetune_iters, {},
              [&](nn::Network& m, std::size_t) { apply_masks(m); });
  };
  nn::Network deleted = core::clone_network(net);
  apply_masks(deleted);
  masked_train(deleted, 31);
  const data::SyntheticMnist eval_set(/*seed=*/2, budget.eval_samples);
  note("deleted lenet fine-tuned " + std::to_string(budget.finetune_iters) +
       " iters, digital accuracy " +
       std::to_string(nn::evaluate(deleted, eval_set)));

  runtime::CompileOptions skip_options;  // skip_empty_tiles defaults on
  runtime::CompileOptions noskip_options;
  noskip_options.skip_empty_tiles = false;
  const runtime::CrossbarProgram deleted_skip =
      runtime::compile(deleted, sample_shape, skip_options);
  const runtime::CrossbarProgram deleted_noskip =
      runtime::compile(deleted, sample_shape, noskip_options);
  const runtime::Executor skip_exec(deleted_skip);
  const runtime::Executor noskip_exec(deleted_noskip);
  const Tensor deleted_pool = random_samples(64, 13);
  const Tensor deleted_batch = batch32_of(deleted_pool);

  // --- Tile-skip ablation: same deleted network, skip marking on vs off
  // (bitwise-identical logits by contract — TileSkipTest).
  {
    const InterleavedTimes times =
        time_interleaved({[&] { noskip_exec.forward(deleted_batch); },
                          [&] { skip_exec.forward(deleted_batch); }},
                         budget.reps);
    const double acc_skip =
        runtime::evaluate(skip_exec, eval_set, budget.eval_samples);
    const double acc_noskip =
        runtime::evaluate(noskip_exec, eval_set, budget.eval_samples);
    const Spread speedup = times.ratio(0, 1);
    BenchRecord rec;
    rec.name = "tile_skip";
    rec.label("network", "heavily-deleted lenet").label("device", "ideal");
    rec.metric("tiles", static_cast<double>(deleted_skip.tile_count()))
        .metric("skipped_tiles",
                static_cast<double>(deleted_skip.skipped_tile_count()))
        .spread("noskip_batch32_seconds", times.arm(0))
        .spread("skip_batch32_seconds", times.arm(1))
        .spread("speedup", speedup)
        .metric("accuracy_noskip", acc_noskip)
        .metric("accuracy_skip", acc_skip);
    records.push_back(rec);
    std::printf(
        "tile_skip                   %zu/%zu tiles skipped  x%.2f [%.2f, "
        "%.2f] forward  (accuracy %.3f/%.3f)\n",
        deleted_skip.skipped_tile_count(), deleted_skip.tile_count(),
        speedup.median, speedup.min, speedup.max, acc_noskip, acc_skip);
  }

  // --- Repacked execution: run the COMPRESSED network instead of skipping
  // holes in the padded one. CompileOptions::repack lowers each matrix onto
  // its repacked placement (fewer, fuller crossbars with gather/scatter
  // index maps), so the analog schedule holds strictly fewer tiles than the
  // padded program even AFTER skipping, converts fewer DAC/ADC values, and
  // moves less partial-sum traffic — with logits bitwise identical to the
  // padded skip path on the ideal device (RepackExecTest). A digital
  // companion runs the same deleted network through the block-compressed
  // GEMM path and reports effective GFLOP/s at the DENSE nominal flop count
  // for both arms, so the compressed win shows as higher effective
  // throughput on identical work.
  {
    runtime::CompileOptions repack_options;
    repack_options.repack = true;
    const InterleavedTimes compile_times = time_interleaved(
        {[&] { runtime::compile(deleted, sample_shape, repack_options); }},
        budget.reps);
    const runtime::CrossbarProgram deleted_repacked =
        runtime::compile(deleted, sample_shape, repack_options);
    GS_CHECK_MSG(deleted_repacked.repacked(),
                 "ideal device must pass the repack exactness gate");
    const runtime::Executor repack_exec(deleted_repacked);
    const InterleavedTimes times =
        time_interleaved({[&] { skip_exec.forward(deleted_batch); },
                          [&] { repack_exec.forward(deleted_batch); }},
                         budget.reps);
    const Spread speedup = times.ratio(0, 1);
    const double acc_repack =
        runtime::evaluate(repack_exec, eval_set, budget.eval_samples);

    // Conversion/energy proxies: the repacked schedule vs the skip path.
    const obs::ExecProfile repack_cost = obs::profile_program(deleted_repacked);
    const obs::ExecProfile skip_cost = obs::profile_program(deleted_skip);

    // Digital arm: dense forward vs the block-compressed GEMM path, at the
    // dense nominal matmul flop count (2·rows·cols per matrix stage, times
    // output positions for conv stages, per sample).
    double nominal_flops_per_sample = 0.0;
    for (const runtime::Step& step : deleted_skip.steps()) {
      const double positions =
          step.kind == runtime::Step::Kind::kConv
              ? static_cast<double>(step.geometry.out_height() *
                                    step.geometry.out_width())
              : 1.0;
      for (const runtime::MatrixPlan& plan : step.stages) {
        nominal_flops_per_sample += 2.0 * static_cast<double>(plan.grid.rows) *
                                    static_cast<double>(plan.grid.cols) *
                                    positions;
      }
    }
    const double nominal_gflops = nominal_flops_per_sample *
                                  static_cast<double>(deleted_batch.dim(0)) /
                                  1e9;
    nn::Network packed = core::clone_network(deleted);
    const std::size_t packed_layers = nn::pack_compressed_inference(packed);
    const float digital_diff =
        max_abs_diff(deleted.forward(deleted_batch, /*train=*/false),
                     packed.forward(deleted_batch, /*train=*/false));
    const InterleavedTimes digital =
        time_interleaved({[&] { deleted.forward(deleted_batch, false); },
                          [&] { packed.forward(deleted_batch, false); }},
                         budget.reps);
    const auto gflops = [&](double s) { return nominal_gflops / s; };
    const Spread dense_gflops = digital.arm(0).map(gflops);
    const Spread compressed_gflops = digital.arm(1).map(gflops);

    BenchRecord rec;
    rec.name = "repack";
    rec.label("network", "heavily-deleted lenet").label("device", "ideal");
    rec.spread("compile_seconds", compile_times.arm(0))
        .metric("tiles", static_cast<double>(deleted_repacked.tile_count()))
        .metric("removed_tiles",
                static_cast<double>(deleted_repacked.removed_tile_count()))
        .metric("padded_tiles", static_cast<double>(deleted_skip.tile_count()))
        .metric("programmed_cells",
                static_cast<double>(deleted_repacked.programmed_cell_count()))
        .metric("padded_cells",
                static_cast<double>(deleted_repacked.padded_cell_count()))
        .metric("programmed_cells_ratio",
                static_cast<double>(deleted_repacked.programmed_cell_count()) /
                    static_cast<double>(deleted_repacked.padded_cell_count()))
        .spread("skip_batch32_seconds", times.arm(0))
        .spread("repack_batch32_seconds", times.arm(1))
        .spread("speedup_vs_skip", speedup)
        .metric("dac_conversions",
                static_cast<double>(repack_cost.dac_conversions))
        .metric("adc_conversions",
                static_cast<double>(repack_cost.adc_conversions))
        .metric("skip_dac_conversions",
                static_cast<double>(skip_cost.dac_conversions))
        .metric("skip_adc_conversions",
                static_cast<double>(skip_cost.adc_conversions))
        .metric("partial_sum_bytes",
                static_cast<double>(repack_cost.partial_sum_bytes))
        .metric("accuracy_repack", acc_repack)
        // Digital block-compressed GEMM arm (same network, same batch).
        .metric("packed_layers", static_cast<double>(packed_layers))
        .spread("digital_dense_gflops", dense_gflops)
        .spread("digital_compressed_gflops", compressed_gflops)
        .spread("digital_speedup", digital.ratio(0, 1))
        .metric("digital_max_logit_diff", digital_diff);
    records.push_back(rec);
    std::printf(
        "repack                      %zu tiles (vs %zu padded, %.0f%% cells)  "
        "x%.2f [%.2f, %.2f] vs skip\n",
        deleted_repacked.tile_count(), deleted_skip.tile_count(),
        100.0 * static_cast<double>(deleted_repacked.programmed_cell_count()) /
            static_cast<double>(deleted_repacked.padded_cell_count()),
        speedup.median, speedup.min, speedup.max);
    std::printf(
        "repack (digital)            dense %.2f GFLOP/s -> compressed %.2f "
        "GFLOP/s effective  (max diff %.2e)\n",
        dense_gflops.median, compressed_gflops.median, digital_diff);
  }

  // --- Observability: the unified metrics/tracing/profiling layer. Two
  // records form the runtime_observability family:
  //  * runtime_observability_profile — the paper's per-request energy
  //    proxies (DAC/ADC conversions, analog MVMs, partial-sum traffic) on
  //    the heavily-deleted model, tile skipping on vs off (a static program
  //    walk);
  //  * runtime_observability_overhead — the closed-loop drill with FULL
  //    observability (metrics + every-request tracing) vs disabled on the
  //    same executor, in interleaved rounds. Measured, not gated: the
  //    deterministic per-request tracing cost is an ObservabilityTest case.
  {
    const obs::ExecProfile with_skip = obs::profile_program(deleted_skip);
    const obs::ExecProfile no_skip = obs::profile_program(deleted_noskip);
    const double adc_saved_pct =
        100.0 * (1.0 - static_cast<double>(with_skip.adc_conversions) /
                           static_cast<double>(no_skip.adc_conversions));
    BenchRecord prof;
    prof.name = "runtime_observability_profile";
    prof.label("network", "heavily-deleted lenet")
        .label("unit", "per sample (one inference)");
    prof.metric("tiles", static_cast<double>(deleted_skip.tile_count()))
        .metric("tiles_skipped", static_cast<double>(with_skip.tiles_skipped))
        .metric("tiles_executed",
                static_cast<double>(with_skip.tiles_executed))
        .metric("dac_conversions",
                static_cast<double>(with_skip.dac_conversions))
        .metric("adc_conversions",
                static_cast<double>(with_skip.adc_conversions))
        .metric("analog_mvms", static_cast<double>(with_skip.analog_mvms))
        .metric("digital_flops",
                static_cast<double>(with_skip.digital_flops))
        .metric("partial_sum_bytes",
                static_cast<double>(with_skip.partial_sum_bytes))
        .metric("noskip_adc_conversions",
                static_cast<double>(no_skip.adc_conversions))
        .metric("noskip_analog_mvms",
                static_cast<double>(no_skip.analog_mvms))
        // Energy-proxy saving the deletion-aware skipping buys at runtime.
        .metric("adc_conversions_saved_pct", adc_saved_pct);
    records.push_back(prof);
    std::printf(
        "runtime_observability       profile: %llu/%llu tiles skipped, "
        "%llu ADC conv/sample (%.0f%% saved vs no-skip)\n",
        static_cast<unsigned long long>(with_skip.tiles_skipped),
        static_cast<unsigned long long>(deleted_skip.tile_count()),
        static_cast<unsigned long long>(with_skip.adc_conversions),
        adc_saved_pct);

    // The production config: max_batch 32, 2 ms coalescing deadline.
    runtime::BatchingConfig production;
    production.max_batch = 32;
    production.max_delay = std::chrono::microseconds(2000);
    obs::Registry registry;
    runtime::BatchingConfig obs_on = production;
    obs_on.observability.registry = &registry;
    obs_on.observability.trace_sample_every = 1;  // trace EVERY request
    obs_on.observability.trace_keep = 16;
    runtime::BatchingConfig obs_off = production;
    obs_off.observability.metrics = false;
    runtime::BatchingServer lit(skip_exec, obs_on);
    runtime::BatchingServer dark(skip_exec, obs_off);

    const double total = static_cast<double>(budget.clients *
                                             budget.per_client);
    const auto serve_dark = [&] {
      serve_closed_loop(dark, deleted_pool, budget.clients, budget.per_client);
    };
    const auto serve_lit = [&] {
      serve_closed_loop(lit, deleted_pool, budget.clients, budget.per_client);
    };
    const InterleavedTimes times =
        time_interleaved({serve_dark, serve_lit}, budget.reps);
    // Throughput cost 100·(1 − lit_rps/dark_rps), paired per round.
    const Spread overhead_pct =
        times.paired(0, 1, [](double dark_s, double lit_s) {
          return 100.0 * (1.0 - dark_s / lit_s);
        });
    const auto rps = [&](double s) { return total / s; };
    const Spread lit_rps = times.arm(1).map(rps);
    const Spread dark_rps = times.arm(0).map(rps);
    lit.shutdown();
    dark.shutdown();

    BenchRecord rec;
    rec.name = "runtime_observability_overhead";
    rec.label("mode", std::to_string(budget.clients) +
                          " clients closed-loop, metrics + every-request "
                          "tracing vs observability off, " +
                          std::to_string(budget.reps) + " interleaved rounds");
    rec.spread("throughput_enabled_rps", lit_rps)
        .spread("throughput_disabled_rps", dark_rps)
        .spread("overhead_pct", overhead_pct)
        .metric("traced_requests",
                static_cast<double>(lit.stats().latency_samples_total));
    records.push_back(rec);
    std::printf(
        "runtime_observability       overhead: %.0f rps on vs %.0f rps off "
        "(%.2f%% [%.2f, %.2f])\n",
        lit_rps.median, dark_rps.median, overhead_pct.median,
        overhead_pct.min, overhead_pct.max);
  }

  // --- Noisy fine-tune: nonideal-aware training from the compiled program.
  // The deployment story the paper's accuracy claims rest on: the deleted
  // model is fine-tuned AGAINST sampled chip realisations of its own
  // compiled program (quantisation residual + device variation, fresh chip
  // per step, straight-through backward; runtime/noise_model.hpp), masks
  // frozen. Three contenders are graded on the same nonideal chip:
  //  * eval_only        — the deleted model as-is;
  //  * digital_finetune — same extra training budget, no noise (controls
  //    for "more training helps anyway");
  //  * noisy_finetune   — the hardware-in-the-loop training.
  // A held-out chip (different variation seed, never trained on) shows the
  // recovery generalises across chips rather than memorising one.
  {
    // 16 conductance states + lognormal σ=0.3 hurts the deleted model
    // measurably while keeping the straight-through training stable (at
    // σ≈0.5 the noisy gradients diverge at this learning rate — see the
    // ROADMAP follow-up on noise-aware schedules).
    runtime::CompileOptions nonideal;
    nonideal.analog.levels = 16;
    nonideal.analog.variation_sigma = 0.3;

    const data::SyntheticMnist noisy_eval = mnist_test();
    const auto chip_accuracy = [&](nn::Network& n, std::uint64_t chip_seed) {
      runtime::CompileOptions chip = nonideal;
      chip.analog.seed = chip_seed;
      const runtime::CrossbarProgram prog =
          runtime::compile(n, sample_shape, chip);
      const runtime::Executor chip_exec(prog);
      return runtime::evaluate(chip_exec, noisy_eval);
    };

    const double digital_before = nn::evaluate(deleted, noisy_eval);
    const double eval_only_acc = chip_accuracy(deleted, 1);

    nn::Network control = core::clone_network(deleted);
    masked_train(control, 47);
    const double control_acc = chip_accuracy(control, 1);

    nn::Network noisy = core::clone_network(deleted);
    {
      const runtime::NoiseModel noise(
          runtime::compile(noisy, sample_shape, nonideal),
          runtime::NoiseConfig{/*seed=*/1234, /*resample_every=*/1});
      const runtime::NoisyForward hook(noisy, noise);
      masked_train(noisy, 47);
    }
    const double noisy_acc = chip_accuracy(noisy, 1);
    const double heldout_acc = chip_accuracy(noisy, 101);
    const double digital_after = nn::evaluate(noisy, noisy_eval);

    BenchRecord rec;
    rec.name = "noisy_finetune";
    rec.label("network", "heavily-deleted lenet")
        .label("device", "16-level cells, lognormal sigma 0.3")
        .label("training", std::to_string(budget.finetune_iters) +
                               " masked iters, fresh chip per step, "
                               "straight-through backward");
    rec.metric("digital_before", digital_before)
        .metric("nonideal_eval_only", eval_only_acc)
        .metric("nonideal_digital_finetune", control_acc)
        .metric("nonideal_noisy_finetune", noisy_acc)
        .metric("recovered_margin", noisy_acc - eval_only_acc)
        .metric("margin_vs_digital_finetune", noisy_acc - control_acc)
        .metric("nonideal_heldout_chip", heldout_acc)
        .metric("digital_after", digital_after)
        .metric("digital_drift", digital_after - digital_before)
        .metric("eval_samples", static_cast<double>(noisy_eval.size()));
    records.push_back(rec);
    std::printf(
        "noisy_finetune              nonideal %.3f -> %.3f (digital-ft "
        "%.3f, held-out chip %.3f, digital %.3f->%.3f)\n",
        eval_only_acc, noisy_acc, control_acc, heldout_acc, digital_before,
        digital_after);
  }

  // --- Fault-tolerant serving: a scripted fault schedule against bursty
  // traffic, recalibration ON vs OFF. The schedule (same in both arms):
  //   A. healthy burst (16 requests, both replicas serve);
  //   B. stuck-at-g_max event on replica 1 with 8 requests mid-flight — the
  //      probe quarantines the chip and re-routes its queued half;
  //      recalibration (ON arm) reprograms and readmits it;
  //   C. conductance-drift event on replica 0, then a 32-request burst with
  //      two urgent-deadline stragglers. ON: both chips are clean again and
  //      the burst splits. OFF: replica 1 is still out, the drifted replica
  //      0 is clamped to Degraded (last active chip) and its queue
  //      overflows — queue-full rejections plus two deadline-priority
  //      displacements;
  //   D. admission burst: 16 lax then 4 tight-deadline requests against the
  //      queued backlog. OFF: the deep single queue makes admission control
  //      predict a miss for the tight ones and reject them at submit.
  // Dispatch is frozen (set_paused) while each burst builds, probes and
  // recalibrations are manual, the admission cost model is pinned
  // (assumed_batch_cost), replicas program identical chips (seed_stride 0),
  // and fault realisations are pure functions of (seed, replica, tile), so
  // the drill replays bitwise — the contract
  // FailoverTest.FaultDrillReplaysBitwiseAtAnyThreadBudget holds.
  {
    struct ArmResult {
      std::size_t submitted = 0;
      std::size_t completed = 0;
      std::size_t rejected = 0;
      std::size_t admission_rejected = 0;
      std::size_t shed = 0;
      std::size_t retried = 0;
      std::size_t recalibrations = 0;
      std::size_t unskipped_tiles = 0;
      double slo = 0.0;
      double clean_accuracy = 0.0;
      double stuck_accuracy = 0.0;
      double drift_accuracy = 0.0;
      double final_fleet_accuracy = 0.0;
      std::uint64_t checksum = 0;  ///< folded response logits and counters
    };

    hw::FaultModelConfig stuck_event;  // chip 1: devices stick conducting
    stuck_event.stuck_rate = 0.05;
    stuck_event.stuck_at_gmax_fraction = 1.0;
    stuck_event.seed = 17;
    hw::FaultModelConfig drift_event;  // chip 0: conductances relax
    drift_event.drift_nu = 0.2;
    drift_event.drift_nu_sigma = 0.1;
    drift_event.drift_time = 999.0;
    drift_event.seed = 18;

    const auto lax = std::chrono::seconds(20);
    const auto urgent = std::chrono::seconds(5);

    const auto run_arm = [&](bool recalibrate) {
      ArmResult res;
      runtime::ShardConfig shard;
      shard.replicas = 2;
      shard.seed_stride = 0;    // identical clean chips
      shard.steal_work = false;  // placement alone decides routing
      shard.auto_recalibrate = false;  // the script drives the loop
      shard.max_retries = 1;
      shard.batching.max_batch = 16;
      shard.batching.max_queue_depth = 16;
      shard.batching.max_delay = std::chrono::microseconds(2000);
      shard.batching.admission.enabled = true;
      shard.batching.admission.assumed_batch_cost = std::chrono::seconds(1);
      runtime::ShardedServer server(deleted, sample_shape, skip_options,
                                    shard);

      std::vector<std::future<Tensor>> futures;
      std::size_t next_sample = 0;
      const auto submit = [&](std::size_t count,
                              std::chrono::microseconds deadline) {
        for (std::size_t i = 0; i < count; ++i) {
          futures.push_back(
              server.submit(slice_sample(deleted_pool, next_sample++ % 64),
                            {.deadline = deadline}));
        }
      };
      const auto collect = [&] {
        for (std::future<Tensor>& f : futures) {
          ++res.submitted;
          try {
            res.checksum =
                fold(res.checksum, runtime::tensor_checksum(f.get()));
            ++res.completed;
          } catch (const std::runtime_error&) {
            res.checksum = fold(res.checksum, 0xDEADull);  // rejection
          }
        }
        futures.clear();
      };

      // A: healthy burst — both chips serve.
      server.set_paused(true);
      submit(16, lax);
      server.set_paused(false);
      collect();
      res.clean_accuracy =
          server.evaluate_replica(1, eval_set, budget.eval_samples);

      // B: stuck-at event with requests mid-flight. The probe quarantines
      // chip 1 and re-routes its queued half (retries).
      server.set_paused(true);
      submit(8, lax);
      const runtime::FaultInjectionReport injected =
          server.inject_replica_faults(1, stuck_event);
      res.unskipped_tiles = injected.unskipped_tiles;
      server.probe_now(1);
      server.set_paused(false);
      collect();
      res.stuck_accuracy =
          server.evaluate_replica(1, eval_set, budget.eval_samples);
      if (recalibrate) server.recalibrate_now(1);

      // C: drift event on chip 0, then a burst with urgent stragglers.
      server.inject_replica_faults(0, drift_event);
      res.drift_accuracy =
          server.evaluate_replica(0, eval_set, budget.eval_samples);
      server.probe_now(0);  // ON: quarantined; OFF: clamped (last active)
      if (recalibrate) server.recalibrate_now(0);
      server.set_paused(true);
      submit(30, lax);
      submit(2, urgent);  // displace lax requests when the fleet is full
      server.set_paused(false);
      collect();

      // D: admission burst against queued backlog — tight deadlines are
      // rejected at submit when the predicted wait cannot make them.
      server.set_paused(true);
      submit(16, std::chrono::seconds(10));
      submit(4, std::chrono::microseconds(1'500'000));
      server.set_paused(false);
      collect();

      server.shutdown();
      const runtime::ShardStats stats = server.stats();
      res.rejected = stats.aggregate.rejected;
      res.admission_rejected = stats.aggregate.admission_rejected;
      res.shed = stats.aggregate.shed;
      res.retried = stats.retried;
      res.recalibrations = stats.recalibrations;
      res.slo = static_cast<double>(res.completed) /
                static_cast<double>(res.submitted);
      // What the surviving fleet serves: mean accuracy over ACTIVE chips.
      double sum = 0.0;
      std::size_t active = 0;
      for (std::size_t r = 0; r < server.replica_count(); ++r) {
        if (server.health(r) != runtime::ReplicaHealth::kQuarantined) {
          sum += server.evaluate_replica(r, eval_set, budget.eval_samples);
          ++active;
        }
      }
      res.final_fleet_accuracy = sum / static_cast<double>(active);
      for (const std::size_t counter :
           {res.completed, res.rejected, res.shed, res.retried}) {
        res.checksum = fold(res.checksum, counter);
      }
      return res;
    };

    const ArmResult healed = run_arm(/*recalibrate=*/true);
    const ArmResult unhealed = run_arm(/*recalibrate=*/false);

    BenchRecord rec;
    rec.name = "serving_faults";
    rec.label("network", "heavily-deleted lenet")
        .label("schedule",
               "stuck-at-g_max on replica 1 mid-burst, drift on replica 0, "
               "76-request bursty load, manual probe/recalibrate")
        .label("logit_checksum", hex(healed.checksum));
    rec.metric("submitted", static_cast<double>(healed.submitted))
        .metric("completed", static_cast<double>(healed.completed))
        .metric("slo_attainment", healed.slo)
        .metric("rejected", static_cast<double>(healed.rejected))
        .metric("shed", static_cast<double>(healed.shed))
        .metric("retried", static_cast<double>(healed.retried))
        .metric("recalibrations", static_cast<double>(healed.recalibrations))
        .metric("unskipped_tiles",
                static_cast<double>(healed.unskipped_tiles))
        .metric("clean_accuracy", healed.clean_accuracy)
        .metric("stuck_accuracy", healed.stuck_accuracy)
        .metric("drift_accuracy", healed.drift_accuracy)
        .metric("final_fleet_accuracy", healed.final_fleet_accuracy)
        .metric("slo_vs_no_recalibration", healed.slo - unhealed.slo)
        .metric("accuracy_vs_no_recalibration",
                healed.final_fleet_accuracy - unhealed.final_fleet_accuracy);
    records.push_back(rec);

    BenchRecord off;
    off.name = "serving_faults_no_recalibration";
    off.label("mode",
              "same schedule, quarantined chips stay out; the drifted last "
              "active chip serves clamped to Degraded");
    off.metric("submitted", static_cast<double>(unhealed.submitted))
        .metric("completed", static_cast<double>(unhealed.completed))
        .metric("slo_attainment", unhealed.slo)
        .metric("rejected", static_cast<double>(unhealed.rejected))
        .metric("admission_rejected",
                static_cast<double>(unhealed.admission_rejected))
        .metric("shed", static_cast<double>(unhealed.shed))
        .metric("retried", static_cast<double>(unhealed.retried))
        .metric("final_fleet_accuracy", unhealed.final_fleet_accuracy);
    records.push_back(off);

    std::printf(
        "serving_faults              SLO %.3f vs %.3f, accuracy %.3f vs %.3f "
        "(recal on/off), stuck %.3f drift %.3f\n",
        healed.slo, unhealed.slo, healed.final_fleet_accuracy,
        unhealed.final_fleet_accuracy, healed.stuck_accuracy,
        healed.drift_accuracy);
  }

  // --- Elastic serving under traffic replay: the same seeded bursty/diurnal
  // open-loop trace (TraceReplayer) against autoscale ON vs OFF at EQUAL
  // thread budget. Per tick: dispatch freezes (set_paused), the tick's
  // arrivals are submitted (two tenants, alternating priorities), the
  // autoscale controller ticks manually (ON arm), dispatch thaws, and every
  // future is collected before the next tick — so the queue state every
  // controller tick sees is an exact function of the trace. SLO attainment
  // comes from the per-request deadline-hit counters (not latency
  // percentiles — the windowed p99 saturates at these sample counts, see
  // docs/OBSERVABILITY.md "Small-sample percentiles"): deadlines are lax, so
  // every executed request hits and all SLO loss is deterministic queue-full
  // rejection — which is exactly what scale-up relieves on the 2nd/3rd tick
  // of each burst episode. Each arm has a private metrics Registry (the
  // controller consumes the registry signals) and identical chips
  // (seed_stride 0); the replay contract is AutoscaleTest's.
  {
    struct TraceArm {
      std::size_t submitted = 0;
      std::size_t completed = 0;
      std::size_t rejected = 0;
      std::size_t shed = 0;
      std::size_t drained = 0;
      std::size_t deadline_hits = 0;
      std::size_t scale_ups = 0;
      std::size_t scale_downs = 0;
      std::size_t max_active = 1;
      double slo = 0.0;
      double p99_ms = 0.0;
      std::string timeline;  ///< active replicas after each tick
      std::uint64_t decision_checksum = 0;
      std::uint64_t checksum = 0;  ///< folded response logits and counters
    };

    TraceConfig trace_config;
    trace_config.seed = 1;
    trace_config.ticks = smoke ? 16 : 48;
    trace_config.diurnal_period = smoke ? 8 : 24;
    const TraceReplayer trace(trace_config);
    const std::size_t thread_budget = 3;  // equal across arms = fair SLO

    const auto run_trace_arm = [&](bool autoscale_on) {
      TraceArm res;
      obs::Registry registry;
      runtime::ShardConfig shard;
      shard.replicas = 1;
      shard.seed_stride = 0;     // identical chips — logits replica-invariant
      shard.steal_work = false;  // placement alone decides routing
      shard.auto_recalibrate = false;
      shard.total_threads = thread_budget;
      shard.batching.max_batch = 8;
      shard.batching.max_queue_depth = 24;
      shard.batching.max_delay = std::chrono::microseconds(2000);
      shard.batching.observability.registry = &registry;
      if (autoscale_on) {
        shard.autoscale.enabled = true;
        shard.autoscale.min_replicas = 1;
        shard.autoscale.max_replicas = 3;
        shard.autoscale.scale_up_depth = 16.0;
        shard.autoscale.up_ticks = 1;
        shard.autoscale.scale_down_depth = 3.0;
        shard.autoscale.down_ticks = 2;
      }
      runtime::ShardedServer server(deleted, sample_shape, skip_options,
                                    shard);

      std::vector<std::future<Tensor>> futures;
      std::size_t next_sample = 0;
      for (std::size_t t = 0; t < trace.ticks(); ++t) {
        server.set_paused(true);
        for (std::size_t i = 0; i < trace.arrivals(t); ++i) {
          futures.push_back(
              server.submit(slice_sample(deleted_pool, next_sample % 64),
                            {.deadline = std::chrono::seconds(30),
                             .tenant = next_sample % 2,
                             .priority = static_cast<int>(next_sample % 2)}));
          ++next_sample;
        }
        std::size_t active_after = 1;
        if (autoscale_on) {
          const runtime::AutoscaleDecision decision =
              server.autoscale_tick_now();
          active_after = decision.active_replicas;
          if (decision.action == runtime::AutoscaleAction::kUp) ++active_after;
          if (decision.action == runtime::AutoscaleAction::kDown) {
            --active_after;
          }
        }
        if (!res.timeline.empty()) res.timeline += ",";
        res.timeline += std::to_string(active_after);
        res.max_active = std::max(res.max_active, active_after);
        server.set_paused(false);
        for (std::future<Tensor>& f : futures) {
          ++res.submitted;
          try {
            res.checksum =
                fold(res.checksum, runtime::tensor_checksum(f.get()));
          } catch (const std::runtime_error&) {
            res.checksum = fold(res.checksum, 0xDEADull);  // rejection
          }
        }
        futures.clear();
      }
      if (autoscale_on) {
        res.decision_checksum = server.autoscale_log_checksum();
      }
      server.shutdown();
      const runtime::ShardStats stats = server.stats();
      res.completed = stats.aggregate.completed;
      res.rejected = stats.aggregate.rejected;
      res.shed = stats.aggregate.shed;
      res.drained = stats.drained;
      res.deadline_hits = stats.aggregate.deadline_hits;
      res.scale_ups = stats.autoscale_ups;
      res.scale_downs = stats.autoscale_downs;
      res.p99_ms = stats.aggregate.latency_p99_ms;
      res.slo = res.submitted == 0
                    ? 1.0
                    : static_cast<double>(res.deadline_hits) /
                          static_cast<double>(res.submitted);
      for (const std::uint64_t counter :
           {res.completed, res.rejected, res.shed, res.drained, res.scale_ups,
            res.scale_downs, res.deadline_hits}) {
        res.checksum = fold(res.checksum, counter);
      }
      return res;
    };

    const TraceArm on = run_trace_arm(/*autoscale_on=*/true);
    const TraceArm off = run_trace_arm(/*autoscale_on=*/false);

    BenchRecord rec;
    rec.name = "serving_trace";
    rec.label("trace",
              std::to_string(trace.ticks()) + " ticks, base rate " +
                  std::to_string(static_cast<int>(trace_config.base_rate)) +
                  "/tick, diurnal +-60%, 5x bursts of " +
                  std::to_string(trace_config.burst_ticks) + " ticks (" +
                  std::to_string(trace.burst_tick_count()) +
                  " burst ticks, peak " + std::to_string(trace.peak()) + ")")
        .label("fleet",
               "autoscale 1..3 replicas, thread budget " +
                   std::to_string(thread_budget) +
                   " (equal across arms), queue depth 24, two tenants")
        .label("replica_timeline", on.timeline)
        .label("logit_checksum", hex(on.checksum))
        .label("decision_checksum", hex(on.decision_checksum));
    rec.metric("submitted", static_cast<double>(on.submitted))
        .metric("completed", static_cast<double>(on.completed))
        .metric("deadline_hits", static_cast<double>(on.deadline_hits))
        .metric("slo_attainment", on.slo)
        .metric("slo_attainment_no_autoscale", off.slo)
        .metric("slo_improvement", on.slo - off.slo)
        .metric("p99_ms", on.p99_ms)
        .metric("p99_ms_no_autoscale", off.p99_ms)
        .metric("rejected", static_cast<double>(on.rejected))
        .metric("rejected_no_autoscale", static_cast<double>(off.rejected))
        .metric("shed", static_cast<double>(on.shed))
        .metric("drained", static_cast<double>(on.drained))
        .metric("scale_ups", static_cast<double>(on.scale_ups))
        .metric("scale_downs", static_cast<double>(on.scale_downs))
        .metric("max_active_replicas", static_cast<double>(on.max_active));
    records.push_back(rec);

    BenchRecord off_rec;
    off_rec.name = "serving_trace_no_autoscale";
    off_rec.label("mode",
                  "same trace, fixed single replica at the same total thread "
                  "budget");
    off_rec.metric("submitted", static_cast<double>(off.submitted))
        .metric("completed", static_cast<double>(off.completed))
        .metric("deadline_hits", static_cast<double>(off.deadline_hits))
        .metric("slo_attainment", off.slo)
        .metric("rejected", static_cast<double>(off.rejected))
        .metric("shed", static_cast<double>(off.shed))
        .metric("p99_ms", off.p99_ms);
    records.push_back(off_rec);

    std::printf(
        "serving_trace               SLO %.3f vs %.3f (autoscale on/off), "
        "%zu scale-ups %zu scale-downs, peak %zu arrivals\n",
        on.slo, off.slo, on.scale_ups, on.scale_downs, trace.peak());
  }

  if (!smoke) {  // a smoke run never overwrites the full-budget record
    write_bench_json("BENCH_runtime.json", "runtime", records);
    note("\nwrote BENCH_runtime.json");
  }
  return 0;
}
