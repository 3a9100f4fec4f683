// serve_lenet: the operator's view of one chip — a BatchingServer in the
// production config (max_batch 32, 2 ms coalescing) on a private
// two-thread executor pool, serving the fixed compressed LeNet on an ideal
// device. Compression code runs only in set-up.
//
// Every round sends a seeded open-loop Poisson slice at kOpenRate (about a
// third of capacity, mean batch ≈ 2), then a closed-loop slice that keeps
// kInFlight requests outstanding from the same generator thread, so the
// executor runs at small batches in one and at full batches in the other.
#include <memory>

#include "common.hpp"
#include "runtime/program.hpp"
#include "serving.hpp"

namespace perfbench {

using namespace gs;

Result run_serve_lenet(const Options& options) {
  Result result;
  std::unique_ptr<SpanLog> log;
  if (options.trace) log = std::make_unique<SpanLog>();

  // Set-up is everything before the first measured request: the served
  // network (its build is this workload's pipeline_s), the request pool,
  // the compile, the server start and the warm-up.
  const auto start = Clock::now();
  ServedModel model = build_served_lenet(options.seed);
  const double build_s = seconds_between(start, Clock::now());
  const SamplePool pool = make_sample_pool(options.seed);
  Deployment deployment(model.net, pool, options.seed);
  const double setup_s = seconds_between(start, Clock::now());

  const runtime::CrossbarProgram& program = deployment.program();
  result.check(program.tile_count() == kServedTiles &&
                   program.skipped_tile_count() == kServedSkippedTiles,
               "served program has the flagship tile geometry");
  const LoadRun run = drive_deployment(deployment, pool, options.seed,
                                       options.seconds, log.get());

  // Reference: the same network compiled separately, one sample at a time.
  const runtime::CrossbarProgram reference_program =
      runtime::compile(model.net, pool.samples.front().shape());
  const runtime::Executor reference_executor(reference_program);
  const std::vector<Tensor> reference =
      reference_logits(reference_executor, pool);
  check_deployment(result, run, reference);

  if (!options.trace) {
    result.add("setup_s", setup_s, "s");
    result.add("pipeline_s", build_s, "s");
    result.add("final_accuracy",
               digital_agreement(reference, model.net, pool), "fraction");
    result.add("crossbar_area_ratio", model.crossbar_area_ratio, "fraction");
    result.add("routing_area_ratio", model.routing_area_ratio, "fraction");
    add_serving_metrics(result, run);
    return result;
  }

  const std::map<std::string, LayerTime> layers = log->fold();
  log->write(span_path(options));
  add_span_layer_metrics(result, layers, kServedTrainIters);
  result.add("runtime.program.tiles",
             static_cast<double>(program.tile_count()), "count");
  result.add("runtime.program.skipped_tiles",
             static_cast<double>(program.skipped_tile_count()), "count");
  add_executor_metrics(result, deployment.executor(), pool);
  add_load_layer_metrics(result, run, deployment.executor(), pool,
                         "runtime.server.submit_us_p50");
  return result;
}

}  // namespace perfbench
