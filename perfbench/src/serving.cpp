#include "serving.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "compress/connection_deletion.hpp"
#include "compress/group_lasso.hpp"
#include "core/models.hpp"
#include "core/ncs_report.hpp"
#include "core/pipeline.hpp"
#include "data/synthetic_mnist.hpp"
#include "hw/tiling.hpp"

namespace perfbench {

namespace {

using namespace gs;

/// Crossbars the flagship run (examples/lenet_group_scissor) leaves empty
/// per deletion target; the served network empties the same number.
const std::map<std::string, std::size_t>& flagship_empty_tiles() {
  static const std::map<std::string, std::size_t> empty{
      {"conv2_u", 1}, {"fc1_u", 1967}, {"fc1_v", 1230}, {"fc2", 3}};
  return empty;
}

/// Stamps every ready future in `pending` (indices into `sent`).
void harvest(std::deque<std::size_t>& pending,
             std::vector<std::future<Tensor>>& futures, std::vector<Sent>& sent,
             std::size_t& completed) {
  for (auto it = pending.begin(); it != pending.end();) {
    std::future<Tensor>& f = futures[*it];
    if (f.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      ++it;
      continue;
    }
    Sent& s = sent[*it];
    s.done = Clock::now();
    try {
      s.logits = f.get();
      s.completed = true;
      ++completed;
    } catch (const std::runtime_error&) {
      s.completed = false;  // rejected, shed or failed
    }
    it = pending.erase(it);
  }
}

std::uint64_t g_next_request_id = 0;

/// Pool samples [first, first + count), wrapping, stacked into one batch.
Tensor stack_samples(const SamplePool& pool, std::size_t first,
                     std::size_t count) {
  Shape shape{count};
  for (std::size_t d : pool.samples.front().shape()) shape.push_back(d);
  Tensor batch(shape);
  for (std::size_t b = 0; b < count; ++b) {
    const Tensor& s = pool.samples[(first + b) % pool.samples.size()];
    std::copy(s.data(), s.data() + s.numel(), batch.data() + b * s.numel());
  }
  return batch;
}

/// Submits sample `sample` now; the submit call sits in a span when traced.
void send(std::size_t sample, Clock::time_point due, const SamplePool& pool,
          const SubmitFn& submit, const char* submit_span,
          std::vector<Sent>& sent, std::vector<std::future<Tensor>>& futures,
          std::deque<std::size_t>& pending) {
  Sent s;
  s.id = g_next_request_id++;
  s.sample = sample;
  s.due = due;
  Tensor input = pool.samples[sample];
  s.sent = Clock::now();
  {
    Scope span(submit_span, s.id);
    futures.push_back(submit(std::move(input)));
  }
  s.submit_us = 1e6 * seconds_between(s.sent, Clock::now());
  pending.push_back(sent.size());
  sent.push_back(std::move(s));
}

/// Records one "request" span per request, due → observed completion, with
/// the request index as its id (shared with its submit span).
void record_request_spans(const Phase& phase) {
  SpanLog* log = SpanLog::active();
  if (log == nullptr) return;
  for (const Sent& s : phase.requests) {
    log->record("request", s.id, log->current(), s.due, s.done);
  }
}

}  // namespace

ServedModel build_served_lenet(std::uint64_t seed) {
  data::SyntheticMnist train_set(derive_stream_seed(seed, "perfbench:train"),
                                 500);
  data::SyntheticMnist test_set(derive_stream_seed(seed, "perfbench:test"),
                                100);
  const TimedDataset timed_train(train_set);
  const TimedDataset timed_test(test_set);
  Rng rng(derive_stream_seed(seed, "perfbench:init"));
  nn::Network dense = core::build_lenet(rng);
  core::TrainPhase phase;
  phase.iterations = kServedTrainIters;
  phase.batch_size = 25;
  phase.sgd = {0.005f, 0.9f, 1e-4f};  // stable for every seed tried
  {
    Scope span("core.train_phase");
    core::train_phase(dense, timed_train, timed_test, phase,
                      derive_stream_seed(seed, "perfbench:order"), 50);
  }

  core::FactorizeSpec spec;
  spec.ranks = {{"conv1", 12}, {"conv2", 24}, {"fc1", 127}};
  spec.keep_dense = {core::lenet_classifier()};
  ServedModel model;
  {
    Scope span("core.to_lowrank");
    model.net = core::to_lowrank(dense, spec);
  }

  // Seeded deletion masks: empty whole crossbars (every row and column group
  // of the tile) of each multi-crossbar matrix, as many as the flagship.
  const hw::TechnologyParams tech;
  compress::GroupLassoRegularizer reg(model.net, tech, {});
  for (const compress::LassoTarget& target : reg.targets()) {
    const auto it = flagship_empty_tiles().find(target.name);
    GS_CHECK_MSG(it != flagship_empty_tiles().end(),
                 "unexpected deletion target " << target.name);
    const hw::TileGrid& grid = target.grid;
    std::vector<std::size_t> tiles(grid.tile_count());
    std::iota(tiles.begin(), tiles.end(), 0);
    Rng mask_rng = derive_stream(seed, "perfbench:mask:" + target.name);
    mask_rng.shuffle(tiles);
    Tensor& w = target.values();
    for (std::size_t k = 0; k < it->second; ++k) {
      const hw::GroupSlice slice = hw::tile_slice(
          grid, tiles[k] / grid.grid_cols(), tiles[k] % grid.grid_cols());
      for (std::size_t r = slice.row_begin; r < slice.row_end; ++r) {
        for (std::size_t c = slice.col_begin; c < slice.col_end; ++c) {
          w.at(r, c) = 0.0f;
        }
      }
    }
  }
  double area_sum = 0.0;
  const std::vector<compress::MatrixWireReport> wires =
      compress::census_wires(reg);
  for (const compress::MatrixWireReport& r : wires) {
    area_sum += r.routing_area_ratio;
  }
  model.routing_area_ratio = area_sum / static_cast<double>(wires.size());
  {
    Scope span("hw.report");
    model.crossbar_area_ratio =
        core::build_ncs_report(model.net, tech).crossbar_area_ratio();
  }
  return model;
}

SamplePool make_sample_pool(std::uint64_t seed) {
  const data::SyntheticMnist set(derive_stream_seed(seed, "perfbench:pool"),
                                 kPoolSamples);
  SamplePool pool;
  for (std::size_t i = 0; i < kPoolSamples; ++i) {
    pool.samples.push_back(set.get(i).image);
  }
  return pool;
}

Phase run_open_loop(const std::vector<Event>& events, const SamplePool& pool,
                    const SubmitFn& submit, const EventFn& on_event,
                    const char* submit_span) {
  Phase phase;
  std::vector<std::future<Tensor>> futures;
  std::deque<std::size_t> pending;
  futures.reserve(events.size());
  phase.requests.reserve(events.size());
  const double cpu0 = process_cpu_seconds();
  phase.start = Clock::now();
  for (const Event& e : events) {
    const auto due =
        phase.start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(e.at_s));
    for (;;) {
      harvest(pending, futures, phase.requests, phase.completed);
      if (Clock::now() >= due) break;
      if (pending.empty()) {
        std::this_thread::sleep_until(due);
      } else {
        futures[pending.front()].wait_until(due);
      }
    }
    if (e.sample == Event::kNoSample) {
      on_event(e);
    } else {
      send(e.sample, due, pool, submit, submit_span, phase.requests, futures,
           pending);
    }
  }
  while (!pending.empty()) {
    futures[pending.front()].wait();
    harvest(pending, futures, phase.requests, phase.completed);
  }
  phase.end = Clock::now();
  phase.cpu_s = process_cpu_seconds() - cpu0;
  record_request_spans(phase);
  return phase;
}

Phase run_closed_loop(double seconds, const std::vector<std::size_t>& order,
                      const SamplePool& pool, const SubmitFn& submit,
                      const char* submit_span, std::size_t max_requests) {
  Phase phase;
  std::vector<std::future<Tensor>> futures;
  std::deque<std::size_t> pending;
  const double cpu0 = process_cpu_seconds();
  phase.start = Clock::now();
  const auto stop = phase.start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  std::size_t next = 0;
  while (Clock::now() < stop &&
         (max_requests == 0 || phase.requests.size() < max_requests)) {
    while (pending.size() < kInFlight) {
      send(order[next++ % order.size()], Clock::now(), pool, submit,
           submit_span, phase.requests, futures, pending);
    }
    futures[pending.front()].wait();
    harvest(pending, futures, phase.requests, phase.completed);
  }
  while (!pending.empty()) {
    futures[pending.front()].wait();
    harvest(pending, futures, phase.requests, phase.completed);
  }
  phase.end = Clock::now();
  phase.cpu_s = process_cpu_seconds() - cpu0;
  record_request_spans(phase);
  return phase;
}

std::vector<Event> poisson_arrivals(std::uint64_t seed,
                                    const std::vector<RateSegment>& segments) {
  Rng rng = derive_stream(seed, "perfbench:arrivals");
  double expected = 0.0;
  for (const RateSegment& s : segments) {
    expected += s.rate * (s.to_s - s.from_s);
  }
  const std::vector<std::size_t> order =
      sample_order(seed, static_cast<std::size_t>(2 * expected + 16));
  std::vector<Event> events;
  for (const RateSegment& s : segments) {
    for (double t = s.from_s;;) {
      t += -std::log(1.0 - rng.uniform()) / s.rate;
      if (t >= s.to_s) break;
      Event e;
      e.at_s = t;
      e.sample = order[events.size() % order.size()];
      events.push_back(e);
    }
  }
  return events;
}

std::vector<std::size_t> sample_order(std::uint64_t seed, std::size_t n) {
  Rng rng = derive_stream(seed, "perfbench:samples");
  std::vector<std::size_t> order(n);
  for (std::size_t& i : order) {
    i = static_cast<std::size_t>(rng.uniform_index(kPoolSamples));
  }
  return order;
}

std::vector<Tensor> reference_logits(const runtime::Executor& executor,
                                     const SamplePool& pool) {
  std::vector<Tensor> out;
  out.reserve(pool.samples.size());
  for (std::size_t i = 0; i < pool.samples.size(); ++i) {
    const Tensor logits = executor.forward(stack_samples(pool, i, 1));
    Tensor row(Shape{logits.cols()});
    std::copy(logits.data(), logits.data() + logits.cols(), row.data());
    out.push_back(std::move(row));
  }
  return out;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

std::size_t top1(const float* row, std::size_t n) {
  return static_cast<std::size_t>(std::max_element(row, row + n) - row);
}

double digital_agreement(const std::vector<Tensor>& logits, nn::Network& net,
                         const SamplePool& pool) {
  std::size_t agree = 0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const Tensor digital =
        net.forward(stack_samples(pool, i, 1), /*train=*/false);
    if (top1(digital.data(), digital.numel()) ==
        top1(logits[i].data(), logits[i].numel())) {
      ++agree;
    }
  }
  return static_cast<double>(agree) / static_cast<double>(logits.size());
}

double latency_ms(const std::vector<const Phase*>& phases, double q) {
  std::vector<double> values;
  for (const Phase* p : phases) {
    for (const Sent& s : p->requests) {
      if (s.completed) values.push_back(s.latency_ms());
    }
  }
  return percentile(std::move(values), q);
}

double slo_attainment(const std::vector<const Phase*>& phases) {
  std::size_t met = 0;
  std::size_t attempted = 0;
  for (const Phase* p : phases) {
    for (const Sent& s : p->requests) {
      ++attempted;
      if (s.completed && s.latency_ms() <= kLatencyLimitMs) ++met;
    }
  }
  return attempted == 0 ? 0.0
                        : static_cast<double>(met) /
                              static_cast<double>(attempted);
}

double forward_us(const runtime::Executor& executor, const SamplePool& pool,
                  std::size_t batch, int reps) {
  const Tensor input = stack_samples(pool, 0, batch);
  for (int i = 0; i < 3; ++i) executor.forward(input);
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    executor.forward(input);
    times.push_back(1e6 * seconds_between(t0, Clock::now()));
  }
  return median(std::move(times));
}

void add_executor_metrics(Result& result, const runtime::Executor& executor,
                          const SamplePool& pool) {
  const obs::ExecProfile profile = executor.profile();
  const double b1 = forward_us(executor, pool, 1, 200);
  const double b32 = forward_us(executor, pool, 32, 40);
  result.add("runtime.executor.fwd_b1_us", b1, "us");
  result.add("runtime.executor.fwd_b32_us", b32, "us");
  result.add("runtime.executor.ns_per_mvm",
             1e3 * b32 / (32.0 * static_cast<double>(profile.analog_mvms)),
             "ns");
  result.add("runtime.executor.mvms_per_sample",
             static_cast<double>(profile.analog_mvms), "count");
  result.add("runtime.executor.adc_per_sample",
             static_cast<double>(profile.adc_conversions), "count");
  result.add("runtime.executor.dac_per_sample",
             static_cast<double>(profile.dac_conversions), "count");
}

std::string span_path(const Options& options) {
  return ".bench_build/spans-" + options.workload + "-seed" +
         std::to_string(options.seed) + ".jsonl";
}

}  // namespace perfbench

namespace perfbench {

using namespace gs;

Deployment::Deployment(const nn::Network& net, const SamplePool& pool,
                       std::uint64_t seed) {
  {
    Scope span("runtime.compile");
    program_ = runtime::compile(net, pool.samples.front().shape());
  }
  pool_ = std::make_unique<ThreadPool>(kServerThreads);
  executor_ = std::make_unique<runtime::Executor>(program_, pool_.get());
  runtime::BatchingConfig config;
  config.max_batch = kMaxBatch;
  config.max_delay = kCoalesce;
  // Warm-up: direct full-batch forwards for the executor, then a short
  // closed loop for the server path.
  const Tensor batch = stack_samples(pool, 0, kMaxBatch);
  for (int i = 0; i < 8; ++i) executor_->forward(batch);
  server_ = std::make_unique<runtime::BatchingServer>(*executor_, config);
  warm_up(pool, seed,
          [this](Tensor s) { return server_->submit(std::move(s)); });
}

void warm_up(const SamplePool& pool, std::uint64_t seed,
             const SubmitFn& submit) {
  constexpr std::size_t kWarmupRequests = 2 * kInFlight;
  run_closed_loop(60.0, sample_order(seed, kPoolSamples), pool, submit,
                  "warmup", kWarmupRequests);
}

LoadRun drive_rounds(double seconds, SpanLog* log, std::uint64_t seed,
                     const SamplePool& pool, const SubmitFn& submit,
                     const StatsFn& stats, const OpenEventsFn& open_events,
                     const EventFn& on_event, const char* submit_span) {
  const double round_s = seconds / kRounds;
  const std::size_t rounds = log != nullptr ? 2 * kRounds : kRounds;
  LoadRun run;
  run.first = stats();
  for (std::size_t r = 0; r < rounds; ++r) {
    const bool traced = log != nullptr && r % 2 == 0;
    if (log != nullptr) log->set_recording(traced);
    run.traced.push_back(traced);
    const runtime::ServerStats s0 = stats();
    {
      Scope span("phase.open_loop");
      run.open.push_back(run_open_loop(open_events(r, kOpenShare * round_s),
                                       pool, submit, on_event, submit_span));
    }
    const runtime::ServerStats s1 = stats();
    {
      Scope span("phase.closed_loop");
      run.closed.push_back(run_closed_loop(
          (1.0 - kOpenShare) * round_s,
          sample_order(derive_stream_seed(seed, "perfbench:closed", r),
                       kPoolSamples),
          pool, submit, submit_span));
    }
    const runtime::ServerStats s2 = stats();
    run.open_counts.completed += s1.completed - s0.completed;
    run.open_counts.batches += s1.batches - s0.batches;
    run.closed_counts.completed += s2.completed - s1.completed;
    run.closed_counts.batches += s2.batches - s1.batches;
  }
  if (log != nullptr) log->set_recording(true);
  run.last = stats();
  return run;
}

LoadRun drive_deployment(Deployment& deployment, const SamplePool& pool,
                         std::uint64_t seed, double seconds, SpanLog* log) {
  runtime::BatchingServer& server = deployment.server();
  return drive_rounds(
      seconds, log, seed, pool,
      [&server](Tensor s) { return server.submit(std::move(s)); },
      [&server] { return server.stats(); },
      [seed](std::size_t round, double open_s) {
        return poisson_arrivals(
            derive_stream_seed(seed, "perfbench:round", round),
            {{kOpenRate, 0.0, open_s}});
      },
      [](const Event&) {}, "runtime.server.submit");
}

std::size_t LoadRun::requests() const {
  std::size_t n = 0;
  for (const auto* phases : {&open, &closed}) {
    for (const Phase& p : *phases) n += p.requests.size();
  }
  return n;
}

std::size_t LoadRun::completed() const {
  std::size_t n = 0;
  for (const auto* phases : {&open, &closed}) {
    for (const Phase& p : *phases) n += p.completed;
  }
  return n;
}

std::size_t LoadRun::dropped() const {
  return (last.rejected + last.shed + last.failed) -
         (first.rejected + first.shed + first.failed);
}

std::vector<const Phase*> LoadRun::open_phases() const {
  std::vector<const Phase*> out;
  for (const Phase& p : open) out.push_back(&p);
  return out;
}

double LoadRun::cpu_us_per_req(std::size_t r) const {
  return 1e6 * (open[r].cpu_s + closed[r].cpu_s) /
         static_cast<double>(open[r].completed + closed[r].completed);
}

std::size_t count_mismatches(
    const LoadRun& run,
    const std::function<bool(const Sent&)>& row_is_correct) {
  std::size_t mismatched = 0;
  for (const auto* phases : {&run.open, &run.closed}) {
    for (const Phase& p : *phases) {
      for (const Sent& s : p.requests) {
        if (s.completed && !row_is_correct(s)) ++mismatched;
      }
    }
  }
  return mismatched;
}

void check_accounting(Result& result, const LoadRun& run) {
  const std::size_t completed = run.last.completed - run.first.completed;
  result.check(run.requests() == completed + run.dropped(),
               "attempted == completed + rejected + shed + failed");
  result.check(run.completed() == completed,
               "engine completions match the generator's");
  result.attempted += run.requests();
  result.failed += run.requests() - run.completed();
}

void check_deployment(Result& result, const LoadRun& run,
                      const std::vector<Tensor>& reference) {
  const std::size_t mismatched = count_mismatches(run, [&](const Sent& s) {
    return bitwise_equal(s.logits, reference[s.sample]);
  });
  result.check(mismatched == 0,
               "served rows bitwise-equal Executor::forward (" +
                   std::to_string(mismatched) + " differ)");
  check_accounting(result, run);
}

void add_serving_metrics(Result& result, const LoadRun& run) {
  double closed_s = 0.0;
  std::size_t closed_completed = 0;
  double cpu_s = 0.0;
  for (std::size_t r = 0; r < run.open.size(); ++r) {
    closed_s += run.closed[r].wall_s();
    closed_completed += run.closed[r].completed;
    cpu_s += run.open[r].cpu_s + run.closed[r].cpu_s;
  }
  result.add("slo_attainment", slo_attainment(run.open_phases()), "fraction");
  result.add("capacity_rps", static_cast<double>(closed_completed) / closed_s,
             "1/s");
  result.add("cpu_us_per_req",
             1e6 * cpu_s / static_cast<double>(run.completed()), "us");
}

void add_load_layer_metrics(Result& result, const LoadRun& run,
                            const runtime::Executor& executor,
                            const SamplePool& pool,
                            const std::string& submit_metric) {
  const std::vector<const Phase*> open = run.open_phases();
  result.add("latency_p50_ms", latency_ms(open, 0.5), "ms");
  result.add("latency_p99_ms", latency_ms(open, 0.99), "ms");
  std::vector<double> submit_us;
  std::vector<double> late_ms;
  for (const auto* phases : {&run.open, &run.closed}) {
    for (const Phase& p : *phases) {
      for (const Sent& s : p.requests) submit_us.push_back(s.submit_us);
    }
  }
  for (const Phase* p : open) {
    for (const Sent& s : p->requests) {
      late_ms.push_back(1e3 * seconds_between(s.due, s.sent));
    }
  }
  result.add(submit_metric, median(std::move(submit_us)), "us");
  result.add("gen.sent", static_cast<double>(late_ms.size()), "count");
  result.add("gen.late_ms_p99", percentile(std::move(late_ms), 0.99), "ms");

  const double open_batch = run.open_counts.mean();
  result.add("runtime.server.mean_batch_open", open_batch, "count");
  result.add("runtime.server.mean_batch_closed", run.closed_counts.mean(),
             "count");
  result.add("runtime.server.batches_open",
             static_cast<double>(run.open_counts.batches), "count");
  result.add("runtime.server.batches_closed",
             static_cast<double>(run.closed_counts.batches), "count");
  result.add("runtime.server.dropped", static_cast<double>(run.dropped()),
             "count");
  const auto batch = static_cast<std::size_t>(
      std::clamp(std::round(open_batch), 1.0, static_cast<double>(kMaxBatch)));
  result.add("runtime.server.wait_ms_p50",
             latency_ms(open, 0.5) -
                 1e-3 * forward_us(executor, pool, batch, 100),
             "ms");

  // Tracing overhead: CPU per request of the traced rounds against the
  // untraced rounds they alternate with (medians over rounds).
  std::vector<double> traced;
  std::vector<double> untraced;
  for (std::size_t r = 0; r < run.traced.size(); ++r) {
    (run.traced[r] ? traced : untraced).push_back(run.cpu_us_per_req(r));
  }
  const double on = median(std::move(traced));
  const double off = median(std::move(untraced));
  std::printf("tracing overhead: %.2f us CPU per request in traced rounds vs "
              "%.2f us untraced\n",
              on, off);
  result.add("trace.overhead_pct", 100.0 * (on - off) / off, "%");
}

}  // namespace perfbench
