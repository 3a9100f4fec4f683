#include "common.hpp"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "common/check.hpp"

namespace perfbench {

namespace {

SpanLog* g_active_log = nullptr;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"pipeline_s", "s"},
    {"final_accuracy", "fraction"},
    {"crossbar_area_ratio", "fraction"},
    {"routing_area_ratio", "fraction"},
    {"slo_attainment", "fraction"},
    {"capacity_rps", "1/s"},
    {"cpu_us_per_req", "us"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"data.get_s", "s"},
    {"data.gets", "count"},
    {"nn.train_s", "s"},
    {"nn.train_iters", "count"},
    {"nn.eval_s", "s"},
    {"core.factorize_s", "s"},
    {"compress.clip_lra_s", "s"},
    {"compress.clip_passes", "count"},
    {"compress.delete_s", "s"},
    {"hw.report_s", "s"},
    {"runtime.program.compile_s", "s"},
    {"runtime.executor.eval_s", "s"},
    {"runtime.program.tiles", "count"},
    {"runtime.program.skipped_tiles", "count"},
    {"runtime.program.repacked_tiles", "count"},
    {"runtime.executor.fwd_b1_us", "us"},
    {"runtime.executor.fwd_b32_us", "us"},
    {"runtime.executor.ns_per_mvm", "ns"},
    {"runtime.executor.mvms_per_sample", "count"},
    {"runtime.executor.adc_per_sample", "count"},
    {"runtime.executor.dac_per_sample", "count"},
    {"latency_p50_ms", "ms"},
    {"latency_p99_ms", "ms"},
    {"runtime.server.submit_us_p50", "us"},
    {"runtime.server.mean_batch_open", "count"},
    {"runtime.server.mean_batch_closed", "count"},
    {"runtime.server.batches_open", "count"},
    {"runtime.server.batches_closed", "count"},
    {"runtime.server.wait_ms_p50", "ms"},
    {"runtime.server.dropped", "count"},
    {"runtime.shard.submit_us_p50", "us"},
    {"runtime.shard.inject_ms", "ms"},
    {"runtime.shard.probe_ms", "ms"},
    {"runtime.shard.recalibrate_ms", "ms"},
    {"runtime.shard.fault_window_ms", "ms"},
    {"runtime.shard.stolen_batches", "count"},
    {"runtime.shard.retried", "count"},
    {"runtime.shard.shed", "count"},
    {"runtime.shard.rejected", "count"},
    {"runtime.shard.unskipped_tiles", "count"},
    {"gen.late_ms_p99", "ms"},
    {"gen.sent", "count"},
    {"trace.overhead_pct", "%"},
};

double layer_value(const std::map<std::string, LayerTime>& layers,
                   const char* name, double LayerTime::*field) {
  const auto it = layers.find(name);
  return it == layers.end() ? 0.0 : it->second.*field;
}

double layer_count(const std::map<std::string, LayerTime>& layers,
                   const char* name) {
  const auto it = layers.find(name);
  return it == layers.end() ? 0.0 : static_cast<double>(it->second.count);
}

}  // namespace

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

void Result::add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics.push_back({name, value, unit});
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) failed_checks.push_back(what);
}

void add_span_layer_metrics(Result& result,
                            const std::map<std::string, LayerTime>& layers,
                            std::size_t train_iters) {
  const auto self = [&](const char* name) {
    return layer_value(layers, name, &LayerTime::self_s);
  };
  const auto total = [&](const char* name) {
    return layer_value(layers, name, &LayerTime::total_s);
  };
  result.add("data.get_s", self("data.get"), "s");
  result.add("data.gets", layer_count(layers, "data.get"), "count");
  result.add("nn.train_s", self("core.train_phase") + self("nn.train"), "s");
  result.add("nn.train_iters", static_cast<double>(train_iters), "count");
  result.add("nn.eval_s", self("nn.evaluate"), "s");
  result.add("core.factorize_s", total("core.to_lowrank"), "s");
  result.add("compress.clip_lra_s", total("compress.clip_ranks_once"), "s");
  result.add("compress.clip_passes",
             layer_count(layers, "compress.clip_ranks_once"), "count");
  result.add("compress.delete_s", self("compress.delete"), "s");
  result.add("hw.report_s", total("hw.report"), "s");
  result.add("runtime.program.compile_s", total("runtime.compile"), "s");
  result.add("runtime.executor.eval_s", self("runtime.evaluate"), "s");
}

void finalize_metrics(Result& result, bool trace) {
  const std::vector<MetricSpec>& specs = trace ? kPerLayer : kEndToEnd;
  std::vector<Result::Metric> ordered;
  for (const MetricSpec& spec : specs) {
    const auto it = std::find_if(
        result.metrics.begin(), result.metrics.end(),
        [&](const Result::Metric& m) { return m.name == spec.name; });
    if (it == result.metrics.end()) {
      result.check(trace, std::string("metric ") + spec.name + " missing");
      ordered.push_back({spec.name, 0.0, spec.unit});
      continue;
    }
    result.check(it->unit == spec.unit,
                 std::string("metric ") + spec.name + " has unit " + it->unit);
    ordered.push_back(*it);
  }
  for (const Result::Metric& m : result.metrics) {
    const bool known = std::any_of(
        specs.begin(), specs.end(),
        [&](const MetricSpec& spec) { return m.name == spec.name; });
    result.check(known, "unknown metric " + m.name);
  }
  result.metrics = std::move(ordered);
}

void print_result(const Result& result) {
  for (const Result::Metric& m : result.metrics) {
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& what : result.failed_checks) {
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Result::Metric& m = result.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

SpanLog::SpanLog()
    : epoch_(Clock::now()), owner_(std::this_thread::get_id()) {
  GS_CHECK_MSG(g_active_log == nullptr, "only one span log may be active");
  g_active_log = this;
}

SpanLog::~SpanLog() { g_active_log = nullptr; }

SpanLog* SpanLog::active() { return g_active_log; }

void SpanLog::set_recording(bool on) {
  GS_CHECK(open_.empty());
  g_active_log = on ? this : nullptr;
}

std::int64_t SpanLog::to_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

std::size_t SpanLog::open(const char* name, std::uint64_t id) {
  GS_CHECK_MSG(std::this_thread::get_id() == owner_,
               "spans are recorded from the main thread only");
  spans_.push_back({name, id, current(), to_ns(Clock::now()), 0});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t index) {
  GS_CHECK(!open_.empty() && open_.back() == index);
  spans_[index].end_ns = to_ns(Clock::now());
  open_.pop_back();
}

void SpanLog::record(const char* name, std::uint64_t id, std::int64_t parent,
                     Clock::time_point start, Clock::time_point end) {
  GS_CHECK_MSG(std::this_thread::get_id() == owner_,
               "spans are recorded from the main thread only");
  spans_.push_back({name, id, parent, to_ns(start), to_ns(end)});
}

std::int64_t SpanLog::current() const {
  return open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
}

std::map<std::string, LayerTime> SpanLog::fold() const {
  // Children intervals per parent, clipped to the parent and merged, so
  // overlapping children are not subtracted twice.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      const Span& p = spans_[static_cast<std::size_t>(s.parent)];
      const std::int64_t b = std::max(s.start_ns, p.start_ns);
      const std::int64_t e = std::min(s.end_ns, p.end_ns);
      if (e > b) children[static_cast<std::size_t>(s.parent)].push_back({b, e});
    }
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = std::numeric_limits<std::int64_t>::min();
    for (const auto& [b, e] : kids) {
      const std::int64_t from = std::max(b, reach);
      if (e > from) covered += e - from;
      reach = std::max(reach, e);
    }
    const std::int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
    LayerTime& t = out[spans_[i].name];
    ++t.count;
    t.total_s += 1e-9 * static_cast<double>(duration);
    t.self_s += 1e-9 * static_cast<double>(duration - covered);
  }
  return out;
}

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  GS_CHECK_MSG(out.good(), "cannot write span log " << path);
  for (const Span& s : spans_) {
    out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << "}\n";
  }
}

Scope::Scope(const char* name, std::uint64_t id) : log_(SpanLog::active()) {
  if (log_ != nullptr) index_ = log_->open(name, id);
}

Scope::~Scope() {
  if (log_ != nullptr) log_->close(index_);
}

gs::data::Sample TimedDataset::get(std::size_t index) const {
  Scope span("data.get");
  return inner_.get(index);
}

}  // namespace perfbench
