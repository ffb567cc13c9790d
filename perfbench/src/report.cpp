#include "report.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "minimize/registry.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

const std::pair<const char*, bddmin::telemetry::CacheOpClass> kCacheClasses[] = {
    {"bdd.ite", bddmin::telemetry::CacheOpClass::kIte},
    {"bdd.and", bddmin::telemetry::CacheOpClass::kAnd},
    {"bdd.xor", bddmin::telemetry::CacheOpClass::kXor},
    {"bdd.user", bddmin::telemetry::CacheOpClass::kUser},
    {"bdd.quantify", bddmin::telemetry::CacheOpClass::kQuantify},
};

/// Every per-layer metric name, in output order.
std::vector<std::string> per_layer_names() {
  std::vector<std::string> names = {"bdd.gc_s", "bdd.gc_runs",
                                    "bdd.count_nodes_s", "bdd.steps",
                                    "bdd.unique_inserts", "bdd.cache_hit_rate",
                                    "bdd.cache_lookups"};
  for (const auto& [prefix, cls] : kCacheClasses) {
    names.push_back(std::string(prefix) + "_hit_rate");
    names.push_back(std::string(prefix) + "_lookups");
  }
  for (const bddmin::minimize::Heuristic& h : bddmin::minimize::all_heuristics()) {
    names.push_back("minimize." + h.name + "_s");
    names.push_back("minimize." + h.name + ".steps");
  }
  for (const char* name :
       {"minimize.matching_s", "minimize.cover_build_s", "minimize.hook_s",
        "minimize.filter_s", "minimize.filtered_calls", "minimize.onset_s",
        "minimize.validate_s", "minimize.lower_bound_s", "minimize.lb_cubes",
        "minimize.constrain_s", "fsm.traversal_s", "fsm.minimize_calls",
        "harness.output_s", "engine.decode_s", "engine.busy_s",
        "engine.busy_frac", "engine.overhead_frac", "engine.steal_s",
        "engine.sink_s", "engine.idle_s", "engine.steal_success",
        "engine.steal_attempts", "engine.shards", "engine.warm_jobs",
        "engine.cold_jobs", "engine.duplicate_jobs", "workload.harvest_s",
        "workload.generate_s", "telemetry.trace_overhead_s"}) {
    names.emplace_back(name);
  }
  return names;
}

std::string unit_of(const std::string& name) {
  const auto ends_with = [&](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (ends_with("_s")) return "s";
  if (ends_with("_rate") || ends_with("_frac") || ends_with("steal_success")) {
    return "ratio";
  }
  return "count";
}

}  // namespace

std::string Result::json(const Options& opts) const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(metrics_[i].name) + ": {\"value\": " +
           number(metrics_[i].value) + ", \"unit\": " + quoted(metrics_[i].unit) +
           "}";
  }
  out += "}, \"host\": {\"cpu\": " + quoted(cpu_model()) +
         ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"compiler\": " + quoted(compiler()) +
         ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
         ", \"telemetry\": " +
         (bddmin::telemetry::kCountersEnabled ? "\"on\"" : "\"off\"") +
         ", \"workload\": " + quoted(opts.workload) +
         ", \"seed\": " + std::to_string(opts.seed) + "}";
  out += ", \"info\": {";
  bool first = true;
  for (const auto& [key, value] : info_) {
    if (!first) out += ", ";
    first = false;
    out += quoted(key) + ": " + number(value);
  }
  out += "}, \"errors\": [";
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(errors_[i]);
  }
  return out + "]}";
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

HeapPeak::HeapPeak() {
  sample();
  sampler_ = std::thread([this] {
    while (running_.load(std::memory_order_relaxed)) {
      sample();
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

HeapPeak::~HeapPeak() { (void)stop(); }

void HeapPeak::sample() {
  const struct mallinfo2 info = mallinfo2();
  peak_bytes_ = std::max(peak_bytes_, info.uordblks + info.hblkhd);
}

double HeapPeak::stop() {
  if (sampler_.joinable()) {
    running_.store(false, std::memory_order_relaxed);
    sampler_.join();
    sample();
  }
  return static_cast<double>(peak_bytes_) / (1024.0 * 1024.0);
}

Setup::Setup(std::size_t repeats, std::function<void()> run)
    : repeats_(std::max<std::size_t>(repeats, 1)), run_(std::move(run)) {
  once();
}

void Setup::once() {
  const auto start = Clock::now();
  run_();
  seconds_.push_back(seconds_since(start));
}

void Setup::finish() {
  while (seconds_.size() < repeats_) once();
}

double Setup::median() const { return perfbench::median(seconds_); }

void check_repeat(const WorkCounters& first, const WorkCounters& now,
                  const std::string& what, Result& result) {
  using bddmin::telemetry::Counter;
  for (std::size_t i = 0; i < bddmin::telemetry::kNumCounters; ++i) {
    if (first.bank.values[i] != now.bank.values[i]) {
      result.fail("nondeterminism: " +
                  std::string(bddmin::telemetry::counter_name(
                      static_cast<Counter>(i))) +
                  " " + std::to_string(first.bank.values[i]) + " vs " +
                  std::to_string(now.bank.values[i]) + " in " + what);
    }
  }
  if (first.extra != now.extra) {
    for (const auto& [key, value] : first.extra) {
      const auto it = now.extra.find(key);
      const std::uint64_t other = it == now.extra.end() ? 0 : it->second;
      if (other != value) {
        result.fail("nondeterminism: " + key + " " + std::to_string(value) +
                    " vs " + std::to_string(other) + " in " + what);
      }
    }
  }
}

void add_bdd_counters(Layers& layers,
                      const bddmin::telemetry::CounterSnapshot& bank) {
  using bddmin::telemetry::CacheOpClass;
  using bddmin::telemetry::Counter;
  const auto as_double = [](std::uint64_t v) { return static_cast<double>(v); };
  layers["bdd.steps"] = as_double(bank.value(Counter::kGovernorSteps));
  layers["bdd.unique_inserts"] = as_double(bank.value(Counter::kUniqueInserts));
  layers["bdd.gc_runs"] = as_double(bank.value(Counter::kGcRuns));
  const auto rate = [&](const std::string& prefix, std::uint64_t hits,
                        std::uint64_t misses) {
    const std::uint64_t lookups = hits + misses;
    layers[prefix + "_hit_rate"] =
        lookups > 0 ? as_double(hits) / as_double(lookups) : 0.0;
    layers[prefix + "_lookups"] = as_double(lookups);
  };
  rate("bdd.cache", bank.total_cache_hits(), bank.total_cache_misses());
  for (const auto& [prefix, cls] : kCacheClasses) {
    const Counter hit = bddmin::telemetry::cache_hit_counter(cls);
    const auto miss = static_cast<Counter>(static_cast<unsigned>(hit) + 1);
    rate(prefix, bank.value(hit), bank.value(miss));
  }
}

void add_layers(Result& result, const Layers& layers) {
  for (const std::string& name : per_layer_names()) {
    const auto it = layers.find(name);
    result.add(name, it == layers.end() ? 0.0 : it->second, unit_of(name));
  }
}

Layers median_per_key(const std::vector<Layers>& passes) {
  std::map<std::string, std::vector<double>> columns;
  for (const Layers& pass : passes) {
    for (const auto& [key, value] : pass) columns[key].push_back(value);
  }
  Layers out;
  for (auto& [key, values] : columns) out[key] = median(std::move(values));
  return out;
}

void add_end_to_end(Result& result, const EndToEnd& e2e) {
  result.add("instances_per_s", median(e2e.pass_rates), "1/s");
  result.add("instance_p50_ms", 1e3 * quantile(e2e.instance_seconds, 0.50), "ms");
  result.add("instance_p99_ms", 1e3 * quantile(e2e.instance_seconds, 0.99), "ms");
  result.add("cover_nodes", e2e.cover_nodes, "count");
  const double attempted = static_cast<double>(result.attempted());
  result.add("success_rate",
             attempted > 0.0
                 ? 1.0 - static_cast<double>(result.failed()) / attempted
                 : 0.0,
             "ratio");
  result.add("peak_heap_mb", e2e.peak_heap_mb, "MiB");
  result.add("setup_s", e2e.setup_s, "s");
  result.info("instance_samples", static_cast<double>(e2e.instance_seconds.size()));
  if (!e2e.pass_rates.empty()) {
    result.info("pass_rate_min", *std::min_element(e2e.pass_rates.begin(), e2e.pass_rates.end()));
    result.info("pass_rate_max", *std::max_element(e2e.pass_rates.begin(), e2e.pass_rates.end()));
  }
}

std::string Spans::chrome_json(std::size_t max_spans) const {
  std::string out = "{\"traceEvents\": [\n";
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  const std::size_t n = std::min(max_spans, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    char buf[96];
    std::snprintf(buf, sizeof buf, "\"ts\": %.3f, \"dur\": %.3f", us(s.start),
                  us(s.end) - us(s.start));
    out += "{\"name\": " + quoted(names_[s.name]) +
           ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, " + buf +
           ", \"args\": {\"id\": " + std::to_string(i) + ", \"parent\": " +
           (s.parent == kNoParent ? std::string("null")
                                  : std::to_string(s.parent)) +
           "}}" + (i + 1 < n ? ",\n" : "\n");
  }
  return out + "]}\n";
}

}  // namespace perfbench
