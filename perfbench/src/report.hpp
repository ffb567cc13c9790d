/// \file report.hpp
/// \brief What one benchmark run produces: metrics with units, the
/// correctness tally, the host block, and the helpers the workloads share
/// to build them.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/counters.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time of the calling thread so far, in seconds.  It leaves out
/// time the thread waited, including time a shared virtual host
/// descheduled its vCPU.
[[nodiscard]] double thread_cpu_seconds();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the records CSV and the span trace.
  std::string out_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Result {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Record a correctness-gate violation covering \p failures failures.
  void fail(const std::string& what, std::uint64_t failures = 1) {
    errors_.push_back(what);
    failed_ += failures;
  }
  /// Tally \p attempted instances, \p failed of which failed.
  void count(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Extra facts printed beside the metrics (sample counts, passes, ...).
  void info(const std::string& key, double value) { info_[key] = value; }

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }

  /// The single JSON line the runner parses.
  [[nodiscard]] std::string json(const Options& opts) const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  std::map<std::string, double> info_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);
/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Peak heap in use, in MiB: the most bytes malloc had handed out and not
/// yet taken back (mallinfo2 uordblks + hblkhd), sampled every few
/// milliseconds on a thread of its own from construction to stop().
/// Unlike peak RSS it leaves out freed memory that glibc keeps resident,
/// which with the default adaptive mmap threshold makes batch_small's
/// peak RSS read about 90 or about 480 MiB from run to run.
class HeapPeak {
 public:
  HeapPeak();
  ~HeapPeak();
  HeapPeak(const HeapPeak&) = delete;
  HeapPeak& operator=(const HeapPeak&) = delete;
  /// Stop sampling (idempotent) and return the peak.
  double stop();

 private:
  void sample();
  std::atomic<bool> running_{true};
  std::size_t peak_bytes_ = 0;
  std::thread sampler_;
};

/// A workload's set-up, run several times for setup_s.  The constructor
/// runs it once, before the timed passes; finish() runs the remaining
/// repeats after the first pass, once peak memory has been read, so
/// peak_heap_mb describes one set-up and one pass, as one CLI run would.
class Setup {
 public:
  Setup(std::size_t repeats, std::function<void()> run);
  void finish();
  /// Median wall seconds of the set-ups run so far.
  [[nodiscard]] double median() const;

 private:
  void once();
  std::size_t repeats_;
  std::function<void()> run_;
  std::vector<double> seconds_;
};

/// Counters that must repeat exactly between two runs of the same code
/// and seed: the manager counter bank plus named extras (lower-bound
/// cubes, shard plan facts).
struct WorkCounters {
  bddmin::telemetry::CounterSnapshot bank;
  std::map<std::string, std::uint64_t> extra;
};

/// Compare \p now with \p first; every differing counter is a
/// nondeterminism failure on \p result.
void check_repeat(const WorkCounters& first, const WorkCounters& now,
                  const std::string& what, Result& result);

/// Per-layer values by metric name.
using Layers = std::map<std::string, double>;

/// The bdd.* counter metrics of \p bank: steps, unique inserts, GC runs,
/// and each hit rate with its lookup count as base.
void add_bdd_counters(Layers& layers, const bddmin::telemetry::CounterSnapshot& bank);

/// Emit every per-layer metric, in a fixed order, with its unit; a layer
/// a workload does not use reads 0.
void add_layers(Result& result, const Layers& layers);

/// The end-to-end metrics every workload reports.
struct EndToEnd {
  std::vector<double> pass_rates;      ///< instances per second, per pass
  std::vector<double> instance_seconds;  ///< service time per instance
  double cover_nodes = 0.0;
  double setup_s = 0.0;
  /// Over the first set-up and the first pass.
  double peak_heap_mb = 0.0;
};

void add_end_to_end(Result& result, const EndToEnd& e2e);

/// Median over passes of each per-layer value.
[[nodiscard]] Layers median_per_key(const std::vector<Layers>& passes);

}  // namespace perfbench
