/// \file table3.cpp
/// \brief The table3 workload: the paper's Section 4.1 experiment.  Every
/// minimize call of the equivalence and reachability traversals is
/// intercepted; each kept call runs all heuristics with a GC flush before
/// each, cover validation and a 1000-cube lower bound, and the per-call
/// records are written as CSV.  Single-threaded; the engine is not used.
/// Its end-to-end timings are thread CPU time, as the paper's Table 3
/// reports CPU time; wall time would add whatever the host took away.
#include <cmath>
#include <exception>

#include "harness/csv.hpp"
#include "minimize/incspec.hpp"
#include "minimize/sibling.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bddmin;

constexpr std::size_t kLowerBoundCubes = 1000;
/// The traced pass's span self times must account for its wall time
/// within this share.
constexpr double kTilingTolerance = 0.01;

/// Counter work of the traversal managers, read at minimize-hook
/// boundaries.  Each traversal starts a fresh manager, so the sum of the
/// deltas is its counter bank up to its last minimize call.
class CounterTracker {
 public:
  void begin_traversal() { last_ = {}; }
  void observe(const Manager& mgr) {
    const telemetry::CounterSnapshot now = mgr.telemetry();
    total_ += now - last_;
    last_ = now;
  }
  [[nodiscard]] const telemetry::CounterSnapshot& total() const noexcept {
    return total_;
  }

 private:
  telemetry::CounterSnapshot total_;
  telemetry::CounterSnapshot last_;
};

struct Pass {
  double wall = 0.0;
  double cpu = 0.0;  ///< thread CPU seconds
  std::uint64_t calls = 0;  ///< minimize calls, kept and filtered
  std::vector<double> call_cpu_seconds;  ///< hook CPU time of each kept call
  std::vector<std::size_t> min_sizes;
  /// Every size the pass computed (f, lower bound, each heuristic's
  /// cover); two passes over the same inputs must agree exactly.
  std::vector<std::size_t> sizes;
  WorkCounters counters;
  Layers layers;  ///< traced passes only
};

void write_records(const std::vector<std::string>& names,
                   const std::vector<harness::CallRecord>& records,
                   const std::string& path, Result& result) {
  if (!harness::write_text_file(path, harness::records_to_csv(names, records))) {
    result.fail("cannot write " + path);
  }
}

void summarize(const std::vector<harness::CallRecord>& records,
               const telemetry::CounterSnapshot& bank, Pass& pass) {
  std::uint64_t lb_cubes = 0;
  for (const harness::CallRecord& r : records) {
    pass.min_sizes.push_back(r.min_size);
    pass.sizes.push_back(r.f_size);
    pass.sizes.push_back(r.lower_bound);
    for (const harness::HeuristicOutcome& o : r.outcomes) {
      pass.sizes.push_back(o.size);
    }
    lb_cubes += r.lb_cubes;
  }
  pass.counters.bank = bank;
  pass.counters.extra["minimize.lb_cubes"] = lb_cubes;
}

/// One pass through harness::Interceptor, the way bench_table3 runs it.
Pass untraced_pass(const MachineSet& set, const std::string& csv_path,
                   Result& result) {
  Pass pass;
  const auto start = Clock::now();
  const double cpu_start = thread_cpu_seconds();
  harness::Interceptor interceptor(minimize::all_heuristics());
  const fsm::MinimizeHook inner = interceptor.hook();
  CounterTracker counters;
  const fsm::MinimizeHook hook = [&](Manager& mgr, Edge f, Edge c) {
    counters.observe(mgr);
    ++pass.calls;
    const std::size_t kept = interceptor.records().size();
    const double call_start = thread_cpu_seconds();
    const Edge cover = inner(mgr, f, c);
    if (interceptor.records().size() != kept) {
      pass.call_cpu_seconds.push_back(thread_cpu_seconds() - call_start);
    }
    counters.observe(mgr);
    return cover;
  };
  for (const Traversal& t : traversals(set, fsm::ImageMethod::kFunctional)) {
    counters.begin_traversal();
    run_traversal(t, hook, result);
  }
  write_records(interceptor.names(), interceptor.records(), csv_path, result);
  pass.wall = seconds_since(start);
  pass.cpu = thread_cpu_seconds() - cpu_start;
  summarize(interceptor.records(), counters.total(), pass);
  return pass;
}

/// The same pass with a span around every library call (traced.hpp).
Pass traced_pass(const MachineSet& set, const std::string& csv_path,
                 Spans& spans, Result& result) {
  spans.clear();
  const std::uint32_t traversal_id = spans.intern("fsm.traversal");
  const std::uint32_t hook_id = spans.intern("minimize.hook");
  const std::uint32_t filter_id = spans.intern("minimize.filter");
  const std::uint32_t constrain_id = spans.intern("minimize.constrain");
  const std::uint32_t output_id = spans.intern("harness.output");
  Pass pass;
  const auto start = Clock::now();
  TracedCalls calls(spans);
  std::vector<harness::CallRecord> records;
  std::uint64_t filtered = 0;
  CounterTracker counters;
  const fsm::MinimizeHook hook = [&](Manager& mgr, Edge f, Edge c) {
    counters.observe(mgr);
    Edge cover = kZero;
    {
      const Scope hook_span(spans, hook_id);
      ++pass.calls;
      bool skip = false;
      {
        const Scope span(spans, filter_id);
        skip = minimize::classify_call(mgr, minimize::IncSpec{f, c}).filtered();
      }
      if (skip) {
        ++filtered;
      } else {
        records.push_back(calls.minimize_all(mgr, f, c, kLowerBoundCubes));
      }
      const Scope span(spans, constrain_id);
      cover = skip && c == kZero ? f : minimize::constrain(mgr, f, c);
    }
    counters.observe(mgr);
    return cover;
  };
  for (const Traversal& t : traversals(set, fsm::ImageMethod::kFunctional)) {
    counters.begin_traversal();
    const Scope span(spans, traversal_id);
    run_traversal(t, hook, result);
  }
  {
    const Scope span(spans, output_id);
    write_records(calls.names(), records, csv_path, result);
  }
  pass.wall = seconds_since(start);
  if (calls.non_covers() > 0) {
    result.fail(std::to_string(calls.non_covers()) + " non-covers in the traced pass");
  }
  summarize(records, counters.total(), pass);

  // Span self times: every span here belongs to a tiled layer, so their
  // sum must account for the pass's wall time.
  double tiled = 0.0;
  for (const auto& [name, self] : spans.self_seconds()) {
    pass.layers[name + "_s"] = self;
    tiled += self;
  }
  const double tiling_error = std::abs(pass.wall - tiled) / pass.wall;
  pass.layers["tiling_error"] = tiling_error;
  if (tiling_error > kTilingTolerance) {
    result.fail("traced layers tile " + std::to_string(tiled) + " s of a " +
                std::to_string(pass.wall) + " s pass");
  }
  const telemetry::PhaseProfile phases = calls.phases();
  pass.layers["minimize.matching_s"] = phases[telemetry::Phase::kMatching].seconds;
  pass.layers["minimize.cover_build_s"] =
      phases[telemetry::Phase::kCoverBuild].seconds;
  for (std::size_t i = 0; i < calls.heuristics().size(); ++i) {
    pass.layers["minimize." + calls.heuristics()[i].name + ".steps"] =
        static_cast<double>(calls.steps()[i]);
  }
  pass.layers["minimize.filtered_calls"] = static_cast<double>(filtered);
  pass.layers["minimize.lb_cubes"] = static_cast<double>(calls.lb_cubes());
  pass.layers["fsm.minimize_calls"] = static_cast<double>(pass.calls);
  add_bdd_counters(pass.layers, counters.total());
  return pass;
}

/// Outputs and work counters of \p pass must equal the first pass's.
void check_against(const Pass& first, const Pass& pass, std::size_t index,
                   Result& result) {
  const std::string what = "pass " + std::to_string(index);
  if (pass.sizes != first.sizes) {
    result.fail("sizes in " + what + " differ from pass 0");
  }
  check_repeat(first.counters, pass.counters, what, result);
}

}  // namespace

void run_traversal(const Traversal& t, const fsm::MinimizeHook& hook,
                   Result& result) {
  try {
    if (!t.run(hook)) result.fail(t.name + ": equivalent=0");
  } catch (const std::exception& e) {
    result.fail(t.name + ": " + e.what());
  }
}

std::vector<std::size_t> table3_min_sizes(const MachineSet& set,
                                          const std::string& csv_path,
                                          Result& result) {
  return untraced_pass(set, csv_path, result).min_sizes;
}

Result run_table3(const Options& opts) {
  Result result;
  MachineSet set;
  EndToEnd e2e;
  // Repeats rebuild the same specs; every later pass must still
  // reproduce pass 0.
  HeapPeak heap;
  Setup setup(21, [&] { set = make_machine_set(opts.seed); });
  const std::string csv_path = opts.out_dir + "/table3_records.csv";

  Spans spans;
  Pass first;  // every later pass must reproduce it
  std::size_t count = 0;
  std::vector<double> untraced_walls;
  std::vector<double> wall_rates;  // for reference beside the CPU-time rates
  std::vector<double> traced_walls;
  std::vector<Layers> traced_layers;
  const auto start = Clock::now();
  do {
    const bool traced = opts.trace && count % 2 == 1;
    Pass pass = traced ? traced_pass(set, csv_path, spans, result)
                       : untraced_pass(set, csv_path, result);
    result.count(pass.min_sizes.size(), 0);
    if (count > 0) check_against(first, pass, count, result);
    if (traced) {
      traced_walls.push_back(pass.wall);
      traced_layers.push_back(std::move(pass.layers));
    } else {
      untraced_walls.push_back(pass.wall);
      wall_rates.push_back(static_cast<double>(pass.min_sizes.size()) / pass.wall);
      e2e.pass_rates.push_back(static_cast<double>(pass.min_sizes.size()) / pass.cpu);
      e2e.instance_seconds.insert(e2e.instance_seconds.end(),
                                  pass.call_cpu_seconds.begin(),
                                  pass.call_cpu_seconds.end());
    }
    if (count++ == 0) {
      first = std::move(pass);
      e2e.peak_heap_mb = heap.stop();
      result.info("peak_rss_mb", peak_rss_mb());
      setup.finish();
    }
  } while (seconds_since(start) < opts.seconds ||
           (opts.trace && traced_walls.empty()));
  e2e.setup_s = setup.median();
  result.info("passes", static_cast<double>(count));
  result.info("kept_calls", static_cast<double>(first.min_sizes.size()));
  result.info("minimize_calls", static_cast<double>(first.calls));
  result.info("wall_instances_per_s", median(wall_rates));

  if (opts.trace) {
    Layers layers = median_per_key(traced_layers);
    layers["workload.generate_s"] = e2e.setup_s;
    layers["telemetry.trace_overhead_s"] = median(traced_walls) - median(untraced_walls);
    result.info("tiling_error", layers["tiling_error"]);
    add_layers(result, layers);
    const std::string trace_path = opts.out_dir + "/table3_trace.json";
    if (!harness::write_text_file(trace_path, spans.chrome_json(kWrittenSpans))) {
      result.fail("cannot write " + trace_path);
    }
  } else {
    for (const std::size_t size : first.min_sizes) {
      e2e.cover_nodes += static_cast<double>(size);
    }
    add_end_to_end(result, e2e);
  }
  return result;
}

}  // namespace perfbench
