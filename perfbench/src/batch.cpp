/// \file batch.cpp
/// \brief The batch workloads: a whole job set submitted at once to
/// engine::run_batch (closed loop) with the options `bddmin_cli batch`
/// applies by default — all heuristics, the default shard cost, dedup and
/// GC flushes on, no lower bound — on one worker fewer than the host has
/// cores, at most four.
///
///  * batch_fsm: the table3 workload's kept calls, harvested as jobs
///    (large, skewed jobs: matching and kernels fill the busy time).
///  * batch_small: workload::heavy_tier_jobs(50, seed), 30,800 mostly
///    tiny jobs (per-job fixed cost and scheduling dominate).
#include <algorithm>
#include <exception>
#include <memory>
#include <thread>
#include <unordered_set>

#include "bdd/bdd.hpp"
#include "bdd/manager.hpp"
#include "bdd/ops.hpp"
#include "engine/collect.hpp"
#include "engine/engine.hpp"
#include "engine/shard.hpp"
#include "harness/csv.hpp"
#include "minimize/incspec.hpp"
#include "minimize/registry.hpp"
#include "spans.hpp"
#include "workload/generators.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bddmin;

constexpr unsigned kMaxWorkers = 4;

engine::EngineOptions engine_options() {
  engine::EngineOptions opts;
  // One core stays free for the main thread, the heap sampler and the OS.
  // On a shared 4-vCPU host, 4 workers made batch_fsm's run-to-run spread
  // of throughput and p99 two to three times that of 3 workers.
  const unsigned cores = std::max(std::thread::hardware_concurrency(), 2u);
  opts.num_threads = std::min(cores - 1, kMaxWorkers);
  opts.shard_cost = engine::kDefaultShardCost;
  return opts;
}

struct Pass {
  double wall = 0.0;
  std::string csv;  ///< default-column report_csv
  std::vector<std::size_t> min_sizes;
  std::vector<double> job_seconds;
  std::vector<telemetry::CounterSnapshot> job_counters;
  WorkCounters counters;
  std::uint64_t cold_jobs = 0;
  Layers layers;
};

/// Per-layer values the engine reports about itself in \p report.
Layers engine_layers(const engine::BatchReport& report,
                     const telemetry::CounterSnapshot& bank) {
  Layers layers;
  add_bdd_counters(layers, bank);
  telemetry::PhaseProfile phases;
  double heuristic_s = 0.0;
  for (const engine::JobOutcome& o : report.outcomes) {
    for (std::size_t h = 0; h < o.results.size(); ++h) {
      const engine::HeuristicResult& r = o.results[h];
      layers["minimize." + report.names[h] + "_s"] += r.seconds;
      layers["minimize." + report.names[h] + ".steps"] +=
          static_cast<double>(r.phases.total_steps());
      heuristic_s += r.seconds;
      phases += r.phases;
    }
  }
  layers["minimize.matching_s"] = phases[telemetry::Phase::kMatching].seconds;
  layers["minimize.cover_build_s"] = phases[telemetry::Phase::kCoverBuild].seconds;
  layers["minimize.validate_s"] = phases[telemetry::Phase::kValidation].seconds;
  double busy = 0.0;
  double steal = 0.0;
  double sink = 0.0;
  double idle = 0.0;
  for (const engine::WorkerUtilization& u : report.metrics.workers) {
    busy += u.busy_seconds;
    steal += u.steal_seconds;
    sink += u.sink_seconds;
    idle += u.idle_seconds;
  }
  const double total = busy + steal + sink + idle;
  layers["engine.busy_s"] = busy;
  layers["engine.busy_frac"] = total > 0.0 ? busy / total : 0.0;
  layers["engine.overhead_frac"] = busy > 0.0 ? 1.0 - heuristic_s / busy : 0.0;
  layers["engine.steal_s"] = steal;
  layers["engine.sink_s"] = sink;
  layers["engine.idle_s"] = idle;
  const engine::BatchMetrics& m = report.metrics;
  layers["engine.steal_attempts"] = static_cast<double>(m.steal_attempts);
  layers["engine.steal_success"] =
      m.steal_attempts > 0
          ? static_cast<double>(m.steals) / static_cast<double>(m.steal_attempts)
          : 0.0;
  layers["engine.shards"] = static_cast<double>(m.shards);
  layers["engine.warm_jobs"] = static_cast<double>(m.warm_jobs);
  layers["engine.cold_jobs"] = static_cast<double>(m.cold_jobs);
  layers["engine.duplicate_jobs"] = static_cast<double>(report.duplicate_jobs);
  return layers;
}

Pass batch_pass(const std::vector<engine::Job>& jobs,
                const engine::EngineOptions& opts, Result& result) {
  Pass pass;
  const auto start = Clock::now();
  const engine::BatchReport report = engine::run_batch(jobs, opts);
  pass.wall = seconds_since(start);
  pass.csv = engine::report_csv(report);
  std::uint64_t failed = 0;
  for (const engine::JobOutcome& o : report.outcomes) {
    if (o.status != engine::JobStatus::kOk) {
      if (failed == 0) {
        result.fail(o.name + ": " + engine::job_status_name(o.status) + " " +
                        o.error + o.detail,
                    0);
      }
      ++failed;
    }
    pass.min_sizes.push_back(o.min_size);
    pass.job_seconds.push_back(o.seconds);
    pass.job_counters.push_back(o.counters);
    pass.counters.bank += o.counters;
  }
  result.count(jobs.size(), failed);
  pass.counters.extra["engine.shards"] = report.metrics.shards;
  pass.counters.extra["engine.warm_jobs"] = report.metrics.warm_jobs;
  pass.counters.extra["engine.duplicate_jobs"] = report.duplicate_jobs;
  pass.cold_jobs = report.metrics.cold_jobs;
  pass.layers = engine_layers(report, pass.counters.bank);
  return pass;
}

/// The engine's dedup key (payload_key in engine.cpp, not exported): two
/// jobs share it iff they decode to the same [f, c] the same way.
std::string payload_key(const engine::Job& job) {
  std::string key;
  key.push_back(static_cast<char>(job.kind));
  key.append(reinterpret_cast<const char*>(&job.num_vars), sizeof job.num_vars);
  if (job.kind == engine::PayloadKind::kTruthTable) {
    key.append(reinterpret_cast<const char*>(&job.f_tt), sizeof job.f_tt);
    key.append(reinterpret_cast<const char*>(&job.c_tt), sizeof job.c_tt);
  } else {
    key += job.forest;
  }
  return key;
}

struct Replay {
  Layers layers;
  double wall = 0.0;
};

/// Replay the engine's plan for \p jobs on one thread, with a span around
/// every decode_job, GC flush, size count and heuristic run; the engine
/// does this work inside its workers, where the benchmark cannot place
/// spans.  The plan is the engine's own: one job per distinct payload,
/// engine::pack_shards with the engine's shard cost, and each job's steps
/// as engine::process_job takes them (decode, pin f and c, count f and c,
/// care onset, then per heuristic a GC flush, the run, is_cover and a size
/// count, keeping every cover pinned).  Inside a shard a job continues on
/// the previous job's manager, with no reset and no GC flushes, exactly
/// when the engine's warm rule allows it.  So the replay must reproduce
/// the engine's shard, warm, cold and duplicate counts and, per job, its
/// best-cover size and counter bank; any difference fails the run.
Replay replay(const std::vector<engine::Job>& jobs,
              const engine::EngineOptions& opts, const Pass& engine_pass,
              Spans& spans, Result& result) {
  const std::uint32_t decode_id = spans.intern("engine.decode");
  const std::uint32_t gc_id = spans.intern("bdd.gc");
  const std::uint32_t count_id = spans.intern("bdd.count_nodes");
  const std::vector<minimize::Heuristic> heuristics = minimize::all_heuristics();
  std::vector<std::uint32_t> heuristic_ids;
  for (const minimize::Heuristic& h : heuristics) {
    heuristic_ids.push_back(spans.intern("minimize." + h.name));
  }
  const auto start = Clock::now();

  std::vector<std::size_t> to_run;
  std::uint64_t duplicates = 0;
  std::unordered_set<std::string> seen;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (seen.insert(payload_key(jobs[i])).second) {
      to_run.push_back(i);
    } else {
      ++duplicates;
    }
  }
  const engine::ShardPlan plan = engine::pack_shards(jobs, to_run, opts.shard_cost);

  std::unique_ptr<Manager> pool;
  engine::DecodeScratch scratch;
  std::uint64_t warm_jobs = 0;
  std::uint64_t cold_jobs = 0;
  std::uint64_t size_mismatches = 0;
  std::uint64_t counter_mismatches = 0;
  std::uint64_t non_covers = 0;
  for (const engine::Shard& shard : plan.shards) {
    bool warm_ready = false;
    for (std::uint32_t s = 0; s < shard.count; ++s) {
      const std::size_t i = to_run[shard.first + s];
      const unsigned num_vars = std::max(jobs[i].num_vars, 1u);
      const bool warm = warm_ready && pool->num_vars() == num_vars &&
                        pool->allocated_nodes() < opts.shard_node_watermark;
      warm_ready = false;
      if (warm) {
        pool->governor().reset_job();
        ++warm_jobs;
      } else {
        if (pool == nullptr) {
          pool = std::make_unique<Manager>(num_vars, opts.cache_log2);
        } else {
          pool->reset(num_vars);
        }
        ++cold_jobs;
      }
      Manager& mgr = *pool;
      const telemetry::CounterSnapshot base = mgr.telemetry();
      try {
        minimize::IncSpec spec{};
        {
          const Scope span(spans, decode_id);
          spec = engine::decode_job(mgr, jobs[i], scratch);
        }
        const Bdd f_pin(mgr, spec.f);
        const Bdd c_pin(mgr, spec.c);
        {
          const Scope span(spans, count_id);
          (void)count_nodes(mgr, spec.f);
          (void)count_nodes(mgr, spec.c);
        }
        (void)minimize::c_onset_fraction(mgr, spec);
        std::vector<Bdd> covers;
        std::size_t min_size = SIZE_MAX;
        bool ok = true;
        for (std::size_t h = 0; h < heuristics.size(); ++h) {
          if (!warm) {
            const Scope span(spans, gc_id);
            mgr.garbage_collect();
          }
          Edge g = kZero;
          {
            const Scope span(spans, heuristic_ids[h]);
            g = heuristics[h].run(mgr, spec.f, spec.c);
          }
          covers.emplace_back(mgr, g);
          if (!minimize::is_cover(mgr, g, spec)) {
            ++non_covers;
            ok = false;
            break;
          }
          const Scope span(spans, count_id);
          min_size = std::min(min_size, count_nodes(mgr, g));
        }
        if (min_size != engine_pass.min_sizes[i]) ++size_mismatches;
        if (mgr.telemetry() - base != engine_pass.job_counters[i]) ++counter_mismatches;
        warm_ready = ok;
      } catch (const std::exception& e) {
        result.fail("replay " + jobs[i].name + ": " + e.what());
      }
    }
  }
  Replay out;
  out.wall = seconds_since(start);

  const auto check = [&](const char* what, std::uint64_t replayed, std::uint64_t engine) {
    if (replayed != engine) {
      result.fail(std::string("replay ") + what + " " + std::to_string(replayed) +
                  " differs from the engine's " + std::to_string(engine));
    }
  };
  check("shards", plan.size(), engine_pass.counters.extra.at("engine.shards"));
  check("warm jobs", warm_jobs, engine_pass.counters.extra.at("engine.warm_jobs"));
  check("cold jobs", cold_jobs, engine_pass.cold_jobs);
  check("duplicate jobs", duplicates,
        engine_pass.counters.extra.at("engine.duplicate_jobs"));
  if (size_mismatches > 0) {
    result.fail(std::to_string(size_mismatches) +
                    " replayed best-cover sizes differ from the engine's",
                size_mismatches);
  }
  if (counter_mismatches > 0) {
    result.fail(std::to_string(counter_mismatches) +
                " replayed job counter banks differ from the engine's");
  }
  if (non_covers > 0) {
    result.fail(std::to_string(non_covers) + " non-covers in the replay", non_covers);
  }
  const auto self = spans.self_seconds();
  out.layers["engine.decode_s"] = self.at("engine.decode");
  out.layers["bdd.gc_s"] = self.at("bdd.gc");
  out.layers["bdd.count_nodes_s"] = self.at("bdd.count_nodes");
  return out;
}

/// Timed passes over \p jobs; fills \p e2e and, with tracing on, \p layers.
/// After the first pass it reads peak memory and finishes \p setup's
/// repeats.
/// Returns the first pass's per-job best-cover sizes.
std::vector<std::size_t> run_passes(const Options& opts,
                                    const std::vector<engine::Job>& jobs,
                                    HeapPeak& heap, Setup& setup, EndToEnd& e2e,
                                    Layers& layers, Result& result) {
  const engine::EngineOptions engine_opts = engine_options();
  Pass first;  // every later pass must reproduce it
  std::size_t count = 0;
  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  std::vector<Layers> traced_layers;
  Spans spans;
  const std::uint32_t batch_id = spans.intern("engine.run_batch");
  const auto start = Clock::now();
  do {
    const bool traced = opts.trace && count % 2 == 1;
    Pass pass;
    if (traced) {
      const Scope span(spans, batch_id);
      pass = batch_pass(jobs, engine_opts, result);
    } else {
      pass = batch_pass(jobs, engine_opts, result);
    }
    if (count > 0) {
      const std::string what = "pass " + std::to_string(count);
      if (pass.csv != first.csv) {
        result.fail("report_csv of " + what + " differs from pass 0");
      }
      check_repeat(first.counters, pass.counters, what, result);
    }
    if (traced) {
      traced_walls.push_back(pass.wall);
      traced_layers.push_back(std::move(pass.layers));
    } else {
      untraced_walls.push_back(pass.wall);
      e2e.pass_rates.push_back(static_cast<double>(jobs.size()) / pass.wall);
      e2e.instance_seconds.insert(e2e.instance_seconds.end(),
                                  pass.job_seconds.begin(), pass.job_seconds.end());
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
  result.info("jobs", static_cast<double>(jobs.size()));
  result.info("workers", engine_opts.num_threads);
  const std::string csv_path = opts.out_dir + "/" + opts.workload + "_report.csv";
  if (!harness::write_text_file(csv_path, first.csv)) {
    result.fail("cannot write " + csv_path);
  }
  for (const std::size_t size : first.min_sizes) {
    e2e.cover_nodes += static_cast<double>(size);
  }
  if (opts.trace) {
    layers = median_per_key(traced_layers);
    const Replay r = replay(jobs, engine_opts, first, spans, result);
    for (const auto& [key, value] : r.layers) layers[key] = value;
    // Tracing a batch pass costs its run_batch span plus the whole
    // single-thread replay, which exists only to place spans.
    layers["telemetry.trace_overhead_s"] =
        median(traced_walls) + r.wall - median(untraced_walls);
    result.info("replay_s", r.wall);
    const std::string trace_path = opts.out_dir + "/" + opts.workload + "_trace.json";
    if (!harness::write_text_file(trace_path, spans.chrome_json(kWrittenSpans))) {
      result.fail("cannot write " + trace_path);
    }
  }
  return std::move(first.min_sizes);
}

}  // namespace

Result run_batch_fsm(const Options& opts) {
  Result result;
  MachineSet set;
  std::vector<engine::Job> jobs;
  std::vector<double> generate_s;
  std::vector<double> harvest_s;
  std::size_t filtered = 0;
  std::uint64_t calls = 0;
  // Set-up: build the machine set, then harvest its kept calls as jobs
  // (functional images only, so no call is harvested twice).  Repeats
  // rebuild the same inputs; every later pass must still reproduce pass 0.
  HeapPeak heap;
  Setup setup(5, [&] {
    const auto start = Clock::now();
    set = make_machine_set(opts.seed);
    generate_s.push_back(seconds_since(start));
    const auto harvest_start = Clock::now();
    engine::JobCollector collector;
    const fsm::MinimizeHook inner = collector.hook();
    calls = 0;
    const fsm::MinimizeHook hook = [&](Manager& mgr, Edge f, Edge c) {
      ++calls;
      return inner(mgr, f, c);
    };
    for (const Traversal& t : traversals(set, fsm::ImageMethod::kFunctional)) {
      collector.set_label(t.name + "@fn");
      run_traversal(t, hook, result);
    }
    filtered = collector.filtered_calls();
    jobs = collector.take();
    harvest_s.push_back(seconds_since(harvest_start));
  });

  Layers extra;
  if (opts.trace) {
    // One more harvest with spans, to split the traversal from the
    // collector's own work.
    Spans spans;
    const std::uint32_t traversal_id = spans.intern("fsm.traversal");
    const std::uint32_t hook_id = spans.intern("minimize.hook");
    engine::JobCollector collector;
    const fsm::MinimizeHook inner = collector.hook();
    const fsm::MinimizeHook hook = [&](Manager& mgr, Edge f, Edge c) {
      const Scope span(spans, hook_id);
      return inner(mgr, f, c);
    };
    for (const Traversal& t : traversals(set, fsm::ImageMethod::kFunctional)) {
      const Scope span(spans, traversal_id);
      run_traversal(t, hook, result);
    }
    extra["fsm.traversal_s"] = spans.self_seconds().at("fsm.traversal");
  }

  EndToEnd e2e;
  Layers layers;
  const std::vector<std::size_t> min_sizes =
      run_passes(opts, jobs, heap, setup, e2e, layers, result);
  result.info("minimize_calls", static_cast<double>(calls));
  result.info("kept_calls", static_cast<double>(jobs.size()));
  result.info("filtered_calls", static_cast<double>(filtered));

  // Gate: the engine's per-job best covers equal table3's per-call ones.
  const std::vector<std::size_t> table3 =
      table3_min_sizes(set, opts.out_dir + "/batch_fsm_table3_records.csv", result);
  if (table3.size() != min_sizes.size()) {
    result.fail("table3 kept " + std::to_string(table3.size()) + " calls, batch has " +
                std::to_string(min_sizes.size()) + " jobs");
  } else {
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < table3.size(); ++i) {
      mismatches += table3[i] != min_sizes[i] ? 1 : 0;
    }
    if (mismatches > 0) {
      result.fail(std::to_string(mismatches) + " job min sizes differ from table3",
                  mismatches);
    }
  }
  if (opts.trace) {
    for (const auto& [key, value] : extra) layers[key] = value;
    layers["fsm.minimize_calls"] = static_cast<double>(calls);
    layers["minimize.filtered_calls"] = static_cast<double>(filtered);
    layers["workload.generate_s"] = median(generate_s);
    layers["workload.harvest_s"] = median(harvest_s);
    add_layers(result, layers);
  } else {
    add_end_to_end(result, e2e);
  }
  return result;
}

Result run_batch_small(const Options& opts) {
  Result result;
  std::vector<engine::Job> jobs;
  const std::uint64_t seed = derive_seed(0x5eed, opts.seed);
  HeapPeak heap;
  Setup setup(5, [&] { jobs = workload::heavy_tier_jobs(50, seed); });
  EndToEnd e2e;
  Layers layers;
  (void)run_passes(opts, jobs, heap, setup, e2e, layers, result);
  if (opts.trace) {
    layers["workload.generate_s"] = e2e.setup_s;
    add_layers(result, layers);
  } else {
    add_end_to_end(result, e2e);
  }
  return result;
}

}  // namespace perfbench
