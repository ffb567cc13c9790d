/// \file bench_batch.cpp
/// \brief Batch engine determinism check on the Table 3 workload: harvest
/// every unfiltered frontier-minimization call into a job set, run it
/// through the engine at 1/2/4/8 threads with sharding off and on, plus
/// once with payload dedup off, and assert the deterministic CSV is
/// byte-identical across the whole matrix.
///
/// Within one shard mode the counter sums (cache hits/misses, governor
/// steps, peak_live, job tallies) and the shard facts (shards, warm and
/// cold manager acquisitions) must not depend on the thread count: the
/// per-job counters are deterministic and shard packing is a pure
/// function of the submission stream.  Between shard modes they differ
/// on purpose — warm caches do less work.
///
/// The run prints no timings, so BENCH_batch.json (schema_version 4) is
/// byte-identical from run to run: it records the job counts and, per
/// shard mode, the asserted-invariant counters and shard facts.  Engine
/// time is measured by perfbench (batch_fsm and batch_small workloads)
/// and by the Chrome-trace spans (BDDMIN_TRACE).
///
/// Exit status: 0 on success, 1 on CSV divergence, failed jobs, or a
/// thread-variant "invariant" counter.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/collect.hpp"
#include "engine/engine.hpp"
#include "engine/shard.hpp"
#include "experiment_common.hpp"
#include "fsm/equiv.hpp"
#include "harness/csv.hpp"
#include "harness/json.hpp"

namespace bddmin::bench {
namespace {

/// Same traversals as run_workload(), but with the JobCollector on the
/// minimize seam instead of the inline interceptor.
///
/// Each traversal is harvested under two image methods.  The reachability
/// fixpoint — and with it the frontier [f, c] sequence arriving at the
/// minimize seam — does not depend on how images are computed, so the
/// second method re-emits the frontier instances with byte-identical
/// payloads under fresh names.  That is exactly the duplicate shape a
/// verification fleet produces when different pipelines process the same
/// designs, and it is what the engine's payload dedup is checked against
/// below.
std::vector<engine::Job> harvest_jobs() {
  engine::JobCollector collector;
  const fsm::ImageMethod methods[] = {fsm::ImageMethod::kFunctional,
                                      fsm::ImageMethod::kClustered};
  for (const fsm::ImageMethod method : methods) {
    const char* const tag =
        method == fsm::ImageMethod::kFunctional ? "@fn" : "@cl";
    fsm::EquivOptions opts;
    opts.image_method = method;
    opts.minimize = collector.hook();
    for (const auto& [a, b] : workload_pairs()) {
      collector.set_label(
          (a.name == b.name ? a.name : a.name + "+" + b.name) + tag);
      (void)fsm::check_equivalence(a, b, opts);
    }
    for (const fsm::MachineSpec& spec : reach_workload_machines()) {
      collector.set_label("reach_" + spec.name + tag);
      Manager mgr(spec.num_inputs + 2 * spec.num_state_bits, 15);
      std::vector<std::uint32_t> in(spec.num_inputs);
      for (unsigned i = 0; i < spec.num_inputs; ++i) in[i] = i;
      std::vector<std::uint32_t> st;
      std::vector<std::uint32_t> nx;
      for (unsigned k = 0; k < spec.num_state_bits; ++k) {
        st.push_back(spec.num_inputs + 2 * k);
        nx.push_back(spec.num_inputs + 2 * k + 1);
      }
      const fsm::SymbolicFsm sym = spec.build(mgr, in, st);
      fsm::ReachOptions ropts;
      ropts.image_method = method;
      ropts.minimize = collector.hook();
      (void)fsm::reachable_states(mgr, sym, nx, ropts);
    }
  }
  std::printf("# harvested %zu jobs (%zu trivial calls filtered)\n",
              collector.jobs().size(), collector.filtered_calls());
  return collector.take();
}

/// The report facts that must not depend on the thread count within one
/// shard mode (the per-job counters are deterministic, so their batch
/// sums are too; shard packing is a pure function of the job stream).
struct InvariantCounters {
  std::size_t ok = 0;
  std::size_t duplicate_jobs = 0;
  std::size_t peak_live = 0;
  telemetry::CounterSnapshot counters;
  std::uint64_t shards = 0;
  std::uint64_t warm_jobs = 0;
  std::uint64_t cold_jobs = 0;

  [[nodiscard]] bool operator==(const InvariantCounters&) const = default;
};

InvariantCounters invariants_of(const engine::BatchReport& report) {
  InvariantCounters inv;
  inv.ok = report.count(engine::JobStatus::kOk);
  inv.duplicate_jobs = report.duplicate_jobs;
  for (const engine::JobOutcome& o : report.outcomes) {
    // Worst single-job live-node footprint: the quota a resource-governed
    // rerun of this workload would need to finish untripped.
    inv.peak_live = std::max(inv.peak_live, o.peak_live);
    inv.counters += o.counters;
  }
  inv.shards = report.metrics.shards;
  inv.warm_jobs = report.metrics.warm_jobs;
  inv.cold_jobs = report.metrics.cold_jobs;
  return inv;
}

void write_invariants(harness::JsonWriter& json, const InvariantCounters& inv) {
  const auto rate = [](std::uint64_t hit, std::uint64_t miss) {
    return hit + miss ? static_cast<double>(hit) / (hit + miss) : 0.0;
  };
  const telemetry::CounterSnapshot& c = inv.counters;
  const std::uint64_t hits = c.total_cache_hits();
  const std::uint64_t misses = c.total_cache_misses();
  const std::uint64_t and_hits = c.value(telemetry::Counter::kAndCacheHits);
  const std::uint64_t and_misses =
      c.value(telemetry::Counter::kAndCacheMisses);
  const std::uint64_t xor_hits = c.value(telemetry::Counter::kXorCacheHits);
  const std::uint64_t xor_misses =
      c.value(telemetry::Counter::kXorCacheMisses);
  json.kv("ok", inv.ok);
  json.kv("shards", inv.shards);
  json.kv("warm_jobs", inv.warm_jobs);
  json.kv("cold_jobs", inv.cold_jobs);
  json.kv("peak_live", inv.peak_live);
  json.kv("cache_hits", hits);
  json.kv("cache_misses", misses);
  json.kv("cache_hit_rate", rate(hits, misses));
  json.kv("and_cache_hits", and_hits);
  json.kv("and_cache_misses", and_misses);
  json.kv("and_cache_hit_rate", rate(and_hits, and_misses));
  json.kv("xor_cache_hits", xor_hits);
  json.kv("xor_cache_misses", xor_misses);
  json.kv("xor_cache_hit_rate", rate(xor_hits, xor_misses));
  json.kv("steps", c.value(telemetry::Counter::kGovernorSteps));
}

int run() {
  const std::vector<engine::Job> jobs = harvest_jobs();
  if (jobs.empty()) {
    std::printf("no jobs harvested\n");
    return 1;
  }

  int failures = 0;
  std::string baseline;  // the deterministic CSV every run must reproduce
  const auto run_checked = [&](unsigned threads, std::uint64_t shard_cost,
                               bool dedup) {
    engine::EngineOptions opts;
    opts.num_threads = threads;
    opts.shard_cost = shard_cost;
    opts.dedup_jobs = dedup;
    opts.lower_bound_cubes = 500;
    const engine::BatchReport report = engine::run_batch(jobs, opts);
    const InvariantCounters inv = invariants_of(report);
    const std::string csv = engine::report_csv(report);
    if (baseline.empty()) baseline = csv;
    const bool same_csv = csv == baseline;
    if (inv.ok != jobs.size()) ++failures;
    if (!same_csv) ++failures;
    std::printf("  %7u %8s %6s %5zu %6zu %6llu %6llu %s\n", threads,
                shard_cost > 0 ? "on" : "off", dedup ? "on" : "off", inv.ok,
                inv.duplicate_jobs, static_cast<unsigned long long>(inv.shards),
                static_cast<unsigned long long>(inv.warm_jobs),
                same_csv ? "identical" : "DIVERGED");
    std::fflush(stdout);
    return inv;
  };

  harness::JsonWriter json;
  json.begin_object();
  json.kv("bench", "batch");
  json.kv("schema_version", 4);
  json.kv("jobs", jobs.size());
  std::printf("# %7s %8s %6s %5s %6s %6s %6s %s\n", "threads", "sharded",
              "dedup", "ok", "dups", "shards", "warm", "csv");
  InvariantCounters unsharded;
  for (const bool sharded : {false, true}) {
    const std::uint64_t shard_cost =
        sharded ? engine::kDefaultShardCost : std::uint64_t{0};
    InvariantCounters inv;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      const InvariantCounters this_inv = run_checked(threads, shard_cost, true);
      if (threads == 1) {
        inv = this_inv;
      } else if (this_inv != inv) {
        // The determinism contract, checked instead of silently copied:
        // counter sums and shard facts must not depend on the thread count.
        std::printf("!! counters at %u threads (sharding %s) diverge from "
                    "the 1-thread run\n",
                    threads, sharded ? "on" : "off");
        ++failures;
      }
    }
    if (!sharded) unsharded = inv;
    json.key(sharded ? "sharded" : "unsharded").begin_object();
    json.kv("shard_cost_budget", shard_cost);
    write_invariants(json, inv);
    json.end_object();
  }
  // Dedup off: every duplicate payload is minimized again, yet neither
  // the deterministic CSV nor the counter sums may change (outcomes,
  // counters included, are pure functions of the payload, and a
  // duplicate's row is a copy of its representative's).
  const InvariantCounters no_dedup = run_checked(4, 0, false);
  if (no_dedup.duplicate_jobs != 0 || no_dedup.ok != unsharded.ok ||
      no_dedup.peak_live != unsharded.peak_live ||
      no_dedup.counters != unsharded.counters) {
    std::printf("!! dedup off changed the duplicate count or the counters\n");
    ++failures;
  }
  json.kv("duplicate_jobs", unsharded.duplicate_jobs);
  std::printf("# deterministic report: %s\n",
              failures == 0 ? "byte-identical across threads, shard modes "
                              "and dedup"
                            : "FAILED");
  json.kv("deterministic", failures == 0);
  json.end_object();
  if (harness::write_text_file("BENCH_batch.json", json.str())) {
    std::printf("# summary written to BENCH_batch.json\n");
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace bddmin::bench

int main() { return bddmin::bench::run(); }
