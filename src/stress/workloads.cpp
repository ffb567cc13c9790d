#include "stress/workloads.hpp"

#include <atomic>
#include <chrono>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/audit.hpp"
#include "analysis/failpoint.hpp"
#include "analysis/mutate.hpp"
#include "bdd/bdd.hpp"
#include "bdd/governor.hpp"
#include "bdd/manager.hpp"
#include "bdd/truth_table.hpp"
#include "engine/engine.hpp"
#include "engine/job.hpp"
#include "engine/shard.hpp"
#include "minimize/registry.hpp"
#include "minimize/sibling.hpp"
#include "stress/runner.hpp"
#include "telemetry/counters.hpp"
#include "telemetry/trace.hpp"

namespace bddmin::stress {
namespace {

// ---- Shared invariant hooks ---------------------------------------------

/// Pool truth tables intact, then the configured audit tier clean.
std::string inv_pool_audit(StressContext& ctx) {
  std::string msg = ctx.check_pool();
  if (!msg.empty()) return msg;
  return ctx.audit_now(ctx.options().invariant_audit);
}

/// Probe states stash their diagnostic in ctx.scratch during run.
std::string inv_scratch(StressContext& ctx) { return ctx.scratch; }

// ---- Single-manager states ----------------------------------------------

/// Random binary/ternary operation over the tracked pool, cross-checked
/// against 64-bit truth-table arithmetic (the soundness oracle).
void run_build_ops(StressContext& ctx) {
  ctx.refill_pool();
  auto& pool = ctx.pool();
  const std::uint64_t mask = tt_mask(ctx.options().num_vars);
  StepRng& rng = ctx.rng();
  const std::size_t a = rng.below(pool.size());
  const std::size_t b = rng.below(pool.size());
  const std::size_t dst = rng.below(pool.size());
  const Bdd fa = pool[a].bdd;
  const Bdd fb = pool[b].bdd;
  const std::uint64_t ta = pool[a].tt;
  const std::uint64_t tb = pool[b].tt;
  Bdd r;
  std::uint64_t tr = 0;
  switch (rng.below(5)) {
    case 0: r = fa & fb; tr = ta & tb; break;
    case 1: r = fa | fb; tr = ta | tb; break;
    case 2: r = fa ^ fb; tr = ta ^ tb; break;
    case 3: r = fa - fb; tr = ta & ~tb; break;
    default: {
      const std::size_t c = rng.below(pool.size());
      r = fa.ite(fb, pool[c].bdd);
      tr = (ta & tb) | (~ta & pool[c].tt);
      break;
    }
  }
  pool[dst] = {std::move(r), tr & mask};
  ctx.note_u64(tr & mask);
}

void run_gc(StressContext& ctx) {
  ctx.refill_pool();
  ctx.manager().garbage_collect();
  ctx.note_u64(ctx.manager().unique_size());
}

void run_clear_caches(StressContext& ctx) {
  ctx.refill_pool();
  ctx.manager().clear_caches();
  // One post-flush operation: results must be identical with a cold cache.
  auto& pool = ctx.pool();
  const Bdd r = pool[0].bdd & pool[1].bdd;
  const std::uint64_t want =
      pool[0].tt & pool[1].tt & tt_mask(ctx.options().num_vars);
  if ((to_tt(ctx.manager(), r.edge(), ctx.options().num_vars) &
       tt_mask(ctx.options().num_vars)) != want) {
    ctx.scratch = "AND result drifted after clear_caches()";
  }
  ctx.note_u64(want);
}

void run_reorder(StressContext& ctx) {
  ctx.refill_pool();
  ctx.note_u64(ctx.manager().reorder_sift());
}

/// Pooled reuse: tear the manager down with Manager::reset() and rebuild
/// the tracked functions from their truth tables — the engine's
/// worker-pooling contract, exercised mid-walk.
void run_reset_reuse(StressContext& ctx) {
  ctx.refill_pool();
  std::vector<std::uint64_t> tts;
  tts.reserve(ctx.pool().size());
  for (const StressContext::TrackedFn& fn : ctx.pool()) tts.push_back(fn.tt);
  ctx.recycle_manager();
  Manager& m = ctx.manager();
  const unsigned n = ctx.options().num_vars;
  for (const std::uint64_t tt : tts) {
    ctx.pool().push_back({Bdd(m, from_tt(m, tt, n)), tt});
  }
  ctx.note_u64(m.unique_size());
}

void run_audit_deep(StressContext& ctx) {
  ctx.refill_pool();
  ctx.scratch = ctx.audit_now(analysis::AuditLevel::kCache);
}

// ---- Governor states ----------------------------------------------------

/// Run a registered heuristic under a deliberately tiny node/step budget;
/// the abort must leave the manager consistent (strong guarantee) and the
/// tracked pool untouched.
void run_quota_exhaust(StressContext& ctx) {
  ctx.refill_pool();
  Manager& m = ctx.manager();
  StepRng& rng = ctx.rng();
  static const std::vector<minimize::Heuristic> kHeuristics =
      minimize::all_heuristics();
  const minimize::Heuristic& heu = kHeuristics[rng.below(kHeuristics.size())];
  ResourceLimits lim;
  if (rng.chance(0.5)) {
    lim.hard_node_limit = m.unique_size() + 1 + rng.below(16);
  } else {
    lim.step_limit = 1 + rng.below(48);
  }
  m.governor().set_limits(lim);
  std::uint64_t tripped = 0;
  try {
    const Edge g =
        heu.run(m, ctx.pool()[0].bdd.edge(), ctx.pool()[1].bdd.edge());
    (void)g;  // unreferenced: the next GC reclaims it
  } catch (const ResourceExhausted&) {
    tripped = 1;
  }
  m.governor().clear();
  m.garbage_collect();
  ctx.note(heu.name);
  ctx.note_u64(tripped);
}

/// Sifting under a node quota just above the current table size.  This is
/// the state that surfaced the mid-swap abort bug: swap_adjacent_levels
/// used to throw NodeLimit after flipping the order maps, tearing the
/// table (caught here by the audit hook).
void run_reorder_under_quota(StressContext& ctx) {
  ctx.refill_pool();
  Manager& m = ctx.manager();
  ResourceLimits lim;
  lim.hard_node_limit = m.unique_size() + 1 + ctx.rng().below(8);
  m.governor().set_limits(lim);
  std::uint64_t tripped = 0;
  try {
    m.reorder_sift();
  } catch (const ResourceExhausted&) {
    tripped = 1;
  }
  m.governor().clear();
  m.garbage_collect();
  ctx.note_u64(tripped);
  ctx.note_u64(m.unique_size());
}

// ---- Batch-engine states ------------------------------------------------

std::vector<engine::Job> random_tt_jobs(StepRng& rng, unsigned count,
                                        unsigned num_vars,
                                        const char* prefix) {
  std::vector<engine::Job> jobs;
  jobs.reserve(count);
  const std::uint64_t mask = tt_mask(num_vars);
  for (unsigned k = 0; k < count; ++k) {
    jobs.push_back(engine::make_tt_job(prefix + std::to_string(k),
                                       rng.next() & mask, rng.next() & mask,
                                       num_vars));
  }
  return jobs;
}

std::string check_statuses(const engine::BatchReport& rep,
                           std::initializer_list<engine::JobStatus> allowed) {
  for (const engine::JobOutcome& o : rep.outcomes) {
    bool ok = false;
    for (const engine::JobStatus s : allowed) ok = ok || o.status == s;
    if (!ok) {
      return "job '" + o.name + "' finished " +
             engine::job_status_name(o.status) +
             (o.error.empty() ? "" : ": " + o.error);
    }
  }
  return "";
}

/// Plain batch: everything must finish kOk and the (deterministic) CSV
/// bytes feed the digest.
void run_submit_batch(StressContext& ctx) {
  StepRng& rng = ctx.rng();
  const std::vector<engine::Job> jobs =
      random_tt_jobs(rng, 2 + static_cast<unsigned>(rng.below(3)), 4, "sb");
  engine::EngineOptions eo;
  eo.num_threads = 1 + static_cast<unsigned>(rng.below(2));
  eo.heuristic = "restr";
  eo.audit_level = analysis::AuditLevel::kRefcount;
  const engine::BatchReport rep = engine::run_batch(jobs, eo);
  ctx.scratch = check_statuses(rep, {engine::JobStatus::kOk});
  if (ctx.scratch.empty()) ctx.note(engine::report_csv(rep));
}

/// The engine's central promise, probed live: the same batch at 1 and 2
/// workers must produce byte-identical CSV.
void run_csv_determinism(StressContext& ctx) {
  StepRng& rng = ctx.rng();
  const std::vector<engine::Job> jobs = random_tt_jobs(rng, 3, 4, "csv");
  engine::EngineOptions eo;
  eo.heuristic = "restr";
  eo.num_threads = 1;
  const std::string one = engine::report_csv(engine::run_batch(jobs, eo));
  eo.num_threads = 2;
  const std::string two = engine::report_csv(engine::run_batch(jobs, eo));
  if (one != two) {
    ctx.scratch = "report_csv differs between 1 and 2 worker threads";
    return;
  }
  ctx.note(one);
}

/// Duplicate payloads: dedup-on and dedup-off runs must report identical
/// CSV bytes, and the duplicate count must match.
void run_dedup_replay(StressContext& ctx) {
  StepRng& rng = ctx.rng();
  std::vector<engine::Job> jobs = random_tt_jobs(rng, 2, 4, "dd");
  for (int k = 0; k < 2; ++k) {
    engine::Job dup = jobs[static_cast<std::size_t>(k)];
    dup.name = "ddcopy" + std::to_string(k);
    jobs.push_back(std::move(dup));
  }
  engine::EngineOptions eo;
  eo.heuristic = "restr";
  eo.num_threads = 2;
  eo.dedup_jobs = true;
  const engine::BatchReport on = engine::run_batch(jobs, eo);
  eo.dedup_jobs = false;
  const engine::BatchReport off = engine::run_batch(jobs, eo);
  if (on.duplicate_jobs != 2) {
    ctx.scratch = "dedup saw " + std::to_string(on.duplicate_jobs) +
                  " duplicates, expected 2";
    return;
  }
  const std::string csv_on = engine::report_csv(on);
  if (csv_on != engine::report_csv(off)) {
    ctx.scratch = "dedup-on CSV differs from dedup-off CSV";
    return;
  }
  ctx.note(csv_on);
}

/// Cancel a running batch from a helper thread.  Statuses are wall-clock
/// dependent — validated, never digested.  Note the shape: the join below
/// happens with no TraceScope or lock held (lint rule R6).
void run_cancel_mid_run(StressContext& ctx) {
  StepRng& rng = ctx.rng();
  const std::vector<engine::Job> jobs =
      random_tt_jobs(rng, 6 + static_cast<unsigned>(rng.below(4)), 6, "cx");
  const auto cancel = std::make_shared<std::atomic<bool>>(false);
  engine::EngineOptions eo;
  eo.heuristic = "osm_td";
  eo.num_threads = 2;
  eo.cancel = cancel;
  const auto delay = std::chrono::microseconds(rng.below(300));
  std::thread canceller([cancel, delay] {
    std::this_thread::sleep_for(delay);
    cancel->store(true, std::memory_order_relaxed);
  });
  const engine::BatchReport rep = engine::run_batch(jobs, eo);
  canceller.join();
  ctx.scratch = check_statuses(
      rep, {engine::JobStatus::kOk, engine::JobStatus::kCancelled});
}

/// Minuscule per-job deadline: jobs may finish, time out between
/// heuristics, or degrade on the in-flight deadline — anything else is a
/// bug.  Wall-clock dependent; never digested.
void run_timeout_storm(StressContext& ctx) {
  StepRng& rng = ctx.rng();
  const std::vector<engine::Job> jobs =
      random_tt_jobs(rng, 4 + static_cast<unsigned>(rng.below(3)), 6, "ts");
  engine::EngineOptions eo;
  eo.heuristic = "osm_td";
  eo.num_threads = 2;
  eo.job_timeout_seconds = 1e-5;
  const engine::BatchReport rep = engine::run_batch(jobs, eo);
  ctx.scratch = check_statuses(
      rep, {engine::JobStatus::kOk, engine::JobStatus::kTimeout,
            engine::JobStatus::kResourceLimit});
}

/// Node/step quotas on the batch: trips are deterministic, so degraded
/// jobs must reproduce bit-for-bit — the whole CSV feeds the digest.
void run_degrade_batch(StressContext& ctx) {
  StepRng& rng = ctx.rng();
  const std::vector<engine::Job> jobs = random_tt_jobs(rng, 3, 6, "dg");
  engine::EngineOptions eo;
  eo.heuristic = "osm_td";
  eo.num_threads = 1 + static_cast<unsigned>(rng.below(2));
  eo.node_limit = 24 + rng.below(32);
  eo.step_limit = 40 + rng.below(100);
  const engine::BatchReport rep = engine::run_batch(jobs, eo);
  ctx.scratch = check_statuses(
      rep, {engine::JobStatus::kOk, engine::JobStatus::kResourceLimit});
  if (ctx.scratch.empty()) ctx.note(engine::report_csv(rep));
}

/// Shard-invariance probe: the same stream under two independently drawn
/// shard-cost budgets (0 = unsharded, a tiny rng budget, or the CLI
/// default) and worker counts must produce byte-identical default CSV —
/// warm-manager reuse must never leak into canonical facts.  The CSV
/// feeds the digest, so it must also be budget- and thread-invariant
/// across replays.
void run_shard_sweep(StressContext& ctx) {
  StepRng& rng = ctx.rng();
  const std::vector<engine::Job> jobs =
      random_tt_jobs(rng, 4 + static_cast<unsigned>(rng.below(4)), 4, "sh");
  const std::uint64_t budgets[] = {0, 96 + rng.next() % 512,
                                   engine::kDefaultShardCost};
  engine::EngineOptions eo;
  eo.heuristic = "restr";
  eo.num_threads = 1 + static_cast<unsigned>(rng.below(2));
  eo.shard_cost = budgets[rng.below(3)];
  const engine::BatchReport a = engine::run_batch(jobs, eo);
  eo.num_threads = 1 + static_cast<unsigned>(rng.below(2));
  eo.shard_cost = budgets[rng.below(3)];
  const engine::BatchReport b = engine::run_batch(jobs, eo);
  const std::string csv = engine::report_csv(a);
  if (csv != engine::report_csv(b)) {
    ctx.scratch = "report_csv differs between shard budgets " +
                  std::to_string(a.metrics.shard_cost_budget) + " and " +
                  std::to_string(b.metrics.shard_cost_budget);
    return;
  }
  ctx.note(csv);
}

/// Cancel a sharded batch from a helper thread: a shard is NOT a
/// cancellation unit — a started job always finishes, a queued job
/// (whole undrained shards included) reports kCancelled, and nothing is
/// lost or run twice.  Statuses are wall-clock dependent — validated,
/// never digested.  Same R6 shape as run_cancel_mid_run: the join
/// happens with no TraceScope or lock held.
void run_shard_cancel(StressContext& ctx) {
  StepRng& rng = ctx.rng();
  const std::vector<engine::Job> jobs =
      random_tt_jobs(rng, 8 + static_cast<unsigned>(rng.below(6)), 6, "shc");
  const auto cancel = std::make_shared<std::atomic<bool>>(false);
  engine::EngineOptions eo;
  eo.heuristic = "osm_td";
  eo.num_threads = 2;
  eo.shard_cost = 64 + rng.next() % 1024;  // several multi-job shards
  eo.cancel = cancel;
  const auto delay = std::chrono::microseconds(rng.below(300));
  std::thread canceller([cancel, delay] {
    std::this_thread::sleep_for(delay);
    cancel->store(true, std::memory_order_relaxed);
  });
  const engine::BatchReport rep = engine::run_batch(jobs, eo);
  canceller.join();
  ctx.scratch = check_statuses(
      rep, {engine::JobStatus::kOk, engine::JobStatus::kCancelled});
  if (!ctx.scratch.empty()) return;
  if (rep.outcomes.size() != jobs.size()) {
    ctx.scratch = "sharded cancel lost outcomes: " +
                  std::to_string(rep.outcomes.size()) + "/" +
                  std::to_string(jobs.size());
  }
}

// ---- Telemetry states ---------------------------------------------------

/// Identical repeated operation must be served from the computed cache
/// (zero misses on the repeat); the per-manager counter delta is
/// deterministic and digested.
void run_counter_delta(StressContext& ctx) {
  ctx.refill_pool();
  Manager& m = ctx.manager();
  auto& pool = ctx.pool();
  const Bdd first = pool[0].bdd & pool[1].bdd;
  const telemetry::CounterSnapshot before = m.telemetry();
  const Bdd again = pool[0].bdd & pool[1].bdd;
  const telemetry::CounterSnapshot delta = m.telemetry() - before;
  if (first.edge() != again.edge()) {
    ctx.scratch = "repeated AND produced a different edge";
    return;
  }
  if (telemetry::kCountersEnabled &&
      delta.value(telemetry::Counter::kAndCacheMisses) != 0) {
    ctx.scratch = "repeated AND missed the computed cache " +
                  std::to_string(
                      delta.value(telemetry::Counter::kAndCacheMisses)) +
                  " times";
    return;
  }
  ctx.note_u64(delta.value(telemetry::Counter::kAndCacheMisses));
}

/// Scrape the process-global aggregate.  Its values are cross-thread and
/// non-deterministic; only the exposition format is checked.  The local
/// manager's cumulative insert counter IS deterministic and digested.
void run_counter_scrape(StressContext& ctx) {
  const telemetry::CounterSnapshot snap = telemetry::global().snapshot();
  const std::string text = telemetry::prometheus_text(snap);
  if (text.find("unique_inserts") == std::string::npos) {
    ctx.scratch = "prometheus_text lost the unique_inserts series";
    return;
  }
  ctx.refill_pool();
  ctx.note_u64(ctx.manager().telemetry().value(
      telemetry::Counter::kUniqueInserts));
}

/// Hammer the tracer's lock-free active() check from every thread; a
/// no-op unless a trace is running, but TSan watches the atomics.
void run_trace_instant(StressContext& ctx) {
  telemetry::trace_instant("stress-tick", "stress");
  ctx.refill_pool();
  ctx.note_u64(ctx.pool().size());
}

// ---- Fault injection ----------------------------------------------------

/// Corrupt the thread's own manager with one of the PR-1 mutation classes;
/// the invariant hook must convict it.  This state failing is the
/// *expected outcome* of the faults workload — the failure's seed triple
/// proves end-to-end that audits catch corruption and replay reproduces it.
void run_inject_fault(StressContext& ctx) {
  ctx.refill_pool();
  auto& pool = ctx.pool();
  // Populate cache entries (AND/XOR/ITE) so every mutation class has an
  // eligible target.
  const Bdd t1 = pool[0].bdd & pool[1].bdd;
  const Bdd t2 = pool[0].bdd ^ pool[1].bdd;
  const Bdd t3 = pool[0].bdd.ite(pool[1].bdd, pool[2 % pool.size()].bdd);
  (void)t1;
  (void)t2;
  (void)t3;
  static constexpr analysis::Mutation kClasses[] = {
      analysis::Mutation::kComplementFlip, analysis::Mutation::kSubtableUnlink,
      analysis::Mutation::kStaleCache, analysis::Mutation::kRefSkew,
      analysis::Mutation::kCountSkew};
  StepRng& rng = ctx.rng();
  const analysis::Mutation m = kClasses[rng.below(5)];
  const analysis::MutationResult result =
      analysis::inject(ctx.manager(), m, rng.next());
  if (result.applied) {
    ctx.scratch =
        std::string(analysis::mutation_name(m)) + ": " + result.description;
  }
  // No eligible target: the manager is uncorrupted; walk continues.
}

std::string inv_fault_detected(StressContext& ctx) {
  if (ctx.scratch.empty()) return "";  // injection found no target
  const std::string injected = ctx.scratch;
  const std::string finding = ctx.audit_now(analysis::AuditLevel::kCache);
  // The corrupted manager is only good for the audit that convicts it.
  ctx.discard_manager();
  if (finding.empty()) {
    return "AUDITOR MISS: injected [" + injected + "] but audits came back clean";
  }
  return "injected fault detected [" + injected + "] -> " + finding;
}

// ---- Failpoint states ---------------------------------------------------

/// Failpoints that are safe to leave armed in random mode while ordinary
/// BDD work runs: each injects a ResourceExhausted the strong-abort
/// machinery already handles.  minimize_deadline sits at the engine's
/// per-heuristic boundary, so only fp-batch reaches it.  The
/// latency/corruption/process-death sites are deliberately excluded: a
/// stall, a corrupt payload or a process exit is not a resource trip, so
/// nothing degrades it in place.
constexpr const char* kSafeRandomPoints[] = {
    "unique_insert_oom", "bucket_grow_oom", "gc_oom", "minimize_deadline"};

/// Compact the table and refill the pool while faults may be armed: any
/// injected ResourceExhausted is absorbed and retried (the gc_oom site can
/// fire inside the recovery GC itself).  A persistently unlucky random
/// draw disarms everything rather than spin — forward progress beats
/// fault coverage on the tail.
void fp_settle(StressContext& ctx) {
  for (int tries = 0; tries < 4; ++tries) {
    try {
      ctx.manager().garbage_collect();
      ctx.refill_pool();
      return;
    } catch (const ResourceExhausted&) {
      continue;  // injected mid-refill; the strong guarantee holds, go again
    }
  }
  analysis::failpoints().disarm_all();
  ctx.manager().garbage_collect();
  ctx.refill_pool();
}

/// Arm a random subset of the safe failpoints in random mode with a small
/// seeded probability.  The registry is process-global, so under multiple
/// stress threads arming races with evaluation — that contention is the
/// point (FailPoint::poll is documented safe against concurrent arming).
/// Which points *this thread* armed is rng-driven and digested; whether
/// they fire is cross-thread timing and never digested.
void run_fp_arm(StressContext& ctx) {
  StepRng& rng = ctx.rng();
  // Draw every decision *before* settling: fp_settle's retry count is
  // fire-dependent, and consuming rng draws there would shift the digested
  // stream below it.
  struct Draw {
    bool arm;
    double probability;
    std::uint64_t seed;
  };
  Draw draws[std::size(kSafeRandomPoints)];
  for (Draw& d : draws) {
    d.arm = rng.chance(0.5);
    d.probability = rng.chance(0.5) ? 0.05 : 0.01;
    d.seed = rng.next() | 1;
  }
  fp_settle(ctx);
  for (std::size_t i = 0; i < std::size(kSafeRandomPoints); ++i) {
    if (!draws[i].arm) continue;
    analysis::FailPointConfig cfg;
    cfg.mode = analysis::FailPointMode::kRandom;
    cfg.probability = draws[i].probability;
    cfg.seed = draws[i].seed;
    analysis::failpoints().arm(kSafeRandomPoints[i], cfg);
    ctx.note(kSafeRandomPoints[i]);
  }
}

void run_fp_disarm(StressContext& ctx) {
  analysis::failpoints().disarm_all();
  // Other walk threads may re-arm concurrently, so settle guarded.
  fp_settle(ctx);
  ctx.note_u64(ctx.pool().size());
}

/// Tier-3 audit of the thread's manager while faults may be armed — the
/// audits themselves are read-only, so they run fault-free even mid-arm.
void run_fp_audit(StressContext& ctx) {
  fp_settle(ctx);
  ctx.scratch = ctx.audit_now(analysis::AuditLevel::kCache);
}

/// Ordinary operations with the safe failpoints possibly armed: an
/// injected OutOfMemory must abort the one operation with the strong
/// guarantee (the invariant audit convicts any torn state) and the
/// tracked pool must stay intact.  The result is discarded — whether the
/// fault fired is non-deterministic across threads, so nothing
/// fire-dependent reaches the digest.
void run_fp_ops(StressContext& ctx) {
  fp_settle(ctx);
  auto& pool = ctx.pool();
  StepRng& rng = ctx.rng();
  const Bdd fa = pool[rng.below(pool.size())].bdd;
  const Bdd fb = pool[rng.below(pool.size())].bdd;
  try {
    const Bdd r = fa & fb;
    const Edge g = minimize::restrict_dc(ctx.manager(), r.edge(), fb.edge());
    (void)g;  // unreferenced: the next GC reclaims it
  } catch (const ResourceExhausted&) {
    // Injected fault: partial results are dead nodes.  The recovery GC is
    // itself a failpoint site, so settle through the guarded helper.
    fp_settle(ctx);
  }
  ctx.note_u64(pool.size());
}

/// A small batch under armed failpoints: the engine must never lose or
/// hang a job, every injected trip must degrade its job in place (never
/// kError), and the worker managers must come back audit-clean.
/// Statuses are fire-dependent — validated, never digested.
void run_fp_batch(StressContext& ctx) {
  StepRng& rng = ctx.rng();
  const std::vector<engine::Job> jobs =
      random_tt_jobs(rng, 2 + static_cast<unsigned>(rng.below(3)), 4, "fp");
  engine::EngineOptions eo;
  eo.heuristic = "restr";
  eo.num_threads = 1 + static_cast<unsigned>(rng.below(2));
  eo.audit_level = analysis::AuditLevel::kRefcount;
  const engine::BatchReport rep = engine::run_batch(jobs, eo);
  ctx.scratch = check_statuses(
      rep, {engine::JobStatus::kOk, engine::JobStatus::kResourceLimit});
  if (!ctx.scratch.empty()) return;
  for (const engine::JobOutcome& o : rep.outcomes) {
    if (o.audit_findings != 0) {
      ctx.scratch = "job '" + o.name + "' reports " +
                    std::to_string(o.audit_findings) + " audit findings";
      return;
    }
  }
}

// ---- Graph assembly -----------------------------------------------------

struct WeightedState {
  const char* name;
  void (*run)(StressContext&);
  std::string (*invariant)(StressContext&);
  double weight;
};

/// Hub-style graph: every state's outgoing row is the same weighted list.
StressFsm build_hub(const char* name, const char* description,
                    std::initializer_list<WeightedState> states) {
  FsmBuilder b(name, description);
  for (const WeightedState& s : states) {
    b.state(s.name, s.run,
            s.invariant != nullptr
                ? std::function<std::string(StressContext&)>(s.invariant)
                : std::function<std::string(StressContext&)>());
  }
  for (const WeightedState& from : states) {
    for (const WeightedState& to : states) {
      b.edge(from.name, to.name, to.weight);
    }
  }
  b.start(states.begin()->name);
  return b.build();
}

StressFsm make_core() {
  return build_hub(
      "core",
      "single-manager operation soup with truth-table oracles and audits",
      {{"build-ops", run_build_ops, inv_pool_audit, 4.0},
       {"gc", run_gc, inv_pool_audit, 1.0},
       {"clear-caches", run_clear_caches, inv_scratch, 1.0},
       {"reorder", run_reorder, inv_pool_audit, 1.0},
       {"reset-reuse", run_reset_reuse, inv_pool_audit, 1.0},
       {"audit", run_audit_deep, inv_scratch, 1.0}});
}

StressFsm make_engine() {
  return build_hub(
      "engine",
      "batch engine: submissions, CSV determinism, dedup, cancellation, "
      "timeouts",
      {{"submit-batch", run_submit_batch, inv_scratch, 3.0},
       {"csv-determinism", run_csv_determinism, inv_scratch, 2.0},
       {"dedup-replay", run_dedup_replay, inv_scratch, 2.0},
       {"shards", run_shard_sweep, inv_scratch, 2.0},
       {"shard-cancel", run_shard_cancel, inv_scratch, 1.0},
       {"cancel-mid-run", run_cancel_mid_run, inv_scratch, 1.0},
       {"timeout-storm", run_timeout_storm, inv_scratch, 1.0},
       {"counter-scrape", run_counter_scrape, inv_scratch, 1.0}});
}

StressFsm make_governor() {
  return build_hub(
      "governor",
      "effort limits: budget aborts, sifting under quota, degraded batches, "
      "abort->reset->reuse",
      {{"build-ops", run_build_ops, inv_pool_audit, 2.0},
       {"quota-exhaust", run_quota_exhaust, inv_pool_audit, 3.0},
       {"reorder-under-quota", run_reorder_under_quota, inv_pool_audit, 2.0},
       {"degrade-batch", run_degrade_batch, inv_scratch, 1.0},
       {"reset-reuse", run_reset_reuse, inv_pool_audit, 1.0},
       {"audit", run_audit_deep, inv_scratch, 1.0}});
}

StressFsm make_telemetry() {
  return build_hub(
      "telemetry",
      "counter cross-checks, scrape format, trace instants",
      {{"build-ops", run_build_ops, inv_pool_audit, 2.0},
       {"counter-delta", run_counter_delta, inv_scratch, 2.0},
       {"counter-scrape", run_counter_scrape, inv_scratch, 2.0},
       {"trace-instant", run_trace_instant, inv_pool_audit, 1.0},
       {"audit", run_audit_deep, inv_scratch, 1.0}});
}

StressFsm make_mixed() {
  // Uniform transitions: empty rows mean "any state next" (FsmBuilder
  // leaves rows empty unless edges are added).
  FsmBuilder b("mixed", "union of all non-fault states, uniform transitions");
  b.state("build-ops", run_build_ops, inv_pool_audit);
  b.state("gc", run_gc, inv_pool_audit);
  b.state("clear-caches", run_clear_caches, inv_scratch);
  b.state("reorder", run_reorder, inv_pool_audit);
  b.state("reset-reuse", run_reset_reuse, inv_pool_audit);
  b.state("audit", run_audit_deep, inv_scratch);
  b.state("quota-exhaust", run_quota_exhaust, inv_pool_audit);
  b.state("reorder-under-quota", run_reorder_under_quota, inv_pool_audit);
  b.state("submit-batch", run_submit_batch, inv_scratch);
  b.state("csv-determinism", run_csv_determinism, inv_scratch);
  b.state("dedup-replay", run_dedup_replay, inv_scratch);
  b.state("shards", run_shard_sweep, inv_scratch);
  b.state("shard-cancel", run_shard_cancel, inv_scratch);
  b.state("degrade-batch", run_degrade_batch, inv_scratch);
  b.state("cancel-mid-run", run_cancel_mid_run, inv_scratch);
  b.state("timeout-storm", run_timeout_storm, inv_scratch);
  b.state("counter-delta", run_counter_delta, inv_scratch);
  b.state("counter-scrape", run_counter_scrape, inv_scratch);
  b.state("trace-instant", run_trace_instant, inv_pool_audit);
  b.start("build-ops");
  return b.build();
}

StressFsm make_failpoints() {
  return build_hub(
      "failpoints",
      "arm/disarm the fault-injection registry mid-walk; ops, audits and "
      "batches must survive injected OOM/deadline faults",
      {{"fp-arm", run_fp_arm, inv_pool_audit, 2.0},
       {"fp-ops", run_fp_ops, inv_pool_audit, 4.0},
       {"fp-batch", run_fp_batch, inv_scratch, 2.0},
       {"fp-audit", run_fp_audit, inv_scratch, 1.0},
       {"fp-disarm", run_fp_disarm, inv_pool_audit, 1.0}});
}

StressFsm make_faults() {
  return build_hub(
      "faults",
      "5-class fault injection vs the audit hooks; EXPECTED to fail with a "
      "replayable seed triple",
      {{"build-ops", run_build_ops, inv_pool_audit, 3.0},
       {"clear-caches", run_clear_caches, inv_scratch, 1.0},
       {"audit", run_audit_deep, inv_scratch, 1.0},
       {"inject-fault", run_inject_fault, inv_fault_detected, 1.0}});
}

}  // namespace

std::vector<StressFsm> builtin_workloads() {
  std::vector<StressFsm> out;
  out.push_back(make_core());
  out.push_back(make_engine());
  out.push_back(make_governor());
  out.push_back(make_telemetry());
  out.push_back(make_mixed());
  out.push_back(make_failpoints());
  out.push_back(make_faults());
  return out;
}

std::vector<std::string> workload_names() {
  return {"core",  "engine",     "governor", "telemetry",
          "mixed", "failpoints", "faults"};
}

StressFsm workload_by_name(const std::string& name) {
  if (name == "core") return make_core();
  if (name == "engine") return make_engine();
  if (name == "governor") return make_governor();
  if (name == "telemetry") return make_telemetry();
  if (name == "mixed") return make_mixed();
  if (name == "failpoints") return make_failpoints();
  if (name == "faults") return make_faults();
  throw std::out_of_range("no built-in stress workload named '" + name + "'");
}

}  // namespace bddmin::stress
