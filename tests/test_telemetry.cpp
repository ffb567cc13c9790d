/// \file test_telemetry.cpp
/// \brief Telemetry subsystem: counter semantics against known workloads,
/// span-trace round trips, per-phase profiles, the counter CSV columns'
/// thread-count determinism, and the Prometheus exposition.
#include "telemetry/counters.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "analysis/audit.hpp"
#include "analysis/mutate.hpp"
#include "bdd/bdd.hpp"
#include "bdd/ops.hpp"
#include "engine/engine.hpp"
#include "minimize/registry.hpp"
#include "minimize/sibling.hpp"
#include "telemetry/profile.hpp"
#include "telemetry/trace.hpp"
#include "workload/instances.hpp"

#ifndef BDDMIN_REPO_ROOT
#error "tests/CMakeLists.txt must define BDDMIN_REPO_ROOT"
#endif

namespace bddmin::telemetry {
namespace {

using Counter = telemetry::Counter;

TEST(Counters, SnapshotArithmetic) {
  CounterSnapshot a;
  a.values[static_cast<std::size_t>(Counter::kIteCacheHits)] = 5;
  a.values[static_cast<std::size_t>(Counter::kUserCacheHits)] = 2;
  a.values[static_cast<std::size_t>(Counter::kIteCacheMisses)] = 7;
  CounterSnapshot b = a;
  b.values[static_cast<std::size_t>(Counter::kIteCacheHits)] = 11;
  EXPECT_EQ(a.total_cache_hits(), 7u);
  EXPECT_EQ(a.total_cache_misses(), 7u);
  const CounterSnapshot d = b - a;
  EXPECT_EQ(d.value(Counter::kIteCacheHits), 6u);
  EXPECT_EQ(d.value(Counter::kUserCacheHits), 0u);
  CounterSnapshot sum = a;
  sum += d;
  EXPECT_EQ(sum, b);
}

TEST(Counters, RepeatedIteIsExactlyOneCacheHit) {
  if (!kCountersEnabled) GTEST_SKIP() << "telemetry compiled out";
  Manager mgr(4);
  const Edge a = mgr.var_edge(0);
  const Edge b = mgr.var_edge(1);
  const Edge c = mgr.var_edge(2);
  (void)mgr.ite(a, b, c);  // populate the cache
  const CounterSnapshot before = mgr.telemetry();
  (void)mgr.ite(a, b, c);  // identical call: resolved at the top level
  const CounterSnapshot delta = mgr.telemetry() - before;
  EXPECT_EQ(delta.value(Counter::kIteCacheHits), 1u);
  EXPECT_EQ(delta.value(Counter::kIteCacheMisses), 0u);
  EXPECT_EQ(delta.value(Counter::kUniqueInserts), 0u);
  EXPECT_EQ(delta.value(Counter::kUniqueHits), 0u);
}

TEST(Counters, UniqueTableInsertThenHit) {
  if (!kCountersEnabled) GTEST_SKIP() << "telemetry compiled out";
  Manager mgr(4);
  const Edge v1 = mgr.var_edge(1);
  const CounterSnapshot s0 = mgr.telemetry();
  const Edge n1 = mgr.make_node(0, v1, kZero);
  const CounterSnapshot after_insert = mgr.telemetry() - s0;
  EXPECT_EQ(after_insert.value(Counter::kUniqueInserts), 1u);
  EXPECT_EQ(after_insert.value(Counter::kUniqueHits), 0u);
  const CounterSnapshot s1 = mgr.telemetry();
  const Edge n2 = mgr.make_node(0, v1, kZero);  // same triple: chain hit
  const CounterSnapshot after_hit = mgr.telemetry() - s1;
  EXPECT_EQ(n1, n2);
  EXPECT_EQ(after_hit.value(Counter::kUniqueInserts), 0u);
  EXPECT_EQ(after_hit.value(Counter::kUniqueHits), 1u);
}

TEST(Counters, GcRunsAndReclaimedMatchReturnValue) {
  if (!kCountersEnabled) GTEST_SKIP() << "telemetry compiled out";
  Manager mgr(8);
  // Unpinned intermediate results become dead nodes.
  Edge f = mgr.var_edge(0);
  for (unsigned v = 1; v < 8; ++v) f = mgr.xor_(f, mgr.var_edge(v));
  const CounterSnapshot before = mgr.telemetry();
  const std::size_t freed = mgr.garbage_collect();
  const CounterSnapshot delta = mgr.telemetry() - before;
  EXPECT_GT(freed, 0u);
  EXPECT_EQ(delta.value(Counter::kGcRuns), 1u);
  EXPECT_EQ(delta.value(Counter::kGcNodesReclaimed), freed);
}

TEST(Counters, SiftSwapsAreCounted) {
  if (!kCountersEnabled) GTEST_SKIP() << "telemetry compiled out";
  Manager mgr(8);
  // An interleaved conjunction of pair-ANDs whose optimal order differs
  // from the initial one, so sifting has swaps to perform.
  Edge f = kOne;
  for (unsigned k = 0; k < 4; ++k) {
    f = mgr.and_(f, mgr.and_(mgr.var_edge(k), mgr.var_edge(7 - k)));
  }
  const Bdd pin(mgr, f);
  const CounterSnapshot before = mgr.telemetry();
  (void)mgr.reorder_sift();
  const CounterSnapshot delta = mgr.telemetry() - before;
  EXPECT_GT(delta.value(Counter::kSiftSwaps), 0u);
}

TEST(Counters, GovernorStepsMeterWithoutAnInstalledLimit) {
  if (!kCountersEnabled) GTEST_SKIP() << "telemetry compiled out";
  Manager mgr(8);
  const CounterSnapshot before = mgr.telemetry();
  Edge f = mgr.var_edge(0);
  for (unsigned v = 1; v < 8; ++v) f = mgr.xor_(f, mgr.var_edge(v));
  const CounterSnapshot delta = mgr.telemetry() - before;
  // No limits installed: steps_used() stays 0, yet the counter meters.
  EXPECT_EQ(mgr.governor().steps_used(), 0u);
  EXPECT_GT(delta.value(Counter::kGovernorSteps), 0u);
}

TEST(Counters, GovernorStepsAgreeWithStepsUsedUnderALimit) {
  if (!kCountersEnabled) GTEST_SKIP() << "telemetry compiled out";
  Manager mgr(8);
  ResourceLimits limits;
  limits.step_limit = 1'000'000;  // high enough to never trip
  mgr.governor().set_limits(limits);
  const std::uint64_t steps0 = mgr.governor().steps_used();
  const CounterSnapshot before = mgr.telemetry();
  Edge f = mgr.var_edge(0);
  for (unsigned v = 1; v < 8; ++v) f = mgr.xor_(f, mgr.var_edge(v));
  const CounterSnapshot delta = mgr.telemetry() - before;
  EXPECT_EQ(delta.value(Counter::kGovernorSteps),
            mgr.governor().steps_used() - steps0);
  EXPECT_GT(delta.value(Counter::kGovernorSteps), 0u);
  mgr.governor().clear();
}

TEST(Profile, CollectorSplitsStepsAcrossPhases) {
  if (!kCountersEnabled) GTEST_SKIP() << "telemetry compiled out";
  Manager mgr(8);
  std::mt19937_64 rng(7);
  const minimize::IncSpec spec = workload::random_instance(mgr, 8, 0.4, rng);
  const Bdd f_pin(mgr, spec.f);
  const Bdd c_pin(mgr, spec.c);
  const CounterSnapshot before = mgr.telemetry();
  PhaseProfile profile;
  {
    const ProfileCollector collect(mgr, &profile);
    (void)minimize::osm_td(mgr, spec.f, spec.c);
  }
  const CounterSnapshot delta = mgr.telemetry() - before;
  // Every governor step lands in exactly one phase.
  EXPECT_EQ(profile.total_steps(), delta.value(Counter::kGovernorSteps));
  // The osm criterion runs ITEs inside matches() → matching work exists,
  // and the traversal itself builds the result → cover-build work exists.
  EXPECT_GT(profile[Phase::kMatching].cache_misses +
                profile[Phase::kMatching].cache_hits,
            0u);
  EXPECT_GT(profile[Phase::kCoverBuild].steps, 0u);
  EXPECT_EQ(profile[Phase::kValidation].steps, 0u);
}

TEST(Profile, WithProfileWrapperAccumulates) {
  if (!kCountersEnabled) GTEST_SKIP() << "telemetry compiled out";
  Manager mgr(8);
  std::mt19937_64 rng(11);
  const minimize::IncSpec spec = workload::random_instance(mgr, 8, 0.4, rng);
  const Bdd f_pin(mgr, spec.f);
  const Bdd c_pin(mgr, spec.c);
  PhaseProfile profile;
  const minimize::Heuristic h = minimize::with_profile(
      {"osm_td",
       [](Manager& m, Edge f, Edge c) { return minimize::osm_td(m, f, c); }},
      &profile);
  (void)h.run(mgr, spec.f, spec.c);
  const std::uint64_t first = profile.total_steps();
  EXPECT_GT(first, 0u);
  mgr.garbage_collect();  // flush caches so the rerun repeats the work
  (void)h.run(mgr, spec.f, spec.c);
  EXPECT_GT(profile.total_steps(), first);  // calls accumulate
}

TEST(Trace, RoundTripIsValidAndThreadAware) {
  const std::string path = testing::TempDir() + "bddmin_trace_test.json";
  ASSERT_TRUE(Tracer::start(path));
  Tracer::set_thread_name("test-main");
  {
    const TraceScope outer("outer", "test");
    {
      const TraceScope inner("inner", "test");
    }
    trace_instant("tick", "test");
  }
  std::thread worker([] {
    Tracer::set_thread_name("test-worker");
    const TraceScope s("worker-span", "test");
  });
  worker.join();
  ASSERT_EQ(Tracer::stop(), path);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  for (const char* needle : {"test-main", "test-worker", "outer", "inner",
                             "tick", "worker-span", "displayTimeUnit"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }

  // The file must pass the checker CI runs on real batch traces: spans
  // on two tracks, each track strictly nested.
  if (std::system("python3 --version > /dev/null 2>&1") != 0) {
    GTEST_SKIP() << "python3 not available";
  }
  const std::string cmd = std::string("python3 \"") + BDDMIN_REPO_ROOT +
                          "/tools/check_trace.py\" --min-tracks 2 \"" +
                          path + "\"";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
}

TEST(Trace, RestartWhileWorkersEmitSpansIsRaceFree) {
  // Regression: Tracer::Impl::generation used to be a plain uint64 read
  // unlocked by log_for_this_thread() (the cached-log validity check)
  // while start() incremented it under a different mutex — a data race
  // TSan flags on any stop()/start() cycle concurrent with tracing
  // threads.  generation is atomic now; this test drives exactly that
  // interleaving and must stay clean under -DBDDMIN_SANITIZE=thread.
  const std::string base = testing::TempDir() + "bddmin_trace_restart";
  std::atomic<bool> done{false};
  std::thread worker([&done] {
    while (!done.load(std::memory_order_relaxed)) {
      const TraceScope s("restart-span", "test");
      trace_instant("restart-tick", "test");
    }
  });
  for (int round = 0; round < 50; ++round) {
    const std::string path = base + std::to_string(round) + ".json";
    if (Tracer::start(path)) {
      // A couple of spans on this thread force fresh log registration
      // against the bumped generation.
      const TraceScope s("main-span", "test");
      (void)Tracer::stop();
    }
  }
  done.store(true, std::memory_order_relaxed);
  worker.join();
}

TEST(Engine, CounterColumnsAreByteIdenticalAcrossThreadCounts) {
  const std::vector<engine::Job> jobs = engine::random_jobs(12, 7, 0.3, 42);
  std::string baseline;
  for (const unsigned threads : {1u, 2u, 8u}) {
    engine::EngineOptions opts;
    opts.num_threads = threads;
    const engine::BatchReport report = engine::run_batch(jobs, opts);
    EXPECT_EQ(report.count(engine::JobStatus::kOk), jobs.size());
    const std::string csv =
        engine::report_csv(report, /*include_timings=*/false,
                           /*include_counters=*/true);
    if (baseline.empty()) {
      baseline = csv;
      EXPECT_NE(csv.find(",ut_inserts,ut_hits,cache_hits,cache_misses,"
                         "gc_runs,gc_reclaimed,steps"),
                std::string::npos);
      EXPECT_NE(csv.find(",steps_match_const,steps_build_const,"
                         "steps_valid_const"),
                std::string::npos);
    } else {
      EXPECT_EQ(csv, baseline) << "thread count " << threads;
    }
  }
}

TEST(Audit, TelemetryCrossCheckBalancesOnABusyManager) {
  Manager mgr(8);
  std::mt19937_64 rng(5);
  const minimize::IncSpec spec = workload::random_instance(mgr, 8, 0.4, rng);
  const Bdd f_pin(mgr, spec.f);
  const Bdd c_pin(mgr, spec.c);
  const Bdd g_pin(mgr, minimize::osm_td(mgr, spec.f, spec.c));
  mgr.garbage_collect();
  (void)mgr.reorder_sift();
  const analysis::AuditReport report = analysis::audit_manager(mgr);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(Audit, TelemetryCrossCheckDetectsAnUnlinkedNode) {
  if (!kCountersEnabled) GTEST_SKIP() << "telemetry compiled out";
  Manager mgr(8);
  const Bdd pin(mgr, mgr.and_(mgr.var_edge(0),
                              mgr.or_(mgr.var_edge(1), mgr.var_edge(2))));
  const analysis::MutationResult injected =
      analysis::inject(mgr, analysis::Mutation::kSubtableUnlink);
  ASSERT_TRUE(injected.applied);
  const analysis::AuditReport report = analysis::audit_manager(mgr);
  EXPECT_TRUE(report.has(analysis::Category::kAccounting));
  bool telemetry_finding = false;
  for (const auto& finding : report.findings) {
    if (finding.message.find("telemetry") != std::string::npos) {
      telemetry_finding = true;
    }
  }
  EXPECT_TRUE(telemetry_finding) << report.summary();
}

TEST(Prometheus, ExpositionListsEveryFamily) {
  CounterSnapshot s;
  s.values[static_cast<std::size_t>(Counter::kUniqueInserts)] = 3;
  const std::string text = prometheus_text(s);
  for (const char* needle :
       {"bddmin_unique_inserts_total 3", "bddmin_unique_hits_total",
        "bddmin_cache_lookups_total{op=\"ite\",outcome=\"hit\"}",
        "bddmin_cache_lookups_total{op=\"quantify\",outcome=\"miss\"}",
        "bddmin_gc_runs_total", "bddmin_gc_nodes_reclaimed_total",
        "bddmin_reorder_nodes_freed_total", "bddmin_sift_swaps_total",
        "bddmin_governor_steps_total", "# HELP", "# TYPE"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(Global, ProcessWideCountersAccumulateBatchWork) {
  if (!kCountersEnabled) GTEST_SKIP() << "telemetry compiled out";
  global().reset();
  const std::vector<engine::Job> jobs = engine::random_jobs(4, 6, 0.3, 9);
  engine::EngineOptions opts;
  opts.num_threads = 2;
  const engine::BatchReport report = engine::run_batch(jobs, opts);
  CounterSnapshot expected;
  for (const engine::JobOutcome& o : report.outcomes) expected += o.counters;
  const CounterSnapshot seen = global().snapshot();
  EXPECT_EQ(seen, expected);
  EXPECT_GT(seen.value(Counter::kUniqueInserts), 0u);
}

}  // namespace
}  // namespace bddmin::telemetry
