/// \file test_kernels.cpp
/// \brief Specialized apply kernels and the adaptive computed cache:
/// differential tests of and_kernel/xor_kernel (and every connective
/// rerouted onto them) against the ITE oracle, the early-exit
/// leq/disjoint/agree predicates, Manager::reset() reuse, and the
/// cache-growth invariant (results survive a mid-recursion resize).
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "analysis/audit.hpp"
#include "bdd/bdd.hpp"
#include "bdd/manager.hpp"
#include "bdd/ops.hpp"
#include "bdd/truth_table.hpp"
#include "telemetry/counters.hpp"
#include "workload/instances.hpp"

namespace bddmin {
namespace {

/// The ITE oracle for AND: the standard-triple path ite() does not route
/// through the kernels, so it is an independent reference.
Edge ite_and(Manager& mgr, Edge f, Edge g) { return mgr.ite(f, g, kZero); }
Edge ite_xor(Manager& mgr, Edge f, Edge g) { return mgr.ite(f, !g, g); }

/// Semantic 64-bit fingerprint of an n-variable function: FNV-1a over the
/// value at every one of the 2^n assignments.  Unlike to_tt this is valid
/// for n > kMaxTtVars (the test used to funnel 12-variable functions
/// through to_tt, whose 1ull << m wrapped past bit 63 — shift UB that
/// silently degraded the comparison to an OR-fold; to_tt now enforces its
/// contract, and this helper is both well-defined and strictly stronger).
std::uint64_t eval_fingerprint(const Manager& mgr, Edge f, unsigned n) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  std::vector<bool> assignment(mgr.num_vars(), false);
  for (std::uint64_t m = 0; m < (1ull << n); ++m) {
    for (unsigned v = 0; v < n; ++v) assignment[v] = (m >> v) & 1;
    h ^= static_cast<std::uint64_t>(eval(mgr, f, assignment));
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

TEST(Kernels, ExhaustiveThreeVariablePairsMatchIteOracle) {
  Manager mgr(3);
  std::vector<Edge> fn(256);
  for (unsigned tt = 0; tt < 256; ++tt) fn[tt] = from_tt(mgr, tt, 3);
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const Edge f = fn[a];
      const Edge g = fn[b];
      ASSERT_EQ(mgr.and_(f, g), ite_and(mgr, f, g)) << a << " & " << b;
      ASSERT_EQ(mgr.xor_(f, g), ite_xor(mgr, f, g)) << a << " ^ " << b;
      ASSERT_EQ(mgr.or_(f, g), mgr.ite(f, kOne, g)) << a << " | " << b;
      ASSERT_EQ(mgr.xnor_(f, g), !ite_xor(mgr, f, g)) << a << " = " << b;
      ASSERT_EQ(mgr.diff(f, g), ite_and(mgr, f, !g)) << a << " \\ " << b;
    }
  }
}

TEST(Kernels, ExhaustiveThreeVariableLeqDisjointMatchOracle) {
  Manager mgr(3);
  std::vector<Edge> fn(256);
  for (unsigned tt = 0; tt < 256; ++tt) fn[tt] = from_tt(mgr, tt, 3);
  for (unsigned a = 0; a < 256; ++a) {
    for (unsigned b = 0; b < 256; ++b) {
      const bool leq_oracle = (a & ~b & 0xFFu) == 0;
      const bool dis_oracle = (a & b & 0xFFu) == 0;
      ASSERT_EQ(mgr.leq(fn[a], fn[b]), leq_oracle) << a << " <= " << b;
      ASSERT_EQ(mgr.disjoint(fn[a], fn[b]), dis_oracle) << a << " # " << b;
    }
  }
}

TEST(Kernels, RandomDifferentialAgainstIteOracle) {
  Manager mgr(14);
  std::mt19937_64 rng(0xC0FFEEu);
  for (int round = 0; round < 60; ++round) {
    const Bdd f(mgr, workload::random_function(mgr, 14, 0.3, rng));
    const Bdd g(mgr, workload::random_function(mgr, 14, 0.3, rng));
    EXPECT_EQ(mgr.and_(f.edge(), g.edge()), ite_and(mgr, f.edge(), g.edge()));
    EXPECT_EQ(mgr.xor_(f.edge(), g.edge()), ite_xor(mgr, f.edge(), g.edge()));
    EXPECT_EQ(mgr.or_(f.edge(), g.edge()),
              mgr.ite(f.edge(), kOne, g.edge()));
    EXPECT_EQ(mgr.implies(f.edge(), g.edge()),
              mgr.ite(f.edge(), g.edge(), kOne));
    // leq/disjoint agree with their defining products.
    EXPECT_EQ(mgr.leq(f.edge(), g.edge()),
              ite_and(mgr, f.edge(), !g.edge()) == kZero);
    EXPECT_EQ(mgr.disjoint(f.edge(), g.edge()),
              ite_and(mgr, f.edge(), g.edge()) == kZero);
    // Ground truths the predicates can never miss.
    EXPECT_TRUE(mgr.leq(mgr.and_(f.edge(), g.edge()), f.edge()));
    EXPECT_TRUE(mgr.leq(f.edge(), mgr.or_(f.edge(), g.edge())));
    EXPECT_TRUE(mgr.disjoint(mgr.diff(f.edge(), g.edge()), g.edge()));
  }
}

TEST(Kernels, ExhaustiveTwoVariableAgreeMatchesTruthTable) {
  Manager mgr(2);
  std::vector<Edge> fn(16);
  for (unsigned tt = 0; tt < 16; ++tt) fn[tt] = from_tt(mgr, tt, 2);
  for (unsigned a = 0; a < 16; ++a) {
    for (unsigned b = 0; b < 16; ++b) {
      for (unsigned c = 0; c < 16; ++c) {
        const bool oracle = ((a ^ b) & c) == 0;
        ASSERT_EQ(mgr.agree(fn[a], fn[b], fn[c]), oracle)
            << "agree(" << a << ", " << b << ", " << c << ")";
      }
    }
  }
}

TEST(Kernels, RandomSixVariableAgreeMatchesTruthTable) {
  Manager mgr(6);
  std::mt19937_64 rng(0xA6EEu);
  int agreeing = 0;
  for (int round = 0; round < 2000; ++round) {
    // g differs from f on a sparse set; half the care sets avoid that set,
    // so both answers occur often.
    const std::uint64_t f = rng();
    const std::uint64_t diff = rng() & rng() & rng();
    const std::uint64_t g = f ^ diff;
    std::uint64_t c = rng() & rng();
    if (round % 2 == 0) c &= ~diff;
    const bool oracle = ((f ^ g) & c) == 0;
    agreeing += oracle ? 1 : 0;
    const Edge ef = from_tt(mgr, f, 6);
    const Edge eg = from_tt(mgr, g, 6);
    const Edge ec = from_tt(mgr, c, 6);
    ASSERT_EQ(mgr.agree(ef, eg, ec), oracle) << "round " << round;
    // The canonicalized key must not leak into the answer: operand order
    // and a complemented pair pose the same question.
    ASSERT_EQ(mgr.agree(eg, ef, ec), oracle) << "round " << round;
    ASSERT_EQ(mgr.agree(!ef, !eg, ec), oracle) << "round " << round;
    ASSERT_EQ(mgr.agree(ef, !eg, ec), ((f ^ ~g) & c) == 0) << "round " << round;
  }
  EXPECT_GT(agreeing, 500);
  EXPECT_LT(agreeing, 1900);
}

TEST(Kernels, AgreeBuildsNoNodesAndMemoizesBothAnswers) {
  Manager mgr(12);
  std::mt19937_64 rng(41);
  const Bdd f(mgr, workload::random_function(mgr, 12, 0.4, rng));
  const Bdd g(mgr, workload::random_function(mgr, 12, 0.4, rng));
  const Bdd c(mgr, workload::random_function(mgr, 12, 0.2, rng));
  const Bdd diff(mgr, mgr.xor_(f.edge(), g.edge()));
  const Bdd agreeing_c(mgr, mgr.diff(c.edge(), diff.edge()));
  const std::size_t nodes = mgr.allocated_nodes();
  const bool agrees = mgr.agree(f.edge(), g.edge(), c.edge());
  EXPECT_FALSE(agrees);
  EXPECT_TRUE(mgr.agree(f.edge(), g.edge(), agreeing_c.edge()));
  EXPECT_EQ(mgr.allocated_nodes(), nodes);  // a predicate, not a builder
  EXPECT_EQ(agrees, mgr.disjoint(diff.edge(), c.edge()));
  // Repeated queries, in any canonical variant, are answered from the
  // cache without a single recursion step.
  const telemetry::CounterSnapshot before = mgr.telemetry();
  EXPECT_EQ(mgr.agree(g.edge(), f.edge(), c.edge()), agrees);
  EXPECT_TRUE(mgr.agree(!f.edge(), !g.edge(), agreeing_c.edge()));
  if (telemetry::kCountersEnabled) {
    const telemetry::CounterSnapshot delta = mgr.telemetry() - before;
    EXPECT_EQ(delta.value(telemetry::Counter::kGovernorSteps), 0u);
  }
}

TEST(Kernels, CacheEntriesInteroperateBetweenAndAndDisjoint) {
  Manager mgr(8);
  const Edge f = mgr.and_(mgr.var_edge(0), mgr.var_edge(1));
  const Edge g = mgr.and_(!mgr.var_edge(0), mgr.var_edge(2));
  // The AND-kernel result f & g == 0 doubles as a disjointness
  // certificate: the subsequent disjoint() probe must hit the cache and
  // answer without recursing (no extra governor steps).
  ASSERT_EQ(mgr.and_(f, g), kZero);
  const telemetry::CounterSnapshot before = mgr.telemetry();
  EXPECT_TRUE(mgr.disjoint(f, g));
  if (telemetry::kCountersEnabled) {
    const telemetry::CounterSnapshot delta = mgr.telemetry() - before;
    EXPECT_EQ(delta.value(telemetry::Counter::kAndCacheHits), 1u);
    EXPECT_EQ(delta.value(telemetry::Counter::kAndCacheMisses), 0u);
  }
}

TEST(Kernels, CountersClassifyKernelTraffic) {
  Manager mgr(10);
  std::mt19937_64 rng(17);
  const Bdd f(mgr, workload::random_function(mgr, 10, 0.4, rng));
  const Bdd g(mgr, workload::random_function(mgr, 10, 0.4, rng));
  const telemetry::CounterSnapshot before = mgr.telemetry();
  (void)mgr.and_(f.edge(), g.edge());
  const telemetry::CounterSnapshot mid = mgr.telemetry();
  (void)mgr.xor_(f.edge(), g.edge());
  const telemetry::CounterSnapshot after = mgr.telemetry();
  const auto and_delta = mid - before;
  const auto xor_delta = after - mid;
  if (telemetry::kCountersEnabled) {
    EXPECT_GT(and_delta.value(telemetry::Counter::kAndCacheMisses), 0u);
    EXPECT_EQ(and_delta.value(telemetry::Counter::kXorCacheMisses), 0u);
    EXPECT_GT(xor_delta.value(telemetry::Counter::kXorCacheMisses), 0u);
    EXPECT_EQ(xor_delta.value(telemetry::Counter::kAndCacheMisses), 0u);
  }
}

TEST(ManagerReset, RebuildAfterResetIsBitForBitFresh) {
  Manager pooled(9, 10);
  // Dirty the manager with an unrelated workload.
  std::mt19937_64 dirty(99);
  for (int i = 0; i < 5; ++i) {
    (void)workload::random_function(pooled, 9, 0.3, dirty);
  }
  pooled.reset(9);

  Manager fresh(9, 10);
  std::mt19937_64 rng_a(7);
  std::mt19937_64 rng_b(7);
  const Edge in_pooled = workload::random_function(pooled, 9, 0.35, rng_a);
  const Edge in_fresh = workload::random_function(fresh, 9, 0.35, rng_b);
  // Same construction order on a terminal-only table => same edge bits.
  EXPECT_EQ(in_pooled.bits, in_fresh.bits);
  EXPECT_EQ(pooled.unique_size(), fresh.unique_size());
  EXPECT_EQ(pooled.live_nodes(), fresh.live_nodes());
  // Deterministic telemetry (counters, governor) matches a fresh manager.
  const telemetry::CounterSnapshot a = pooled.telemetry();
  const telemetry::CounterSnapshot b = fresh.telemetry();
  for (std::size_t c = 0; c < telemetry::kNumCounters; ++c) {
    EXPECT_EQ(a.value(static_cast<telemetry::Counter>(c)),
              b.value(static_cast<telemetry::Counter>(c)))
        << telemetry::counter_name(static_cast<telemetry::Counter>(c));
  }
}

TEST(ManagerReset, ResetManagerPassesFullAudit) {
  Manager mgr(8, 10);
  std::mt19937_64 rng(3);
  for (int round = 0; round < 3; ++round) {
    const Bdd f(mgr, workload::random_function(mgr, 8, 0.4, rng));
    const Bdd g(mgr, workload::random_function(mgr, 8, 0.4, rng));
    (void)mgr.xor_(f.edge(), g.edge());
    (void)mgr.leq(f.edge(), g.edge());
  }
  mgr.reset(8);
  analysis::AuditOptions opts;
  opts.level = analysis::AuditLevel::kCache;
  const analysis::AuditReport report = analysis::audit_manager(mgr, opts);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_EQ(mgr.unique_size(), 0u);
  EXPECT_EQ(mgr.live_nodes(), 1u);  // the terminal
  // The manager is fully usable after reset, including with fewer vars.
  mgr.reset(4);
  EXPECT_EQ(to_tt(mgr, mgr.and_(mgr.var_edge(0), mgr.var_edge(3)), 4),
            (tt_mask(4) & 0xFF00u & 0xAAAAu));
}

TEST(CacheGrowth, ResultsSurviveMidRecursionResize) {
  // A deliberately tiny cache under a heavy workload: growth triggers in
  // the middle of kernel recursions.  Results must match a manager whose
  // cache never grows.
  Manager tiny(12, 2);
  tiny.set_cache_growth_limit(Manager::kMaxCacheLog2);
  Manager big(12, 18);
  std::mt19937_64 rng_a(21);
  std::mt19937_64 rng_b(21);
  for (int round = 0; round < 20; ++round) {
    const Bdd fa(tiny, workload::random_function(tiny, 12, 0.35, rng_a));
    const Bdd ga(tiny, workload::random_function(tiny, 12, 0.35, rng_a));
    const Bdd fb(big, workload::random_function(big, 12, 0.35, rng_b));
    const Bdd gb(big, workload::random_function(big, 12, 0.35, rng_b));
    EXPECT_EQ(eval_fingerprint(tiny, tiny.and_(fa.edge(), ga.edge()), 12),
              eval_fingerprint(big, big.and_(fb.edge(), gb.edge()), 12));
    EXPECT_EQ(eval_fingerprint(tiny, tiny.xor_(fa.edge(), ga.edge()), 12),
              eval_fingerprint(big, big.xor_(fb.edge(), gb.edge()), 12));
    EXPECT_EQ(eval_fingerprint(tiny, tiny.ite(fa.edge(), ga.edge(), !ga.edge()), 12),
              eval_fingerprint(big, big.ite(fb.edge(), gb.edge(), !gb.edge()), 12));
  }
  EXPECT_GT(tiny.cache_log2(), 2u) << "workload never triggered growth";
  if (telemetry::kCountersEnabled) {
    EXPECT_GT(tiny.telemetry().value(telemetry::Counter::kCacheGrowths), 0u);
    EXPECT_EQ(big.telemetry().value(telemetry::Counter::kCacheGrowths), 0u);
  }
  // The grown manager still audits clean, cache tier included.
  analysis::AuditOptions opts;
  opts.level = analysis::AuditLevel::kCache;
  const analysis::AuditReport report = analysis::audit_manager(tiny, opts);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(CacheGrowth, GrowthLimitIsRespected) {
  Manager mgr(12, 2);
  mgr.set_cache_growth_limit(3);
  std::mt19937_64 rng(5);
  for (int round = 0; round < 10; ++round) {
    const Bdd f(mgr, workload::random_function(mgr, 12, 0.35, rng));
    const Bdd g(mgr, workload::random_function(mgr, 12, 0.35, rng));
    (void)mgr.and_(f.edge(), g.edge());
    (void)mgr.xor_(f.edge(), g.edge());
  }
  EXPECT_LE(mgr.cache_log2(), 3u);
}

TEST(CacheGrowth, ResetShrinksCacheBackToConstructionSize) {
  Manager mgr(12, 2);
  mgr.set_cache_growth_limit(Manager::kMaxCacheLog2);
  std::mt19937_64 rng(9);
  for (int round = 0; round < 20; ++round) {
    const Bdd f(mgr, workload::random_function(mgr, 12, 0.35, rng));
    const Bdd g(mgr, workload::random_function(mgr, 12, 0.35, rng));
    (void)mgr.and_(f.edge(), g.edge());
    (void)mgr.xor_(f.edge(), g.edge());
    (void)mgr.ite(f.edge(), g.edge(), !g.edge());
  }
  ASSERT_GT(mgr.cache_log2(), 2u);
  mgr.reset(12);
  EXPECT_EQ(mgr.cache_log2(), 2u);
}

}  // namespace
}  // namespace bddmin
