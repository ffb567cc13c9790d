#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "analysis/access.hpp"
#include "bdd/bdd.hpp"
#include "bdd/ops.hpp"
#include "bdd/truth_table.hpp"
#include "telemetry/counters.hpp"
#include "workload/instances.hpp"

namespace bddmin {
namespace {

TEST(Gc, UnreferencedNodesAreReclaimed) {
  Manager mgr(6);
  const std::size_t baseline = mgr.live_nodes();
  (void)mgr.xor_(mgr.var_edge(0), mgr.xor_(mgr.var_edge(1), mgr.var_edge(2)));
  EXPECT_GT(mgr.dead_nodes(), 0u);
  const std::size_t freed = mgr.garbage_collect();
  EXPECT_GT(freed, 0u);
  EXPECT_EQ(mgr.dead_nodes(), 0u);
  EXPECT_EQ(mgr.live_nodes(), baseline);
}

TEST(Gc, ReferencedRootsSurviveWithChildren) {
  Manager mgr(6);
  const Edge f = mgr.xor_(mgr.var_edge(0), mgr.var_edge(3));
  mgr.ref(f);
  (void)mgr.and_(mgr.var_edge(1), mgr.var_edge(2));  // garbage
  mgr.garbage_collect();
  // f must still evaluate correctly: rebuilding it finds the same node.
  EXPECT_EQ(mgr.xor_(mgr.var_edge(0), mgr.var_edge(3)), f);
  EXPECT_EQ(count_nodes(mgr, f), 3u);
  mgr.deref(f);
}

TEST(Gc, RecycledSlotsAreReused) {
  Manager mgr(8);
  Edge junk = kOne;
  for (unsigned v = 0; v < 8; ++v) junk = mgr.xor_(junk, mgr.var_edge(v));
  const std::size_t allocated = mgr.allocated_nodes();
  mgr.garbage_collect();
  Edge junk2 = kZero;
  for (unsigned v = 0; v < 8; ++v) junk2 = mgr.xnor_(junk2, mgr.var_edge(v));
  // Same shape rebuilt: no net new slots needed beyond the first round.
  EXPECT_LE(mgr.allocated_nodes(), allocated + 1);
}

TEST(Gc, CacheIsFlushedByCollection) {
  Manager mgr(4);
  const Edge f = mgr.var_edge(0);
  mgr.cache_insert(Manager::kUserOpBase, f, f, f, kOne);
  mgr.garbage_collect();
  Edge out;
  EXPECT_FALSE(mgr.cache_lookup(Manager::kUserOpBase, f, f, f, &out));
}

TEST(Gc, GcRunsCounterIncrements) {
  Manager mgr(2);
  const auto before = mgr.gc_runs();
  mgr.garbage_collect();
  EXPECT_EQ(mgr.gc_runs(), before + 1);
}

TEST(BddHandle, KeepsRootAliveAcrossGc) {
  Manager mgr(6);
  Bdd f;
  {
    const Bdd x0(mgr, mgr.var_edge(0));
    const Bdd x1(mgr, mgr.var_edge(1));
    f = x0 ^ x1;
  }
  mgr.garbage_collect();
  EXPECT_EQ(f.size(), 3u);
  EXPECT_EQ(f.edge(), mgr.xor_(mgr.var_edge(0), mgr.var_edge(1)));
}

TEST(BddHandle, CopySharesAndReleasesCorrectly) {
  Manager mgr(4);
  const std::size_t baseline = mgr.live_nodes();
  {
    const Bdd a(mgr, mgr.and_(mgr.var_edge(0), mgr.var_edge(1)));
    const Bdd b = a;         // copy
    Bdd c;
    c = b;                   // copy assign
    const Bdd d = std::move(c);  // move
    EXPECT_EQ(d.edge(), a.edge());
  }
  mgr.garbage_collect();
  EXPECT_EQ(mgr.live_nodes(), baseline);
}

TEST(BddHandle, OperatorsMatchManagerOps) {
  Manager mgr(4);
  const Bdd x(mgr, mgr.var_edge(0));
  const Bdd y(mgr, mgr.var_edge(1));
  EXPECT_EQ((x & y).edge(), mgr.and_(x.edge(), y.edge()));
  EXPECT_EQ((x | y).edge(), mgr.or_(x.edge(), y.edge()));
  EXPECT_EQ((x ^ y).edge(), mgr.xor_(x.edge(), y.edge()));
  EXPECT_EQ((x - y).edge(), mgr.diff(x.edge(), y.edge()));
  EXPECT_EQ((!x).edge(), !x.edge());
  EXPECT_TRUE((x & y).leq(x));
  EXPECT_TRUE(x.ite(y, !y) == Bdd(mgr, mgr.xnor_(x.edge(), y.edge())));
}

TEST(EdgePin, PinsUntilDestroyed) {
  Manager mgr(4);
  Edge f;
  {
    EdgePin pin(mgr);
    f = pin.pin(mgr.xor_(mgr.var_edge(0), mgr.var_edge(1)));
    mgr.garbage_collect();
    EXPECT_EQ(count_nodes(mgr, f), 3u);  // survived: still intact
  }
  mgr.garbage_collect();
  // After the pin is gone the node count drops back to just vars/terminal.
  EXPECT_EQ(mgr.live_nodes(), 1u);
}

TEST(Gc, RepeatedAbortGcReuseCyclesRecycleSlots) {
  // Abort-&-recover drill: trip the node quota, collect the dead partials,
  // reuse the manager, repeat.  Reclaimed slots must come back through the
  // free list, so the table size is the same after every cycle — a leaked
  // reference or a free-list break would make it creep upward.
  Manager mgr(6);
  ResourceLimits lim;
  lim.hard_node_limit = mgr.allocated_nodes() + 12;
  std::mt19937_64 rng(77);
  std::size_t table_size = 0;
  for (int cycle = 0; cycle < 25; ++cycle) {
    mgr.governor().set_limits(lim);
    EXPECT_THROW(
        {
          for (int k = 0; k < 6; ++k) (void)from_tt(mgr, rng() & tt_mask(6), 6);
        },
        NodeLimit);
    mgr.governor().clear();
    mgr.garbage_collect();
    EXPECT_EQ(mgr.dead_nodes(), 0u);
    if (cycle == 0) {
      table_size = mgr.allocated_nodes();
    } else {
      EXPECT_EQ(mgr.allocated_nodes(), table_size) << "cycle " << cycle;
    }
  }
  // The survivor is still a working manager.
  const Edge f = mgr.xor_(mgr.var_edge(0), mgr.var_edge(5));
  EXPECT_EQ(count_nodes(mgr, f), 3u);
}

TEST(Gc, HeavyChurnStressKeepsCanonicity) {
  Manager mgr(6);
  std::mt19937_64 rng(31);
  const Bdd keep(mgr, from_tt(mgr, rng() & tt_mask(6), 6));
  const std::uint64_t keep_tt = to_tt(mgr, keep.edge(), 6);
  for (int round = 0; round < 50; ++round) {
    (void)from_tt(mgr, rng() & tt_mask(6), 6);
    if (round % 7 == 0) mgr.garbage_collect();
  }
  mgr.garbage_collect();
  EXPECT_EQ(to_tt(mgr, keep.edge(), 6), keep_tt);
  EXPECT_EQ(from_tt(mgr, keep_tt, 6), keep.edge());
}

// ---- Differential: the candidate-list GC against a full-table scan ------

using analysis::ManagerAccess;

/// What a full-table scan would free, in order: every allocated ref == 0
/// slot pushed in ascending order, then swept LIFO, each freed node
/// releasing its children (simulated on a copy of the ref counts).
std::vector<std::uint32_t> full_scan_sweep(const Manager& mgr) {
  const std::vector<Node>& nodes = ManagerAccess::nodes(mgr);
  std::vector<std::uint32_t> refs(nodes.size());
  std::vector<std::uint32_t> work;
  for (std::uint32_t i = 0; i < nodes.size(); ++i) {
    refs[i] = nodes[i].ref;
    if (i > 0 && nodes[i].var != kFreeVar && nodes[i].ref == 0) work.push_back(i);
  }
  std::vector<std::uint32_t> freed;
  while (!work.empty()) {
    const std::uint32_t i = work.back();
    work.pop_back();
    freed.push_back(i);
    for (const Edge child : {nodes[i].hi, nodes[i].lo}) {
      std::uint32_t& r = refs[child.index()];
      if (r != 0xFFFF'FFFFu && --r == 0) work.push_back(child.index());
    }
  }
  return freed;
}

/// Run one GC and assert it freed exactly what a full scan would, in the
/// same order: the tail it appends to the free list, its return value and
/// the kGcNodesReclaimed delta.
void expect_gc_matches_full_scan(Manager& mgr) {
  const std::vector<std::uint32_t> expected = full_scan_sweep(mgr);
  const std::vector<std::uint32_t>& free_list = ManagerAccess::free_list(mgr);
  const std::size_t free_before = free_list.size();
  const telemetry::CounterSnapshot before = mgr.telemetry();
  const std::size_t freed = mgr.garbage_collect();
  EXPECT_EQ(freed, expected.size());
  ASSERT_EQ(free_list.size(), free_before + expected.size());
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         free_list.begin() + static_cast<std::ptrdiff_t>(free_before)));
  if (telemetry::kCountersEnabled) {
    EXPECT_EQ((mgr.telemetry() - before).value(telemetry::Counter::kGcNodesReclaimed),
              expected.size());
  }
  EXPECT_EQ(mgr.dead_nodes(), 0u);
  EXPECT_TRUE(ManagerAccess::gc_candidates(mgr).empty());
}

TEST(GcDifferential, HandleCopiesAndDestructors) {
  Manager mgr(8);
  std::mt19937_64 rng(101);
  std::vector<Bdd> pool;
  for (int round = 0; round < 40; ++round) {
    pool.emplace_back(mgr, workload::random_function(mgr, 8, 0.4, rng));
    pool.push_back(pool[rng() % pool.size()] ^ pool[rng() % pool.size()]);
    pool.push_back(pool[rng() % pool.size()]);  // copy
    if (pool.size() > 6) {
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(rng() % pool.size()));
    }
    if (round % 3 == 0) pool.erase(pool.begin());
    expect_gc_matches_full_scan(mgr);
  }
}

TEST(GcDifferential, ExplicitRefDeref) {
  Manager mgr(8);
  std::mt19937_64 rng(202);
  std::vector<Edge> held;
  for (int round = 0; round < 40; ++round) {
    for (int k = 0; k < 3; ++k) {
      const Edge f = workload::random_function(mgr, 8, 0.5, rng);
      mgr.ref(f);
      held.push_back(f);
    }
    // Release some, and revive a released one before the GC: a listed
    // slot whose ref rose again must survive.
    for (int k = 0; k < 2 && !held.empty(); ++k) {
      const std::size_t pick = rng() % held.size();
      mgr.deref(held[pick]);
      if (rng() % 2 == 0) {
        mgr.ref(held[pick]);
      } else {
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(pick));
      }
    }
    expect_gc_matches_full_scan(mgr);
  }
  for (const Edge f : held) mgr.deref(f);
  expect_gc_matches_full_scan(mgr);
  EXPECT_EQ(mgr.live_nodes(), 1u);
}

TEST(GcDifferential, NodeQuotaAborts) {
  Manager mgr(6);
  std::mt19937_64 rng(303);
  const Bdd keep(mgr, from_tt(mgr, rng() & tt_mask(6), 6));
  int aborts = 0;
  for (int cycle = 0; cycle < 20; ++cycle) {
    ResourceLimits lim;
    lim.hard_node_limit = mgr.live_nodes() + 5 + rng() % 30;
    mgr.governor().set_limits(lim);
    try {
      for (int k = 0; k < 8; ++k) (void)from_tt(mgr, rng() & tt_mask(6), 6);
    } catch (const NodeLimit&) {
      ++aborts;  // partial results are dead nodes for the GC below
    }
    mgr.governor().clear();
    expect_gc_matches_full_scan(mgr);
  }
  EXPECT_GT(aborts, 10);
}

TEST(GcDifferential, LevelSwapsAndSifting) {
  Manager mgr(8);
  std::mt19937_64 rng(404);
  std::vector<Bdd> roots;
  for (int round = 0; round < 12; ++round) {
    for (int k = 0; k < 3; ++k) {
      roots.emplace_back(mgr, workload::random_function(mgr, 8, 0.4, rng));
    }
    (void)workload::random_function(mgr, 8, 0.6, rng);  // garbage
    roots.erase(roots.begin() + static_cast<std::ptrdiff_t>(rng() % roots.size()));
    // Swaps with dead nodes present free slots that stay listed; the GC
    // must skip them (or their reuse) and still match the scan.
    for (int k = 0; k < 4; ++k) {
      (void)mgr.swap_adjacent_levels(static_cast<std::uint32_t>(rng() % 7));
    }
    (void)workload::random_function(mgr, 8, 0.5, rng);  // reuses freed slots
    expect_gc_matches_full_scan(mgr);
    if (round % 4 == 3) {
      mgr.reorder_sift();
      roots.pop_back();
      expect_gc_matches_full_scan(mgr);
    }
  }
  mgr.check_invariants();
}

TEST(GcDifferential, Reset) {
  Manager mgr(8);
  std::mt19937_64 rng(505);
  for (int job = 0; job < 6; ++job) {
    const unsigned n = 4 + static_cast<unsigned>(job % 4);
    mgr.reset(n);
    EXPECT_TRUE(ManagerAccess::gc_candidates(mgr).empty());
    {
      const Bdd a(mgr, workload::random_function(mgr, n, 0.5, rng));
      (void)workload::random_function(mgr, n, 0.5, rng);
      expect_gc_matches_full_scan(mgr);
      (void)(a & Bdd(mgr, workload::random_function(mgr, n, 0.3, rng)));
    }
    // Leave garbage behind on odd jobs: reset() must drop it and the list.
    if (job % 2 == 0) expect_gc_matches_full_scan(mgr);
  }
}

TEST(GcDifferential, DerefNeverGrowsTheCandidateList) {
  Manager mgr(10);
  std::mt19937_64 rng(606);
  std::vector<Edge> roots;
  for (int k = 0; k < 20; ++k) {
    roots.push_back(workload::random_function(mgr, 10, 0.5, rng));
    mgr.ref(roots.back());
  }
  mgr.garbage_collect();
  const std::vector<std::uint32_t>& list = ManagerAccess::gc_candidates(mgr);
  const std::size_t capacity = list.capacity();
  for (int round = 0; round < 200; ++round) {
    for (const Edge f : roots) mgr.deref(f);
    EXPECT_EQ(list.capacity(), capacity);
    for (const Edge f : roots) mgr.ref(f);
  }
  for (const Edge f : roots) mgr.deref(f);
  EXPECT_EQ(list.capacity(), capacity);
  expect_gc_matches_full_scan(mgr);
}

}  // namespace
}  // namespace bddmin
