#include "minimize/level.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "bdd/ops.hpp"
#include "bdd/truth_table.hpp"
#include "minimize/sibling.hpp"

namespace bddmin::minimize {
namespace {

TEST(Collect, GathersBoundaryPairsOnly) {
  Manager mgr(4);
  const Edge f = mgr.ite(mgr.var_edge(0), mgr.var_edge(2), mgr.var_edge(3));
  const Edge c = kOne;
  const CollectedLevel collected = collect_at_level(mgr, {f, c}, 1);
  // Below level 1 (vars >= 2): [x2, 1] and [x3, 1].
  ASSERT_EQ(collected.specs.size(), 2u);
  for (const IncSpec& spec : collected.specs) {
    EXPECT_GT(mgr.var_of(spec.f), 1u);
    EXPECT_EQ(spec.c, kOne);
  }
}

TEST(Collect, RecordsFirstPath) {
  Manager mgr(4);
  const Edge f = mgr.ite(mgr.var_edge(0), mgr.var_edge(2), mgr.var_edge(3));
  const CollectedLevel collected = collect_at_level(mgr, {f, kOne}, 1);
  ASSERT_EQ(collected.paths.size(), 2u);
  // x2 is reached with x0=1, x3 with x0=0; x1 absent on both paths.
  for (std::size_t j = 0; j < 2; ++j) {
    const bool is_x2 = mgr.var_of(collected.specs[j].f) == 2;
    EXPECT_EQ(collected.paths[j][0], is_x2 ? 1 : 0);
    EXPECT_EQ(collected.paths[j][1], kAbsentLiteral);
  }
}

TEST(Collect, DedupesEqualIncompletelySpecifiedFunctions) {
  Manager mgr(4);
  // Two pairs with the same (f·c, c) must share one vertex.
  const Edge x2 = mgr.var_edge(2);
  const Edge x3 = mgr.var_edge(3);
  // f = ite(x0, x2, x2·x3), c = x3: below level 1, [x2, x3] vs
  // [x2·x3, x3] are the same incompletely specified function.
  const Edge f = mgr.ite(mgr.var_edge(0), x2, mgr.and_(x2, x3));
  const CollectedLevel collected = collect_at_level(mgr, {f, x3}, 1);
  EXPECT_EQ(collected.specs.size(), 1u);
  // Both boundary pairs were recorded, and both point at vertex 0.
  const auto boundary_slots = std::count_if(
      collected.slots.begin(), collected.slots.end(),
      [](const LevelSlot& slot) { return slot.vertex == 0; });
  EXPECT_EQ(boundary_slots, 2);
}

TEST(Collect, MaxSetSizeTruncates) {
  Manager mgr(5);
  std::mt19937_64 rng(3);
  const Edge f = from_tt(mgr, rng() & tt_mask(5), 5);
  const Edge c = from_tt(mgr, rng() | 1, 5);
  const CollectedLevel full = collect_at_level(mgr, {f, c}, 2);
  if (full.specs.size() > 1) {
    const CollectedLevel capped = collect_at_level(mgr, {f, c}, 2, 1);
    EXPECT_EQ(capped.specs.size(), 1u);
  }
}

TEST(PathDistance, MatchesPaperFormula) {
  // Example from Section 3.3.2: path 1000210 vs 1201111 -> distance 9.
  const CubeVec g{1, 0, 0, 0, 2, 1, 0};
  const CubeVec h{1, 2, 0, 1, 1, 1, 1};
  // Differences at positions 3 (2^(7-1-3)=8) and 6 (2^0=1) -> 9.
  EXPECT_DOUBLE_EQ(path_distance(g, h), 9.0);
  // Siblings differ only at the last position: distance 1.
  const CubeVec a{2, 2, 1};
  const CubeVec b{2, 2, 0};
  EXPECT_DOUBLE_EQ(path_distance(a, b), 1.0);
  EXPECT_DOUBLE_EQ(path_distance(a, a), 0.0);
}

TEST(FmmOsm, AllMatchableCollapseToOneSink) {
  Manager mgr(3);
  const Edge x2 = mgr.var_edge(2);
  // Chain: [x2, c1] osm [x2, c2] osm [x2, 1] with c1 <= c2 <= 1.
  const Edge c1 = mgr.and_(mgr.var_edge(0), mgr.var_edge(1));
  const Edge c2 = mgr.var_edge(0);
  const std::vector<IncSpec> specs{{x2, c1}, {x2, c2}, {x2, kOne}};
  const std::vector<std::size_t> rep = fmm_osm(mgr, specs);
  EXPECT_EQ(rep[0], 2u);
  EXPECT_EQ(rep[1], 2u);
  EXPECT_EQ(rep[2], 2u);
}

TEST(FmmOsm, UnrelatedFunctionsStaySeparate) {
  Manager mgr(3);
  const std::vector<IncSpec> specs{{mgr.var_edge(1), kOne},
                                   {mgr.var_edge(2), kOne},
                                   {!mgr.var_edge(1), kOne}};
  const std::vector<std::size_t> rep = fmm_osm(mgr, specs);
  for (std::size_t j = 0; j < specs.size(); ++j) EXPECT_EQ(rep[j], j);
}

TEST(FmmTsm, CliquesAreActualCliques) {
  Manager mgr(4);
  std::mt19937_64 rng(9);
  for (int round = 0; round < 20; ++round) {
    std::vector<IncSpec> specs;
    for (int k = 0; k < 8; ++k) {
      specs.push_back({from_tt(mgr, rng() & tt_mask(4), 4),
                       from_tt(mgr, rng() & tt_mask(4), 4)});
    }
    for (const bool degree : {false, true}) {
      LevelOptions opts;
      opts.order_by_degree = degree;
      const CliqueCover cover = fmm_tsm(mgr, specs, {}, opts);
      std::size_t covered = 0;
      for (const auto& clique : cover.cliques) {
        covered += clique.size();
        for (const std::size_t u : clique) {
          for (const std::size_t w : clique) {
            if (u != w) {
              EXPECT_TRUE(matches(mgr, Criterion::kTsm, specs[u], specs[w]));
            }
          }
        }
      }
      EXPECT_EQ(covered, specs.size());
    }
  }
}

TEST(FmmTsm, OrderingOptimizationsRescueTheBigClique) {
  // Section 3.3.2's motivating case: vertex A sits in a 2-clique with B,
  // while {B, C, D} form a 3-clique.  Seeding by degree starts from B, and
  // distance weights grow toward the nearby C and D instead of absorbing
  // A; without the optimizations the 2-clique {A, B} shadows the triangle.
  Manager mgr(4);
  const Edge x2 = mgr.var_edge(2);
  const Edge x3 = mgr.var_edge(3);
  const std::vector<IncSpec> specs{
      {!x2, mgr.and_(!x2, x3)},  // A: matches only B (care sets clash w/ C,D)
      {x2, mgr.and_(x2, x3)},    // B: matches everyone
      {x2, x3},                  // C
      {x2, mgr.or_(x2, x3)},     // D
  };
  ASSERT_TRUE(matches(mgr, Criterion::kTsm, specs[0], specs[1]));
  ASSERT_FALSE(matches(mgr, Criterion::kTsm, specs[0], specs[2]));
  ASSERT_FALSE(matches(mgr, Criterion::kTsm, specs[0], specs[3]));
  // Paths: A far from B; C and D near B.
  const std::vector<CubeVec> paths{{0, 0}, {1, 1}, {1, 0}, {0, 1}};

  LevelOptions naive;
  naive.order_by_degree = false;
  naive.weight_by_distance = false;
  const CliqueCover bad = fmm_tsm(mgr, specs, paths, naive);
  std::size_t largest_naive = 0;
  for (const auto& clique : bad.cliques) {
    largest_naive = std::max(largest_naive, clique.size());
  }
  EXPECT_EQ(largest_naive, 2u);  // {A,B} shadows the triangle

  const CliqueCover good = fmm_tsm(mgr, specs, paths, LevelOptions{});
  std::size_t largest = 0;
  for (const auto& clique : good.cliques) {
    largest = std::max(largest, clique.size());
  }
  EXPECT_EQ(largest, 3u);
  EXPECT_EQ(good.cliques.size(), 2u);  // {B,C,D} and {A}
}

TEST(Substitute, ReplacementRespectsICoverSemantics) {
  Manager mgr(4);
  std::mt19937_64 rng(15);
  for (int round = 0; round < 25; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(4), 4);
    std::uint64_t c_tt = rng() & tt_mask(4);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 4);
    for (std::uint32_t level = 0; level < 3; ++level) {
      for (const Criterion crit : {Criterion::kOsm, Criterion::kTsm}) {
        LevelStats stats;
        const IncSpec out =
            minimize_at_level(mgr, crit, level, {}, {f, c}, &stats);
        EXPECT_TRUE(is_icover(mgr, out, {f, c}))
            << to_string(crit) << " level " << level;
        EXPECT_TRUE(mgr.leq(c, out.c));
        EXPECT_EQ(stats.matched, stats.vertices - stats.groups);
      }
    }
  }
}

TEST(OptLv, ProducesValidCovers) {
  Manager mgr(5);
  std::mt19937_64 rng(19);
  for (int round = 0; round < 20; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(5), 5);
    std::uint64_t c_tt = rng() & tt_mask(5);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 5);
    const Edge g = opt_lv(mgr, f, c);
    EXPECT_TRUE(is_cover(mgr, g, {f, c}));
  }
}

TEST(OptLv, OsmVariantProducesValidCovers) {
  Manager mgr(5);
  std::mt19937_64 rng(23);
  for (int round = 0; round < 15; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(5), 5);
    std::uint64_t c_tt = rng() & tt_mask(5);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 5);
    const Edge g = opt_lv(mgr, f, c, {}, Criterion::kOsm);
    EXPECT_TRUE(is_cover(mgr, g, {f, c}));
  }
}

TEST(OptLv, TrivialCareSets) {
  Manager mgr(3);
  const Edge f = mgr.xor_(mgr.var_edge(0), mgr.var_edge(1));
  EXPECT_EQ(opt_lv(mgr, f, kOne), f);
  EXPECT_EQ(opt_lv(mgr, f, kZero), f);
}

TEST(OptLv, MergesSharableSubfunctions) {
  // f has two distinct subfunctions at level 1 that agree on the care
  // set; opt_lv must merge them, beating f's size.
  Manager mgr(3);
  const Edge x1 = mgr.var_edge(1);
  const Edge x2 = mgr.var_edge(2);
  // f = ite(x0, x1·x2, x1): differs only when x1=1,x2=0.
  const Edge f = mgr.ite(mgr.var_edge(0), mgr.and_(x1, x2), x1);
  const Edge c = mgr.or_(!x1, x2);  // don't care exactly at x1=1,x2=0
  const Edge g = opt_lv(mgr, f, c);
  EXPECT_TRUE(is_cover(mgr, g, {f, c}));
  EXPECT_LT(count_nodes(mgr, g), count_nodes(mgr, f));
  EXPECT_FALSE(depends_on(mgr, g, 0));  // the x0 split disappears
}

TEST(Collect, OnlyLevelPlusOneRestrictsTheSet) {
  Manager mgr(4);
  // f = ite(x0, x1·x3, x3): below level 0 there are functions rooted at
  // levels 1 (x1·x3) and 3 (x3); the level+1 method keeps only the first.
  const Edge f = mgr.ite(mgr.var_edge(0),
                         mgr.and_(mgr.var_edge(1), mgr.var_edge(3)),
                         mgr.var_edge(3));
  const CollectedLevel all = collect_at_level(mgr, {f, kOne}, 0);
  const CollectedLevel narrow =
      collect_at_level(mgr, {f, kOne}, 0, 0, /*only_level_plus_one=*/true);
  EXPECT_EQ(all.specs.size(), 2u);
  ASSERT_EQ(narrow.specs.size(), 1u);
  EXPECT_EQ(mgr.level_of(narrow.specs[0].f), 1u);
}

TEST(MinimizeAtLevel, ChunkedProcessingMatchesAcrossChunks) {
  // Three mutually matchable functions A = x2·x3, B = x2, C = x2+x3 that
  // agree on c = xnor(x2, x3).  A cap of 2 collects only {A, B} in the
  // first chunk; chunked processing continues the traversal and merges C
  // in a second round, while plain truncation leaves C unmatched.
  Manager mgr(4);
  const Edge x2 = mgr.var_edge(2);
  const Edge x3 = mgr.var_edge(3);
  // Same value function x2 under three different care sets: the pairs are
  // distinct incompletely specified functions, all mutually tsm-matchable.
  const Edge f = x2;
  const Edge c = mgr.ite(mgr.var_edge(0),
                         mgr.ite(mgr.var_edge(1), mgr.and_(x2, x3), x3),
                         mgr.or_(x2, x3));
  const IncSpec unlimited =
      minimize_at_level(mgr, Criterion::kTsm, 1, {}, {f, c});
  ASSERT_TRUE(is_icover(mgr, unlimited, {f, c}));

  LevelOptions capped;
  capped.max_set_size = 2;
  capped.chunked = false;
  LevelStats stats;
  const IncSpec truncated =
      minimize_at_level(mgr, Criterion::kTsm, 1, capped, {f, c}, &stats);
  EXPECT_TRUE(is_icover(mgr, truncated, {f, c}));

  capped.chunked = true;
  const IncSpec chunked =
      minimize_at_level(mgr, Criterion::kTsm, 1, capped, {f, c}, &stats);
  EXPECT_TRUE(is_icover(mgr, chunked, {f, c}));
  // Chunked processing must reach the unlimited result; truncation can't.
  EXPECT_EQ(count_nodes(mgr, chunked.f), count_nodes(mgr, unlimited.f));
  EXPECT_GT(count_nodes(mgr, truncated.f), count_nodes(mgr, chunked.f));
}

TEST(OptLv, CapAndWeightOptionsStillYieldCovers) {
  Manager mgr(5);
  std::mt19937_64 rng(29);
  for (int round = 0; round < 10; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(5), 5);
    std::uint64_t c_tt = rng() & tt_mask(5);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 5);
    for (const bool degree : {false, true}) {
      for (const bool weight : {false, true}) {
        LevelOptions opts;
        opts.order_by_degree = degree;
        opts.weight_by_distance = weight;
        opts.max_set_size = (round % 2) ? 3 : 0;
        EXPECT_TRUE(is_cover(mgr, opt_lv(mgr, f, c, opts), {f, c}));
      }
    }
  }
}

}  // namespace
}  // namespace bddmin::minimize
