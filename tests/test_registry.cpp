#include "minimize/registry.hpp"

#include <gtest/gtest.h>

#include <random>

#include "bdd/ops.hpp"
#include "bdd/truth_table.hpp"
#include "workload/instances.hpp"

namespace bddmin::minimize {
namespace {

TEST(Registry, PaperHeuristicsAreTheNineOfSection4) {
  const auto set = paper_heuristics();
  ASSERT_EQ(set.size(), 9u);
  const std::vector<std::string> expected{"const",  "restr",  "osm_td",
                                          "osm_nv", "osm_cp", "osm_bt",
                                          "tsm_td", "tsm_cp", "opt_lv"};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(set[i].name, expected[i]);
  }
}

TEST(Registry, AllHeuristicsAddsTheTrivialBounds) {
  const auto set = all_heuristics();
  ASSERT_EQ(set.size(), 12u);
  EXPECT_NO_THROW((void)heuristic_by_name(set, "f_orig"));
  EXPECT_NO_THROW((void)heuristic_by_name(set, "f_and_c"));
  EXPECT_NO_THROW((void)heuristic_by_name(set, "f_or_nc"));
  EXPECT_THROW((void)heuristic_by_name(set, "nonsense"), std::out_of_range);
}

TEST(Registry, EveryEntryReturnsACover) {
  Manager mgr(5);
  std::mt19937_64 rng(2);
  const auto set = all_heuristics();
  for (int round = 0; round < 10; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(5), 5);
    std::uint64_t c_tt = rng() & tt_mask(5);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 5);
    for (const Heuristic& h : set) {
      EXPECT_TRUE(is_cover(mgr, h.run(mgr, f, c), {f, c})) << h.name;
    }
  }
}

TEST(Registry, TrivialHeuristicsComputeTheBoundsExactly) {
  Manager mgr(4);
  const auto set = all_heuristics();
  const Edge f = mgr.xor_(mgr.var_edge(0), mgr.var_edge(1));
  const Edge c = mgr.var_edge(2);
  EXPECT_EQ(heuristic_by_name(set, "f_orig").run(mgr, f, c), f);
  EXPECT_EQ(heuristic_by_name(set, "f_and_c").run(mgr, f, c), mgr.and_(f, c));
  EXPECT_EQ(heuristic_by_name(set, "f_or_nc").run(mgr, f, c), mgr.or_(f, !c));
}

TEST(Registry, SchedulerHeuristicIsACoverProducer) {
  Manager mgr(5);
  std::mt19937_64 rng(4);
  const Heuristic sched = scheduler_heuristic();
  EXPECT_EQ(sched.name, "sched");
  for (int round = 0; round < 10; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(5), 5);
    std::uint64_t c_tt = rng() & tt_mask(5);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 5);
    EXPECT_TRUE(is_cover(mgr, sched.run(mgr, f, c), {f, c}));
  }
}

TEST(Registry, MixedCriterionCoversAndDegenerates) {
  Manager mgr(6);
  std::mt19937_64 rng(8);
  for (int round = 0; round < 40; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(6), 6);
    std::uint64_t c_tt = rng() & tt_mask(6);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 6);
    for (const std::uint32_t switch_level : {0u, 2u, 4u, 99u}) {
      MixedOptions opts;
      opts.switch_level = switch_level;
      EXPECT_TRUE(is_cover(mgr, mixed_td(mgr, opts, f, c), {f, c}));
    }
    // Degenerate switch levels reduce to the single-criterion matchers.
    MixedOptions all_lower;
    all_lower.switch_level = 0;
    EXPECT_EQ(mixed_td(mgr, all_lower, f, c),
              generic_td(mgr, {Criterion::kTsm, true, true}, f, c));
    MixedOptions all_upper;
    all_upper.switch_level = 99;
    EXPECT_EQ(mixed_td(mgr, all_upper, f, c), osm_bt(mgr, f, c));
    // With upper == lower the switch level is moot: mixed_td (per-call
    // memo) equals generic_td (computed-cache memo) on every option set.
    for (const Criterion crit :
         {Criterion::kOsdm, Criterion::kOsm, Criterion::kTsm}) {
      for (const bool mc : {false, true}) {
        for (const bool nnv : {false, true}) {
          const Edge want = generic_td(mgr, {crit, mc, nnv}, f, c);
          for (const std::uint32_t switch_level : {0u, 2u, 99u}) {
            EXPECT_EQ(mixed_td(mgr, {crit, crit, switch_level, mc, nnv}, f, c),
                      want);
          }
        }
      }
    }
  }
}

TEST(Registry, FallbackNeverReturnsLargerThanF) {
  Manager mgr(6);
  std::mt19937_64 rng(10);
  const Heuristic guarded = with_fallback(
      {"const", [](Manager& m, Edge f, Edge c) { return constrain(m, f, c); }});
  EXPECT_EQ(guarded.name, "const+fb");
  for (int round = 0; round < 30; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(6), 6);
    std::uint64_t c_tt = rng() & tt_mask(6);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 6);
    const Edge g = guarded.run(mgr, f, c);
    EXPECT_TRUE(is_cover(mgr, g, {f, c}));
    EXPECT_LE(count_nodes(mgr, g), count_nodes(mgr, f));
  }
}

TEST(Registry, FallbackEscapesProposition6Instance) {
  // f = (01 01) = x1 with care (d1 01): constrain inflates to 3 nodes;
  // the fallback keeps f (the Prop. 6 remedy).
  Manager mgr(2);
  const auto e1 = workload::from_leaves(mgr, "01 01");
  const auto care = workload::from_leaves(mgr, "d1 01");
  const Heuristic guarded = with_fallback(
      {"const", [](Manager& m, Edge f, Edge c) { return constrain(m, f, c); }});
  EXPECT_GT(count_nodes(mgr, constrain(mgr, e1.f, care.c)), 2u);
  EXPECT_EQ(guarded.run(mgr, e1.f, care.c), e1.f);
}

TEST(Registry, LevelOptionsArePluggedThrough) {
  // A capped opt_lv must still return covers (and is allowed to differ).
  Manager mgr(5);
  std::mt19937_64 rng(6);
  LevelOptions capped;
  capped.max_set_size = 2;
  const auto set = paper_heuristics(capped);
  const Heuristic& lv = heuristic_by_name(set, "opt_lv");
  for (int round = 0; round < 5; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(5), 5);
    std::uint64_t c_tt = rng() & tt_mask(5);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 5);
    EXPECT_TRUE(is_cover(mgr, lv.run(mgr, f, c), {f, c}));
  }
}

}  // namespace
}  // namespace bddmin::minimize
