#include "minimize/incspec.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <vector>

#include "bdd/ops.hpp"
#include "bdd/truth_table.hpp"
#include "corpus.hpp"

namespace bddmin::minimize {
namespace {

class IncSpecFixture : public ::testing::Test {
 protected:
  Manager mgr{5};
  std::mt19937_64 rng{42};

  IncSpec random_spec(unsigned n) {
    return {from_tt(mgr, rng() & tt_mask(n), n),
            from_tt(mgr, rng() & tt_mask(n), n)};
  }
};

TEST_F(IncSpecFixture, IsCoverDefinition) {
  // f = x0, care only where x1: covers are anything equal to x0 on x1=1.
  const Edge x0 = mgr.var_edge(0);
  const Edge x1 = mgr.var_edge(1);
  const IncSpec spec{x0, x1};
  EXPECT_TRUE(is_cover(mgr, x0, spec));
  EXPECT_TRUE(is_cover(mgr, mgr.and_(x0, x1), spec));
  EXPECT_TRUE(is_cover(mgr, mgr.or_(x0, !x1), spec));
  EXPECT_FALSE(is_cover(mgr, !x0, spec));
  EXPECT_FALSE(is_cover(mgr, kOne, spec));
}

TEST_F(IncSpecFixture, IsCoverMatchesIntervalContainment) {
  for (int round = 0; round < 50; ++round) {
    const IncSpec spec = random_spec(5);
    const Edge g = from_tt(mgr, rng() & tt_mask(5), 5);
    // Definition 2: f·c <= g <= f + !c.
    const bool interval = mgr.leq(mgr.and_(spec.f, spec.c), g) &&
                          mgr.leq(g, mgr.or_(spec.f, !spec.c));
    EXPECT_EQ(is_cover(mgr, g, spec), interval);
  }
}

TEST_F(IncSpecFixture, EveryFunctionCoversWhenCareIsEmpty) {
  const IncSpec spec{mgr.var_edge(0), kZero};
  EXPECT_TRUE(is_cover(mgr, kOne, spec));
  EXPECT_TRUE(is_cover(mgr, kZero, spec));
  EXPECT_TRUE(is_cover(mgr, mgr.var_edge(3), spec));
}

TEST_F(IncSpecFixture, ICoverRequiresCareContainmentAndAgreement) {
  const Edge x0 = mgr.var_edge(0);
  const Edge x1 = mgr.var_edge(1);
  const IncSpec inner{x0, mgr.and_(x1, mgr.var_edge(2))};
  const IncSpec outer{x0, x1};
  EXPECT_TRUE(is_icover(mgr, outer, inner));   // larger care, agrees
  EXPECT_FALSE(is_icover(mgr, inner, outer));  // smaller care cannot i-cover
  const IncSpec disagree{!x0, x1};
  EXPECT_FALSE(is_icover(mgr, disagree, inner));
}

TEST_F(IncSpecFixture, ICoverSemanticCheckAgainstAllCovers) {
  // Exhaustive over 3 variables: [outer] i-covers [inner] iff every cover
  // of outer covers inner.
  Manager small(3);
  std::mt19937_64 r(7);
  for (int round = 0; round < 20; ++round) {
    const IncSpec outer{from_tt(small, r() & tt_mask(3), 3),
                        from_tt(small, r() & tt_mask(3), 3)};
    const IncSpec inner{from_tt(small, r() & tt_mask(3), 3),
                        from_tt(small, r() & tt_mask(3), 3)};
    bool all_covers_cover = true;
    for (std::uint64_t g_tt = 0; g_tt < 256; ++g_tt) {
      const Edge g = from_tt(small, g_tt, 3);
      if (is_cover(small, g, outer) && !is_cover(small, g, inner)) {
        all_covers_cover = false;
        break;
      }
    }
    EXPECT_EQ(is_icover(small, outer, inner), all_covers_cover);
  }
}

TEST_F(IncSpecFixture, SameFunctionIgnoresDontCareValues) {
  const Edge x0 = mgr.var_edge(0);
  const Edge x1 = mgr.var_edge(1);
  const IncSpec a{x0, x1};
  const IncSpec b{mgr.and_(x0, x1), x1};  // differs only off the care set
  EXPECT_TRUE(same_function(mgr, a, b));
  EXPECT_FALSE(same_function(mgr, a, IncSpec{!x0, x1}));
  EXPECT_FALSE(same_function(mgr, a, IncSpec{x0, mgr.var_edge(2)}));
}

// The node-building forms the fused predicates replaced: the reference
// the differential test below holds them to.
bool reference_is_cover(Manager& mgr, Edge g, IncSpec spec) {
  return mgr.and_(mgr.xor_(g, spec.f), spec.c) == kZero;
}
bool reference_is_icover(Manager& mgr, IncSpec outer, IncSpec inner) {
  return mgr.leq(inner.c, outer.c) &&
         mgr.and_(mgr.xor_(outer.f, inner.f), inner.c) == kZero;
}
bool reference_same_function(Manager& mgr, IncSpec a, IncSpec b) {
  return a.c == b.c && mgr.and_(mgr.xor_(a.f, b.f), a.c) == kZero;
}

TEST(IncSpecCorpus, FusedCoverChecksMatchTheXorAndReference) {
  int covers = 0;
  int non_covers = 0;
  for (int round = 0; round < 300; ++round) {
    const unsigned n = test::corpus_vars(round);
    const auto [f_tt, c_tt] = test::corpus_instance(n, round);
    std::mt19937_64 rng(static_cast<std::uint64_t>(round));
    Manager mgr(n);
    const IncSpec spec{from_tt(mgr, f_tt, n), from_tt(mgr, c_tt, n)};
    // A cover: f on the care set, random off it.  Its non-cover twin
    // flips one care minterm (when the care set has one).
    const std::uint64_t cover_tt = (f_tt & c_tt) | (rng() & ~c_tt & tt_mask(n));
    std::vector<std::uint64_t> candidates = {cover_tt, f_tt, ~f_tt & tt_mask(n),
                                             rng() & tt_mask(n)};
    if (c_tt != 0) {
      std::uint64_t care = c_tt;
      for (std::uint64_t k = rng() % std::popcount(c_tt); k > 0; --k) {
        care &= care - 1;
      }
      candidates.push_back(cover_tt ^ (care & -care));
    }
    for (const std::uint64_t g_tt : candidates) {
      const Edge g = from_tt(mgr, g_tt, n);
      const bool got = is_cover(mgr, g, spec);
      ASSERT_EQ(got, reference_is_cover(mgr, g, spec)) << "round " << round;
      ASSERT_EQ(got, ((g_tt ^ f_tt) & c_tt) == 0) << "round " << round;
      (got ? covers : non_covers) += 1;
      // The same candidate as a value function, on the instance's care
      // set and on a random sub- or superset of it.
      for (const std::uint64_t inner_c_tt :
           {c_tt, c_tt & rng(), (c_tt | rng()) & tt_mask(n)}) {
        const IncSpec inner{g, from_tt(mgr, inner_c_tt, n)};
        ASSERT_EQ(is_icover(mgr, spec, inner),
                  reference_is_icover(mgr, spec, inner))
            << "round " << round;
        ASSERT_EQ(same_function(mgr, spec, inner),
                  reference_same_function(mgr, spec, inner))
            << "round " << round;
      }
    }
  }
  // The corpus exercises both answers.
  EXPECT_GT(covers, 300);
  EXPECT_GT(non_covers, 300);
}

TEST_F(IncSpecFixture, OnsetFractionOfSimpleShapes) {
  EXPECT_DOUBLE_EQ(c_onset_fraction(mgr, {mgr.var_edge(0), kOne}), 1.0);
  EXPECT_DOUBLE_EQ(c_onset_fraction(mgr, {mgr.var_edge(0), kZero}), 0.0);
  EXPECT_DOUBLE_EQ(c_onset_fraction(mgr, {mgr.var_edge(0), mgr.var_edge(1)}),
                   0.5);
  const Edge cube = mgr.and_(mgr.var_edge(1), mgr.var_edge(2));
  EXPECT_DOUBLE_EQ(c_onset_fraction(mgr, {mgr.var_edge(0), cube}), 0.25);
}

TEST_F(IncSpecFixture, ClassifyCallFilters) {
  const Edge x0 = mgr.var_edge(0);
  const Edge x1 = mgr.var_edge(1);
  EXPECT_TRUE(classify_call(mgr, {x0, kOne}).c_trivial);
  EXPECT_TRUE(classify_call(mgr, {x0, kZero}).c_trivial);
  EXPECT_TRUE(classify_call(mgr, {x0, mgr.and_(x0, x1)}).c_is_cube);
  EXPECT_TRUE(classify_call(mgr, {x0, mgr.and_(x0, x1)}).c_in_f);
  EXPECT_TRUE(classify_call(mgr, {x0, mgr.and_(!x0, mgr.xor_(x1, mgr.var_edge(2)))})
                  .c_in_not_f);
  const CallFilter open =
      classify_call(mgr, {x0, mgr.or_(x1, mgr.var_edge(2))});
  EXPECT_FALSE(open.filtered());
}

}  // namespace
}  // namespace bddmin::minimize
