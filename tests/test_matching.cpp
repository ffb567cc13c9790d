#include "minimize/matching.hpp"

#include <gtest/gtest.h>

#include <random>
#include <utility>

#include "bdd/ops.hpp"
#include "bdd/truth_table.hpp"
#include "corpus.hpp"
#include "workload/instances.hpp"

namespace bddmin::minimize {
namespace {

/// Random incompletely specified functions used for relation-property
/// checks (Table 1 of the paper).
class MatchingFixture : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  Manager mgr{4};
  std::mt19937_64 rng{GetParam()};

  IncSpec random_spec() {
    return {from_tt(mgr, rng() & tt_mask(4), 4),
            from_tt(mgr, rng() & tt_mask(4), 4)};
  }
};

TEST_P(MatchingFixture, OsdmMatchesIffCareEmpty) {
  for (int round = 0; round < 40; ++round) {
    const IncSpec a = random_spec();
    const IncSpec b = random_spec();
    EXPECT_EQ(matches(mgr, Criterion::kOsdm, a, b), a.c == kZero);
  }
}

TEST_P(MatchingFixture, StrengthHierarchyOsdmOsmTsm) {
  for (int round = 0; round < 80; ++round) {
    const IncSpec a = random_spec();
    const IncSpec b = random_spec();
    if (matches(mgr, Criterion::kOsdm, a, b)) {
      EXPECT_TRUE(matches(mgr, Criterion::kOsm, a, b));
    }
    if (matches(mgr, Criterion::kOsm, a, b)) {
      EXPECT_TRUE(matches(mgr, Criterion::kTsm, a, b));
    }
  }
}

// Table 1 row "osdm": not reflexive (unless c == 0), not symmetric,
// transitive.
TEST_P(MatchingFixture, Table1OsdmProperties) {
  for (int round = 0; round < 60; ++round) {
    const IncSpec a = random_spec();
    const IncSpec b = random_spec();
    const IncSpec c = random_spec();
    if (a.c != kZero) {
      EXPECT_FALSE(matches(mgr, Criterion::kOsdm, a, a));
    }
    if (matches(mgr, Criterion::kOsdm, a, b) &&
        matches(mgr, Criterion::kOsdm, b, c)) {
      EXPECT_TRUE(matches(mgr, Criterion::kOsdm, a, c));
    }
  }
}

// Table 1 row "osm": reflexive, not symmetric, transitive.
TEST_P(MatchingFixture, Table1OsmProperties) {
  for (int round = 0; round < 60; ++round) {
    const IncSpec a = random_spec();
    const IncSpec b = random_spec();
    const IncSpec c = random_spec();
    EXPECT_TRUE(matches(mgr, Criterion::kOsm, a, a));
    if (matches(mgr, Criterion::kOsm, a, b) &&
        matches(mgr, Criterion::kOsm, b, c)) {
      EXPECT_TRUE(matches(mgr, Criterion::kOsm, a, c));
    }
  }
}

// Table 1 row "tsm": reflexive, symmetric, NOT transitive.
TEST_P(MatchingFixture, Table1TsmProperties) {
  for (int round = 0; round < 60; ++round) {
    const IncSpec a = random_spec();
    const IncSpec b = random_spec();
    EXPECT_TRUE(matches(mgr, Criterion::kTsm, a, a));
    EXPECT_EQ(matches(mgr, Criterion::kTsm, a, b),
              matches(mgr, Criterion::kTsm, b, a));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatchingFixture, ::testing::Values(1, 2, 3, 4));

TEST(Matching, OsdmAndOsmAreNotSymmetric) {
  Manager mgr(2);
  const Edge x = mgr.var_edge(0);
  const IncSpec free{x, kZero};
  const IncSpec bound{!x, kOne};
  EXPECT_TRUE(matches(mgr, Criterion::kOsdm, free, bound));
  EXPECT_FALSE(matches(mgr, Criterion::kOsdm, bound, free));
  EXPECT_TRUE(matches(mgr, Criterion::kOsm, free, bound));
  EXPECT_FALSE(matches(mgr, Criterion::kOsm, bound, free));
}

TEST(Matching, TsmIsNotTransitiveCounterexample) {
  // [0, !x], [anything, 0], [1, !x]: both outer functions tsm-match the
  // middle all-DC one, but 0 and 1 disagree on the shared care set !x.
  Manager mgr(2);
  const Edge x = mgr.var_edge(0);
  const IncSpec a{kZero, !x};
  const IncSpec b{kZero, kZero};
  const IncSpec c{kOne, !x};
  EXPECT_TRUE(matches(mgr, Criterion::kTsm, a, b));
  EXPECT_TRUE(matches(mgr, Criterion::kTsm, b, c));
  EXPECT_FALSE(matches(mgr, Criterion::kTsm, a, c));
}

TEST(Matching, MatchResultIsCommonICover) {
  Manager mgr(4);
  std::mt19937_64 rng(9);
  for (int round = 0; round < 200; ++round) {
    const IncSpec a{from_tt(mgr, rng() & tt_mask(4), 4),
                    from_tt(mgr, rng() & tt_mask(4), 4)};
    const IncSpec b{from_tt(mgr, rng() & tt_mask(4), 4),
                    from_tt(mgr, rng() & tt_mask(4), 4)};
    for (const Criterion crit :
         {Criterion::kOsdm, Criterion::kOsm, Criterion::kTsm}) {
      if (!matches(mgr, crit, a, b)) continue;
      const IncSpec m = match_result(mgr, crit, a, b);
      EXPECT_TRUE(is_icover(mgr, m, a)) << to_string(crit);
      EXPECT_TRUE(is_icover(mgr, m, b)) << to_string(crit);
    }
  }
}

TEST(Matching, MatchResultKeepsMaximalFreedomForOneSided) {
  // osm keeps the second function untouched: its entire DC set remains.
  Manager mgr(3);
  const Edge x0 = mgr.var_edge(0);
  const Edge x1 = mgr.var_edge(1);
  const IncSpec a{x0, mgr.and_(x1, x0)};
  const IncSpec b{x0, x1};
  ASSERT_TRUE(matches(mgr, Criterion::kOsm, a, b));
  const IncSpec m = match_result(mgr, Criterion::kOsm, a, b);
  EXPECT_EQ(m.f, b.f);
  EXPECT_EQ(m.c, b.c);
}

TEST(Matching, TsmResultCareIsUnionAndAgreesOnBothSides) {
  Manager mgr(3);
  const Edge x0 = mgr.var_edge(0);
  const Edge x1 = mgr.var_edge(1);
  const Edge x2 = mgr.var_edge(2);
  const IncSpec a{x0, x1};
  const IncSpec b{x0, x2};
  ASSERT_TRUE(matches(mgr, Criterion::kTsm, a, b));
  const IncSpec m = match_result(mgr, Criterion::kTsm, a, b);
  EXPECT_EQ(m.c, mgr.or_(x1, x2));
  EXPECT_EQ(mgr.and_(mgr.xor_(m.f, x0), m.c), kZero);
}

TEST(Matching, SiblingMatchTriesBothDirectionsForOneSided) {
  Manager mgr(3);
  const Edge x1 = mgr.var_edge(1);
  // then side fully DC, else side constrained: match must be found with
  // the i-cover being the else side.
  const IncSpec then_spec{kOne, kZero};
  const IncSpec else_spec{x1, kOne};
  const auto m = sibling_match(mgr, Criterion::kOsdm, false, then_spec, else_spec);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->f, x1);
  EXPECT_EQ(m->c, kOne);
  // And the mirrored arrangement.
  const auto m2 = sibling_match(mgr, Criterion::kOsdm, false, else_spec, then_spec);
  ASSERT_TRUE(m2.has_value());
  EXPECT_EQ(m2->f, x1);
}

TEST(Matching, SiblingMatchComplement) {
  Manager mgr(3);
  const Edge x1 = mgr.var_edge(1);
  // then = x1, else = !x1 on full care: only a complement match works.
  const IncSpec then_spec{x1, kOne};
  const IncSpec else_spec{!x1, kOne};
  EXPECT_FALSE(
      sibling_match(mgr, Criterion::kTsm, false, then_spec, else_spec));
  const auto m = sibling_match(mgr, Criterion::kTsm, true, then_spec, else_spec);
  ASSERT_TRUE(m.has_value());
  // A cover g of m gives then = g and else = !g: here g must equal x1.
  EXPECT_EQ(m->f, x1);
  EXPECT_EQ(m->c, kOne);
}

TEST(Matching, SiblingMatchFailsWhenCareValuesConflict) {
  Manager mgr(3);
  const IncSpec a{kOne, kOne};
  const IncSpec b{kZero, kOne};
  EXPECT_FALSE(sibling_match(mgr, Criterion::kOsdm, false, a, b));
  EXPECT_FALSE(sibling_match(mgr, Criterion::kOsm, false, a, b));
  EXPECT_FALSE(sibling_match(mgr, Criterion::kTsm, false, a, b));
}

/// The pre-fused construction of Definition 5: materialize f1 XOR f2 (and,
/// for tsm, its product with c1) and only then run the early-exit
/// disjointness walk.  Kept as the reference matches() must reproduce.
bool reference_matches(Manager& mgr, Criterion crit, IncSpec a, IncSpec b) {
  switch (crit) {
    case Criterion::kOsdm:
      return a.c == kZero;
    case Criterion::kOsm:
      return mgr.disjoint(mgr.xor_(a.f, b.f), a.c) && mgr.leq(a.c, b.c);
    case Criterion::kTsm:
      return mgr.disjoint(mgr.and_(mgr.xor_(a.f, b.f), a.c), b.c);
  }
  return false;
}

/// Definition 5 on truth tables over n <= 6 variables.
bool tt_matches(Criterion crit, std::uint64_t f1, std::uint64_t c1,
                std::uint64_t f2, std::uint64_t c2) {
  switch (crit) {
    case Criterion::kOsdm:
      return c1 == 0;
    case Criterion::kOsm:
      return ((f1 ^ f2) & c1) == 0 && (c1 & ~c2) == 0;
    case Criterion::kTsm:
      return ((f1 ^ f2) & c1 & c2) == 0;
  }
  return false;
}

constexpr Criterion kCriteria[] = {Criterion::kOsdm, Criterion::kOsm,
                                   Criterion::kTsm};

TEST(Matching, FusedPredicateMatchesReferenceAndDefinition5OnCorpus) {
  int matched[3] = {0, 0, 0};
  int probes = 0;
  for (int round = 0; round < 300; ++round) {
    const unsigned n = test::corpus_vars(round);
    const auto [f_tt, c_tt] = test::corpus_instance(n, round);
    Manager mgr(n);
    const Edge f = from_tt(mgr, f_tt, n);
    const Edge c = from_tt(mgr, c_tt, n);
    // The sibling pairs a top-down matcher meets: the two cofactors of
    // the instance with respect to each variable.
    for (unsigned v = 0; v < n; ++v) {
      const IncSpec t{cofactor(mgr, f, v, true), cofactor(mgr, c, v, true)};
      const IncSpec e{cofactor(mgr, f, v, false), cofactor(mgr, c, v, false)};
      for (const bool complement_else : {false, true}) {
        const IncSpec else_spec{complement_else ? !e.f : e.f, e.c};
        for (const Criterion crit : kCriteria) {
          for (const bool swap : {false, true}) {
            const IncSpec a = swap ? t : else_spec;
            const IncSpec b = swap ? else_spec : t;
            const bool got = matches(mgr, crit, a, b);
            ++probes;
            matched[static_cast<int>(crit)] += got ? 1 : 0;
            ASSERT_EQ(got, reference_matches(mgr, crit, a, b))
                << to_string(crit) << " round " << round << " var " << v;
            ASSERT_EQ(got, tt_matches(crit, to_tt(mgr, a.f, n),
                                      to_tt(mgr, a.c, n), to_tt(mgr, b.f, n),
                                      to_tt(mgr, b.c, n)))
                << to_string(crit) << " round " << round << " var " << v;
          }
        }
      }
    }
  }
  // Every criterion sees both answers on this corpus.
  for (const int m : matched) {
    EXPECT_GT(m, 0);
    EXPECT_LT(m, probes / 3);
  }
}

TEST(Matching, FusedPredicateMatchesReferenceOnWiderInstances) {
  Manager mgr(10);
  std::mt19937_64 rng(0x5EEDu);
  for (int round = 0; round < 200; ++round) {
    const IncSpec spec = workload::random_instance(mgr, 10, 0.3, rng);
    const unsigned v = static_cast<unsigned>(round % 10);
    const IncSpec t{cofactor(mgr, spec.f, v, true),
                    cofactor(mgr, spec.c, v, true)};
    const IncSpec e{cofactor(mgr, spec.f, v, false),
                    cofactor(mgr, spec.c, v, false)};
    for (const bool complement_else : {false, true}) {
      const IncSpec else_spec{complement_else ? !e.f : e.f, e.c};
      for (const Criterion crit : kCriteria) {
        ASSERT_EQ(matches(mgr, crit, else_spec, t),
                  reference_matches(mgr, crit, else_spec, t))
            << to_string(crit) << " round " << round;
        ASSERT_EQ(matches(mgr, crit, t, else_spec),
                  reference_matches(mgr, crit, t, else_spec))
            << to_string(crit) << " round " << round;
      }
    }
  }
}

TEST(Matching, ToStringNames) {
  EXPECT_EQ(to_string(Criterion::kOsdm), "osdm");
  EXPECT_EQ(to_string(Criterion::kOsm), "osm");
  EXPECT_EQ(to_string(Criterion::kTsm), "tsm");
}

}  // namespace
}  // namespace bddmin::minimize
