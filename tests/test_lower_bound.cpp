#include "minimize/lower_bound.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>

#include "bdd/bdd.hpp"
#include "bdd/cube.hpp"
#include "bdd/ops.hpp"
#include "bdd/truth_table.hpp"
#include "corpus.hpp"
#include "minimize/exact.hpp"
#include "minimize/registry.hpp"
#include "minimize/sibling.hpp"
#include "workload/instances.hpp"

namespace bddmin::minimize {
namespace {

/// The bound computed the direct way, kept as the reference: build each
/// enumerated cube of c as a BDD, constrain f on it, count the result.
LowerBoundResult reference_lower_bound(Manager& mgr, Edge f, Edge c,
                                       std::size_t max_cubes,
                                       bool probe_largest_cube) {
  LowerBoundResult result;
  if (Manager::is_const(f)) {
    result.bound = 1;
    return result;
  }
  if (probe_largest_cube && c != kOne) {
    const Edge big = cube_to_edge(mgr, largest_cube(mgr, c, mgr.num_vars()));
    result.bound = count_nodes(mgr, constrain(mgr, f, big));
    result.cubes_examined = 1;
  }
  result.cubes_examined += for_each_cube(
      mgr, c, mgr.num_vars(), max_cubes, [&](const CubeVec& cube) {
        const Edge minimum = constrain(mgr, f, cube_to_edge(mgr, cube));
        result.bound = std::max(result.bound, count_nodes(mgr, minimum));
        return true;
      });
  return result;
}

/// Asserts the cofactor walk and the reference agree on every cube budget
/// of interest, with the large-cube probe on and off.
void expect_matches_reference(Manager& mgr, Edge f, Edge c,
                              const std::string& where) {
  for (const std::size_t max_cubes : {0u, 1u, 2u, 7u, 1000u}) {
    for (const bool probe : {false, true}) {
      const LowerBoundResult got =
          constrain_lower_bound(mgr, f, c, max_cubes, probe);
      const LowerBoundResult want =
          reference_lower_bound(mgr, f, c, max_cubes, probe);
      EXPECT_EQ(got.bound, want.bound)
          << where << " max_cubes=" << max_cubes << " probe=" << probe;
      EXPECT_EQ(got.cubes_examined, want.cubes_examined)
          << where << " max_cubes=" << max_cubes << " probe=" << probe;
    }
  }
}

TEST(LowerBound, MatchesReferenceOnCorpus) {
  Manager mgr(6);  // corpus instances span 2..6 variables
  for (int round = 0; round < 300; ++round) {
    const unsigned n = test::corpus_vars(round);
    const auto [f_tt, c_tt] = test::corpus_instance(n, round);
    if (c_tt == 0) continue;  // precondition c != 0
    expect_matches_reference(mgr, from_tt(mgr, f_tt, n), from_tt(mgr, c_tt, n),
                             "corpus round " + std::to_string(round));
    mgr.garbage_collect();
  }
}

TEST(LowerBound, MatchesReferenceOnWiderInstances) {
  const double densities[] = {0.05, 0.25, 0.5, 0.75, 0.95};
  for (int round = 0; round < 40; ++round) {
    const unsigned n = 8 + static_cast<unsigned>(round % 5);
    Manager mgr(n);
    const std::uint64_t seed = 4100 + static_cast<std::uint64_t>(round);
    const IncSpec spec =
        workload::random_instance(mgr, n, densities[(round / 5) % 5], seed);
    if (spec.c == kZero) continue;
    expect_matches_reference(mgr, spec.f, spec.c,
                             "wide round " + std::to_string(round));
    mgr.garbage_collect();
  }
}

TEST(LowerBound, MatchesReferenceWhenCareIsOne) {
  Manager mgr(8);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const Edge f = workload::random_function(mgr, 8, 0.5, seed);
    expect_matches_reference(mgr, f, kOne, "seed " + std::to_string(seed));
    // A care set of 1 has exactly one (empty) cube, and on it f is kept.
    const LowerBoundResult lb =
        constrain_lower_bound(mgr, f, kOne, 1000, /*probe_largest_cube=*/true);
    EXPECT_EQ(lb.cubes_examined, 1u);
    EXPECT_EQ(lb.bound, Manager::is_const(f) ? 1u : count_nodes(mgr, f));
  }
}

TEST(LowerBound, MatchesReferenceUnderPermutedOrders) {
  // The walk cofactors in c's level order, not by variable index: check
  // it against the reference after set_order and after sifting.
  constexpr unsigned kVars = 10;
  std::mt19937_64 rng(97);
  for (int round = 0; round < 12; ++round) {
    Manager mgr(kVars);
    std::vector<std::uint32_t> order(kVars);
    std::iota(order.begin(), order.end(), 0u);
    std::shuffle(order.begin(), order.end(), rng);
    mgr.set_order(order);
    const std::uint64_t seed = 5200 + static_cast<std::uint64_t>(round);
    const IncSpec spec =
        workload::random_instance(mgr, kVars, 0.25 + 0.05 * (round % 6), seed);
    if (spec.c == kZero) continue;
    const Bdd f(mgr, spec.f);
    const Bdd c(mgr, spec.c);
    expect_matches_reference(mgr, f.edge(), c.edge(),
                             "set_order round " + std::to_string(round));
    (void)mgr.reorder_sift();
    expect_matches_reference(mgr, f.edge(), c.edge(),
                             "sifted round " + std::to_string(round));
  }
}

TEST(LowerBound, NeverExceedsExactMinimum) {
  Manager mgr(4);
  std::mt19937_64 rng(71);
  for (int round = 0; round < 20; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(4), 4);
    std::uint64_t c_tt = (rng() | rng()) & tt_mask(4);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 4);
    const LowerBoundResult lb = constrain_lower_bound(mgr, f, c);
    const auto exact = exact_minimum(mgr, f, c, 4);
    ASSERT_TRUE(exact.has_value());
    EXPECT_LE(lb.bound, exact->size);
    EXPECT_GE(lb.bound, 1u);
  }
}

TEST(LowerBound, NeverExceedsAnyHeuristicResult) {
  Manager mgr(5);
  std::mt19937_64 rng(73);
  const auto heuristics = all_heuristics();
  for (int round = 0; round < 15; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(5), 5);
    std::uint64_t c_tt = rng() & tt_mask(5);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 5);
    const LowerBoundResult lb = constrain_lower_bound(mgr, f, c);
    for (const Heuristic& h : heuristics) {
      if (h.name == "f_and_c" || h.name == "f_or_nc" || h.name == "f_orig") {
        continue;  // bound computations, not covers of minimum interest
      }
      EXPECT_LE(lb.bound, count_nodes(mgr, h.run(mgr, f, c))) << h.name;
    }
  }
}

TEST(LowerBound, ExactWhenCareIsASingleCube) {
  // With c itself a cube, the bound IS the minimum (Theorem 7).
  Manager mgr(4);
  std::mt19937_64 rng(79);
  for (int round = 0; round < 20; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(4), 4);
    Edge cube = kOne;
    for (unsigned v = 0; v < 4; ++v) {
      switch (rng() % 3) {
        case 0: cube = mgr.and_(cube, mgr.var_edge(v)); break;
        case 1: cube = mgr.and_(cube, mgr.nvar_edge(v)); break;
        default: break;
      }
    }
    const LowerBoundResult lb = constrain_lower_bound(mgr, f, cube);
    const auto exact = exact_minimum(mgr, f, cube, 4);
    ASSERT_TRUE(exact.has_value());
    EXPECT_EQ(lb.bound, exact->size);
  }
}

TEST(LowerBound, MoreCubesTightenTheBound) {
  Manager mgr(6);
  std::mt19937_64 rng(83);
  for (int round = 0; round < 20; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(6), 6);
    std::uint64_t c_tt = rng() & tt_mask(6);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 6);
    const LowerBoundResult few = constrain_lower_bound(mgr, f, c, 2);
    const LowerBoundResult many = constrain_lower_bound(mgr, f, c, 100);
    EXPECT_LE(few.bound, many.bound);
    EXPECT_LE(few.cubes_examined, many.cubes_examined);
  }
}

TEST(LowerBound, ConstantFunctionsShortCircuit) {
  Manager mgr(3);
  const Edge c = mgr.var_edge(0);
  EXPECT_EQ(constrain_lower_bound(mgr, kOne, c).bound, 1u);
  EXPECT_EQ(constrain_lower_bound(mgr, kZero, c).bound, 1u);
}

TEST(LowerBound, LargestCubeProbeStaysSoundAndCountsItsCube) {
  Manager mgr(5);
  std::mt19937_64 rng(89);
  for (int round = 0; round < 15; ++round) {
    const Edge f = from_tt(mgr, rng() & tt_mask(5), 5);
    std::uint64_t c_tt = rng() & tt_mask(5);
    if (c_tt == 0) c_tt = 1;
    const Edge c = from_tt(mgr, c_tt, 5);
    const LowerBoundResult probed =
        constrain_lower_bound(mgr, f, c, 50, /*probe_largest_cube=*/true);
    const auto exact = exact_minimum(mgr, f, c, 5, 16);
    if (exact) {
      EXPECT_LE(probed.bound, exact->size);
    }
    const LowerBoundResult plain = constrain_lower_bound(mgr, f, c, 50);
    // The probed bound is a maximum over a superset of the same cubes.
    EXPECT_GE(probed.bound, plain.bound);
    EXPECT_EQ(probed.cubes_examined,
              plain.cubes_examined + (c == kOne ? 0 : 1));
  }
}

TEST(LowerBound, CubeBudgetIsRespected) {
  Manager mgr(6);
  Edge parity = kZero;
  for (unsigned v = 0; v < 6; ++v) parity = mgr.xor_(parity, mgr.var_edge(v));
  // parity has 32 minterm cubes.
  const LowerBoundResult lb =
      constrain_lower_bound(mgr, mgr.var_edge(0), parity, 5);
  EXPECT_EQ(lb.cubes_examined, 5u);
}

}  // namespace
}  // namespace bddmin::minimize
