/// \file test_property_random.cpp
/// \brief Seeded randomized differential suite: every registered heuristic
/// is pinned against the truth-table oracle on hundreds of random [f, c]
/// instances over <= 6 variables.
///
/// Two properties per (instance, heuristic):
///   * cover contract (Definition 2, hard failure): f·c <= g <= f + c̄,
///     checked bitwise via the truth-table bridge.  A violation is
///     shrunk — greedily deleting care minterms, onset minterms and
///     variables while the violation persists — and reported with the
///     seed and leaf notation that reproduce it.
///   * size monotonicity |g| <= |f| (flag, don't fail): Proposition 6
///     proves every non-optimal DC-insensitive heuristic must
///     occasionally grow the result, so growth is only *counted* for the
///     paper heuristics and hard-asserted for the ones that guarantee it
///     (f_orig and the Proposition 6 `+fb` fallback wrapper).
///
/// The whole run is reproducible from one number: BDDMIN_PROPERTY_SEED
/// (default fixed), echoed on stdout; instance k uses derived seed
/// base + k through the seeded workload::random_instance plumbing.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "bdd/ops.hpp"
#include "bdd/truth_table.hpp"
#include "corpus.hpp"
#include "minimize/registry.hpp"
#include "workload/instances.hpp"

namespace bddmin {
namespace {

using minimize::Heuristic;

std::uint64_t property_seed() {
  if (const char* env = std::getenv("BDDMIN_PROPERTY_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return test::kCorpusSeed;
}

bool quick_mode() {
  const char* q = std::getenv("BDDMIN_QUICK");
  return q != nullptr && q[0] == '1';
}

/// Every registered heuristic: the paper's twelve from all_heuristics()
/// plus the scheduler, the mixed-criterion matcher and a Proposition 6
/// fallback wrapper.
std::vector<Heuristic> registered_heuristics() {
  std::vector<Heuristic> set = minimize::all_heuristics();
  set.push_back(minimize::scheduler_heuristic());
  set.push_back(minimize::mixed_heuristic());
  set.push_back(minimize::with_fallback(
      minimize::heuristic_by_name(set, "tsm_td")));
  return set;
}

/// Heuristics whose results may never exceed |f| by construction.
bool growth_forbidden(const std::string& name) {
  return name == "f_orig" || name.ends_with("+fb");
}

struct Instance {
  unsigned n = 0;
  std::uint64_t f_tt = 0;
  std::uint64_t c_tt = 0;
};

/// Leaf notation of workload::from_leaves: values of the decision tree's
/// leaves left to right, x0 topmost, left branch = 0.
std::string to_leaves(const Instance& inst) {
  std::string leaves;
  for (std::uint64_t leaf = 0; leaf < (1ull << inst.n); ++leaf) {
    std::uint64_t m = 0;
    for (unsigned v = 0; v < inst.n; ++v) {
      if ((leaf >> (inst.n - 1 - v)) & 1) m |= 1ull << v;
    }
    if (((inst.c_tt >> m) & 1) == 0) {
      leaves += 'd';
    } else {
      leaves += ((inst.f_tt >> m) & 1) ? '1' : '0';
    }
  }
  return leaves;
}

/// Does \p h violate the cover contract on \p inst?
bool violates(const Heuristic& h, const Instance& inst) {
  Manager mgr(inst.n, 12);
  const Edge f = from_tt(mgr, inst.f_tt, inst.n);
  const Edge c = from_tt(mgr, inst.c_tt, inst.n);
  const std::uint64_t g_tt = to_tt(mgr, h.run(mgr, f, c), inst.n);
  return ((g_tt ^ inst.f_tt) & inst.c_tt) != 0;
}

/// Greedy shrink: drop care minterms, then onset minterms, then trailing
/// variables neither function depends on, as long as the violation holds.
Instance shrink(const Heuristic& h, Instance inst) {
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::uint64_t m = 0; m < (1ull << inst.n); ++m) {
      const std::uint64_t bit = 1ull << m;
      if (inst.c_tt & bit) {
        Instance candidate = inst;
        candidate.c_tt &= ~bit;
        if (violates(h, candidate)) {
          inst = candidate;
          progress = true;
        }
      }
      if (inst.f_tt & bit) {
        Instance candidate = inst;
        candidate.f_tt &= ~bit;
        if (violates(h, candidate)) {
          inst = candidate;
          progress = true;
        }
      }
    }
    while (inst.n > 1) {
      // Project onto a cofactor of the top variable: either half that
      // still violates is a genuine smaller repro.
      const unsigned half = 1u << (inst.n - 1);
      const std::uint64_t lo_mask = (1ull << half) - 1;
      const Instance lo{inst.n - 1, inst.f_tt & lo_mask, inst.c_tt & lo_mask};
      const Instance hi{inst.n - 1, inst.f_tt >> half, inst.c_tt >> half};
      if (violates(h, lo)) {
        inst = lo;
      } else if (violates(h, hi)) {
        inst = hi;
      } else {
        break;
      }
      progress = true;
    }
  }
  return inst;
}

TEST(PropertyRandom, EveryHeuristicCoversEveryRandomInstance) {
  const std::uint64_t base = property_seed();
  const int rounds = quick_mode() ? 80 : 500;
  std::printf("# property seed %llu, %d rounds "
              "(override with BDDMIN_PROPERTY_SEED)\n",
              static_cast<unsigned long long>(base), rounds);
  const std::vector<Heuristic> set = registered_heuristics();

  std::map<std::string, int> growth;
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t seed = base + static_cast<std::uint64_t>(round);
    const unsigned n = test::corpus_vars(round);
    const auto [f_tt, c_tt] = test::corpus_instance(n, round, base);
    const Instance inst{n, f_tt, c_tt};

    Manager mgr(n, 12);
    const Edge f = from_tt(mgr, inst.f_tt, n);
    const Edge c = from_tt(mgr, inst.c_tt, n);
    const std::size_t f_size = count_nodes(mgr, f);
    for (const Heuristic& h : set) {
      const Edge g = h.run(mgr, f, c);
      const std::uint64_t g_tt = to_tt(mgr, g, n);
      if (((g_tt ^ inst.f_tt) & inst.c_tt) != 0) {
        const Instance small = shrink(h, inst);
        ADD_FAILURE() << h.name << " violated f*c <= g <= f+!c on seed "
                      << seed << " (round " << round << ")\n  original: n="
                      << inst.n << " f=0x" << std::hex << inst.f_tt << " c=0x"
                      << inst.c_tt << std::dec << "\n  shrunk:   n="
                      << small.n << " f=0x" << std::hex << small.f_tt
                      << " c=0x" << small.c_tt << std::dec << " leaves=\""
                      << to_leaves(small) << "\"";
        continue;
      }
      const std::size_t g_size = count_nodes(mgr, g);
      if (g_size > f_size) {
        ++growth[h.name];
        // Proposition 6: only the fallback-wrapped heuristics (and the
        // identity) promise |g| <= |f|; everything else merely gets
        // flagged here.
        EXPECT_FALSE(growth_forbidden(h.name))
            << h.name << " grew " << f_size << " -> " << g_size
            << " on seed " << seed;
      }
    }
  }
  for (const auto& [name, count] : growth) {
    std::printf("# growth flag: %-8s exceeded |f| on %3d/%d instances "
                "(allowed by Proposition 6)\n",
                name.c_str(), count, rounds);
  }
}

TEST(PropertyRandom, OracleCatchesABrokenHeuristic) {
  // The differential oracle must have teeth: a heuristic returning !f is
  // caught, and the shrinker hands back a violating instance no bigger
  // than the original.
  const Heuristic liar{"liar", [](Manager&, Edge f, Edge) { return !f; }};
  const Instance inst{3, 0b10110100, 0b11010110};
  ASSERT_TRUE(violates(liar, inst));
  const Instance small = shrink(liar, inst);
  EXPECT_TRUE(violates(liar, small));
  EXPECT_LE(small.n, inst.n);
  EXPECT_LE(std::popcount(small.c_tt), std::popcount(inst.c_tt));
  // !f disagrees with f on every care minterm, so one care minterm and
  // one variable survive shrinking.
  EXPECT_EQ(std::popcount(small.c_tt), 1);
  EXPECT_EQ(small.n, 1u);
}

TEST(PropertyRandom, LeafNotationRoundTripsThroughWorkload) {
  const Instance inst{2, 0b0100, 0b1101};  // leaves (x0 top): d1 01 order
  Manager mgr(2, 12);
  const minimize::IncSpec spec = workload::from_leaves(mgr, to_leaves(inst));
  EXPECT_EQ(to_tt(mgr, spec.f, 2), inst.f_tt & inst.c_tt);
  EXPECT_EQ(to_tt(mgr, spec.c, 2), inst.c_tt);
}

TEST(PropertyRandom, SeededInstancesAreReproducible) {
  Manager a(5, 12), b(5, 12);
  const minimize::IncSpec first = workload::random_instance(a, 5, 0.3, 42u);
  const minimize::IncSpec second = workload::random_instance(b, 5, 0.3, 42u);
  EXPECT_EQ(to_tt(a, first.f, 5), to_tt(b, second.f, 5));
  EXPECT_EQ(to_tt(a, first.c, 5), to_tt(b, second.c, 5));
  const minimize::IncSpec third = workload::random_instance(b, 5, 0.3, 43u);
  EXPECT_FALSE(to_tt(a, first.f, 5) == to_tt(b, third.f, 5) &&
               to_tt(a, first.c, 5) == to_tt(b, third.c, 5));
}

}  // namespace
}  // namespace bddmin
