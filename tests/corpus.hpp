/// \file corpus.hpp
/// \brief The property-suite instance corpus, shared by the differential
/// tests: seeded [f, c] truth tables over 2..6 variables, uniform on even
/// rounds and density-shaped workload instances on odd ones.
#pragma once

#include <cstdint>
#include <random>
#include <utility>

#include "bdd/manager.hpp"
#include "bdd/truth_table.hpp"
#include "minimize/incspec.hpp"
#include "workload/instances.hpp"

namespace bddmin::test {

/// Default corpus seed (DAC'94 vintage; any value works, this one is pinned).
inline constexpr std::uint64_t kCorpusSeed = 19940606;

/// Variable count of corpus instance \p round: 2..6, cycling.
inline unsigned corpus_vars(int round) {
  return 2 + static_cast<unsigned>(round % 5);
}

/// The (f, c) truth tables of corpus instance \p round over \p n variables;
/// instance k uses seed base + k.
inline std::pair<std::uint64_t, std::uint64_t> corpus_instance(
    unsigned n, int round, std::uint64_t base = kCorpusSeed) {
  const std::uint64_t seed = base + static_cast<std::uint64_t>(round);
  if (round % 2 == 0) {
    // Uniform truth tables: every function equally likely.
    std::mt19937_64 rng(seed);
    const std::uint64_t f = rng() & tt_mask(n);
    return {f, rng() & tt_mask(n)};
  }
  // The seeded workload generator: density-shaped instances, the exact
  // path bddmin_cli batch --seed reaches.
  const double densities[] = {0.05, 0.25, 0.5, 0.75, 0.95};
  Manager gen(n, 12);
  const minimize::IncSpec spec =
      workload::random_instance(gen, n, densities[(round / 2) % 5], seed);
  return {to_tt(gen, spec.f, n), to_tt(gen, spec.c, n)};
}

}  // namespace bddmin::test
