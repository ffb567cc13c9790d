/// \file lower_bound.hpp
/// \brief Lower bound on the exact minimum cover size (Section 4.1.1).
///
/// Theorem 7 makes constrain exact when the care set is a cube.  For any
/// cube p <= c the instance [f, p] is *less* constrained than [f, c]
/// (f·p <= f·c and f + c̄ <= f + p̄), so every cover of [f, c] also covers
/// [f, p] and |constrain(f, p)| is a lower bound on the minimum cover
/// size of [f, c].  Enumerating cubes of c and taking the maximum
/// tightens the bound.
///
/// With a cube care set, constrain is the Shannon cofactor by the cube,
/// which is the composition of its literal cofactors.  So the bound needs
/// no cube BDDs and no constrain call per cube: one DFS over c, in
/// for_each_cube's order (hi before lo), carries f cofactored by the
/// literals on the path, and at each constant-1 leaf counts that cofactor.
/// Each step is one cofactor(): O(1) when the carried function does not
/// depend on the variable or is rooted at it, memoized under the cofactor
/// cache tag otherwise.  The cost is at most one cofactor() call per
/// literal of an examined cube plus one count_nodes per examined cube.
#pragma once

#include <cstddef>

#include "bdd/manager.hpp"

namespace bddmin::minimize {

struct LowerBoundResult {
  std::size_t bound = 0;           ///< max over examined cubes (incl. terminal)
  std::size_t cubes_examined = 0;  ///< how many cubes of c were used
};

/// Compute the constrain-based lower bound, examining at most
/// \p max_cubes cubes of c in DFS order (the paper uses 1000).  When
/// \p probe_largest_cube is set, the shortest-path "large cube" of c is
/// tried first — the paper's suggested refinement ("look for large cubes
/// ... by finding short paths from the root of c to the constant 1"),
/// since a larger cube constrains more points and tends to bound better.
/// Preconditions: c != 0.  A constant f short-circuits to bound 1.
[[nodiscard]] LowerBoundResult constrain_lower_bound(
    Manager& mgr, Edge f, Edge c, std::size_t max_cubes = 1000,
    bool probe_largest_cube = false);

}  // namespace bddmin::minimize
