#include "minimize/lower_bound.hpp"

#include <algorithm>

#include "bdd/cube.hpp"
#include "bdd/ops.hpp"

#include "analysis/check.hpp"

namespace bddmin::minimize {
namespace {

/// Walks c's cubes in for_each_cube's order (hi before lo, same budget
/// cut-off), carrying g = f cofactored by the literals on the path so far.
/// Theorem 7 + Touati et al.: with a cube care set, constrain is the
/// Shannon cofactor and yields the exact minimum of [f, cube]; a cofactor
/// by a cube is the composition of its literal cofactors, so g at the
/// constant-1 leaf is that minimum.
struct CofactorWalk {
  Manager& mgr;
  std::size_t max_cubes;
  LowerBoundResult& result;
  std::size_t visited = 0;
  Edge last_counted = kOne;  ///< g at the last leaf that paid count_nodes

  /// Returns false once the cube budget is spent.  Precondition: c != 0.
  bool walk(Edge c, Edge g) {
    if (c == kOne) {
      ++visited;
      // Most leaves need no count: a constant cofactor has one node, and
      // a cofactor on the same node as the last counted one (g or its
      // complement) has the same count, already in the bound.
      if (Manager::is_const(g)) {
        result.bound = std::max<std::size_t>(result.bound, 1);
      } else if (g.index() != last_counted.index()) {
        last_counted = g;
        result.bound = std::max(result.bound, count_nodes(mgr, g));
      }
      return max_cubes == 0 || visited < max_cubes;
    }
    const std::uint32_t v = mgr.var_of(c);
    const Edge hi = mgr.hi_of(c);
    const Edge lo = mgr.lo_of(c);
    if (hi != kZero && !walk(hi, cofactor(mgr, g, v, true))) return false;
    return lo == kZero || walk(lo, cofactor(mgr, g, v, false));
  }
};

}  // namespace

LowerBoundResult constrain_lower_bound(Manager& mgr, Edge f, Edge c,
                                       std::size_t max_cubes,
                                       bool probe_largest_cube) {
  BDDMIN_CHECK(c != kZero);
  LowerBoundResult result;
  if (Manager::is_const(f)) {
    result.bound = 1;
    return result;
  }
  if (probe_largest_cube && c != kOne) {
    const Edge big =
        cube_to_edge(mgr, largest_cube(mgr, c, mgr.num_vars()));
    result.bound = count_nodes(mgr, cofactor_cube(mgr, f, big));
    result.cubes_examined = 1;
  }
  CofactorWalk walker{mgr, max_cubes, result};
  walker.walk(c, f);
  result.cubes_examined += walker.visited;
  return result;
}

}  // namespace bddmin::minimize
