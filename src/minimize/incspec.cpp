#include "minimize/incspec.hpp"

#include "bdd/ops.hpp"

namespace bddmin::minimize {

bool is_cover(Manager& mgr, Edge g, IncSpec spec) {
  return mgr.agree(g, spec.f, spec.c);
}

bool is_icover(Manager& mgr, IncSpec outer, IncSpec inner) {
  return mgr.leq(inner.c, outer.c) && mgr.agree(outer.f, inner.f, inner.c);
}

bool same_function(Manager& mgr, IncSpec a, IncSpec b) {
  return a.c == b.c && mgr.agree(a.f, b.f, a.c);
}

double c_onset_fraction(Manager& mgr, IncSpec spec) {
  // The paper measures onset points of c over the space spanned by the
  // union of the supports of f and c.  The onset *fraction* is the same
  // over that subspace as over the full space, because variables outside
  // c's support scale onset and space alike.
  return sat_fraction(mgr, spec.c);
}

CallFilter classify_call(Manager& mgr, IncSpec spec) {
  CallFilter filter;
  filter.c_trivial = spec.c == kZero || spec.c == kOne;
  filter.c_is_cube = is_cube(mgr, spec.c);
  filter.c_in_f = spec.c != kZero && mgr.leq(spec.c, spec.f);
  filter.c_in_not_f = spec.c != kZero && mgr.leq(spec.c, !spec.f);
  return filter;
}

}  // namespace bddmin::minimize
