#include "minimize/sibling.hpp"

#include <limits>
#include <unordered_map>

#include "analysis/check.hpp"
#include "telemetry/profile.hpp"

namespace bddmin::minimize {
namespace {

/// Offset of an option set's tag within the cache_tag::kTdFirst block.
constexpr std::uint32_t td_tag_offset(const SiblingOptions& opts) noexcept {
  return 4 * static_cast<std::uint32_t>(opts.criterion) +
         2 * std::uint32_t{opts.match_complement} +
         std::uint32_t{opts.no_new_vars};
}
static_assert(cache_tag::kTdFirst +
                  td_tag_offset({Criterion::kOsm, true, false}) ==
              cache_tag::kTdOsmCp);
static_assert(cache_tag::kTdFirst +
                  td_tag_offset({Criterion::kTsm, true, true}) ==
              cache_tag::kTdLast);

/// Figure 2's generic_td with the two context rules of Sections 3.2 and
/// 3.4: the criterion is chosen per level as in mixed_td, and matching is
/// tried only at levels in [lo_level, hi_level].  A windowed walk (the
/// scheduler's pass) stops below hi_level and returns the i-cover
/// [f', c']; any other walk returns its cover with care part kOne.
/// match_complement is never set on a windowed walk: a then/else
/// complement linkage has no i-cover form.
struct TopDown {
  Manager& mgr;
  MixedOptions opts;
  std::uint32_t lo_level = 0;
  std::uint32_t hi_level = std::numeric_limits<std::uint32_t>::max();
  bool windowed = false;
  /// The (f, c) memo.  When the cover depends on the option set alone it
  /// is the manager's computed cache under the set's own tag: a cover is
  /// canonical, so an evicted entry only costs recomputation, and the
  /// garbage collection between heuristics flushes it like every other
  /// entry.  Level bounds do not fit in the cache key, so every other
  /// walk keeps a per-call map.
  bool cache_memo = false;
  std::uint32_t tag_offset = 0;
  std::unordered_map<std::uint64_t, IncSpec> memo{};

  IncSpec run(Edge f, Edge c) {
    BDDMIN_DCHECK(windowed || c != kZero);
    if (c == kZero || c == kOne || Manager::is_const(f)) {
      return {f, windowed ? c : kOne};
    }
    if (cache_memo) {
      Edge g;
      if (mgr.cache_lookup(cache_tag::kTdFirst + tag_offset, f, c, kOne, &g)) {
        return {g, kOne};
      }
    } else if (const auto it = memo.find(pair_key(f, c)); it != memo.end()) {
      return it->second;
    }
    const std::uint32_t top = mgr.top_var(f, c);
    const std::uint32_t level = mgr.level_of_var(top);
    if (level > hi_level) return {f, c};  // entirely below the window
    mgr.governor().charge_step();
    const auto [f_t, f_e] = mgr.branches(f, top);
    const auto [c_t, c_e] = mgr.branches(c, top);
    const Criterion crit = level < opts.switch_level ? opts.upper : opts.lower;
    const bool in_window = level >= lo_level;

    IncSpec ret;
    if (opts.no_new_vars && mgr.level_of(f) > mgr.level_of(c)) {
      // f is independent of c's top variable (all of f's support lies
      // below it): existentially drop that variable from the care set
      // rather than letting a match introduce it into the result.
      ret = run(f, mgr.or_(c_t, c_e));
    } else if (const auto m = in_window ? sibling_match(mgr, crit, false,
                                                        {f_t, c_t}, {f_e, c_e})
                                        : std::nullopt) {
      // Both siblings replaced by their common i-cover: parent deleted.
      ret = run(m->f, m->c);
    } else if (const auto mc = in_window && opts.match_complement
                                   ? sibling_match(mgr, crit, true, {f_t, c_t},
                                                   {f_e, c_e})
                                   : std::nullopt) {
      // then = g, else = !g for a single recursion g.
      const Edge g = run(mc->f, mc->c).f;
      ret = {mgr.make_node(top, g, !g), kOne};
    } else {
      // Without a window no match was missed, so neither child's care
      // set is 0 (a 0 care set matches under every criterion).
      const IncSpec t = run(f_t, c_t);
      const IncSpec e = run(f_e, c_e);
      ret = {mgr.make_node(top, t.f, e.f),
             windowed ? mgr.make_node(top, t.c, e.c) : kOne};
    }
    if (cache_memo) {
      mgr.cache_insert(cache_tag::kTdFirst + tag_offset, f, c, kOne, ret.f);
    } else {
      memo.emplace(pair_key(f, c), ret);
    }
    return ret;
  }
};

}  // namespace

Edge generic_td(Manager& mgr, const SiblingOptions& opts, Edge f, Edge c) {
  if (c == kZero) return f;  // no care points: any function covers; keep f
  // The traversal itself is result construction; the matching criteria it
  // calls re-scope themselves to kMatching.
  const telemetry::PhaseScope phase(telemetry::Phase::kCoverBuild);
  TopDown td{.mgr = mgr,
             .opts = {opts.criterion, opts.criterion, 0, opts.match_complement,
                      opts.no_new_vars},
             .cache_memo = true,
             .tag_offset = td_tag_offset(opts)};
  return td.run(f, c).f;
}

Edge constrain(Manager& mgr, Edge f, Edge c) {
  return generic_td(mgr, {Criterion::kOsdm, false, false}, f, c);
}
Edge restrict_dc(Manager& mgr, Edge f, Edge c) {
  return generic_td(mgr, {Criterion::kOsdm, false, true}, f, c);
}
Edge osm_td(Manager& mgr, Edge f, Edge c) {
  return generic_td(mgr, {Criterion::kOsm, false, false}, f, c);
}
Edge osm_nv(Manager& mgr, Edge f, Edge c) {
  return generic_td(mgr, {Criterion::kOsm, false, true}, f, c);
}
Edge osm_cp(Manager& mgr, Edge f, Edge c) {
  return generic_td(mgr, {Criterion::kOsm, true, false}, f, c);
}
Edge osm_bt(Manager& mgr, Edge f, Edge c) {
  return generic_td(mgr, {Criterion::kOsm, true, true}, f, c);
}
Edge tsm_td(Manager& mgr, Edge f, Edge c) {
  return generic_td(mgr, {Criterion::kTsm, false, false}, f, c);
}
Edge tsm_cp(Manager& mgr, Edge f, Edge c) {
  return generic_td(mgr, {Criterion::kTsm, true, false}, f, c);
}

Edge mixed_td(Manager& mgr, const MixedOptions& opts, Edge f, Edge c) {
  if (c == kZero || c == kOne) return f;
  const telemetry::PhaseScope phase(telemetry::Phase::kCoverBuild);
  TopDown td{.mgr = mgr, .opts = opts};
  return td.run(f, c).f;
}

IncSpec sibling_window_pass(Manager& mgr, Criterion crit, std::uint32_t lo_level,
                            std::uint32_t hi_level, IncSpec spec) {
  const telemetry::PhaseScope phase(telemetry::Phase::kCoverBuild);
  TopDown td{.mgr = mgr,
             .opts = {crit, crit, 0, false, false},
             .lo_level = lo_level,
             .hi_level = hi_level,
             .windowed = true};
  return td.run(spec.f, spec.c);
}

}  // namespace bddmin::minimize
