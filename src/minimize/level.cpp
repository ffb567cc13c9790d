#include "minimize/level.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "analysis/check.hpp"
#include "telemetry/profile.hpp"

namespace bddmin::minimize {
namespace {

struct Collector {
  Manager& mgr;
  std::uint32_t level;
  std::size_t max_set_size;
  bool only_level_plus_one;
  CollectedLevel out;
  /// pair_key(f, c) -> slot, so each distinct pair is walked once.
  std::unordered_map<std::uint64_t, std::size_t> slot_of;
  /// canonical (f·c, c) -> vertex, so equal incompletely specified
  /// functions share one vertex (keeps the DMG acyclic).
  std::unordered_map<std::uint64_t, std::size_t> canonical_to_vertex;
  CubeVec path;

  /// Returns the slot of (f, c).
  std::size_t walk(Edge f, Edge c) {
    const std::size_t s = out.slots.size();
    if (const auto [it, fresh] = slot_of.try_emplace(pair_key(f, c), s);
        !fresh) {
      return it->second;
    }
    out.slots.push_back(LevelSlot{IncSpec{f, c}});
    const bool f_below = mgr.level_of(f) > level;  // constants are below all
    const bool c_below = mgr.level_of(c) > level;
    if (f_below && c_below) {
      if (max_set_size != 0 && out.specs.size() >= max_set_size) return s;
      if (only_level_plus_one && mgr.level_of(f) != level + 1) return s;
      const std::uint64_t canon = pair_key(mgr.and_(f, c), c);
      const auto [it, inserted] =
          canonical_to_vertex.try_emplace(canon, out.specs.size());
      if (inserted) {
        out.specs.push_back(IncSpec{f, c});
        out.paths.push_back(path);
      }
      out.slots[s].vertex = it->second;
      return s;
    }
    const std::uint32_t v = mgr.top_var(f, c);
    const auto [f_t, f_e] = mgr.branches(f, v);
    const auto [c_t, c_e] = mgr.branches(c, v);
    // Paths are indexed by order position so the Section 3.3.2 distance
    // weights depth correctly even under a permuted order.
    const std::uint32_t pos = mgr.level_of_var(v);
    path[pos] = 1;
    const std::size_t t = walk(f_t, c_t);
    path[pos] = 0;
    const std::size_t e = walk(f_e, c_e);
    path[pos] = kAbsentLiteral;
    LevelSlot& slot = out.slots[s];
    slot.var = v;
    slot.t = t;
    slot.e = e;
    out.interior_postorder.push_back(s);
    return s;
  }
};

}  // namespace

CollectedLevel collect_at_level(Manager& mgr, IncSpec spec, std::uint32_t level,
                                std::size_t max_set_size,
                                bool only_level_plus_one) {
  Collector collector{mgr,
                      level,
                      max_set_size,
                      only_level_plus_one,
                      {},
                      {},
                      {},
                      CubeVec(level + 1, kAbsentLiteral)};
  collector.walk(spec.f, spec.c);
  return std::move(collector.out);
}

double path_distance(const CubeVec& a, const CubeVec& b) {
  BDDMIN_DCHECK(a.size() == b.size());
  const std::size_t k = a.size();
  double d = 0.0;
  for (std::size_t v = 0; v < k; ++v) {
    if (a[v] == kAbsentLiteral || b[v] == kAbsentLiteral) continue;
    if (a[v] != b[v]) d += std::ldexp(1.0, static_cast<int>(k - 1 - v));
  }
  return d;
}

std::vector<std::size_t> fmm_osm(Manager& mgr, std::span<const IncSpec> specs) {
  const telemetry::PhaseScope phase(telemetry::Phase::kMatching);
  const std::size_t r = specs.size();
  // adjacency[j*r + k] = 1 iff [f_j, c_j] osm [f_k, c_k]
  std::vector<std::uint8_t> adjacency(r * r, 0);
  std::vector<bool> has_out(r, false);
  for (std::size_t j = 0; j < r; ++j) {
    for (std::size_t k = 0; k < r; ++k) {
      if (j == k) continue;
      if (matches(mgr, Criterion::kOsm, specs[j], specs[k])) {
        adjacency[j * r + k] = 1;
        has_out[j] = true;
      }
    }
  }
  // Map every vertex to a reachable sink.  The DMG is acyclic for
  // distinct functions (Proposition 10), and osm transitivity makes the
  // sink a direct i-cover of every vertex on the way.
  std::vector<std::size_t> rep(r, SIZE_MAX);
  auto resolve = [&](auto&& self, std::size_t j) -> std::size_t {
    if (rep[j] != SIZE_MAX) return rep[j];
    if (!has_out[j]) return rep[j] = j;
    for (std::size_t k = 0; k < r; ++k) {
      if (adjacency[j * r + k]) return rep[j] = self(self, k);
    }
    return rep[j] = j;  // unreachable: has_out implies an edge exists
  };
  for (std::size_t j = 0; j < r; ++j) resolve(resolve, j);
  return rep;
}

CliqueCover fmm_tsm(Manager& mgr, std::span<const IncSpec> specs,
                    std::span<const CubeVec> paths, const LevelOptions& opts) {
  const telemetry::PhaseScope phase(telemetry::Phase::kMatching);
  const std::size_t r = specs.size();
  std::vector<std::uint8_t> adjacency(r * r, 0);
  std::vector<std::size_t> degree(r, 0);
  for (std::size_t j = 0; j < r; ++j) {
    for (std::size_t k = j + 1; k < r; ++k) {
      if (matches(mgr, Criterion::kTsm, specs[j], specs[k])) {
        adjacency[j * r + k] = adjacency[k * r + j] = 1;
        ++degree[j];
        ++degree[k];
      }
    }
  }
  std::vector<std::size_t> seed_order(r);
  for (std::size_t j = 0; j < r; ++j) seed_order[j] = j;
  if (opts.order_by_degree) {
    std::stable_sort(seed_order.begin(), seed_order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return degree[a] > degree[b];
                     });
  }

  CliqueCover cover;
  cover.clique_of.assign(r, SIZE_MAX);
  const bool use_weights = opts.weight_by_distance && paths.size() == r;
  for (const std::size_t seed : seed_order) {
    if (cover.clique_of[seed] != SIZE_MAX) continue;
    std::vector<std::size_t> clique{seed};
    cover.clique_of[seed] = cover.cliques.size();
    // Grow greedily: repeatedly add the *nearest* uncovered vertex that is
    // adjacent to every clique member (paper Section 3.3.2, optimization 2).
    for (;;) {
      std::size_t best = SIZE_MAX;
      double best_weight = 0.0;
      for (std::size_t w = 0; w < r; ++w) {
        if (cover.clique_of[w] != SIZE_MAX) continue;
        const bool adjacent_to_all =
            std::all_of(clique.begin(), clique.end(), [&](std::size_t u) {
              return adjacency[u * r + w] != 0;
            });
        if (!adjacent_to_all) continue;
        double weight = 0.0;
        if (use_weights) {
          weight = path_distance(paths[seed], paths[w]);
          for (const std::size_t u : clique) {
            weight = std::min(weight, path_distance(paths[u], paths[w]));
          }
        }
        if (best == SIZE_MAX || weight < best_weight) {
          best = w;
          best_weight = weight;
        }
      }
      if (best == SIZE_MAX) break;
      cover.clique_of[best] = cover.cliques.size();
      clique.push_back(best);
    }
    cover.cliques.push_back(std::move(clique));
  }
  return cover;
}

IncSpec merge_clique(Manager& mgr, std::span<const IncSpec> specs,
                     std::span<const std::size_t> members) {
  const telemetry::PhaseScope phase(telemetry::Phase::kCoverBuild);
  Edge f = kZero;
  Edge c = kZero;
  for (const std::size_t j : members) {
    f = mgr.or_(f, mgr.and_(specs[j].f, specs[j].c));
    c = mgr.or_(c, specs[j].c);
  }
  return IncSpec{f, c};
}

IncSpec substitute_at_level(Manager& mgr, const CollectedLevel& collected,
                            std::span<const IncSpec> vertex_replacement) {
  const telemetry::PhaseScope phase(telemetry::Phase::kCoverBuild);
  const std::vector<LevelSlot>& slots = collected.slots;
  std::vector<IncSpec> rebuilt(slots.size());
  for (std::size_t s = 0; s < slots.size(); ++s) {
    rebuilt[s] = slots[s].vertex == kNoVertex
                     ? slots[s].pair
                     : vertex_replacement[slots[s].vertex];
  }
  for (const std::size_t s : collected.interior_postorder) {
    mgr.governor().charge_step();
    const LevelSlot& slot = slots[s];
    const IncSpec t = rebuilt[slot.t];
    const IncSpec e = rebuilt[slot.e];
    rebuilt[s] = IncSpec{mgr.make_node(slot.var, t.f, e.f),
                         mgr.make_node(slot.var, t.c, e.c)};
  }
  return rebuilt[0];
}

namespace {

IncSpec minimize_at_level_once(Manager& mgr, Criterion crit,
                               std::uint32_t level, const LevelOptions& opts,
                               IncSpec spec, LevelStats* stats) {
  BDDMIN_CHECK(crit == Criterion::kOsm || crit == Criterion::kTsm);
  const CollectedLevel collected = collect_at_level(
      mgr, spec, level, opts.max_set_size, opts.only_level_plus_one);
  const std::size_t r = collected.specs.size();
  std::vector<IncSpec> vertex_replacement(r);
  std::size_t groups = 0;
  if (crit == Criterion::kOsm) {
    const std::vector<std::size_t> rep = fmm_osm(mgr, collected.specs);
    for (std::size_t j = 0; j < r; ++j) {
      vertex_replacement[j] = collected.specs[rep[j]];
      groups += rep[j] == j;
    }
  } else {
    const CliqueCover cover =
        fmm_tsm(mgr, collected.specs, collected.paths, opts);
    std::vector<IncSpec> merged(cover.cliques.size());
    for (std::size_t q = 0; q < cover.cliques.size(); ++q) {
      merged[q] = merge_clique(mgr, collected.specs, cover.cliques[q]);
    }
    for (std::size_t j = 0; j < r; ++j) {
      const std::size_t q = cover.clique_of[j];
      // Singleton cliques spend no freedom: keep the original function
      // rather than its [f·c, c] normal form.
      vertex_replacement[j] =
          cover.cliques[q].size() == 1 ? collected.specs[j] : merged[q];
    }
    groups = cover.cliques.size();
  }
  if (stats) {
    stats->vertices = r;
    stats->groups = groups;
    stats->matched = r - groups;
  }
  return substitute_at_level(mgr, collected, vertex_replacement);
}

}  // namespace

IncSpec minimize_at_level(Manager& mgr, Criterion crit, std::uint32_t level,
                          const LevelOptions& opts, IncSpec spec,
                          LevelStats* stats) {
  LevelStats local;
  spec = minimize_at_level_once(mgr, crit, level, opts, spec, &local);
  if (opts.max_set_size != 0 && opts.chunked) {
    // Section 3.3.1: "When the limit is reached, the resulting set is
    // processed.  Then the traversal is continued, building a new set."
    // Matched vertices merge, so the population shrinks each round; the
    // round cap is a safety net against pathological oscillation.
    std::size_t last_matched = local.matched;
    std::size_t last_vertices = local.vertices;
    for (int round = 0;
         round < 64 && last_matched > 0 && last_vertices >= opts.max_set_size;
         ++round) {
      LevelStats next;
      spec = minimize_at_level_once(mgr, crit, level, opts, spec, &next);
      last_matched = next.matched;
      last_vertices = next.vertices;
      local.vertices = next.vertices;
      local.groups = next.groups;
      local.matched += next.matched;
    }
  }
  if (stats) *stats = local;
  return spec;
}

Edge opt_lv(Manager& mgr, Edge f, Edge c, const LevelOptions& opts,
            Criterion crit) {
  if (c == kZero || c == kOne) return f;
  IncSpec spec{f, c};
  // Level n-1 would only group constants; stop one short.
  for (std::uint32_t level = 0; level + 1 < mgr.num_vars(); ++level) {
    spec = minimize_at_level(mgr, crit, level, opts, spec);
  }
  return spec.f;
}

}  // namespace bddmin::minimize
