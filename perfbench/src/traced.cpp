#include "traced.hpp"

#include <algorithm>

#include "bdd/bdd.hpp"
#include "bdd/ops.hpp"
#include "minimize/incspec.hpp"
#include "minimize/lower_bound.hpp"
#include "report.hpp"

namespace perfbench {

using namespace bddmin;

TracedCalls::TracedCalls(Spans& spans)
    : spans_(spans),
      gc_id_(spans.intern("bdd.gc")),
      count_id_(spans.intern("bdd.count_nodes")),
      onset_id_(spans.intern("minimize.onset")),
      validate_id_(spans.intern("minimize.validate")),
      lower_bound_id_(spans.intern("minimize.lower_bound")) {
  const std::vector<minimize::Heuristic> all = minimize::all_heuristics();
  // with_profile keeps a pointer into profiles_, so size it first.
  profiles_.resize(all.size());
  steps_.assign(all.size(), 0);
  for (std::size_t i = 0; i < all.size(); ++i) {
    heuristics_.push_back(minimize::with_profile(all[i], &profiles_[i]));
    heuristic_ids_.push_back(spans.intern("minimize." + all[i].name));
  }
}

std::vector<std::string> TracedCalls::names() const {
  std::vector<std::string> out;
  for (const minimize::Heuristic& h : heuristics_) out.push_back(h.name);
  return out;
}

telemetry::PhaseProfile TracedCalls::phases() const {
  telemetry::PhaseProfile total;
  for (const telemetry::PhaseProfile& p : profiles_) total += p;
  return total;
}

harness::CallRecord TracedCalls::minimize_all(Manager& mgr, Edge f, Edge c,
                                              std::size_t lower_bound_cubes) {
  const minimize::IncSpec spec{f, c};
  // The caller's f and c must survive the per-heuristic GCs.
  const Bdd f_pin(mgr, f);
  const Bdd c_pin(mgr, c);
  harness::CallRecord record;
  {
    const Scope span(spans_, count_id_);
    record.f_size = count_nodes(mgr, f);
  }
  {
    const Scope span(spans_, onset_id_);
    record.c_onset = minimize::c_onset_fraction(mgr, spec);
  }
  record.min_size = SIZE_MAX;
  record.outcomes.reserve(heuristics_.size());
  for (std::size_t i = 0; i < heuristics_.size(); ++i) {
    {
      const Scope span(spans_, gc_id_);
      mgr.garbage_collect();
    }
    const telemetry::CounterSnapshot before = mgr.telemetry();
    const auto start = Clock::now();
    Edge g = kZero;
    {
      const Scope span(spans_, heuristic_ids_[i]);
      g = heuristics_[i].run(mgr, f, c);
    }
    harness::HeuristicOutcome outcome;
    outcome.seconds = seconds_since(start);
    const telemetry::CounterSnapshot delta = mgr.telemetry() - before;
    outcome.steps = delta.value(telemetry::Counter::kGovernorSteps);
    outcome.cache_hits = delta.total_cache_hits();
    outcome.cache_misses = delta.total_cache_misses();
    steps_[i] += outcome.steps;
    bool ok = false;
    {
      const Scope span(spans_, validate_id_);
      ok = minimize::is_cover(mgr, g, spec);
    }
    if (!ok) ++non_covers_;
    {
      const Scope span(spans_, count_id_);
      outcome.size = count_nodes(mgr, g);
    }
    record.min_size = std::min(record.min_size, outcome.size);
    record.outcomes.push_back(outcome);
  }
  if (lower_bound_cubes > 0) {
    {
      const Scope span(spans_, gc_id_);
      mgr.garbage_collect();
    }
    const Scope span(spans_, lower_bound_id_);
    const minimize::LowerBoundResult lb =
        minimize::constrain_lower_bound(mgr, f, c, lower_bound_cubes);
    record.lower_bound = lb.bound;
    record.lb_cubes = lb.cubes_examined;
    lb_cubes_ += lb.cubes_examined;
  }
  return record;
}

}  // namespace perfbench
