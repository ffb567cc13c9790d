/// \file traced.hpp
/// \brief The per-call work of harness::Interceptor with a span around
/// every library call it makes, for the traced runs.
///
/// The untraced table3 run drives harness::Interceptor itself.  The traced
/// run cannot see inside it, so it repeats the same sequence here —
/// cover-size count, care onset, then for every heuristic a GC flush, the
/// run, cover validation and a size count, then the Theorem-7 lower bound
/// — and the workload checks that both produce the same sizes and
/// counters.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/intercept.hpp"
#include "minimize/registry.hpp"
#include "spans.hpp"
#include "telemetry/profile.hpp"

namespace perfbench {

class TracedCalls {
 public:
  explicit TracedCalls(Spans& spans);
  // The wrapped heuristics point into profiles_.
  TracedCalls(const TracedCalls&) = delete;
  TracedCalls& operator=(const TracedCalls&) = delete;

  /// All heuristics on one kept [f, c], as Interceptor::process does.
  /// Non-covers are counted in non_covers() instead of thrown.
  [[nodiscard]] bddmin::harness::CallRecord minimize_all(
      bddmin::Manager& mgr, bddmin::Edge f, bddmin::Edge c,
      std::size_t lower_bound_cubes);

  [[nodiscard]] const std::vector<bddmin::minimize::Heuristic>& heuristics()
      const noexcept {
    return heuristics_;
  }
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::uint64_t non_covers() const noexcept { return non_covers_; }
  /// Phase split (matching / cover build) summed over every heuristic run.
  [[nodiscard]] bddmin::telemetry::PhaseProfile phases() const;
  /// Governor steps per heuristic, parallel to heuristics().
  [[nodiscard]] const std::vector<std::uint64_t>& steps() const noexcept {
    return steps_;
  }
  [[nodiscard]] std::uint64_t lb_cubes() const noexcept { return lb_cubes_; }

 private:
  Spans& spans_;
  std::vector<bddmin::telemetry::PhaseProfile> profiles_;
  std::vector<bddmin::minimize::Heuristic> heuristics_;
  std::vector<std::uint32_t> heuristic_ids_;
  std::vector<std::uint64_t> steps_;
  std::uint32_t gc_id_;
  std::uint32_t count_id_;
  std::uint32_t onset_id_;
  std::uint32_t validate_id_;
  std::uint32_t lower_bound_id_;
  std::uint64_t non_covers_ = 0;
  std::uint64_t lb_cubes_ = 0;
};

}  // namespace perfbench
