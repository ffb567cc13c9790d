/// \file workloads.hpp
/// \brief The three benchmark workloads.
///
/// Each runs its set-up several times (setup_s is their median), then
/// repeats whole passes over the same inputs until the requested seconds
/// have elapsed.  With tracing off a run reports the end-to-end metrics;
/// with tracing on it alternates untraced and traced passes and reports
/// the per-layer metrics of the traced ones.  Every pass must reproduce
/// the first pass's outputs and work counters exactly.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "machines.hpp"
#include "report.hpp"

namespace perfbench {

[[nodiscard]] Result run_table3(const Options& opts);
[[nodiscard]] Result run_batch_fsm(const Options& opts);
[[nodiscard]] Result run_batch_small(const Options& opts);

/// Per-call best-cover sizes of one untraced table3 pass over \p set
/// (harness::Interceptor on the functional-image traversals).  Failures
/// are reported on \p result.
[[nodiscard]] std::vector<std::size_t> table3_min_sizes(
    const MachineSet& set, const std::string& csv_path, Result& result);

/// Run one traversal; an inequivalent pair or an exception is a failure.
void run_traversal(const Traversal& t, const bddmin::fsm::MinimizeHook& hook,
                   Result& result);

}  // namespace perfbench
