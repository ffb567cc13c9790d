/// \file machines.hpp
/// \brief The seeded machine set the table3 and batch_fsm workloads
/// traverse, and the traversals themselves.
///
/// With the default seed the set is exactly the one the Table-3
/// reproduction uses (bench/experiment_common.hpp): the same machines,
/// sizes, generator seeds and state re-encodings, in the same order, so
/// the workload sees the same 10,981 minimize calls.  Any other seed keeps
/// every machine's shape (state, input and output counts) and derives new
/// generator seeds for the random Mealy machines and new shuffles for the
/// re-encoded copies.  The datapath and reachability machines carry no
/// seed and never change.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "fsm/encoding.hpp"
#include "fsm/reach.hpp"

namespace perfbench {

inline constexpr std::uint64_t kDefaultSeed = 1;

/// Generator seed for an input whose default-seed value is \p base.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t base,
                                               std::uint64_t seed) {
  return base + (seed - kDefaultSeed) * 1000003ull;
}

struct MachineSet {
  std::vector<std::pair<bddmin::fsm::MachineSpec, bddmin::fsm::MachineSpec>>
      equivalence_pairs;
  std::vector<bddmin::fsm::MachineSpec> reach_machines;
};

/// Build the machine specs for \p seed (the table3 set-up step).
[[nodiscard]] MachineSet make_machine_set(std::uint64_t seed);

/// One traversal of the set: runs the product equivalence check or the
/// single-machine reachability with \p hook on the minimize seam.
/// Returns false when an equivalence check reports inequivalent machines
/// (every pair in the set is equivalent by construction).
struct Traversal {
  std::string name;
  std::function<bool(const bddmin::fsm::MinimizeHook& hook)> run;
};

/// The traversals of \p set in workload order: every equivalence pair,
/// then every reachability machine, all with \p method images.
[[nodiscard]] std::vector<Traversal> traversals(
    const MachineSet& set, bddmin::fsm::ImageMethod method);

}  // namespace perfbench
