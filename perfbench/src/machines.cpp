#include "machines.hpp"

#include <algorithm>
#include <random>

#include "fsm/equiv.hpp"
#include "workload/builtin_fsms.hpp"
#include "workload/generators.hpp"

namespace perfbench {
namespace {

using bddmin::fsm::Fsm;
using bddmin::fsm::MachineSpec;

MachineSpec shuffled_spec(Fsm machine, std::uint64_t shuffle_seed) {
  std::mt19937_64 rng(shuffle_seed);
  std::shuffle(machine.states.begin(), machine.states.end(), rng);
  machine.name += "_shuffled";
  return bddmin::fsm::spec_from_fsm(std::move(machine));
}

}  // namespace

MachineSet make_machine_set(std::uint64_t seed) {
  namespace wl = bddmin::workload;
  using bddmin::fsm::spec_from_fsm;
  MachineSet set;
  auto& pairs = set.equivalence_pairs;
  const auto self = [&](MachineSpec spec) { pairs.emplace_back(spec, spec); };
  for (const Fsm& m : wl::builtin_fsms()) {
    self(spec_from_fsm(m));
    pairs.emplace_back(spec_from_fsm(m),
                       shuffled_spec(m, derive_seed(9000 + pairs.size(), seed)));
  }
  self(wl::make_counter(6));
  self(wl::make_mod_counter(10));
  self(wl::make_gray_counter(5));
  self(wl::make_lfsr(6, 0b000011));
  self(wl::make_shift_register(5));
  self(wl::make_random_mealy(24, 2, 2, derive_seed(1001, seed)));
  self(wl::make_random_mealy(32, 2, 1, derive_seed(1002, seed)));
  self(wl::make_counter(8));
  self(wl::make_accumulator(7, 4));
  self(wl::make_mult_register(7, 4));
  self(wl::make_minmax(3));
  self(wl::make_random_mealy(48, 3, 2, derive_seed(1003, seed)));
  self(wl::make_random_mealy(40, 2, 3, derive_seed(1004, seed)));
  self(wl::make_random_mealy(64, 2, 2, derive_seed(1005, seed)));
  self(wl::make_random_mealy(96, 4, 2, derive_seed(1006, seed)));
  // Re-encoded copies: the reached product set is a state correspondence
  // instead of the diagonal.  The state count stays the default set's;
  // only the generator and shuffle seeds vary.
  for (const std::uint64_t base : {2001ull, 2002ull, 2003ull}) {
    const Fsm m = wl::make_random_mealy_fsm(
        static_cast<unsigned>(24 + 8 * (base % 10)), 3, 2, derive_seed(base, seed));
    pairs.emplace_back(spec_from_fsm(m), shuffled_spec(m, derive_seed(base + 50, seed)));
  }
  auto& reach = set.reach_machines;
  reach.push_back(wl::make_bit_setter(8));
  reach.push_back(wl::make_accumulator(8, 4));
  reach.push_back(wl::make_gray_counter(6));
  reach.push_back(wl::make_mod_counter(100));
  reach.push_back(wl::make_bit_setter(11));
  reach.push_back(wl::make_accumulator(10, 3));
  reach.push_back(wl::make_mult_register(9, 4));
  reach.push_back(wl::make_minmax(4));
  return set;
}

std::vector<Traversal> traversals(const MachineSet& set,
                                  bddmin::fsm::ImageMethod method) {
  using namespace bddmin;
  std::vector<Traversal> out;
  for (const auto& pair : set.equivalence_pairs) {
    const auto& [a, b] = pair;
    out.push_back({a.name == b.name ? a.name : a.name + "+" + b.name,
                   [&pair, method](const fsm::MinimizeHook& hook) {
                     fsm::EquivOptions opts;
                     opts.image_method = method;
                     opts.minimize = hook;
                     return fsm::check_equivalence(pair.first, pair.second, opts)
                         .equivalent;
                   }});
  }
  for (const fsm::MachineSpec& spec : set.reach_machines) {
    out.push_back({"reach_" + spec.name, [&spec, method](
                                             const fsm::MinimizeHook& hook) {
      Manager mgr(spec.num_inputs + 2 * spec.num_state_bits, 15);
      std::vector<std::uint32_t> in(spec.num_inputs);
      for (unsigned i = 0; i < spec.num_inputs; ++i) in[i] = i;
      std::vector<std::uint32_t> st;
      std::vector<std::uint32_t> nx;
      for (unsigned k = 0; k < spec.num_state_bits; ++k) {
        st.push_back(spec.num_inputs + 2 * k);
        nx.push_back(spec.num_inputs + 2 * k + 1);
      }
      const fsm::SymbolicFsm sym = spec.build(mgr, in, st);
      fsm::ReachOptions opts;
      opts.image_method = method;
      opts.minimize = hook;
      (void)fsm::reachable_states(mgr, sym, nx, opts);
      return true;
    }});
  }
  return out;
}

}  // namespace perfbench
