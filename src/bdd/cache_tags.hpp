/// \file cache_tags.hpp
/// \brief The single registry of computed-cache operation tags.
///
/// Every `Manager::cache_insert` / `cache_lookup` key carries a 32-bit
/// operation tag.  Tags partition the one shared cache between operations:
/// two ops sharing a tag silently poison each other's memoized results, so
/// ad-hoc tag constants scattered over the tree are a correctness hazard.
/// This header is therefore the *only* place a tag value may be defined —
/// rule R2 of tools/bddmin_lint.py rejects cache_insert/cache_lookup call
/// sites whose tag does not resolve here, and rejects duplicate values
/// inside this file.
///
/// Layout of the tag space:
///   1..7    manager-internal recursions (ite, the apply kernels and the
///           early-exit predicates);
///   8..63   budgeted free-function recursions (bdd/ops.cpp);
///   >= 64   (`kUserBase`, aka Manager::kUserOpBase) client algorithms —
///           carve new client tags HERE, not locally.  64 itself stays
///           free for tests; 80..91 are the sibling-matching covers.
///
/// Telemetry classifies cache traffic per tag (see cache_hit_counter_of in
/// bdd/manager.cpp) and the cache audit validates that every cached entry
/// carries a registered tag (analysis/cache_audit.cpp).
#pragma once

#include <cstdint>

namespace bddmin::cache_tag {

// ---- Manager-internal recursions (reserved range 1..7) -----------------
inline constexpr std::uint32_t kIte = 1;       ///< Manager::ite
inline constexpr std::uint32_t kAnd = 2;       ///< and_kernel (+ leq/disjoint subproofs)
inline constexpr std::uint32_t kXor = 3;       ///< xor_kernel
inline constexpr std::uint32_t kDisjoint = 4;  ///< disjoint_rec intersection markers
inline constexpr std::uint32_t kAgree = 5;     ///< Manager::agree, result kOne/kZero

// ---- Budgeted free-function recursions, bdd/ops.cpp (range 8..63) ------
inline constexpr std::uint32_t kCofactor = 8;
inline constexpr std::uint32_t kExists = 9;
inline constexpr std::uint32_t kAndExists = 10;
inline constexpr std::uint32_t kCompose = 11;

// ---- Client algorithms (>= kUserBase) ----------------------------------
/// First tag available to client algorithms; Manager::kUserOpBase aliases
/// this.  Telemetry buckets everything from here up as the "user" class.
inline constexpr std::uint32_t kUserBase = 64;

/// minimize/sibling.cpp top-down covers (constrain, restrict, osm_*,
/// tsm_*): one tag per option set, keyed (f, c, kOne).  A cover depends on
/// the options, so each set needs its own tag for memoized covers to stay
/// valid across heuristics that share a manager without a flush.  The tag
/// of an option set is
///   kTdOsdm + 4 * criterion + 2 * match_complement + no_new_vars
/// (criterion in minimize::Criterion order: osdm, osm, tsm); the block is
/// kTdFirst..kTdLast.
inline constexpr std::uint32_t kTdOsdm = 80;
inline constexpr std::uint32_t kTdOsdmNv = 81;
inline constexpr std::uint32_t kTdOsdmCp = 82;
inline constexpr std::uint32_t kTdOsdmCpNv = 83;
inline constexpr std::uint32_t kTdOsm = 84;
inline constexpr std::uint32_t kTdOsmNv = 85;
inline constexpr std::uint32_t kTdOsmCp = 86;
inline constexpr std::uint32_t kTdOsmCpNv = 87;
inline constexpr std::uint32_t kTdTsm = 88;
inline constexpr std::uint32_t kTdTsmNv = 89;
inline constexpr std::uint32_t kTdTsmCp = 90;
inline constexpr std::uint32_t kTdTsmCpNv = 91;
inline constexpr std::uint32_t kTdFirst = kTdOsdm;
inline constexpr std::uint32_t kTdLast = kTdTsmCpNv;

}  // namespace bddmin::cache_tag
