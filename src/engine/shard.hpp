/// \file shard.hpp
/// \brief Deterministic job-size-aware shard packing for the batch engine.
///
/// Small jobs make the batch engine a granularity problem: the harvested
/// Table-3 jobs run ~300µs at p50, so the per-job fixed costs —
/// Manager::reset(), a stone-cold computed cache, decode allocations,
/// one fsync per journal append, sink/CSV bookkeeping — rival the
/// minimization itself, and the work-stealing deque amplifies them by
/// scheduling every one of those tiny jobs individually.  This header
/// packs the submission stream into **shards**: consecutive runs of jobs
/// whose *estimated* cost adds up to a configurable budget.  The deque
/// then dispatches shard indices, amortizing one scheduling decision
/// (and, in the engine, one manager reset and one journal fsync) over a
/// whole shard.
///
/// The cost model is deliberately crude but **deterministic**: a fixed
/// per-job charge plus the payload's size in bits (truth tables) or
/// serialized bytes (forests).  It never looks at the clock, the thread
/// count or the machine, so the same submission stream packs into the
/// same shards everywhere — the packing is part of the determinism
/// contract, not a scheduling heuristic that may drift between runs.
/// Shards preserve submission order (shard s covers a contiguous range
/// of the run list), which keeps the warm-manager reuse in engine.cpp a
/// pure function of the shard contents.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/job.hpp"

namespace bddmin::engine {

/// Fixed per-job charge in cost units: models the payload-independent
/// overhead (scheduling, decode setup, sink delivery, journal record).
inline constexpr std::uint64_t kJobFixedCost = 64;

/// Hard cap on jobs per shard regardless of how cheap they are, so a
/// stream of thousands of tiny truth-table jobs still yields enough
/// shards for the deques to balance (and a cancel/quota event never has
/// to drain an unbounded run).
inline constexpr std::uint32_t kMaxShardJobs = 256;

/// Default shard budget in cost units (~payload bytes).  A 6-var
/// truth-table job costs kJobFixedCost + 16 = 80 units and harvested
/// Table-3 forest payloads run a few KB, so the default packs tens of
/// jobs per shard — big enough to amortize the per-shard costs, small
/// enough that 8 workers still see plenty of shards to steal from on
/// the 3.6k-job harvested batch.
inline constexpr std::uint64_t kDefaultShardCost = 65536;

/// Estimated cost of one job: kJobFixedCost plus the payload size in
/// bytes — 2 * 2^num_vars / 8 for a truth-table payload (f and c
/// tables), serialized length for a forest payload.  Pure function of
/// the payload; never zero.
[[nodiscard]] std::uint64_t estimate_job_cost(const Job& job) noexcept;

/// One shard: the half-open range [first, first + count) of positions
/// in the *run list* handed to pack_shards (not raw job indices — the
/// engine passes its deduplicated to-run vector and maps back).
struct Shard {
  std::uint32_t first = 0;
  std::uint32_t count = 0;
  std::uint64_t cost = 0;  ///< sum of estimate_job_cost over the range
};

/// The full packing of one submission stream.
struct ShardPlan {
  std::vector<Shard> shards;
  std::uint64_t total_cost = 0;
  std::uint64_t max_shard_cost = 0;
  std::uint32_t max_shard_jobs = 0;

  [[nodiscard]] std::size_t size() const noexcept { return shards.size(); }
};

/// Greedy in-order packing of \p run (positions are indices into
/// \p jobs) into shards of estimated cost <= \p cost_budget.  A shard is
/// closed as soon as adding the next job would exceed the budget — so a
/// single job whose own cost exceeds the budget still gets a (singleton)
/// shard, and every job lands in exactly one shard, in submission order.
/// `cost_budget == 0` disables coalescing: one job per shard, which
/// makes the sharded engine behave exactly like the unsharded one.
/// Deterministic: depends only on (jobs, run, cost_budget).
[[nodiscard]] ShardPlan pack_shards(std::span<const Job> jobs,
                                    const std::vector<std::size_t>& run,
                                    std::uint64_t cost_budget);

}  // namespace bddmin::engine
