/// \file queue.hpp
/// \brief Work-stealing job queue for the batch engine.
///
/// All jobs are seeded round-robin across the per-worker deques before any
/// worker starts (the batch is a closed set — nothing is pushed while
/// workers run), so an empty sweep over every deque means the batch is
/// drained and the worker can exit.  Owners pop from the front of their
/// own deque (roughly submission order); thieves take from the back of a
/// victim's deque, which keeps owner and thief on opposite ends.  Each
/// deque is guarded by its own mutex: with whole minimization jobs as the
/// unit of work, pop cost is noise next to job cost, and the mutexes keep
/// the structure trivially TSan-clean.  The guard relation is machine
/// checked: `items` is BDDMIN_GUARDED_BY its deque's mutex, so a Clang
/// `-Wthread-safety` build rejects any future access outside the lock.
///
/// False sharing: each Deque is alignas(64)-padded onto its own cache
/// line(s).  The deques live contiguously in one vector and every pop —
/// own or steal — dirties a deque's mutex word; without the padding two
/// adjacent workers' hot head/tail state would ping-pong one shared line.
///
/// Observability: `try_pop` optionally reports how the item was obtained
/// (own deque vs. stolen) so the engine can account steal traffic.
#pragma once

#include <cstddef>
#include <deque>
#include <mutex>
#include <vector>

#include "analysis/thread_annotations.hpp"
#include "telemetry/trace.hpp"

namespace bddmin::engine {

class WorkStealingQueue {
 public:
  /// How try_pop obtained its item (for the engine's steal accounting).
  struct PopOutcome {
    bool stolen = false;  ///< Item came from another worker's deque.
  };

  explicit WorkStealingQueue(std::size_t num_workers)
      : deques_(num_workers == 0 ? 1 : num_workers) {}

  WorkStealingQueue(const WorkStealingQueue&) = delete;
  WorkStealingQueue& operator=(const WorkStealingQueue&) = delete;

  [[nodiscard]] std::size_t num_workers() const noexcept {
    return deques_.size();
  }

  /// Seed \p item into \p worker's deque.  Call before workers start.
  void push(std::size_t worker, std::size_t item) {
    Deque& d = deques_[worker % deques_.size()];
    const std::lock_guard<std::mutex> lock(d.mu);
    d.items.push_back(item);
  }

  /// Pop the next item for \p worker: front of its own deque, else steal
  /// from the back of the first non-empty victim (scanning round-robin
  /// from worker+1).  Returns false when every deque is empty — with a
  /// pre-seeded batch that means no work is left anywhere.  When
  /// \p outcome is non-null it reports whether the item was stolen.
  bool try_pop(std::size_t worker, std::size_t* out,
               PopOutcome* outcome = nullptr) {
    const std::size_t n = deques_.size();
    const std::size_t self = worker % n;
    {
      Deque& d = deques_[self];
      const std::lock_guard<std::mutex> lock(d.mu);
      if (!d.items.empty()) {
        *out = d.items.front();
        d.items.pop_front();
        if (outcome != nullptr) outcome->stolen = false;
        return true;
      }
    }
    for (std::size_t k = 1; k < n; ++k) {
      Deque& d = deques_[(self + k) % n];
      const std::lock_guard<std::mutex> lock(d.mu);
      if (!d.items.empty()) {
        *out = d.items.back();
        d.items.pop_back();
        telemetry::trace_instant("steal", "engine");
        if (outcome != nullptr) outcome->stolen = true;
        return true;
      }
    }
    return false;
  }

 private:
  /// One worker's deque and its lock, padded to cache-line granularity so
  /// neighbouring workers never contend on the same line (see file docs).
  struct alignas(64) Deque {
    std::mutex mu;
    std::deque<std::size_t> items BDDMIN_GUARDED_BY(mu);
  };

  std::vector<Deque> deques_;
};

}  // namespace bddmin::engine
