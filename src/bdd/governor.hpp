/// \file governor.hpp
/// \brief ResourceGovernor: per-manager effort limits with abort-&-recover.
///
/// The paper's heuristics can transiently *grow* the BDD (restrict/osm have
/// no monotonicity guarantee outside Prop. 6), so production flows run them
/// under effort limits.  Every Manager owns one ResourceGovernor; when a
/// limit trips, the in-flight operation aborts by throwing a subclass of
/// `ResourceExhausted`.
///
/// Limit classes:
///  * **node quota** — a hard ceiling on allocated table slots (live + dead
///    nodes), checked in `Manager::unique_insert` *before* a new slot is
///    claimed; an optional soft quota below it only raises a sticky flag so
///    callers can schedule a garbage collection at the next safe point.
///  * **step budget** — a count of memoization misses across the budgeted
///    recursions (ITE, cofactor, quantification, composition and the
///    minimization traversals); a machine-independent, deterministic proxy
///    for work done.
///  * **deadline** — a wall-clock bound polled every `kDeadlinePollInterval`
///    steps (cheap: one branch per step, one clock read per interval), so a
///    single runaway recursion is interruptible without per-call clock
///    syscalls.
///  * **out of memory** — `std::bad_alloc` from the node table, subtable
///    buckets or computed cache is rethrown as `OutOfMemory` carrying the
///    requested size, instead of taking down the process with a raw
///    allocation failure.
///
/// Abort contract (the *strong guarantee* at manager granularity): a thrown
/// limit leaves the manager structurally consistent — ref counts, subtables,
/// free list and cache epoch all valid, verifiable by the BddAudit tiers.
/// Nodes built by the aborted operation are dead (ref == 0) and are
/// reclaimed by the next `garbage_collect()`; the same manager is
/// immediately reusable, and re-running the operation with a larger budget
/// yields the identical result an untripped run would have produced.
///
/// The governor also tracks the peak live-node count (always on, one
/// compare per ref-count 0->1 transition) so memory trajectories can be
/// reported even for unlimited runs.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace bddmin {

enum class LimitClass : std::uint8_t {
  kNodeLimit,    ///< hard node quota exceeded
  kStepLimit,    ///< recursion-step budget exhausted
  kDeadline,     ///< wall-clock deadline passed
  kOutOfMemory,  ///< allocation failure (wrapped std::bad_alloc)
};

/// Stable lower-case name ("node-limit", "step-limit", "deadline",
/// "out-of-memory") used in CSV reports and diagnostics.
[[nodiscard]] const char* limit_class_name(LimitClass c) noexcept;

/// Base of the resource-limit hierarchy.  Catching this (rather than the
/// concrete classes) is how callers implement graceful degradation.
class ResourceExhausted : public std::runtime_error {
 public:
  ResourceExhausted(LimitClass cls, const std::string& what)
      : std::runtime_error(what), class_(cls) {}
  [[nodiscard]] LimitClass limit_class() const noexcept { return class_; }

 private:
  LimitClass class_;
};

class NodeLimit final : public ResourceExhausted {
 public:
  NodeLimit(std::size_t allocated, std::size_t limit);
};

class StepLimit final : public ResourceExhausted {
 public:
  explicit StepLimit(std::uint64_t limit);
};

class Deadline final : public ResourceExhausted {
 public:
  explicit Deadline(double budget_seconds);
};

class OutOfMemory final : public ResourceExhausted {
 public:
  /// \p site names the allocation ("node table", "computed cache", ...);
  /// \p bytes is the request that failed or was refused.
  OutOfMemory(const char* site, std::size_t bytes);
  [[nodiscard]] std::size_t requested_bytes() const noexcept { return bytes_; }

 private:
  std::size_t bytes_;
};

/// One budget.  Zero always means "unlimited" for that dimension.
struct ResourceLimits {
  /// Sticky-flag quota on allocated nodes (live + dead); never throws.
  std::size_t soft_node_limit = 0;
  /// Hard quota on allocated nodes; exceeding it throws NodeLimit.
  std::size_t hard_node_limit = 0;
  /// Budget of memoization misses; exceeding it throws StepLimit.
  std::uint64_t step_limit = 0;
  /// Wall-clock budget measured from set_limits(); throws Deadline.
  double deadline_seconds = 0.0;

  [[nodiscard]] bool unlimited() const noexcept {
    return soft_node_limit == 0 && hard_node_limit == 0 && step_limit == 0 &&
           deadline_seconds <= 0.0;
  }
};

class ResourceGovernor {
 public:
  using Clock = std::chrono::steady_clock;
  /// The deadline is polled when `steps % interval == 1`, so an expired
  /// deadline trips on the very first charged step of an operation.
  static constexpr std::uint64_t kDeadlinePollInterval = 256;
  static_assert((kDeadlinePollInterval & (kDeadlinePollInterval - 1)) == 0,
                "poll interval must be a power of two");

  /// Install \p limits, resetting the step counter, the soft flag and the
  /// deadline clock (deadline_seconds counts from now).
  void set_limits(const ResourceLimits& limits) {
    limits_ = limits;
    steps_ = 0;
    soft_exceeded_ = false;
    watching_steps_ = limits.step_limit > 0 || limits.deadline_seconds > 0.0;
    if (limits.deadline_seconds > 0.0) {
      deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(
                                         limits.deadline_seconds));
    }
  }
  /// Remove every limit (telemetry keeps accumulating).
  void clear() noexcept {
    limits_ = ResourceLimits{};
    watching_steps_ = false;
    soft_exceeded_ = false;
  }
  /// Fresh-job state for a pooled manager (Manager::reset()): clears the
  /// limits AND the always-on telemetry (steps used, peak live) so a reused
  /// manager reports exactly what a freshly constructed one would.
  void reset_job() noexcept {
    clear();
    steps_ = 0;
    peak_live_ = 0;
  }
  [[nodiscard]] const ResourceLimits& limits() const noexcept { return limits_; }

  /// Attach the owning manager's telemetry slot for steps charged (see
  /// telemetry/counters.hpp, Counter::kGovernorSteps).  The governor
  /// counts into it unconditionally — also when no limit is installed —
  /// so step telemetry works for unlimited runs.  Null detaches.
  void attach_step_counter(std::uint64_t* slot) noexcept {
#if !defined(BDDMIN_NO_TELEMETRY)
    step_counter_ = slot;
#else
    (void)slot;
#endif
  }

  /// Charge one recursion step (called on memoization misses).  Hot path:
  /// a single predicted branch when no step/deadline limit is installed
  /// (plus one counter increment when telemetry is compiled in).
  void charge_step() {
#if !defined(BDDMIN_NO_TELEMETRY)
    if (step_counter_ != nullptr) ++*step_counter_;
#endif
    if (!watching_steps_) return;
    ++steps_;
    if (limits_.step_limit != 0 && steps_ > limits_.step_limit) {
      throw_step_limit();
    }
    if ((steps_ & (kDeadlinePollInterval - 1)) == 1 &&
        limits_.deadline_seconds > 0.0 && Clock::now() >= deadline_) {
      throw_deadline();
    }
  }

  /// True while a NodeQuotaSuspension critical section is open — i.e. a
  /// structural rewrite (adjacent-level swap) is in flight and an abort
  /// would tear the table.  Fault injection must stay out (see
  /// analysis/failpoint.hpp, "unique_insert_oom").
  [[nodiscard]] bool in_critical_section() const noexcept {
    return critical_depth_ > 0;
  }

  /// Enforce the node quotas against \p allocated (live + dead nodes);
  /// called by the manager before claiming a new table slot, so hitting an
  /// existing node never throws.
  void check_nodes(std::size_t allocated) {
    if (limits_.hard_node_limit != 0 && allocated >= limits_.hard_node_limit) {
      throw NodeLimit(allocated, limits_.hard_node_limit);
    }
    if (limits_.soft_node_limit != 0 && allocated >= limits_.soft_node_limit) {
      soft_exceeded_ = true;
    }
  }
  [[nodiscard]] bool node_limited() const noexcept {
    return limits_.hard_node_limit != 0 || limits_.soft_node_limit != 0;
  }

  /// True once the soft node quota has been reached; sticky until the next
  /// set_limits()/clear().  Callers should garbage-collect at the next safe
  /// point (the batch engine does so between heuristics).
  [[nodiscard]] bool soft_exceeded() const noexcept { return soft_exceeded_; }

  [[nodiscard]] std::uint64_t steps_used() const noexcept { return steps_; }

  // ---- Telemetry (always on) -------------------------------------------
  /// Record the current live-node count; keeps the running peak.
  void note_live(std::size_t live) noexcept {
    if (live > peak_live_) peak_live_ = live;
  }
  [[nodiscard]] std::size_t peak_live_nodes() const noexcept {
    return peak_live_;
  }

 private:
  friend class NodeQuotaSuspension;

  [[noreturn]] void throw_step_limit() const;
  [[noreturn]] void throw_deadline() const;

  ResourceLimits limits_;
  Clock::time_point deadline_{};
#if !defined(BDDMIN_NO_TELEMETRY)
  std::uint64_t* step_counter_ = nullptr;  // owned by the Manager's bank
#endif
  std::uint64_t steps_ = 0;
  std::size_t peak_live_ = 0;
  unsigned critical_depth_ = 0;
  bool watching_steps_ = false;
  bool soft_exceeded_ = false;
};

/// RAII: suspend the node quotas (soft and hard) for the duration of a
/// structural operation that must not abort mid-mutation — adjacent-level
/// swaps rewrite the table after flipping the order maps, so a NodeLimit
/// thrown from unique_insert inside the rewrite would tear the manager and
/// break the strong abort guarantee.  Only the quota checked by
/// `unique_insert` is paused: the step budget, deadline and all telemetry
/// keep running, and — unlike `set_limits` — neither the step counter nor
/// the deadline clock is reset.  The exact previous quotas are restored on
/// scope exit (including unwinding); the caller re-enforces them at the
/// next safe point with `check_nodes`.
class NodeQuotaSuspension {
 public:
  explicit NodeQuotaSuspension(ResourceGovernor& gov) noexcept
      : gov_(gov),
        soft_(gov.limits_.soft_node_limit),
        hard_(gov.limits_.hard_node_limit) {
    gov_.limits_.soft_node_limit = 0;
    gov_.limits_.hard_node_limit = 0;
    ++gov_.critical_depth_;
  }
  NodeQuotaSuspension(const NodeQuotaSuspension&) = delete;
  NodeQuotaSuspension& operator=(const NodeQuotaSuspension&) = delete;
  ~NodeQuotaSuspension() {
    gov_.limits_.soft_node_limit = soft_;
    gov_.limits_.hard_node_limit = hard_;
    --gov_.critical_depth_;
  }

 private:
  ResourceGovernor& gov_;
  std::size_t soft_;
  std::size_t hard_;
};

/// Pin \p v to its stack slot before a budgeted call whose abort handler
/// must read it back.
///
/// GCC 12.x can mis-allocate a local whose only use after a throwing call
/// sits on the exception edge: the initializing store is sunk past the
/// landing pad and the handler observes a stale register (observed with
/// g++ 12.2 at -O1/-O2 when the callee is reached through std::function
/// inside a loop).  Forcing the value through memory gives the handler a
/// well-defined reaching definition.  Semantically a no-op; also make the
/// recovery an explicit assignment inside the catch block rather than
/// relying on a pre-try initializer.
template <class T>
inline void pin_for_unwind(T& v) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  asm volatile("" : "+m"(v));
#else
  (void)v;
#endif
}

}  // namespace bddmin
