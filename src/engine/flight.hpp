/// \file flight.hpp
/// \brief Per-worker flight recorder: a fixed ring of scheduler events.
///
/// Counters say how often things happened and the utilization table
/// says where each worker's time went, but when a job is quarantined or
/// a failpoint kills the process, the question is *what was this worker
/// doing just now* — and by then the trace (if any) is unwritten and the
/// window for attaching a debugger is gone.  The flight recorder answers
/// it the way avionics do: each worker keeps the last kCapacity scheduler
/// events (job start/finish, steal, retry, quarantine, failpoint fire) in
/// a fixed ring it alone writes, and the ring is dumped — to stderr, and
/// next to the journal when one is configured — when:
///
///  * a job's final outcome is quarantine (the worker dumps its own ring),
///  * a failpoint fires fatally (`flight_fatal_dump()` runs on the dying
///    thread before `_Exit`, via the thread-local registration below), or
///  * `BDDMIN_FLIGHT_DUMP=1` (every ring, after the workers join).
///
/// Recording is a handful of stores into a preallocated array — no
/// locks, no allocation — so it stays on even in production runs.  The
/// ring is single-writer (its worker); cross-thread reads happen only
/// after the worker joined (env dump) or never (self dumps), so no
/// atomics are needed.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace bddmin::engine {

/// Scheduler event classes the recorder distinguishes.
enum class FlightEventType : std::uint8_t {
  kJobStart,    ///< attempt began (code = attempt number)
  kJobFinish,   ///< attempt ended (code = JobStatus of the attempt)
  kSteal,       ///< job obtained from another worker's deque
  kRetry,       ///< attempt failed and will be retried (code = JobStatus)
  kQuarantine,  ///< final outcome quarantined (code = attempts used)
  kFailpoint,   ///< an armed failpoint fired on this worker
};

[[nodiscard]] const char* flight_event_name(FlightEventType t) noexcept;

/// One recorded event.  16 bytes; the ring is a flat array of these.
struct FlightEvent {
  std::uint64_t ts_ns = 0;    ///< steady-clock ns (process-relative)
  std::uint32_t job = 0;      ///< job index within the batch
  std::uint16_t attempt = 0;  ///< 1-based attempt, 0 when not applicable
  FlightEventType type = FlightEventType::kJobStart;
  std::uint8_t code = 0;      ///< type-dependent detail (see enum docs)
};

/// Fixed ring of the last kCapacity events.  Single writer (the owning
/// worker); see the file docs for the read model.
class FlightRecorder {
 public:
  static constexpr std::size_t kCapacity = 64;

  void record(FlightEventType type, std::uint32_t job, std::uint16_t attempt,
              std::uint8_t code) noexcept;

  [[nodiscard]] std::uint64_t total_recorded() const noexcept {
    return total_;
  }

  /// Append a human-readable dump (chronological, timestamps relative to
  /// the oldest retained event) to \p out.  \p worker and \p reason
  /// label the header line.
  void dump(std::string* out, unsigned worker, const char* reason) const;

 private:
  std::array<FlightEvent, kCapacity> ring_{};
  std::uint64_t total_ = 0;  ///< events ever recorded; ring_[total_ % cap]
};

/// Write \p text to stderr and, when \p path is non-empty, append it to
/// that file (creating it if needed).  Emits a "flight_dump" trace
/// instant so trace readers can correlate.
void flight_write_dump(const std::string& text, const std::string& path);

/// Register the calling thread's recorder so a fatal failpoint deep in
/// the stack (journal commit, for instance) can dump it before _Exit.
/// Pass nullptr to deregister (workers do, before returning).  The
/// \p dump_path string must outlive the registration.
void set_thread_flight_recorder(FlightRecorder* rec, unsigned worker,
                                const std::string* dump_path) noexcept;

/// Dump the calling thread's registered recorder (no-op when none),
/// labelled with \p reason.  Called on the fatal-failpoint path; must
/// not allocate after the dump text is built — it writes and returns.
void flight_fatal_dump(const char* reason);

}  // namespace bddmin::engine
