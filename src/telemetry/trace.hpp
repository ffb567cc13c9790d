/// \file trace.hpp
/// \brief Span tracer emitting Chrome `trace_event` JSON.
///
/// Activation: set `BDDMIN_TRACE=<file>` in the environment before the
/// first traced scope (the file is written at process exit), or call
/// `Tracer::start(path)` / `Tracer::stop()` explicitly (tests, tools).
/// When inactive, every scope costs one relaxed atomic load and a
/// predicted branch — cheap enough for the coarse sites we instrument
/// (jobs, heuristics, window passes; never per-node recursions).
///
/// Thread model: each thread appends to its own buffer (registered with
/// the tracer on first use and assigned a sequential display tid), so
/// `run_batch` workers render as separate tracks in Chrome's
/// `chrome://tracing` / Perfetto.  RAII scopes guarantee the emitted
/// complete ("X") events are strictly nested per track; work-steal
/// events are instants ("i").  `stop()` merges the buffers and writes
/// `{"traceEvents":[...]}`; it must not race open scopes on other
/// threads (the engine joins its workers first; the env-var path writes
/// from an atexit handler).
#pragma once

#include <atomic>
#include <string>
#include <utility>

namespace bddmin::telemetry {

class Tracer;

namespace detail {
extern std::atomic<Tracer*> g_tracer;          // non-null while active
extern std::atomic<bool> g_env_checked;        // BDDMIN_TRACE consulted?
[[nodiscard]] Tracer* check_env() noexcept;    // consult once, maybe start
}  // namespace detail

class Tracer {
 public:
  /// The active tracer, or nullptr.  First call consults BDDMIN_TRACE.
  [[nodiscard]] static Tracer* active() noexcept {
    Tracer* t = detail::g_tracer.load(std::memory_order_acquire);
    if (t != nullptr) return t;
    if (!detail::g_env_checked.load(std::memory_order_acquire)) {
      return detail::check_env();
    }
    return nullptr;
  }

  /// Start tracing into \p path.  Returns false (and changes nothing) if
  /// a trace is already active.
  static bool start(const std::string& path);
  /// Deactivate, merge all thread buffers and write the JSON file.
  /// Returns the path written, or "" if no trace was active or the file
  /// could not be written.  Callers must ensure no other thread still has
  /// scopes open (join workers first).
  static std::string stop();
  /// Name the calling thread's track (Chrome thread_name metadata).
  /// No-op when inactive.
  static void set_thread_name(const std::string& name);

  // Event recording (call through TraceScope / trace_instant).
  void begin(std::string name, const char* cat);
  void end();
  void instant(std::string name, const char* cat);

 private:
  Tracer() = default;
  static Tracer* singleton();
  struct Impl;
  Impl* impl_ = nullptr;
  friend Tracer* detail::check_env() noexcept;
};

/// RAII span: emits one complete ("X") event on the calling thread's
/// track.  Strict nesting follows from scope nesting.
///
/// Must be bound to a named local: `TraceScope s("x", "y");`.  A discarded
/// temporary (`TraceScope("x", "y");`) closes the span immediately and
/// records a zero-length event — lint rule R5 (tools/bddmin_lint.py)
/// rejects that form.
class TraceScope {
 public:
  TraceScope(const char* name, const char* cat) {
    if ((t_ = Tracer::active()) != nullptr) t_->begin(name, cat);
  }
  TraceScope(std::string name, const char* cat) {
    if ((t_ = Tracer::active()) != nullptr) t_->begin(std::move(name), cat);
  }
  ~TraceScope() {
    if (t_ != nullptr) t_->end();
  }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Tracer* t_ = nullptr;
};

/// Zero-duration instant event (e.g. a work-steal).
inline void trace_instant(const char* name, const char* cat) {
  if (Tracer* t = Tracer::active()) t->instant(name, cat);
}

}  // namespace bddmin::telemetry
