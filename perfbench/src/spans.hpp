/// \file spans.hpp
/// \brief In-memory span recorder for the traced runs.
///
/// Spans are opened and closed around calls into the library from the
/// benchmark's own code; each records its name, start, end and the span
/// that was open when it started (its parent).  A layer's self time is
/// its spans' durations minus the parts their child spans cover.  Spans
/// stay in memory during a pass and are written out after it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Spans written to a run's trace file; the rest stay in memory only
/// (a traced batch_small replay records over a million).
inline constexpr std::size_t kWrittenSpans = 200000;

class Spans {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNoParent;
    Clock::time_point start;
    Clock::time_point end;
  };

  /// Id for \p name; call once per name before the timed section.
  std::uint32_t intern(const std::string& name) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  std::uint32_t open(std::uint32_t name) {
    spans_.push_back({name, current_, Clock::now(), {}});
    current_ = static_cast<std::uint32_t>(spans_.size() - 1);
    return current_;
  }
  void close(std::uint32_t index) {
    Span& s = spans_[index];
    s.end = Clock::now();
    current_ = s.parent;
  }

  /// Self seconds per span name, summed over all recorded spans.
  [[nodiscard]] std::map<std::string, double> self_seconds() const {
    std::vector<double> self(names_.size(), 0.0);
    for (const Span& s : spans_) {
      const double d = std::chrono::duration<double>(s.end - s.start).count();
      self[s.name] += d;
      if (s.parent != kNoParent) self[spans_[s.parent].name] -= d;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < names_.size(); ++i) out[names_[i]] = self[i];
    return out;
  }

  /// Chrome trace_event JSON ("X" events, microseconds from the first
  /// span) of the first \p max_spans spans; loadable in chrome://tracing
  /// or Perfetto.
  [[nodiscard]] std::string chrome_json(std::size_t max_spans) const;

  void clear() {
    spans_.clear();
    current_ = kNoParent;
  }

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::uint32_t current_ = kNoParent;
};

/// RAII span: open on construction, close on destruction (also when the
/// traced call throws).
class Scope {
 public:
  Scope(Spans& spans, std::uint32_t name)
      : spans_(spans), index_(spans.open(name)) {}
  ~Scope() { spans_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  std::uint32_t index_;
};

}  // namespace perfbench
