#include "telemetry/trace.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <vector>

#include "analysis/thread_annotations.hpp"
#include "harness/env.hpp"

namespace bddmin::telemetry {
namespace {

using Clock = std::chrono::steady_clock;

struct TraceEvent {
  std::string name;
  const char* cat = "";
  char ph = 'X';
  std::uint64_t ts_ns = 0;   // relative to trace start
  std::uint64_t dur_ns = 0;  // X events only
};

struct OpenSpan {
  std::string name;
  const char* cat;
  std::uint64_t start_ns;
};

/// One thread's buffer.  The owning thread appends under the per-log
/// mutex; stop() takes the same mutex when merging, so a scope closing
/// concurrently with shutdown is never torn.  `tid` and `generation` are
/// written once by the creating thread before the log is published (under
/// Impl::mu) and immutable afterwards, so they need no guard.
struct ThreadLog {
  std::mutex mu;
  std::uint32_t tid = 0;
  std::uint64_t generation = 0;
  std::string thread_name BDDMIN_GUARDED_BY(mu);
  std::vector<TraceEvent> events BDDMIN_GUARDED_BY(mu);
  std::vector<OpenSpan> stack BDDMIN_GUARDED_BY(mu);
};

void json_escape(std::string* out, const std::string& s) {
  for (const char ch : s) {
    switch (ch) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", ch);
          *out += buf;
        } else {
          *out += ch;
        }
    }
  }
}

}  // namespace

struct Tracer::Impl {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadLog>> logs BDDMIN_GUARDED_BY(mu);
  std::uint32_t next_tid BDDMIN_GUARDED_BY(mu) = 1;
  std::string path BDDMIN_GUARDED_BY(mu);
  /// Bumped by start()/check_env() to invalidate thread-local cached logs.
  /// Atomic: log_for_this_thread() compares it on every traced event, on
  /// any thread, without taking `mu` — a plain field would race the bump.
  std::atomic<std::uint64_t> generation{0};
  /// Written by start()/check_env() before the tracer is published via the
  /// g_tracer release store; read unlocked by now_ns() on any thread after
  /// the matching acquire load.  Publication is the synchronization.
  Clock::time_point epoch{};

  std::shared_ptr<ThreadLog> log_for_this_thread() BDDMIN_EXCLUDES(mu) {
    thread_local std::shared_ptr<ThreadLog> cached;
    if (cached &&
        cached->generation == generation.load(std::memory_order_acquire)) {
      return cached;
    }
    auto fresh = std::make_shared<ThreadLog>();
    {
      const std::lock_guard<std::mutex> lock(mu);
      fresh->tid = next_tid++;
      fresh->generation = generation.load(std::memory_order_relaxed);
      logs.push_back(fresh);
    }
    cached = fresh;
    return fresh;
  }

  [[nodiscard]] std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch)
            .count());
  }
};

namespace detail {
std::atomic<Tracer*> g_tracer{nullptr};
std::atomic<bool> g_env_checked{false};
namespace {
std::mutex g_lifecycle_mu;  // serializes start/stop/env-check
}  // namespace

}  // namespace detail

Tracer* Tracer::singleton() {
  static Tracer* t = [] {
    auto* fresh = new Tracer();  // never destroyed: scopes may outlive stop()
    fresh->impl_ = new Tracer::Impl();
    return fresh;
  }();
  return t;
}

namespace detail {
Tracer* check_env() noexcept {
  const std::lock_guard<std::mutex> lock(g_lifecycle_mu);
  if (g_env_checked.load(std::memory_order_acquire)) {
    return g_tracer.load(std::memory_order_acquire);
  }
  Tracer* activated = nullptr;
  if (const auto path = harness::env_string("BDDMIN_TRACE");
      path && !path->empty()) {
    Tracer* t = Tracer::singleton();
    {
      const std::lock_guard<std::mutex> impl_lock(t->impl_->mu);
      t->impl_->path = *path;
    }
    t->impl_->epoch = Clock::now();
    t->impl_->generation.fetch_add(1, std::memory_order_release);
    g_tracer.store(t, std::memory_order_release);
    std::atexit([] { (void)Tracer::stop(); });
    activated = t;
  }
  g_env_checked.store(true, std::memory_order_release);
  return activated;
}
}  // namespace detail

bool Tracer::start(const std::string& path) {
  const std::lock_guard<std::mutex> lock(detail::g_lifecycle_mu);
  detail::g_env_checked.store(true, std::memory_order_release);  // env loses
  if (detail::g_tracer.load(std::memory_order_acquire) != nullptr) {
    return false;
  }
  Tracer* t = singleton();
  {
    const std::lock_guard<std::mutex> impl_lock(t->impl_->mu);
    t->impl_->path = path;
    t->impl_->logs.clear();
    t->impl_->next_tid = 1;
  }
  t->impl_->epoch = Clock::now();
  // Invalidates thread-local cached logs (paired with the acquire load in
  // log_for_this_thread).
  t->impl_->generation.fetch_add(1, std::memory_order_release);
  detail::g_tracer.store(t, std::memory_order_release);
  return true;
}

std::string Tracer::stop() {
  const std::lock_guard<std::mutex> lock(detail::g_lifecycle_mu);
  Tracer* t = detail::g_tracer.exchange(nullptr, std::memory_order_acq_rel);
  if (t == nullptr) return "";
  Impl& impl = *t->impl_;
  std::vector<std::shared_ptr<ThreadLog>> logs;
  std::string path;
  std::uint64_t end_ns = 0;
  {
    const std::lock_guard<std::mutex> impl_lock(impl.mu);
    logs = impl.logs;
    path = impl.path;
    end_ns = impl.now_ns();
  }

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[64];
  const auto emit = [&](const std::string& body) {
    if (!first) out += ',';
    first = false;
    out += body;
  };
  for (const auto& log : logs) {
    const std::lock_guard<std::mutex> log_lock(log->mu);
    if (!log->thread_name.empty()) {
      std::string body = "{\"ph\":\"M\",\"pid\":1,\"tid\":";
      body += std::to_string(log->tid);
      body += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
      json_escape(&body, log->thread_name);
      body += "\"}}";
      emit(body);
    }
    // Close any span still open at shutdown so the file stays well formed.
    while (!log->stack.empty()) {
      const OpenSpan& open = log->stack.back();
      TraceEvent ev;
      ev.name = open.name;
      ev.cat = open.cat;
      ev.ts_ns = open.start_ns;
      ev.dur_ns = end_ns > open.start_ns ? end_ns - open.start_ns : 0;
      log->events.push_back(std::move(ev));
      log->stack.pop_back();
    }
    for (const TraceEvent& ev : log->events) {
      std::string body = "{\"ph\":\"";
      body += ev.ph;
      body += "\",\"pid\":1,\"tid\":";
      body += std::to_string(log->tid);
      std::snprintf(buf, sizeof buf, ",\"ts\":%.3f",
                    static_cast<double>(ev.ts_ns) / 1000.0);
      body += buf;
      if (ev.ph == 'X') {
        std::snprintf(buf, sizeof buf, ",\"dur\":%.3f",
                      static_cast<double>(ev.dur_ns) / 1000.0);
        body += buf;
      }
      if (ev.ph == 'i') body += ",\"s\":\"t\"";
      body += ",\"cat\":\"";
      json_escape(&body, ev.cat);
      body += "\",\"name\":\"";
      json_escape(&body, ev.name);
      body += "\"}";
      emit(body);
    }
    log->events.clear();
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  {
    const std::lock_guard<std::mutex> impl_lock(impl.mu);
    impl.logs.clear();
  }

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "telemetry: cannot write trace file %s\n",
                 path.c_str());
    return "";
  }
  std::fwrite(out.data(), 1, out.size(), f);
  std::fclose(f);
  return path;
}

void Tracer::set_thread_name(const std::string& name) {
  Tracer* t = active();
  if (t == nullptr) return;
  const auto log = t->impl_->log_for_this_thread();
  const std::lock_guard<std::mutex> lock(log->mu);
  log->thread_name = name;
}

void Tracer::begin(std::string name, const char* cat) {
  const auto log = impl_->log_for_this_thread();
  const std::lock_guard<std::mutex> lock(log->mu);
  log->stack.push_back(OpenSpan{std::move(name), cat, impl_->now_ns()});
}

void Tracer::end() {
  const auto log = impl_->log_for_this_thread();
  const std::lock_guard<std::mutex> lock(log->mu);
  if (log->stack.empty()) return;  // stop() already closed it
  OpenSpan open = std::move(log->stack.back());
  log->stack.pop_back();
  const std::uint64_t now = impl_->now_ns();
  TraceEvent ev;
  ev.name = std::move(open.name);
  ev.cat = open.cat;
  ev.ts_ns = open.start_ns;
  ev.dur_ns = now > open.start_ns ? now - open.start_ns : 0;
  log->events.push_back(std::move(ev));
}

void Tracer::instant(std::string name, const char* cat) {
  const auto log = impl_->log_for_this_thread();
  const std::lock_guard<std::mutex> lock(log->mu);
  TraceEvent ev;
  ev.name = std::move(name);
  ev.cat = cat;
  ev.ph = 'i';
  ev.ts_ns = impl_->now_ns();
  log->events.push_back(std::move(ev));
}

}  // namespace bddmin::telemetry
