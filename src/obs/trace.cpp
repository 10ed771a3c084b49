#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iomanip>
#include <memory>
#include <ostream>
#include <sstream>
#include <unordered_set>

#include "util/logging.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace sma::obs {

namespace {

/// One event slot in a thread's ring. Epoch-stamped: export filters on the
/// session epoch instead of anyone ever clearing the ring.
struct Slot {
  TraceEvent event;
  std::uint32_t epoch = 0;
};

/// Per-thread ring buffer. The owning thread is the only writer; readers
/// (export) take an acquire snapshot of `count` and walk the last
/// min(count, capacity) slots. Export at quiescent points sees fully
/// published events; a concurrently writing thread can at worst tear one
/// in-flight slot of the *report* — the traced computation is untouched.
struct ThreadBuffer {
  explicit ThreadBuffer(int tid_in) : tid(tid_in), ring(kRingCapacity) {}

  int tid;
  std::vector<Slot> ring;
  std::atomic<std::uint64_t> count{0};  ///< events ever written
};

struct Tracer {
  std::atomic<bool> enabled{false};
  std::atomic<std::uint32_t> epoch{0};
  /// Events written to a full ring in the current session, per epoch —
  /// approximated by summing per-buffer overflow at collect time.
  util::Mutex mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers SMA_GUARDED_BY(mutex);
  /// Lookup/insert only — iteration order never escapes, so the set
  /// being unordered cannot leak into any output.
  std::unordered_set<std::string> interned SMA_GUARDED_BY(mutex);
};

Tracer& tracer() {
  static Tracer* instance = new Tracer();  // leaked: threads may outlive main
  return *instance;
}

ThreadBuffer& local_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    Tracer& t = tracer();
    auto created = std::make_shared<ThreadBuffer>(util::thread_ordinal());
    util::MutexLock lock(t.mutex);
    t.buffers.push_back(created);
    return created;
  }();
  return *buffer;
}

const std::chrono::steady_clock::time_point kProcessStart =
    std::chrono::steady_clock::now();

}  // namespace

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - kProcessStart)
      .count();
}

void set_tracing_enabled(bool enabled) {
  Tracer& t = tracer();
  if (enabled && !t.enabled.load(std::memory_order_relaxed)) {
    // New session: events recorded before this instant carry an older
    // epoch and silently drop out of every export.
    t.epoch.fetch_add(1, std::memory_order_relaxed);
  }
  t.enabled.store(enabled, std::memory_order_release);
}

bool tracing_enabled() {
  return tracer().enabled.load(std::memory_order_relaxed);
}

void record_span(const char* cat, const char* name, double ts_us,
                 double dur_us, std::int64_t arg) {
  Tracer& t = tracer();
  if (!t.enabled.load(std::memory_order_relaxed)) return;
  ThreadBuffer& buffer = local_buffer();
  const std::uint64_t n = buffer.count.load(std::memory_order_relaxed);
  Slot& slot = buffer.ring[n % buffer.ring.size()];
  slot.event = {cat, name, ts_us, dur_us, buffer.tid, arg};
  slot.epoch = t.epoch.load(std::memory_order_relaxed);
  buffer.count.store(n + 1, std::memory_order_release);
}

std::vector<TraceEvent> collect_events() {
  Tracer& t = tracer();
  const std::uint32_t epoch = t.epoch.load(std::memory_order_relaxed);
  std::vector<TraceEvent> events;
  util::MutexLock lock(t.mutex);
  for (const auto& buffer : t.buffers) {
    const std::uint64_t n = buffer->count.load(std::memory_order_acquire);
    const std::uint64_t live = std::min<std::uint64_t>(n, buffer->ring.size());
    for (std::uint64_t i = n - live; i < n; ++i) {
      const Slot& slot = buffer->ring[i % buffer->ring.size()];
      if (slot.epoch == epoch) events.push_back(slot.event);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  return events;
}

std::uint64_t dropped_events() {
  Tracer& t = tracer();
  std::uint64_t dropped = 0;
  util::MutexLock lock(t.mutex);
  for (const auto& buffer : t.buffers) {
    const std::uint64_t n = buffer->count.load(std::memory_order_acquire);
    if (n > buffer->ring.size()) dropped += n - buffer->ring.size();
  }
  return dropped;
}

void write_json_string(std::ostream& out, std::string_view s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out << buf;
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

void write_chrome_trace(std::ostream& out) {
  const std::vector<TraceEvent> events = collect_events();
  // Microseconds to the nanosecond, whatever the stream's own format: the
  // default 6 significant digits would round a timestamp one second into
  // the session to 10 us, coarser than the spans it places.
  const std::ios_base::fmtflags flags = out.flags();
  const std::streamsize precision = out.precision();
  out << std::fixed << std::setprecision(3);
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& e : events) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\": ";
    write_json_string(out, e.name);
    out << ", \"cat\": ";
    write_json_string(out, e.cat);
    out << ", \"ph\": \"X\", \"ts\": " << e.ts_us << ", \"dur\": " << e.dur_us
        << ", \"pid\": 1, \"tid\": " << e.tid;
    if (e.arg != kNoArg) {
      out << ", \"args\": {\"value\": " << e.arg << "}";
    }
    out << "}";
  }
  out << "], \"displayTimeUnit\": \"ms\", \"otherData\": {\"dropped_events\": "
      << dropped_events() << "}}";
  out.flags(flags);
  out.precision(precision);
}

std::string chrome_trace_json() {
  std::ostringstream out;
  write_chrome_trace(out);
  return out.str();
}

const char* intern(const std::string& s) {
  Tracer& t = tracer();
  util::MutexLock lock(t.mutex);
  return t.interned.insert(s).first->c_str();
}

double TimedSpan::stop() {
  if (stopped_us_ < 0.0) {
    stopped_us_ = now_us();
    // The measurement always happens (callers feed Design::timings); only
    // the trace record depends on tracing being enabled.
    if (tracing_enabled()) {
      record_span(cat_, name_, start_us_, stopped_us_ - start_us_, arg_);
    }
  }
  return (stopped_us_ - start_us_) * 1e-6;
}

double TimedSpan::seconds() const {
  const double end_us = stopped_us_ < 0.0 ? now_us() : stopped_us_;
  return (end_us - start_us_) * 1e-6;
}

}  // namespace sma::obs
