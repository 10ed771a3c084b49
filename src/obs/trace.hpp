// Span tracing with Chrome-trace / Perfetto export.
//
// Spans are recorded through RAII guards (see the SMA_TRACE_SPAN macros in
// obs/obs.hpp) into lock-free per-thread ring buffers: each thread owns one
// buffer and is its only writer, so the hot path is a steady_clock read at
// span open and one ring slot write (plus a release store of the count) at
// span close — no locks, no allocation once the ring exists. Buffers are
// epoch-stamped like the router's loaned scratch: enabling tracing bumps a
// session epoch, and export only reads events of the current epoch, so
// stale events from a previous session never need clearing.
//
// Tracing is observation only. It reads clocks and writes to its own
// buffers; it never feeds an algorithm, a cache digest, or an RNG, so
// models, tables, and layouts are byte-identical with tracing enabled or
// disabled (tests/test_obs.cpp gates this).
//
// Export is the Chrome trace-event JSON format ("X" complete events):
// open the file at chrome://tracing or https://ui.perfetto.dev. Flush at a
// quiescent point (after pool work joined) — a thread mid-write during an
// export can at worst contribute one torn event to the *report*, never to
// the traced computation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace sma::obs {

/// Sentinel for "span carries no argument".
inline constexpr std::int64_t kNoArg = INT64_MIN;

/// One finished span, as exported. `ts_us`/`dur_us` are microseconds on
/// the process-wide steady clock; `tid` is util::thread_ordinal().
struct TraceEvent {
  const char* cat = nullptr;
  const char* name = nullptr;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;
  std::int64_t arg = kNoArg;
};

/// Microseconds since process start on the steady clock.
double now_us();

/// Runtime switch. Enabling starts a new trace session (bumps the epoch —
/// previously recorded events are no longer exported); disabling freezes
/// the current session, whose events remain exportable.
void set_tracing_enabled(bool enabled);
bool tracing_enabled();

/// Events per thread ring. A full ring wraps, overwriting the oldest
/// events of the thread and counting the loss in `dropped_events()`.
inline constexpr std::size_t kRingCapacity = std::size_t{1} << 16;

/// Record one complete span. Normally called by SpanGuard, not directly.
void record_span(const char* cat, const char* name, double ts_us,
                 double dur_us, std::int64_t arg = kNoArg);

/// Events of the current session across all threads, in timestamp order.
/// The structured form the tests assert on; the JSON export serializes it.
std::vector<TraceEvent> collect_events();

/// Events lost to ring wrap-around in the current session.
std::uint64_t dropped_events();

/// Write the current session as Chrome trace-event JSON.
void write_chrome_trace(std::ostream& out);
std::string chrome_trace_json();

/// Write `s` as a quoted JSON string: quotes and backslashes escaped,
/// control characters as \n, \r, \t or \u00XX. The repo's one JSON
/// string escaper: the trace export, the run report and the benches'
/// design lists use it.
void write_json_string(std::ostream& out, std::string_view s);

/// Intern a dynamic string (e.g. a design name) so it can be used as a
/// span name/category, which must outlive the trace session. Interned
/// strings live for the process lifetime; intended for a bounded set of
/// names, not per-event payloads.
const char* intern(const std::string& s);

/// RAII span: captures the start time at construction when tracing is
/// enabled (one relaxed atomic load otherwise) and records a complete
/// event at destruction. Use via SMA_TRACE_SPAN.
class SpanGuard {
 public:
  SpanGuard(const char* cat, const char* name, std::int64_t arg = kNoArg) {
    if (tracing_enabled()) {
      cat_ = cat;
      name_ = name;
      arg_ = arg;
      start_us_ = now_us();
    }
  }
  ~SpanGuard() {
    if (cat_ != nullptr) {
      record_span(cat_, name_, start_us_, now_us() - start_us_, arg_);
    }
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  const char* cat_ = nullptr;
  const char* name_ = nullptr;
  std::int64_t arg_ = kNoArg;
  double start_us_ = 0.0;
};

/// A stopwatch that doubles as a span: always measures wall time (so
/// callers can keep feeding existing timing fields, e.g. Design::timings)
/// and additionally records a trace span when tracing is enabled. This is
/// the migration path for hand-rolled phase timers: the measurement stays
/// with tracing off, only the trace record is skipped.
class TimedSpan {
 public:
  TimedSpan(const char* cat, const char* name, std::int64_t arg = kNoArg)
      : cat_(cat), name_(name), arg_(arg), start_us_(now_us()) {}
  ~TimedSpan() { stop(); }
  TimedSpan(const TimedSpan&) = delete;
  TimedSpan& operator=(const TimedSpan&) = delete;

  /// Stop (idempotent) and return elapsed seconds. Records the span on
  /// the first call if tracing is enabled.
  double stop();

  /// Elapsed seconds so far (or the final time once stopped).
  double seconds() const;

 private:
  const char* cat_;
  const char* name_;
  std::int64_t arg_;
  double start_us_;
  double stopped_us_ = -1.0;
};

}  // namespace sma::obs
