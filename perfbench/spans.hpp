// In-memory span tracing for the benchmark, recorded from the benchmark's
// own code around each call into a layer of the program. Spans carry a
// name, start, end, the span that caused them and, for serve requests, a
// request id shared by every span of the request. They stay in memory and
// are written out when the benchmark ends.
#pragma once

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Interval = std::pair<double, double>;

struct Span {
  int id = -1;
  int parent = -1;    ///< -1 for a root span
  long request = -1;  ///< serve request id, -1 outside the serve phase
  std::string name;
  double start = 0.0;  ///< seconds since the tracer's epoch
  double end = 0.0;
};

/// Thread-safe span store. A disabled tracer records nothing, so the same
/// code path serves traced and untraced runs.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  double seconds_at(Clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }
  double now() const { return seconds_at(Clock::now()); }

  /// Open a span; returns its id (-1 when disabled).
  int begin(std::string name, int parent, long request = -1) {
    return add(std::move(name), parent, request, now(), -1.0);
  }

  void end(int id) {
    if (id < 0) return;
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }

  /// Record a span whose bounds were measured by the caller.
  int add(std::string name, int parent, long request, double start,
          double end) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{id, parent, request, std::move(name), start, end});
    return id;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // index == Span::id
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, int parent, long request = -1)
      : tracer_(tracer), id_(tracer.begin(std::move(name), parent, request)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  const int id_;
};

/// Length covered by `intervals`, overlaps counted once.
inline double covered_seconds(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double run_start = 0.0;
  double run_end = -std::numeric_limits<double>::infinity();
  for (const Interval& iv : intervals) {
    if (iv.first > run_end) {
      if (run_end > run_start) total += run_end - run_start;
      run_start = iv.first;
      run_end = iv.second;
    } else {
      run_end = std::max(run_end, iv.second);
    }
  }
  if (run_end > run_start) total += run_end - run_start;
  return total;
}

struct SpanTotals {
  long count = 0;
  double total = 0.0;  ///< summed durations
  double self = 0.0;   ///< summed durations minus what direct children cover
};

inline std::map<std::string, SpanTotals> summarize(
    const std::vector<Span>& spans) {
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::map<std::string, SpanTotals> out;
  for (const Span& s : spans) {
    std::vector<Interval>& kids = children[static_cast<std::size_t>(s.id)];
    for (Interval& k : kids) {
      k.first = std::clamp(k.first, s.start, s.end);
      k.second = std::clamp(k.second, s.start, s.end);
    }
    SpanTotals& t = out[s.name];
    ++t.count;
    t.total += s.end - s.start;
    t.self += (s.end - s.start) - covered_seconds(kids);
  }
  return out;
}

/// Seconds of [start, end] during which some span named in `names` ran.
inline double covered_by(const std::vector<Span>& spans,
                         const std::vector<std::string>& names, double start,
                         double end) {
  std::vector<Interval> intervals;
  for (const Span& s : spans) {
    if (std::find(names.begin(), names.end(), s.name) == names.end()) continue;
    intervals.emplace_back(std::clamp(s.start, start, end),
                           std::clamp(s.end, start, end));
  }
  return covered_seconds(std::move(intervals));
}

inline void write_spans_json(std::ostream& out,
                             const std::vector<Span>& spans) {
  out.precision(9);
  out << "{\"summary\": {";
  bool first = true;
  for (const auto& [name, t] : summarize(spans)) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"count\": " << t.count
        << ", \"total_s\": " << t.total << ", \"self_s\": " << t.self << "}";
    first = false;
  }
  out << "},\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i == 0 ? "" : ",\n") << "{\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"name\": \"" << s.name << "\", \"start_s\": " << s.start
        << ", \"end_s\": " << s.end << "}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
