// Metrics registry: named counters and fixed-bucket histograms.
//
// Instruments register by name on first use (the SMA_COUNT /
// SMA_HISTOGRAM macros in obs/obs.hpp hide a function-local static
// lookup, so the steady-state cost of a counter bump is one relaxed
// atomic add). Updates are wait-free; names registered once keep stable
// addresses for the registry's lifetime.
//
// Determinism of reports: registration *time* depends on which code path
// runs first (and, under a pool, on scheduling), so aggregation walks the
// metrics in a fixed order — lexicographic by name — which is the same in
// every run regardless of which thread touched a metric first. Metric
// values feed reports only; they never feed an algorithm or a cache
// digest, so counting cannot change a model, table or layout.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace sma::obs {

/// Monotonic u64 counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Fixed-bucket histogram. Bucket b counts observations in
/// [2^(b-1), 2^b) of the observed unit (bucket 0 is [0, 1)); the top
/// bucket is open-ended. Power-of-two bounds keep `observe` branch-free
/// (one bit-width computation) and make bucket edges identical across
/// runs.
class Histogram {
 public:
  static constexpr int kNumBuckets = 32;

  /// Bucket index for a value — exposed for tests and for reports.
  static int bucket_of(std::uint64_t value) {
    int b = 0;
    while (value > 0 && b < kNumBuckets - 1) {
      value >>= 1;
      ++b;
    }
    return b;
  }

  /// Lower edge (inclusive) of bucket `b`, in the observed unit.
  static std::uint64_t bucket_floor(int b) {
    return b == 0 ? 0 : std::uint64_t{1} << (b - 1);
  }

  void observe(std::uint64_t value) {
    buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  void reset() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Name -> metric registry. `global()` is the process-wide instance every
/// macro feeds; independent instances exist only for tests.
class Registry {
 public:
  static Registry& global();

  /// Find-or-create. The returned reference is valid for the registry's
  /// lifetime; repeated calls with one name return the same object.
  Counter& counter(const std::string& name) SMA_EXCLUDES(mutex_);
  Histogram& histogram(const std::string& name) SMA_EXCLUDES(mutex_);

  /// Zero every metric (run-scoped reports; registrations are kept).
  void reset() SMA_EXCLUDES(mutex_);

  /// Point-in-time copy, names in lexicographic order (see file comment).
  struct HistogramSnapshot {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::vector<std::uint64_t> buckets;  ///< trailing zero buckets trimmed
  };
  struct Snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<HistogramSnapshot> histograms;
  };
  Snapshot snapshot() const SMA_EXCLUDES(mutex_);

 private:
  /// Guards the maps, not the metric values (those are atomics updated
  /// lock-free through the references counter()/histogram() hand out).
  mutable util::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      SMA_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      SMA_GUARDED_BY(mutex_);
};

}  // namespace sma::obs
