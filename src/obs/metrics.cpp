#include "obs/metrics.hpp"

namespace sma::obs {

Registry& Registry::global() {
  static Registry* instance = new Registry();  // leaked: outlives all threads
  return *instance;
}

Counter& Registry::counter(const std::string& name) {
  util::MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& Registry::histogram(const std::string& name) {
  util::MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

void Registry::reset() {
  util::MutexLock lock(mutex_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

Registry::Snapshot Registry::snapshot() const {
  Snapshot snap;
  util::MutexLock lock(mutex_);
  // std::map iterates in key order, which is the fixed aggregation order
  // the report determinism relies on.
  for (const auto& [name, c] : counters_) {
    snap.counters.emplace_back(name, c->value());
  }
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.count = h->count();
    hs.sum = h->sum();
    int top = 0;
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      if (h->bucket(b) > 0) top = b + 1;
    }
    hs.buckets.reserve(top);
    for (int b = 0; b < top; ++b) hs.buckets.push_back(h->bucket(b));
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

}  // namespace sma::obs
