#include "serve/serve_loop.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/obs.hpp"

namespace sma::serve {

ServeLoop::ServeLoop(attack::DlAttack& attack, ServeConfig config)
    : attack_(&attack), config_(config) {
  if (config_.max_batch < 1) {
    throw std::invalid_argument("ServeLoop: max_batch must be >= 1");
  }
  if (config_.dispatchers < 1) {
    throw std::invalid_argument("ServeLoop: dispatchers must be >= 1");
  }
  dispatchers_.reserve(static_cast<std::size_t>(config_.dispatchers));
  for (int i = 0; i < config_.dispatchers; ++i) {
    dispatchers_.emplace_back([this] { dispatcher_main(); });
  }
}

ServeLoop::~ServeLoop() { shutdown(); }

void ServeLoop::shutdown() {
  {
    util::MutexLock lock(mutex_);
    closed_ = true;
  }
  arrivals_.notify_all();
  for (std::thread& t : dispatchers_) {
    if (t.joinable()) t.join();
  }
}

ServeStats ServeLoop::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

attack::Selection ServeLoop::submit(const attack::QueryDataset& dataset,
                                    std::size_t query) {
  const split::SinkQuery& q = dataset.query(query);
  Request req;
  req.ref = {&dataset, query};
  req.enqueue_us = obs::now_us();
  {
    util::MutexLock lock(mutex_);
    // One batch stacks every request into a single [planes, C, H, W]
    // tensor, so all served datasets must agree on image geometry. The
    // first dataset fixes the fleet's shape.
    if (first_dataset_ == nullptr) first_dataset_ = &dataset;
    if (!attack::same_image_geometry(dataset.config(),
                                     first_dataset_->config())) {
      throw std::invalid_argument(
          "ServeLoop: dataset image geometry differs from the serving "
          "fleet's (set by the first dataset served)");
    }
    if (closed_) {
      throw std::runtime_error("ServeLoop::submit after shutdown");
    }
    ++stats_.submitted;
    if (q.candidates.empty()) {
      // The attack()-path no-op choice; never worth a queue round-trip.
      ++stats_.empty;
      req.result.sink_fragment = q.sink_fragment;
      req.result.num_sinks = q.num_sinks;
      return req.result;
    }
    queue_.push_back(&req);
    stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
    SMA_HISTOGRAM("serve.queue_depth", queue_.size());
  }
  arrivals_.notify_all();
  {
    util::MutexLock lock(mutex_);
    while (!req.done) completions_.wait(lock);
  }
  if (!req.error.empty()) throw std::runtime_error(req.error);
  return req.result;
}

void ServeLoop::dispatcher_main() {
  std::vector<Request*> batch;
  BatchBuffers buffers;
  while (true) {
    batch.clear();
    {
      util::MutexLock lock(mutex_);
      while (queue_.empty() && !closed_) arrivals_.wait(lock);
      if (queue_.empty()) return;  // closed and drained
      if (static_cast<int>(queue_.size()) < config_.max_batch &&
          config_.max_wait_us > 0 && !closed_) {
        // Latency budget: hold what we have and wait out the budget for
        // more arrivals, so bursts coalesce into wide batches. The
        // deadline bounds only this wait; wall-clock time never feeds a
        // model, table, or layout.
        const auto deadline =  // sma-lint: allow(entropy) cv deadline only
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(config_.max_wait_us);
        while (static_cast<int>(queue_.size()) < config_.max_batch &&
               !closed_) {
          if (arrivals_.wait_until(lock, deadline) ==
              std::cv_status::timeout) {
            break;
          }
        }
      }
      // Another dispatcher may have drained the queue while we waited.
      const std::size_t take = std::min<std::size_t>(
          queue_.size(), static_cast<std::size_t>(config_.max_batch));
      for (std::size_t k = 0; k < take; ++k) {
        batch.push_back(queue_.front());
        queue_.pop_front();
      }
      if (!batch.empty()) {
        ++stats_.batches;
        stats_.max_batch_seen = std::max(stats_.max_batch_seen, batch.size());
      }
    }
    if (batch.empty()) continue;

    SMA_HISTOGRAM("serve.batch_width", batch.size());
    const double taken_us = obs::now_us();
    for (const Request* r : batch) {
      SMA_HISTOGRAM("serve.queue_wait_us",
                    static_cast<std::uint64_t>(
                        std::max(0.0, taken_us - r->enqueue_us)));
    }
    process_batch(batch, buffers);
    {
      util::MutexLock lock(mutex_);
      for (Request* r : batch) {
        if (r->error.empty()) {
          ++stats_.answered;
        } else {
          ++stats_.failed;
        }
        r->done = true;
      }
    }
    completions_.notify_all();
  }
}

void ServeLoop::process_batch(std::vector<Request*>& batch,
                              BatchBuffers& buffers) {
  SMA_TRACE_SPAN_V("serve", "batch", batch.size());
  buffers.refs.clear();
  for (const Request* r : batch) buffers.refs.push_back(r->ref);
  buffers.selections.assign(batch.size(), attack::Selection{});
  try {
    // One replica per pass. Assembly only reads the (immutable) datasets.
    attack::ReplicaLease lease = attack_->replicas().lease(1, attack_->net());
    attack::select_batch(*lease.nets()[0], buffers.refs.data(),
                         buffers.refs.size(), buffers.input,
                         buffers.selections.data());
    for (std::size_t k = 0; k < batch.size(); ++k) {
      batch[k]->result = buffers.selections[k];
    }
  } catch (const std::exception& e) {
    for (Request* r : batch) r->error = e.what();
  }
}

}  // namespace sma::serve
