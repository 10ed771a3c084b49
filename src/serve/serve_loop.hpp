// Coalescing attack-serving front end (ROADMAP "batched cross-query
// inference engine + attack-serving front end").
//
// `attack()` batches queries it already holds; a serving tier faces the
// opposite shape: many concurrent callers, one query each. ServeLoop
// bridges them — callers `submit()` single queries and block; dispatcher
// threads coalesce whatever is queued into one `attack::select_batch`
// call (one stacked forward pass, possibly across datasets) under a
// latency budget (take up to `max_batch` requests, waiting at most
// `max_wait_us` once at least one is held). Each pass runs on ONE replica
// leased from the attack's ReplicaSet; a lease never waits, and the loop
// holds at most one replica per dispatcher at a time.
//
// Determinism contract: per-query scores are byte-identical to a direct
// batch-1 `attack()` no matter how requests coalesce (the AttackNet
// forward contract — accumulation order is per-query), so batch composition,
// dispatcher count, and arrival timing never change any answer. Only
// latency and throughput are timing-dependent. Shutdown is deterministic
// too: every request enqueued before `shutdown()` is answered, then the
// dispatchers exit; later submits throw.
//
// Concurrency (PR-9 conventions): one annotated util::Mutex guards the
// queue/stats; waits are explicit loops with fixed deadlines. Requests
// live on their submitter's stack — the submitter blocks until `done`,
// so the pointers queued here stay valid. Datasets are immutable once
// constructed, so dispatchers assemble batches from them concurrently
// without any registration; `submit` only checks each dataset's image
// geometry against the first-served dataset's, since one batch stacks
// every request into a single image tensor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "attack/attack_result.hpp"
#include "attack/dataset.hpp"
#include "attack/dl_attack.hpp"
#include "nn/attack_net.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace sma::serve {

struct ServeConfig {
  /// Most requests one dispatch pass coalesces into a single wide
  /// forward (the knee of BENCH_serve.json's queries/sec curve is the
  /// economical setting).
  int max_batch = 16;
  /// Latency budget: once a dispatcher holds at least one request, how
  /// long it waits for more arrivals before dispatching a partial batch.
  /// 0 dispatches whatever is queued immediately.
  std::int64_t max_wait_us = 500;
  /// Dispatcher threads draining the queue. Each leases one replica per
  /// batch.
  int dispatchers = 1;
};

/// Lifecycle counters, snapshot via ServeLoop::stats(). Latency and width
/// distributions go to the metrics registry instead (histograms
/// serve.batch_width, serve.queue_depth, serve.queue_wait_us — in every
/// sma-run-report-v1 metrics section alongside replica.lease_held_us).
struct ServeStats {
  long submitted = 0;      ///< submit() calls accepted
  long answered = 0;       ///< requests completed with a selection
  long failed = 0;         ///< requests completed with an error
  long empty = 0;          ///< empty-candidate queries answered inline
  long batches = 0;        ///< dispatch passes (including failed ones)
  std::size_t max_batch_seen = 0;   ///< widest coalesced batch
  std::size_t max_queue_depth = 0;  ///< deepest backlog at enqueue
};

class ServeLoop {
 public:
  /// Serves `attack`'s model. The attack (and every dataset later
  /// submitted) must outlive this loop. Dispatchers start immediately.
  ServeLoop(attack::DlAttack& attack, ServeConfig config);
  ~ServeLoop();  ///< shutdown() + join
  ServeLoop(const ServeLoop&) = delete;
  ServeLoop& operator=(const ServeLoop&) = delete;

  /// Serve one query of `dataset`: blocks until a dispatcher answers it,
  /// then returns the selection — byte-identical to what a batch-1
  /// attack() would have chosen. Empty-candidate queries are answered
  /// inline (the attack()-path no-op choice) without touching the queue.
  /// Throws std::runtime_error after shutdown() or when the batch that
  /// carried this request failed, and std::invalid_argument when
  /// `dataset`'s image geometry differs from the fleet's (set by the first
  /// dataset served).
  attack::Selection submit(const attack::QueryDataset& dataset,
                           std::size_t query) SMA_EXCLUDES(mutex_);

  /// Drain and stop: requests already enqueued are answered, new submits
  /// are rejected, dispatchers are joined. Idempotent; called by the
  /// destructor. Do not call concurrently with itself.
  void shutdown() SMA_EXCLUDES(mutex_);

  ServeStats stats() const SMA_EXCLUDES(mutex_);

 private:
  /// One in-flight request, owned by its blocked submitter's stack.
  struct Request {
    attack::QueryRef ref;
    double enqueue_us = 0.0;
    attack::Selection result;
    std::string error;  ///< non-empty => the request failed
    bool done = false;
  };

  /// A dispatcher's reusable per-batch buffers (grow-only; alloc-free
  /// once warm).
  struct BatchBuffers {
    std::vector<attack::QueryRef> refs;
    std::vector<attack::Selection> selections;
    nn::QueryInput input;
  };

  void dispatcher_main();
  /// Run `batch` through one `select_batch` call on a leased replica and
  /// fill each request's result (or error). Runs outside the queue mutex.
  void process_batch(std::vector<Request*>& batch, BatchBuffers& buffers);

  attack::DlAttack* attack_;
  ServeConfig config_;

  mutable util::Mutex mutex_;
  util::CondVar arrivals_;     ///< signaled on enqueue and on shutdown
  util::CondVar completions_;  ///< signaled when a batch's requests finish
  std::deque<Request*> queue_ SMA_GUARDED_BY(mutex_);
  bool closed_ SMA_GUARDED_BY(mutex_) = false;
  ServeStats stats_ SMA_GUARDED_BY(mutex_);
  /// The first dataset served; null until then.
  const attack::QueryDataset* first_dataset_ SMA_GUARDED_BY(mutex_) =
      nullptr;

  /// Joined by shutdown(); only touched by the constructor and
  /// shutdown(), never by dispatchers.
  std::vector<std::thread> dispatchers_;
};

}  // namespace sma::serve
