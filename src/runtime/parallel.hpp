// Data-parallel loops over index ranges.
//
// `parallel_for` splits [begin, end) into grain-sized chunks that workers
// claim from a shared atomic counter (dynamic load balancing, in the
// spirit of tile-parallel routers). The calling thread participates, so a
// pool of N threads yields N+1-way execution of the loop body. Outputs
// must be written to index-addressed slots; under that discipline results
// are bit-identical to the serial loop for any thread count, which is the
// runtime's determinism contract.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "runtime/thread_pool.hpp"

namespace sma::runtime {

/// A grain that aims for ~4 chunks per worker (cheap bodies should pass
/// an explicit, larger grain).
inline std::size_t default_grain(std::size_t n, const ThreadPool* pool) {
  const std::size_t workers =
      pool != nullptr ? static_cast<std::size_t>(pool->num_threads()) + 1 : 1;
  return std::max<std::size_t>(1, n / (4 * workers));
}

/// Apply `fn(i)` for every i in [begin, end). Serial when `pool` is null.
/// Rethrows the first exception thrown by any `fn` invocation; remaining
/// chunks are abandoned on error.
template <typename Fn>
void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                  std::size_t grain, Fn&& fn) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  if (grain == 0) grain = 1;
  const std::size_t num_chunks = (n + grain - 1) / grain;
  if (pool == nullptr || pool->num_threads() < 1 || num_chunks <= 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  struct SharedState {
    std::atomic<std::size_t> next_chunk{0};
    std::atomic<bool> cancelled{false};
  };
  auto state = std::make_shared<SharedState>();

  auto body = [state, begin, end, grain, num_chunks, &fn] {
    for (;;) {
      if (state->cancelled.load(std::memory_order_relaxed)) return;
      const std::size_t c =
          state->next_chunk.fetch_add(1, std::memory_order_relaxed);
      if (c >= num_chunks) return;
      const std::size_t lo = begin + c * grain;
      const std::size_t hi = std::min(end, lo + grain);
      try {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      } catch (...) {
        state->cancelled.store(true, std::memory_order_relaxed);
        throw;
      }
    }
  };

  const std::size_t num_workers =
      std::min<std::size_t>(static_cast<std::size_t>(pool->num_threads()),
                            num_chunks - 1);
  TaskGroup group(pool);
  for (std::size_t w = 0; w < num_workers; ++w) group.run(body);

  // The calling thread is a worker too; its exception is re-raised after
  // the join unless a pool worker failed first.
  std::exception_ptr local_error;
  try {
    body();
  } catch (...) {
    local_error = std::current_exception();
  }
  group.wait();
  if (local_error) std::rethrow_exception(local_error);
}

/// `fn(i)` -> T for i in [0, n), into slot i of the result. T must be
/// default-constructible and movable.
template <typename Fn>
auto parallel_map(ThreadPool* pool, std::size_t n, std::size_t grain, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{}))> {
  using T = decltype(fn(std::size_t{}));
  std::vector<T> out(n);
  parallel_for(pool, 0, n, grain,
               [&out, &fn](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// `parallel_map` with the default grain.
template <typename Fn>
auto parallel_map(ThreadPool* pool, std::size_t n, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{}))> {
  return parallel_map(pool, n, default_grain(n, pool),
                      std::forward<Fn>(fn));
}

}  // namespace sma::runtime
