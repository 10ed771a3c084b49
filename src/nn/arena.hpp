// Persistent activation arenas: alloc-free training and inference.
//
// The kernels (PR 2) and the fused step (PR 3) left per-layer output and
// staging tensors as the dominant steady-state memory traffic: every
// forward/backward call constructed (and zero-filled) fresh tensors —
// roughly 1 MB of allocator churn per query. An `Arena` instead owns one
// persistent buffer per activation/staging slot for the lifetime of its
// network: each `AttackNet` (master, gradient-lane replica, pinned
// inference replica) owns exactly one arena, and its layers write their
// outputs into arena slots that are resized in place with grow-only
// capacity (`Tensor::resize_reuse`). After a warm-up pass that has seen
// the largest query shape, the hot path performs ZERO heap allocations
// per query — a property the arena's stats expose and tests/benches
// assert.
//
// Reuse contract (the no-stale-read rule): acquiring a slot with
// `Fill::kNone` returns storage whose contents are unspecified — the
// producer must fully overwrite every element of the logical extent
// before anything reads it. Slots whose consumers accumulate (`+=`) into
// them are acquired with `Fill::kZero`, which reproduces the bytes of a
// freshly zero-constructed tensor. Every call site in the NN hot path is
// audited against this rule (see layers.cpp / attack_net.cpp); the
// shape-varying regression tests in tests/test_arena.cpp drive
// shrink-then-grow sequences through every buffer to prove no stale byte
// ever escapes.
//
// Threading: an arena is single-owner, exactly like the network that owns
// it — replicas running on different pool threads each use their own
// arena, so there is no shared mutable state and no synchronization.
// (Call-transient staging — conv's per-tile im2col, masked-dy and dcols
// buffers, the GEMM packing panels and the pack paths' tap table —
// instead lives in one per-THREAD staging arena; see layers.cpp.) Slot
// storage is address-stable (deque-backed): acquiring one slot never
// moves another, so layers may cache pointers between forward and
// backward.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "nn/gemm.hpp"
#include "nn/tensor.hpp"

namespace sma::nn {

/// Aggregate view of an arena's footprint and allocator activity.
struct ArenaStats {
  std::size_t bytes_pinned = 0;  ///< backing-capacity bytes across all slots
  std::size_t slots = 0;         ///< tensor + float + byte slots registered
  long allocs = 0;    ///< heap-growth events since construction
  long requests = 0;  ///< slot acquisitions (>= allocs; equal only cold)
};

class Arena {
 public:
  using Slot = std::size_t;
  enum class Fill {
    kNone,  ///< contents unspecified; caller must fully overwrite
    kZero   ///< logical extent zero-filled (for += consumers)
  };

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // -- slot registration (bind time, once per layer) ---------------------
  Slot add_tensor();
  Slot add_floats();
  Slot add_bytes();

  // -- slot acquisition (hot path, zero allocations once warm) -----------
  /// `layout` tags the storage order the producer will write the slot in
  /// (see nn/tensor.hpp); defaulted so non-conv call sites stay unchanged.
  Tensor& tensor(Slot slot, const std::vector<int>& shape, Fill fill,
                 Layout layout = Layout::kRowMajor);
  Tensor& tensor(Slot slot, std::initializer_list<int> shape, Fill fill,
                 Layout layout = Layout::kRowMajor);
  float* floats(Slot slot, std::size_t n, Fill fill);
  std::uint8_t* bytes(Slot slot, std::size_t n);

  /// This arena's GEMM packing scratch (panels, tap table and col2im's
  /// edge column). Growth happens inside the kernels and pack paths
  /// (which know the geometry); the arena detects capacity changes lazily
  /// on the next acquisition or stats() call and folds them into
  /// `allocs`/`bytes_pinned`, so the zero-allocs-once-warm assertion
  /// covers those buffers too.
  GemmScratch& gemm_scratch();

  ArenaStats stats() const;

 private:
  void reconcile_scratch() const;

  std::deque<Tensor> tensors_;
  std::deque<std::vector<float>> floats_;
  std::deque<std::vector<std::uint8_t>> bytes_;
  GemmScratch scratch_;
  // Lazily-observed capacities of the scratch's a_panel, b_panel, taps
  // and edge; mutable so stats() can reconcile.
  mutable std::size_t scratch_seen_[4] = {};
  mutable long allocs_ = 0;
  long requests_ = 0;
};

}  // namespace sma::nn
