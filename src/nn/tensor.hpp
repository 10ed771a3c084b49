// Minimal dense float tensor.
//
// Contiguous storage with a dynamic shape; just enough for the attack
// network's needs (no views, no broadcasting — layers operate on explicit
// shapes). Keeping it small makes the backprop code easy to audit against
// the paper's equations.
//
// Layout tag: a tensor's logical shape is decoupled from its storage
// order by an explicit `Layout` tag. `kRowMajor` is the default
// (last-axis-fastest, the seed's only layout). `kChannelMajor` is the
// blocked conv pipeline's native activation layout for 4-D tensors of
// logical shape [n, C, H, W]: storage is permuted to [C, n, H, W], i.e.
// the (img, c) plane lives at data + (c*n + img)*H*W instead of
// (img*C + c)*H*W. The tag changes only where bytes live, never what
// they mean — every consumer dispatches on `layout()` and reads the same
// values. Channel-major requires a rank-4 shape; in Debug builds a
// mismatched-layout reuse (or a reshape of a channel-major tensor, which
// would silently reinterpret permuted storage) throws std::logic_error.
//
// Buffer reuse: `resize_reuse` reshapes a tensor in place with grow-only
// capacity and NO clearing of reused storage — the activation-arena
// subsystem (nn/arena.hpp) uses it so the training/inference hot path
// performs zero heap allocations per query once warm. A tensor that has
// been through `resize_reuse` may hold more storage than `size()`
// elements; all accessors operate on the logical extent only.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace sma::nn {

/// Storage order of a tensor's backing buffer relative to its logical
/// shape. See the file comment for the exact channel-major permutation.
enum class Layout {
  kRowMajor,      ///< last-axis-fastest (NCHW for 4-D); the seed layout
  kChannelMajor,  ///< [n,C,H,W] stored as [C,n,H,W]; blocked conv native
};

/// True when the Debug-only layout contract checks are compiled in.
/// Tests use this to skip throw-expectations in Release builds.
constexpr bool layout_checks_enabled() {
#ifndef NDEBUG
  return true;
#else
  return false;
#endif
}

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<int> shape);

  static Tensor zeros(std::vector<int> shape) { return Tensor(std::move(shape)); }

  /// Gaussian init with the given standard deviation.
  static Tensor randn(std::vector<int> shape, util::Pcg32& rng, double stddev);

  const std::vector<int>& shape() const { return shape_; }
  int dim(int axis) const { return shape_.at(axis); }
  std::size_t size() const { return numel_; }
  bool empty() const { return numel_ == 0; }

  /// Storage order of the backing buffer. Plain copies (copy ctor /
  /// assignment) propagate the tag with the data automatically.
  Layout layout() const { return layout_; }
  /// Retag the storage order without moving bytes. The caller asserts the
  /// buffer already IS in `layout` (e.g. a GEMM that wrote channel-major
  /// planes directly into the slot). Channel-major requires rank 4.
  void set_layout(Layout layout);

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  void fill(float value);
  /// Reinterpret the shape; total element count must match. The
  /// initializer-list overload exists so hot-path callers can reshape
  /// without constructing a temporary std::vector (which would allocate).
  void reshape(std::vector<int> shape);
  void reshape(std::initializer_list<int> shape);

  /// Reshape in place for buffer reuse. Capacity only ever grows (backing
  /// storage is retained across shrink-then-grow sequences) and reused
  /// storage is NOT cleared: after this call the contents of the logical
  /// extent are unspecified, and the caller must either fully overwrite
  /// every element before reading or zero explicitly (the arena's
  /// `Fill::kZero`). This no-stale-read contract is what lets the hot
  /// path skip both the per-call allocation and the per-call zero-fill of
  /// a freshly constructed tensor. Returns true when backing storage had
  /// to grow (a heap allocation happened) — the arena's alloc counter.
  ///
  /// The defaulted `layout` parameter tags the reused storage order;
  /// existing call sites compile unchanged and keep getting row-major.
  /// In Debug builds a channel-major reuse with a non-4-D shape throws
  /// std::logic_error (the permutation is only defined for [n,C,H,W]).
  bool resize_reuse(const std::vector<int>& shape,
                    Layout layout = Layout::kRowMajor);
  bool resize_reuse(std::initializer_list<int> shape,
                    Layout layout = Layout::kRowMajor);

  /// "[2, 3, 4]" for diagnostics.
  std::string shape_string() const;

  /// Bytes of backing storage currently held (>= size() * sizeof(float)
  /// after resize_reuse shrinks).
  std::size_t capacity_bytes() const { return data_.capacity() * sizeof(float); }

 private:
  bool ensure_numel(std::size_t n);

  std::vector<int> shape_;
  std::vector<float> data_;
  std::size_t numel_ = 0;  ///< logical element count; data_.size() >= numel_
  Layout layout_ = Layout::kRowMajor;
};

/// A copy of `src` holding the same logical values stored in `layout`
/// (a plain copy when `src` is already in that layout).
Tensor to_layout(const Tensor& src, Layout layout);
Tensor to_row_major(const Tensor& src);

/// Number of elements implied by a shape. Throws std::overflow_error when
/// the dimension product overflows std::size_t (a silent wrap would
/// under-allocate storage and turn later indexing into OOB writes).
std::size_t shape_size(const std::vector<int>& shape);
std::size_t shape_size(std::initializer_list<int> shape);

}  // namespace sma::nn
