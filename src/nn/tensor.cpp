#include "nn/tensor.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace sma::nn {

namespace {

std::string format_shape(const int* dims, std::size_t rank) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < rank; ++i) {
    if (i > 0) os << ", ";
    os << dims[i];
  }
  os << ']';
  return os.str();
}

std::size_t shape_size_impl(const int* dims, std::size_t rank) {
  std::size_t total = 1;
  for (std::size_t i = 0; i < rank; ++i) {
    const int d = dims[i];
    if (d < 0) throw std::invalid_argument("negative tensor dimension");
    const std::size_t ud = static_cast<std::size_t>(d);
    if (ud != 0 &&
        total > std::numeric_limits<std::size_t>::max() / ud) {
      throw std::overflow_error("tensor shape " + format_shape(dims, rank) +
                                " overflows std::size_t element count");
    }
    total *= ud;
  }
  return total;
}

// Debug-only contract check: the channel-major permutation is defined
// only for rank-4 [n,C,H,W] shapes. Compiled out in Release so the tag
// itself stays free on the hot path.
void check_layout_shape(Layout layout, const int* dims, std::size_t rank) {
#ifndef NDEBUG
  if (layout == Layout::kChannelMajor && rank != 4) {
    throw std::logic_error("channel-major layout requires a 4-D shape, got " +
                           format_shape(dims, rank));
  }
#else
  (void)layout;
  (void)dims;
  (void)rank;
#endif
}

}  // namespace

std::size_t shape_size(const std::vector<int>& shape) {
  return shape_size_impl(shape.data(), shape.size());
}

std::size_t shape_size(std::initializer_list<int> shape) {
  return shape_size_impl(shape.begin(), shape.size());
}

Tensor::Tensor(std::vector<int> shape)
    : shape_(std::move(shape)),
      data_(shape_size(shape_), 0.0f),
      numel_(data_.size()) {}

Tensor Tensor::randn(std::vector<int> shape, util::Pcg32& rng, double stddev) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.next_gaussian() * stddev);
  }
  return t;
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.begin() + static_cast<std::ptrdiff_t>(numel_),
            value);
}

void Tensor::set_layout(Layout layout) {
  check_layout_shape(layout, shape_.data(), shape_.size());
  layout_ = layout;
}

void Tensor::reshape(std::vector<int> shape) {
  if (shape_size(shape) != numel_) {
    throw std::invalid_argument("reshape changes element count");
  }
#ifndef NDEBUG
  // Reshaping permuted storage would silently reinterpret plane-swapped
  // bytes under the new shape; callers must convert to row-major first.
  if (layout_ == Layout::kChannelMajor) {
    throw std::logic_error("reshape of a channel-major tensor");
  }
#endif
  // Copy-assign (not move) so shape_'s capacity is reused — reshape sits
  // on the alloc-free hot path (AttackNet flattens fc7's scores).
  shape_ = shape;
}

void Tensor::reshape(std::initializer_list<int> shape) {
  if (shape_size(shape) != numel_) {
    throw std::invalid_argument("reshape changes element count");
  }
#ifndef NDEBUG
  if (layout_ == Layout::kChannelMajor) {
    throw std::logic_error("reshape of a channel-major tensor");
  }
#endif
  shape_.assign(shape);
}

bool Tensor::ensure_numel(std::size_t n) {
  const std::size_t cap_before = data_.capacity();
  // Grow-only: the high-water extent stays materialized, so a shrink-then-
  // grow sequence touches no allocator and performs no value-init pass.
  if (n > data_.size()) data_.resize(n);
  numel_ = n;
  return data_.capacity() != cap_before;
}

bool Tensor::resize_reuse(const std::vector<int>& shape, Layout layout) {
  check_layout_shape(layout, shape.data(), shape.size());
  const std::size_t n = shape_size(shape);
  shape_ = shape;  // copy-assign: reuses shape_'s capacity
  layout_ = layout;
  return ensure_numel(n);
}

bool Tensor::resize_reuse(std::initializer_list<int> shape, Layout layout) {
  check_layout_shape(layout, shape.begin(), shape.size());
  const std::size_t n = shape_size(shape);
  shape_.assign(shape);
  layout_ = layout;
  return ensure_numel(n);
}

std::string Tensor::shape_string() const {
  return format_shape(shape_.data(), shape_.size());
}

Tensor to_layout(const Tensor& src, Layout layout) {
  Tensor dst;
  dst.resize_reuse(src.shape(), layout);
  const std::size_t total = src.size();
  if (src.layout() == layout || total == 0) {
    std::copy(src.data(), src.data() + total, dst.data());
    return dst;
  }
  // One of the two is channel-major, the other row-major; both
  // permutations are the same plane swap applied in opposite directions.
  const int n = src.dim(0);
  const int c = src.dim(1);
  const std::size_t plane =
      total / (static_cast<std::size_t>(n) * static_cast<std::size_t>(c));
  const float* s = src.data();
  float* d = dst.data();
  for (int img = 0; img < n; ++img) {
    for (int ch = 0; ch < c; ++ch) {
      const std::size_t rm = (static_cast<std::size_t>(img) * c + ch) * plane;
      const std::size_t cm = (static_cast<std::size_t>(ch) * n + img) * plane;
      const std::size_t from = src.layout() == Layout::kRowMajor ? rm : cm;
      const std::size_t to = layout == Layout::kRowMajor ? rm : cm;
      std::copy(s + from, s + from + plane, d + to);
    }
  }
  return dst;
}

Tensor to_row_major(const Tensor& src) {
  return to_layout(src, Layout::kRowMajor);
}

}  // namespace sma::nn
