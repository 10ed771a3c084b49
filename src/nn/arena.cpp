#include "nn/arena.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

namespace sma::nn {

Arena::Slot Arena::add_tensor() {
  tensors_.emplace_back();
  return tensors_.size() - 1;
}

Arena::Slot Arena::add_floats() {
  floats_.emplace_back();
  return floats_.size() - 1;
}

Arena::Slot Arena::add_bytes() {
  bytes_.emplace_back();
  return bytes_.size() - 1;
}

Tensor& Arena::tensor(Slot slot, const std::vector<int>& shape, Fill fill,
                      Layout layout) {
  Tensor& t = tensors_[slot];
  ++requests_;
  if (t.resize_reuse(shape, layout)) ++allocs_;
  if (fill == Fill::kZero) t.fill(0.0f);
  return t;
}

Tensor& Arena::tensor(Slot slot, std::initializer_list<int> shape, Fill fill,
                      Layout layout) {
  Tensor& t = tensors_[slot];
  ++requests_;
  if (t.resize_reuse(shape, layout)) ++allocs_;
  if (fill == Fill::kZero) t.fill(0.0f);
  return t;
}

float* Arena::floats(Slot slot, std::size_t n, Fill fill) {
  std::vector<float>& v = floats_[slot];
  ++requests_;
  if (n > v.size()) {
    const std::size_t cap = v.capacity();
    v.resize(n);  // grow-only high-water extent, as in Tensor::resize_reuse
    if (v.capacity() != cap) ++allocs_;
  }
  if (fill == Fill::kZero) std::memset(v.data(), 0, n * sizeof(float));
  return v.data();
}

std::uint8_t* Arena::bytes(Slot slot, std::size_t n) {
  std::vector<std::uint8_t>& v = bytes_[slot];
  ++requests_;
  if (n > v.size()) {
    const std::size_t cap = v.capacity();
    v.resize(n);
    if (v.capacity() != cap) ++allocs_;
  }
  return v.data();
}

void Arena::reconcile_scratch() const {
  const std::size_t now[] = {scratch_.a_panel.capacity(),
                             scratch_.b_panel.capacity(),
                             scratch_.taps.capacity(),
                             scratch_.edge.capacity()};
  for (std::size_t i = 0; i < std::size(now); ++i) {
    if (now[i] > scratch_seen_[i]) ++allocs_;
    scratch_seen_[i] = now[i];
  }
}

GemmScratch& Arena::gemm_scratch() {
  reconcile_scratch();
  return scratch_;
}

ArenaStats Arena::stats() const {
  reconcile_scratch();
  ArenaStats s;
  for (const Tensor& t : tensors_) s.bytes_pinned += t.capacity_bytes();
  for (const auto& v : floats_) s.bytes_pinned += v.capacity() * sizeof(float);
  for (const auto& v : bytes_) s.bytes_pinned += v.capacity();
  s.bytes_pinned += scratch_.a_panel.capacity() * sizeof(float);
  s.bytes_pinned += scratch_.b_panel.capacity() * sizeof(float);
  s.bytes_pinned += scratch_.taps.capacity() * sizeof(std::int32_t);
  s.bytes_pinned += scratch_.edge.capacity() * sizeof(float);
  s.slots = tensors_.size() + floats_.size() + bytes_.size();
  s.allocs = allocs_;
  s.requests = requests_;
  return s;
}

}  // namespace sma::nn
