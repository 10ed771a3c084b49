// The global router's A* open list (internal to the route layer: only
// router.cpp and its tests include this header).
//
// A binary min-heap of entries ordered by one 64-bit key that packs
// (f, node): f's IEEE bits in the high word, the node id in the low word.
// For the f the router produces, at least +0.0 and never NaN (g starts at
// +0.0f, every cost term and the heuristic are >= 0, and route_design
// checks RouterConfig's weights finite and >= 0), floats order like their
// bit patterns and equal floats have equal bits, so the key orders exactly
// like "by f, ties by node id". That order is total on the entries'
// values: two entries with equal keys are the same node at the same f, so
// the pop sequence is fixed whichever of them a heap returns first.
//
// The integer key lets the pop choose the smaller child without a branch
// (`c += heap[c + 1].key < heap[c].key`). The pop is bottom-up: it walks
// the hole from the root down to a leaf, then sifts the heap's last entry
// up from there, which usually stops at once.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sma::route {

/// Key ordering (f, node) lexicographically, for f >= +0.0 (not NaN).
inline std::uint64_t open_key(float f, std::uint32_t node) {
  return (std::uint64_t{std::bit_cast<std::uint32_t>(f)} << 32) | node;
}

/// f of a key, bit for bit.
inline float key_f(std::uint64_t key) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(key >> 32));
}

/// Node id of a key.
inline std::uint32_t key_node(std::uint64_t key) {
  return static_cast<std::uint32_t>(key);
}

/// One open-list entry: the (f, node) key and the node's coordinates,
/// carried so that a pop never divides the id back into (layer, x, y).
struct OpenEntry {
  std::uint64_t key;
  std::uint16_t x;
  std::uint16_t y;
  std::uint8_t layer;
};

/// Binary min-heap over OpenEntry::key. Reused across searches: clear()
/// keeps the storage.
class OpenList {
 public:
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  void clear() { heap_.clear(); }

  void push(const OpenEntry& entry) {
    heap_.push_back(entry);
    sift_up(heap_.size() - 1, entry);
  }

  /// Removes and returns the entry with the smallest key. The list must
  /// not be empty.
  OpenEntry pop() {
    const OpenEntry top = heap_.front();
    const OpenEntry last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return top;
    OpenEntry* heap = heap_.data();
    // Walk the hole at the root down to a leaf, always into the smaller
    // child (the left one on a tie; equal keys are interchangeable).
    std::size_t hole = 0;
    std::size_t child = 1;
    while (child + 1 < n) {
      child += heap[child + 1].key < heap[child].key;
      heap[hole] = heap[child];
      hole = child;
      child = 2 * hole + 1;
    }
    if (child < n) {  // a last parent with one child
      heap[hole] = heap[child];
      hole = child;
    }
    sift_up(hole, last);
    return top;
  }

 private:
  /// Moves `entry` from the hole at `hole` toward the root while its key
  /// is smaller than its parent's, then stores it.
  void sift_up(std::size_t hole, const OpenEntry& entry) {
    OpenEntry* heap = heap_.data();
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!(entry.key < heap[parent].key)) break;
      heap[hole] = heap[parent];
      hole = parent;
    }
    heap[hole] = entry;
  }

  std::vector<OpenEntry> heap_;
};

}  // namespace sma::route
