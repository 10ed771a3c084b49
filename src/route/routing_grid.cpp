#include "route/routing_grid.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace sma::route {

Dir reverse(Dir d) {
  switch (d) {
    case Dir::kEast: return Dir::kWest;
    case Dir::kWest: return Dir::kEast;
    case Dir::kNorth: return Dir::kSouth;
    case Dir::kSouth: return Dir::kNorth;
    case Dir::kUp: return Dir::kDown;
    case Dir::kDown: return Dir::kUp;
  }
  return Dir::kEast;
}

RoutingGrid::RoutingGrid(const tech::LayerStack* stack, const util::Rect& die)
    : RoutingGrid(stack, die, Config{}) {}

RoutingGrid::RoutingGrid(const tech::LayerStack* stack, const util::Rect& die,
                         const Config& config)
    : stack_(stack), die_(die), config_(config) {
  if (stack_ == nullptr) throw std::invalid_argument("null layer stack");
  if (die_.empty()) throw std::invalid_argument("empty die");
  // Degenerate capacities used to surface only deep inside the router as
  // NaN/inf edge costs (usage / 0) that silently corrupted the A* queue
  // ordering; reject them at construction with a nameable error instead.
  // wrongway_capacity == 0 stays legal (a "no wrong-way tracks" config);
  // the router's edge cost guards that division.
  if (config_.gcell_size <= 0) {
    throw std::invalid_argument("RoutingGrid: gcell_size must be positive");
  }
  if (config_.via_capacity < 1) {
    throw std::invalid_argument("RoutingGrid: via_capacity must be >= 1");
  }
  if (config_.m1_capacity < 1) {
    throw std::invalid_argument("RoutingGrid: m1_capacity must be >= 1");
  }
  if (config_.m2_capacity < 1) {
    throw std::invalid_argument("RoutingGrid: m2_capacity must be >= 1");
  }
  if (config_.wrongway_capacity < 0) {
    throw std::invalid_argument(
        "RoutingGrid: wrongway_capacity must be >= 0");
  }
  if (!(config_.track_utilization > 0.0)) {
    throw std::invalid_argument(
        "RoutingGrid: track_utilization must be positive");
  }
  // Dimensions in 64 bits: a hostile die or gcell size must be rejected,
  // not wrapped through int into a small grid or allocated as a huge one.
  const auto gcells = [&](std::int64_t lo, std::int64_t hi) {
    // hi >= lo (the die is not empty), so the unsigned difference is exact.
    const std::uint64_t extent =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
    const auto size = static_cast<std::uint64_t>(config_.gcell_size);
    return std::max<std::uint64_t>(1, extent / size + (extent % size != 0));
  };
  const std::uint64_t nx = gcells(die_.lo.x, die_.hi.x);
  const std::uint64_t ny = gcells(die_.lo.y, die_.hi.y);
  const int layers = num_layers();
  const auto max_axis = static_cast<std::uint64_t>(kMaxGcellsPerAxis);
  if (nx > max_axis || ny > max_axis) {
    throw std::invalid_argument(
        "RoutingGrid: " + std::to_string(nx) + " x " + std::to_string(ny) +
        " gcells exceeds " + std::to_string(max_axis) + " per axis");
  }
  if (layers < 1 || layers > kMaxLayers) {
    throw std::invalid_argument("RoutingGrid: " + std::to_string(layers) +
                                " metal layers is outside 1.." +
                                std::to_string(kMaxLayers));
  }
  if (nx * ny * static_cast<std::uint64_t>(layers) > kMaxNodes) {
    throw std::invalid_argument(
        "RoutingGrid: " + std::to_string(nx) + " x " + std::to_string(ny) +
        " x " + std::to_string(layers) + " nodes exceeds " +
        std::to_string(kMaxNodes));
  }
  nx_ = static_cast<int>(nx);
  ny_ = static_cast<int>(ny);

  pref_capacity_.resize(layers);
  for (int m = 1; m <= layers; ++m) {
    int tracks =
        std::max<int>(1, static_cast<int>(config_.gcell_size / stack_->pitch(m)));
    pref_capacity_[m - 1] = std::max<int>(
        1, static_cast<int>(tracks * config_.track_utilization));
  }
  pref_capacity_[0] = std::min(pref_capacity_[0], config_.m1_capacity);
  if (layers > 1) {
    pref_capacity_[1] = std::min(pref_capacity_[1], config_.m2_capacity);
  }

  const std::size_t per_layer = static_cast<std::size_t>(nx_) * ny_;
  x_edges_.usage.assign(per_layer * layers, 0);
  x_edges_.history.assign(per_layer * layers, 0.0f);
  y_edges_.usage.assign(per_layer * layers, 0);
  y_edges_.history.assign(per_layer * layers, 0.0f);
  via_edges_.usage.assign(per_layer * (layers - 1), 0);
  via_edges_.history.assign(per_layer * (layers - 1), 0.0f);
}

GridCoord RoutingGrid::coord_of(std::size_t index) const {
  GridCoord c;
  c.x = static_cast<int>(index % nx_);
  index /= nx_;
  c.y = static_cast<int>(index % ny_);
  c.layer = static_cast<int>(index / ny_) + 1;
  return c;
}

GridCoord RoutingGrid::gcell_at(const util::Point& p, int layer) const {
  GridCoord c;
  c.layer = layer;
  c.x = std::clamp<int>(
      static_cast<int>((p.x - die_.lo.x) / config_.gcell_size), 0, nx_ - 1);
  c.y = std::clamp<int>(
      static_cast<int>((p.y - die_.lo.y) / config_.gcell_size), 0, ny_ - 1);
  return c;
}

util::Point RoutingGrid::gcell_center(const GridCoord& c) const {
  return {die_.lo.x + c.x * config_.gcell_size + config_.gcell_size / 2,
          die_.lo.y + c.y * config_.gcell_size + config_.gcell_size / 2};
}

bool RoutingGrid::has_neighbor(const GridCoord& c, Dir d) const {
  switch (d) {
    case Dir::kEast: return c.x + 1 < nx_;
    case Dir::kWest: return c.x > 0;
    case Dir::kNorth: return c.y + 1 < ny_;
    case Dir::kSouth: return c.y > 0;
    case Dir::kUp: return c.layer < num_layers();
    case Dir::kDown: return c.layer > 1;
  }
  return false;
}

GridCoord RoutingGrid::neighbor(const GridCoord& c, Dir d) const {
  GridCoord n = c;
  switch (d) {
    case Dir::kEast: ++n.x; break;
    case Dir::kWest: --n.x; break;
    case Dir::kNorth: ++n.y; break;
    case Dir::kSouth: --n.y; break;
    case Dir::kUp: ++n.layer; break;
    case Dir::kDown: --n.layer; break;
  }
  return n;
}

bool RoutingGrid::is_preferred(int layer, Dir d) const {
  util::Axis pref = stack_->preferred(layer);
  bool horizontal = d == Dir::kEast || d == Dir::kWest;
  return horizontal == (pref == util::Axis::kHorizontal);
}

int RoutingGrid::capacity(const GridCoord& c, Dir d) const {
  return has_neighbor(c, d) ? layer_capacity(c.layer, d) : 0;
}

void RoutingGrid::add_usage(const GridCoord& c, Dir d, int delta) {
  auto [arr, idx] = edge_at(node_index(c), d);
  // edge_at is const; the arrays are this (non-const) grid's own.
  std::uint16_t& slot = const_cast<EdgeArrays*>(arr)->usage[idx];
  slot = static_cast<std::uint16_t>(std::max(0, slot + delta));
}

void RoutingGrid::bump_history_on_overflow(float increment) {
  auto bump = [&](EdgeArrays& edges, auto capacity_of) {
    for (std::size_t i = 0; i < edges.usage.size(); ++i) {
      if (edges.usage[i] > capacity_of(i)) edges.history[i] += increment;
    }
  };
  const std::size_t per_layer = static_cast<std::size_t>(nx_) * ny_;
  bump(x_edges_, [&](std::size_t i) {
    return layer_capacity(static_cast<int>(i / per_layer) + 1, Dir::kEast);
  });
  bump(y_edges_, [&](std::size_t i) {
    return layer_capacity(static_cast<int>(i / per_layer) + 1, Dir::kNorth);
  });
  bump(via_edges_, [&](std::size_t) { return config_.via_capacity; });
}

int RoutingGrid::overflow_count() const {
  int overflow = 0;
  const std::size_t per_layer = static_cast<std::size_t>(nx_) * ny_;
  for (std::size_t i = 0; i < x_edges_.usage.size(); ++i) {
    int layer = static_cast<int>(i / per_layer) + 1;
    if (x_edges_.usage[i] > layer_capacity(layer, Dir::kEast)) ++overflow;
  }
  for (std::size_t i = 0; i < y_edges_.usage.size(); ++i) {
    int layer = static_cast<int>(i / per_layer) + 1;
    if (y_edges_.usage[i] > layer_capacity(layer, Dir::kNorth)) ++overflow;
  }
  for (std::size_t i = 0; i < via_edges_.usage.size(); ++i) {
    if (via_edges_.usage[i] > config_.via_capacity) ++overflow;
  }
  return overflow;
}

void RoutingGrid::clear_usage() {
  std::fill(x_edges_.usage.begin(), x_edges_.usage.end(), 0);
  std::fill(y_edges_.usage.begin(), y_edges_.usage.end(), 0);
  std::fill(via_edges_.usage.begin(), via_edges_.usage.end(), 0);
}

}  // namespace sma::route
