// Global-routing grid graph.
//
// The die is tiled into square gcells; each metal layer contributes one
// 2-D lattice of nodes, stacked by vias. Edge capacities reflect the
// track count per gcell: full capacity along a layer's preferred routing
// direction, a small allowance for wrong-way jogs (the paper's direction
// criterion explicitly accounts for those), and generous via capacity.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "place/placement.hpp"
#include "tech/layer_stack.hpp"
#include "util/geometry.hpp"

namespace sma::route {

/// Location of a routing-grid node: 1-based metal layer + gcell indices.
struct GridCoord {
  int layer = 1;
  int x = 0;
  int y = 0;
  friend bool operator==(const GridCoord&, const GridCoord&) = default;
};

/// Direction of a grid edge out of a node.
enum class Dir : std::uint8_t { kEast, kWest, kNorth, kSouth, kUp, kDown };
inline constexpr int kNumDirs = 6;

/// Returns the reverse direction.
Dir reverse(Dir d);

class RoutingGrid {
 public:
  /// Validated at grid construction: gcell_size, via/m1/m2 capacities and
  /// track_utilization must be positive; wrongway_capacity may be 0 (no
  /// wrong-way tracks) but not negative. Violations throw
  /// std::invalid_argument instead of surfacing later as NaN edge costs.
  struct Config {
    std::int64_t gcell_size = 700;   ///< DBU; ~5 thin-metal tracks
    int wrongway_capacity = 1;       ///< tracks available against preference
    int via_capacity = 12;
    /// M1 is mostly blocked by cell-internal shapes in real designs, so its
    /// through-routing capacity is clamped to pin-access level. This is what
    /// makes an M1 split shatter nearly every net, as in the paper.
    int m1_capacity = 1;
    /// Cap on M2 through-capacity (vertical FEOL supply). Keeping M2
    /// generous lets long vertical runs stay in the FEOL; only locally
    /// congested stretches then hop above M3 with short excursions — the
    /// close-by virtual-pin pairs that dominate real M3-split layouts.
    int m2_capacity = 3;
    /// Fraction of signal tracks actually available: power/ground straps,
    /// clock trees and cell blockages consume the rest. This sets the
    /// congestion level that pushes a minority of nets into BEOL
    /// excursions — the fragments an M3 split attacks.
    double track_utilization = 0.65;
  };

  /// Largest grid the router can address, checked at construction
  /// (std::invalid_argument): its A* queue entries hold a node as a 32-bit
  /// id, 16-bit gcell coordinates and an 8-bit layer number.
  static constexpr std::int64_t kMaxGcellsPerAxis = std::int64_t{1} << 16;
  static constexpr int kMaxLayers = 255;
  static constexpr std::uint64_t kMaxNodes = 0xffffffffu;

  RoutingGrid(const tech::LayerStack* stack, const util::Rect& die,
              const Config& config);
  RoutingGrid(const tech::LayerStack* stack, const util::Rect& die);

  int num_layers() const { return stack_->num_layers(); }
  int nx() const { return nx_; }
  int ny() const { return ny_; }
  std::int64_t gcell_size() const { return config_.gcell_size; }
  const tech::LayerStack& stack() const { return *stack_; }

  /// Total node count (layers * nx * ny).
  std::size_t num_nodes() const {
    return static_cast<std::size_t>(num_layers()) * nx_ * ny_;
  }

  std::size_t node_index(const GridCoord& c) const {
    return (static_cast<std::size_t>(c.layer - 1) * ny_ + c.y) * nx_ + c.x;
  }
  GridCoord coord_of(std::size_t index) const;

  /// Gcell containing a DBU point (clamped to the grid).
  GridCoord gcell_at(const util::Point& p, int layer = 1) const;

  /// DBU center of a gcell.
  util::Point gcell_center(const GridCoord& c) const;

  /// Does the neighbour of `c` in direction `d` exist?
  bool has_neighbor(const GridCoord& c, Dir d) const;
  GridCoord neighbor(const GridCoord& c, Dir d) const;

  /// Capacity of the edge leaving `c` in direction `d` (0 = no edge).
  int capacity(const GridCoord& c, Dir d) const;

  /// Capacity of every edge leaving a node of `layer` in direction `d`
  /// (for the nodes that have that neighbour).
  int layer_capacity(int layer, Dir d) const {
    if (d == Dir::kUp || d == Dir::kDown) return config_.via_capacity;
    return is_preferred(layer, d) ? pref_capacity_[layer - 1]
                                  : config_.wrongway_capacity;
  }

  /// Current usage of that edge.
  int usage(const GridCoord& c, Dir d) const {
    return usage_at(node_index(c), d);
  }
  void add_usage(const GridCoord& c, Dir d, int delta);

  /// Congestion history (PathFinder-style), bumped on overflowed edges.
  float history(const GridCoord& c, Dir d) const {
    return history_at(node_index(c), d);
  }
  void bump_history_on_overflow(float increment);

  /// Index-based reads for the router's inner loop. `node` is the
  /// node_index() of the edge's source, and its neighbour in direction `d`
  /// must exist.
  std::size_t neighbor_index(std::size_t node, Dir d) const {
    switch (d) {
      case Dir::kEast: return node + 1;
      case Dir::kWest: return node - 1;
      case Dir::kNorth: return node + nx_;
      case Dir::kSouth: return node - nx_;
      case Dir::kUp: return node + layer_nodes();
      case Dir::kDown: return node - layer_nodes();
    }
    return node;
  }
  int usage_at(std::size_t node, Dir d) const {
    const auto [edges, index] = edge_at(node, d);
    return edges->usage[index];
  }
  float history_at(std::size_t node, Dir d) const {
    const auto [edges, index] = edge_at(node, d);
    return edges->history[index];
  }

  /// Number of edges with usage > capacity.
  int overflow_count() const;

  /// Reset all usage (history preserved).
  void clear_usage();

  /// True if `d` runs along the preferred axis of `c.layer`.
  bool is_preferred(int layer, Dir d) const;

 private:
  struct EdgeArrays {
    std::vector<std::uint16_t> usage;
    std::vector<float> history;
  };

  std::size_t layer_nodes() const {
    return static_cast<std::size_t>(nx_) * ny_;
  }

  // Edge storage: for each layer, x-edges (node -> east neighbour) and
  // y-edges (node -> north neighbour); plus via edges (node -> up). Each
  // array is indexed by the node the edge leaves in its canonical
  // direction, so a west, south or down edge is stored at its neighbour.
  /// Maps (node, d) onto canonical edge storage; returns array + index.
  std::pair<const EdgeArrays*, std::size_t> edge_at(std::size_t node,
                                                    Dir d) const {
    switch (d) {
      case Dir::kEast: return {&x_edges_, node};
      case Dir::kWest: return {&x_edges_, node - 1};
      case Dir::kNorth: return {&y_edges_, node};
      case Dir::kSouth: return {&y_edges_, node - nx_};
      case Dir::kUp: return {&via_edges_, node};
      case Dir::kDown: return {&via_edges_, node - layer_nodes()};
    }
    return {&x_edges_, node};
  }

  const tech::LayerStack* stack_;
  util::Rect die_;
  Config config_;
  int nx_ = 0;
  int ny_ = 0;
  std::vector<int> pref_capacity_;   ///< per layer: tracks per gcell
  EdgeArrays x_edges_;
  EdgeArrays y_edges_;
  EdgeArrays via_edges_;
};

}  // namespace sma::route
