// Negotiated-congestion global router (PathFinder-style A* maze routing).
//
// Routes every net of a placed design over the RoutingGrid: multi-pin nets
// are decomposed incrementally (each next-closest pin is routed to the
// growing route tree with multi-source A*), preferred-direction and via
// costs shape the paths, and a few rip-up-and-reroute rounds with history
// costs resolve overflows. The output geometry feeds the split model and
// the attack features. Four counters, updated once per net, record the
// search work: `route.astar_searches` (two-pin connections searched),
// `route.astar_expansions` (nodes expanded), `route.astar_pushes`
// (open-list pushes) and `route.astar_stale_pops` (popped entries that a
// cheaper push of the same node had superseded). Every pop is an
// expansion, a stale pop, or the one that ends a search, so
// pushes >= expansions.
//
// Nets are scheduled in deterministic *waves* of `RouterConfig::wave_size`
// nets: every net of a wave runs A* against an immutable snapshot of grid
// usage/history (no commits happen mid-wave), then usage is committed in
// fixed net order before the next wave starts. The schedule is a property
// of the config alone — never of the thread count — so routing a design
// with a thread pool is bit-identical to routing it serially. Negotiation
// rounds reroute the nets on overflowed edges in narrower waves, each
// wave ripping up only its own nets just before rerouting them.
#pragma once

#include <cstdint>
#include <vector>

#include "place/placement.hpp"
#include "route/net_route.hpp"
#include "route/routing_grid.hpp"
#include "runtime/thread_pool.hpp"

namespace sma::route {

struct RouterConfig {
  double via_cost = 2.0;          ///< base cost of one via step
  double wrongway_mult = 4.0;     ///< planar cost multiplier off-preference
  double m1_cost_mult = 3.0;      ///< extra cost of routing through M1
  double present_weight = 0.8;    ///< soft cost of partially used edges
  double history_weight = 1.0;    ///< PathFinder history contribution
  double overflow_penalty = 8.0;  ///< hard cost per unit of overflow
  int max_iterations = 4;         ///< rip-up-and-reroute rounds
  std::size_t max_expansions = 400000;  ///< per two-pin connection

  /// Nets routed concurrently against one usage snapshot before their
  /// usage is committed (in net order). Part of the routing algorithm, so
  /// it feeds the layout-cache digest; 1 = the sequential schedule where
  /// every net sees every previously routed net. Must be >= 1.
  /// Default 4: measured on the small/mid profiles, waves of 4-8 keep
  /// final overflow at the sequential router's level and BEOL-excursion
  /// counts (the M3 attack's raw material) within a few percent of the
  /// sequential schedule, while 16+ starts leaving residual overflow.
  /// Raise it on many-core hosts routing large designs; `bench_flow
  /// --wave=N` reports a width's routing quality.
  int wave_size = 4;

  /// Per-layer height surcharge: planar cost is multiplied by
  /// 1 + layer_height_cost * (layer - 3) above M3. Together with via cost
  /// this makes upper-metal excursions short: a route climbs over a
  /// congested stretch and comes back down within a few gcells — the
  /// short BEOL hops whose virtual pins an M3 attacker exploits.
  double layer_height_cost = 2.0;
};

/// Result of routing one design.
struct RoutingResult {
  std::vector<NetRoute> routes;   ///< indexed by NetId
  int final_overflow = 0;         ///< overflowed edges after the last round
  int fallback_routes = 0;        ///< connections routed by the L-shape fallback
  std::int64_t total_wirelength = 0;
  int total_vias = 0;
  /// Wall-clock spent in rip-up-and-reroute rounds (subset of the total
  /// routing time; feeds the per-phase numbers in BENCH_flow.json).
  double negotiation_seconds = 0.0;
};

/// Route all nets of `placement` on `grid`. The grid's usage is left
/// populated so callers can inspect congestion. A non-null `pool` routes
/// each wave's nets concurrently; the result is bit-identical to the
/// serial run at any thread count (see the wave contract above). Throws
/// std::invalid_argument, naming the field, on a non-positive `wave_size`
/// or on a cost weight (`via_cost`, `wrongway_mult`, `m1_cost_mult`,
/// `present_weight`, `history_weight`, `overflow_penalty`,
/// `layer_height_cost`) that is negative or not finite; zero is legal.
RoutingResult route_design(const place::Placement& placement,
                           RoutingGrid& grid, const RouterConfig& config = {},
                           runtime::ThreadPool* pool = nullptr);

}  // namespace sma::route
