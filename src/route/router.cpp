#include "route/router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <queue>
#include <stdexcept>

#include "obs/obs.hpp"
#include "runtime/parallel.hpp"
#include "util/logging.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace sma::route {

namespace {

using netlist::NetId;
using netlist::PinRef;

constexpr float kInf = std::numeric_limits<float>::infinity();

/// Scratch arrays for repeated A* searches, epoch-stamped so they never
/// need clearing between searches.
struct SearchScratch {
  std::vector<float> g;
  std::vector<std::uint8_t> arrival;    ///< Dir + 1; 0 = tree seed
  std::vector<std::uint32_t> epoch;     ///< search stamp
  std::vector<std::uint32_t> tree_mark; ///< per-net tree membership stamp
  std::uint32_t current_epoch = 0;
  std::uint32_t current_net_mark = 0;

  explicit SearchScratch(std::size_t nodes)
      : g(nodes, kInf),
        arrival(nodes, 0),
        epoch(nodes, 0),
        tree_mark(nodes, 0) {}
};

struct QueueEntry {
  float f;
  std::size_t node;
  friend bool operator>(const QueueEntry& a, const QueueEntry& b) {
    if (a.f != b.f) return a.f > b.f;
    return a.node > b.node;  // deterministic tie-break
  }
};

/// Routes one net at a time against a *read-only* grid view. A NetRouter
/// never mutates grid usage — commits and rip-ups are the wave scheduler's
/// job — so several NetRouters (one per concurrent task, each with its own
/// scratch) may route different nets of a wave against the same snapshot.
class NetRouter {
 public:
  NetRouter(const RoutingGrid& grid, const RouterConfig& config)
      : grid_(grid), config_(config), scratch_(grid.num_nodes()) {}

  /// Cost of traversing the edge leaving `c` in direction `d`.
  float edge_cost(const GridCoord& c, Dir d) const {
    const bool via = d == Dir::kUp || d == Dir::kDown;
    double base;
    if (via) {
      base = config_.via_cost;
    } else {
      base = grid_.is_preferred(c.layer, d) ? 1.0 : config_.wrongway_mult;
      if (c.layer == 1) base *= config_.m1_cost_mult;
      if (c.layer > 3) {
        base *= 1.0 + config_.layer_height_cost * (c.layer - 3);
      }
    }
    const int usage = grid_.usage(c, d);
    const int cap = grid_.capacity(c, d);
    double cost = base;
    cost += config_.history_weight * grid_.history(c, d);
    if (cap > 0) {
      cost += config_.present_weight * (static_cast<double>(usage) / cap);
      if (usage >= cap) {
        cost += config_.overflow_penalty * (usage - cap + 1);
      }
    } else {
      // Zero-capacity edge (e.g. wrongway_capacity = 0): any use of it is
      // pure overflow. The old `usage / cap` produced NaN/inf here and
      // poisoned the priority-queue ordering; keep the cost finite so A*
      // stays ordered and simply avoids these edges whenever it can.
      cost += config_.overflow_penalty * (usage + 1);
    }
    return static_cast<float>(cost);
  }

  /// Admissible heuristic toward a layer-1 target.
  float heuristic(const GridCoord& c, const GridCoord& target) const {
    double planar = std::abs(c.x - target.x) + std::abs(c.y - target.y);
    double vias = config_.via_cost * std::abs(c.layer - target.layer);
    return static_cast<float>(planar + vias);
  }

  /// Route one net against the current grid snapshot. Does NOT commit
  /// usage — the caller commits `route.grid_edges` in fixed net order.
  void route_net(NetRoute& route, int& fallbacks) {
    route.grid_edges.clear();
    if (route.pin_nodes.size() < 2) return;

    ++scratch_.current_net_mark;
    const std::uint32_t mark = scratch_.current_net_mark;
    std::vector<std::size_t> tree_nodes;

    auto add_tree_node = [&](const GridCoord& c) {
      std::size_t index = grid_.node_index(c);
      if (scratch_.tree_mark[index] != mark) {
        scratch_.tree_mark[index] = mark;
        tree_nodes.push_back(index);
      }
    };
    add_tree_node(route.pin_nodes.front());

    // Targets in increasing distance from the driver pin.
    std::vector<GridCoord> targets(route.pin_nodes.begin() + 1,
                                   route.pin_nodes.end());
    const GridCoord root = route.pin_nodes.front();
    std::stable_sort(targets.begin(), targets.end(),
                     [&](const GridCoord& a, const GridCoord& b) {
                       int da = std::abs(a.x - root.x) + std::abs(a.y - root.y);
                       int db = std::abs(b.x - root.x) + std::abs(b.y - root.y);
                       return da < db;
                     });

    for (const GridCoord& target : targets) {
      std::size_t target_index = grid_.node_index(target);
      if (scratch_.tree_mark[target_index] == mark) continue;  // already on tree
      if (!astar_to_tree(target, mark, tree_nodes, route)) {
        fallback_route(target, mark, tree_nodes, route);
        ++fallbacks;
      }
    }
  }

 private:
  /// Multi-source A* from the current tree to `target`. On success, appends
  /// the path's edges and adds its nodes to the tree.
  bool astar_to_tree(const GridCoord& target, std::uint32_t mark,
                     std::vector<std::size_t>& tree_nodes, NetRoute& route) {
    ++scratch_.current_epoch;
    const std::uint32_t epoch = scratch_.current_epoch;
    std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                        std::greater<QueueEntry>>
        open;

    auto visit = [&](std::size_t index, float g, std::uint8_t arrival) {
      if (scratch_.epoch[index] == epoch && scratch_.g[index] <= g) return;
      scratch_.epoch[index] = epoch;
      scratch_.g[index] = g;
      scratch_.arrival[index] = arrival;
      GridCoord c = grid_.coord_of(index);
      open.push({g + heuristic(c, target), index});
    };

    for (std::size_t index : tree_nodes) {
      visit(index, 0.0f, 0);
    }

    const std::size_t target_index = grid_.node_index(target);
    std::size_t expansions = 0;

    while (!open.empty()) {
      auto [f, index] = open.top();
      open.pop();
      GridCoord c = grid_.coord_of(index);
      float g = scratch_.g[index];
      if (f > g + heuristic(c, target)) continue;  // stale entry

      if (index == target_index) {
        backtrack(index, mark, tree_nodes, route);
        return true;
      }
      if (++expansions > config_.max_expansions) return false;

      for (int d = 0; d < kNumDirs; ++d) {
        Dir dir = static_cast<Dir>(d);
        if (!grid_.has_neighbor(c, dir)) continue;
        float ng = g + edge_cost(c, dir);
        std::size_t ni = grid_.node_index(grid_.neighbor(c, dir));
        visit(ni, ng, static_cast<std::uint8_t>(d + 1));
      }
    }
    return false;
  }

  /// Walk parents from `index` back to a tree seed, recording edges and
  /// enlarging the tree.
  void backtrack(std::size_t index, std::uint32_t mark,
                 std::vector<std::size_t>& tree_nodes, NetRoute& route) {
    while (scratch_.arrival[index] != 0) {
      Dir arrival_dir = static_cast<Dir>(scratch_.arrival[index] - 1);
      GridCoord here = grid_.coord_of(index);
      GridCoord prev = grid_.neighbor(here, reverse(arrival_dir));
      route.grid_edges.push_back({prev, arrival_dir});
      if (scratch_.tree_mark[index] != mark) {
        scratch_.tree_mark[index] = mark;
        tree_nodes.push_back(index);
      }
      index = grid_.node_index(prev);
    }
    if (scratch_.tree_mark[index] != mark) {
      scratch_.tree_mark[index] = mark;
      tree_nodes.push_back(index);
    }
  }

  /// Guaranteed connection, ignoring congestion: climbs toward M3/M2, runs
  /// the two planar legs, and descends at the target. Used only when A*
  /// exceeds its expansion budget. Every leg stops as soon as a step is
  /// blocked (grid edge missing) instead of spinning on it — a grid with
  /// fewer than 3 metal layers, or a target on the die edge, used to make
  /// the old unconditional `while` legs loop forever.
  void fallback_route(const GridCoord& target, std::uint32_t mark,
                      std::vector<std::size_t>& tree_nodes, NetRoute& route) {
    GridCoord from = grid_.coord_of(tree_nodes.front());
    auto step = [&](GridCoord& c, Dir d) -> bool {
      if (!grid_.has_neighbor(c, d)) return false;
      route.grid_edges.push_back({c, d});
      c = grid_.neighbor(c, d);
      std::size_t index = grid_.node_index(c);
      if (scratch_.tree_mark[index] != mark) {
        scratch_.tree_mark[index] = mark;
        tree_nodes.push_back(index);
      }
      return true;
    };

    // Horizontal leg on M3 (preferred horizontal), vertical leg on M2;
    // on a shorter stack the legs run on the highest layer reachable.
    while (from.layer < 3 && step(from, Dir::kUp)) {}
    while (from.x < target.x && step(from, Dir::kEast)) {}
    while (from.x > target.x && step(from, Dir::kWest)) {}
    while (from.layer > 2 && step(from, Dir::kDown)) {}
    while (from.y < target.y && step(from, Dir::kNorth)) {}
    while (from.y > target.y && step(from, Dir::kSouth)) {}
    while (from.layer > target.layer && step(from, Dir::kDown)) {}
    while (from.layer < target.layer && step(from, Dir::kUp)) {}
  }

  const RoutingGrid& grid_;
  const RouterConfig& config_;
  SearchScratch scratch_;
};

/// Lends NetRouters (each carrying O(num_nodes) scratch) to concurrent
/// wave tasks. Which task gets which router never affects results: the
/// scratch is epoch-stamped, so a route is a pure function of the net and
/// the grid snapshot. At most one router per simultaneously running task
/// is ever allocated; the serial path reuses a single router throughout.
class RouterLoaner {
 public:
  RouterLoaner(const RoutingGrid& grid, const RouterConfig& config)
      : grid_(grid), config_(config) {}

  std::unique_ptr<NetRouter> acquire() SMA_EXCLUDES(mutex_) {
    {
      util::MutexLock lock(mutex_);
      if (!idle_.empty()) {
        std::unique_ptr<NetRouter> router = std::move(idle_.back());
        idle_.pop_back();
        return router;
      }
    }
    return std::make_unique<NetRouter>(grid_, config_);
  }

  void release(std::unique_ptr<NetRouter> router) SMA_EXCLUDES(mutex_) {
    util::MutexLock lock(mutex_);
    idle_.push_back(std::move(router));
  }

 private:
  const RoutingGrid& grid_;
  const RouterConfig& config_;
  util::Mutex mutex_;
  std::vector<std::unique_ptr<NetRouter>> idle_ SMA_GUARDED_BY(mutex_);
};

/// Unique pin grid nodes of a net, driver first.
std::vector<GridCoord> pin_nodes_of(const place::Placement& placement,
                                    const RoutingGrid& grid, NetId net_id) {
  const netlist::Netlist& nl = placement.netlist();
  const netlist::Net& net = nl.net(net_id);
  std::vector<GridCoord> nodes;
  auto add = [&](const PinRef& pin) {
    GridCoord c = grid.gcell_at(placement.pin_location(pin));
    for (const GridCoord& existing : nodes) {
      if (existing == c) return;
    }
    nodes.push_back(c);
  };
  if (net.has_driver()) add(net.driver);
  for (const PinRef& sink : net.sinks) add(sink);
  return nodes;
}

/// Add (`delta` = 1) or remove (-1) a route's usage on the grid.
void apply_route_usage(RoutingGrid& grid, const NetRoute& route, int delta) {
  for (const GridEdge& e : route.grid_edges) {
    grid.add_usage(e.from, e.dir, delta);
  }
}

/// Route `nets` in waves of `wave`: each wave's nets run against the grid
/// as it stands at the wave's start (nobody writes usage mid-wave), then
/// their usage is committed in net order. Slot-addressed routes and
/// fallback counters keep the parallel run bit-identical to the serial
/// one.
void route_waves(const std::vector<NetId>& nets, RoutingResult& result,
                 RoutingGrid& grid, RouterLoaner& loaner,
                 runtime::ThreadPool* pool, std::size_t wave,
                 bool rip_up_first) {
  std::vector<int> fallbacks(nets.size(), 0);
  for (std::size_t begin = 0; begin < nets.size(); begin += wave) {
    const std::size_t end = std::min(nets.size(), begin + wave);
    SMA_TRACE_SPAN_V("route", "wave", end - begin);
    SMA_COUNT("route.waves");
    SMA_HISTOGRAM("route.wave_nets", end - begin);
    if (rip_up_first) {
      // Negotiation: rip up only THIS wave's routes, immediately before
      // rerouting them. Offenders scheduled for later waves keep their
      // usage on the grid, so the wave reroutes under realistic pressure
      // instead of the near-empty grid a bulk rip-up would leave — the
      // close-to-sequential visibility PathFinder's convergence needs.
      for (std::size_t i = begin; i < end; ++i) {
        apply_route_usage(grid, result.routes[nets[i]], -1);
      }
      SMA_COUNT_N("route.ripped_up", end - begin);
    }
    runtime::parallel_for(pool, begin, end, /*grain=*/1, [&](std::size_t i) {
      std::unique_ptr<NetRouter> router = loaner.acquire();
      router->route_net(result.routes[nets[i]], fallbacks[i]);
      loaner.release(std::move(router));
    });
    for (std::size_t i = begin; i < end; ++i) {
      apply_route_usage(grid, result.routes[nets[i]], 1);
    }
  }
  for (int f : fallbacks) result.fallback_routes += f;
}

}  // namespace

RoutingResult route_design(const place::Placement& placement,
                           RoutingGrid& grid, const RouterConfig& config,
                           runtime::ThreadPool* pool) {
  if (config.wave_size < 1) {
    throw std::invalid_argument("RouterConfig::wave_size must be >= 1");
  }
  const netlist::Netlist& nl = placement.netlist();
  RoutingResult result;
  result.routes.resize(nl.num_nets());

  RouterLoaner loaner(grid, config);

  // Route order: small-HPWL nets first; they have the least flexibility.
  const std::size_t num_nets = static_cast<std::size_t>(nl.num_nets());
  std::vector<NetId> order(num_nets);
  std::vector<std::int64_t> hpwl(num_nets, 0);
  runtime::parallel_for(pool, 0, num_nets,
                        runtime::default_grain(num_nets, pool),
                        [&](std::size_t i) {
                          const NetId n = static_cast<NetId>(i);
                          order[i] = n;
                          result.routes[i].net = n;
                          result.routes[i].pin_nodes =
                              pin_nodes_of(placement, grid, n);
                          hpwl[i] = placement.net_hpwl(n);
                        });
  std::stable_sort(order.begin(), order.end(),
                   [&](NetId a, NetId b) { return hpwl[a] < hpwl[b]; });

  {
    SMA_TRACE_SPAN_V("route", "first_pass", num_nets);
    route_waves(order, result, grid, loaner, pool,
                static_cast<std::size_t>(config.wave_size),
                /*rip_up_first=*/false);
  }

  // Negotiation rounds: reroute nets that touch overflowed edges, wave
  // by wave with per-wave rip-up. Every schedule decision below depends
  // only on the config and the round index — never the thread count — so
  // determinism is preserved.
  util::Timer negotiation_timer;
  for (int iter = 1; iter < config.max_iterations; ++iter) {
    if (grid.overflow_count() == 0) break;
    SMA_TRACE_SPAN_V("route", "negotiation_round", iter);
    SMA_COUNT("route.negotiation_rounds");
    grid.bump_history_on_overflow(1.0f);

    std::vector<NetId> offenders;
    for (NetId n : order) {
      const NetRoute& route = result.routes[n];
      for (const GridEdge& e : route.grid_edges) {
        if (grid.usage(e.from, e.dir) > grid.capacity(e.from, e.dir)) {
          offenders.push_back(n);
          break;
        }
      }
    }
    util::log_debug() << "route iter " << iter << ": "
                      << grid.overflow_count() << " overflowed edges, "
                      << offenders.size() << " nets to reroute";
    SMA_COUNT_N("route.offender_nets", offenders.size());
    if (config.bulk_negotiation_ripup) {
      for (NetId n : offenders) {
        apply_route_usage(grid, result.routes[n], -1);
      }
    }
    // The negotiation wave width starts at half the first-pass width and
    // halves again every round (never below 1), so late rounds approach
    // the sequential schedule whose full usage visibility PathFinder's
    // convergence relies on — full-width negotiation waves measurably
    // leave residual overflow (see BENCH_flow.json).
    const std::size_t negotiation_wave = std::max<std::size_t>(
        1, static_cast<std::size_t>(config.wave_size) >>
               std::min(iter, 30));  // clamped: shifting by >= width is UB
    route_waves(offenders, result, grid, loaner, pool, negotiation_wave,
                /*rip_up_first=*/!config.bulk_negotiation_ripup);
  }
  result.negotiation_seconds = negotiation_timer.seconds();

  result.final_overflow = grid.overflow_count();
  SMA_COUNT_N("route.fallback_routes", result.fallback_routes);
  SMA_COUNT_N("route.final_overflow", result.final_overflow);
  for (NetRoute& route : result.routes) {
    build_geometry(grid, route);
    result.total_wirelength += route.total_wirelength();
    result.total_vias += static_cast<int>(route.vias.size());
  }
  return result;
}

}  // namespace sma::route
