#include "route/router.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "route/open_list.hpp"
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

// RoutingGrid's size bounds guarantee that every node fits the widths of
// an open-list entry.
static_assert(RoutingGrid::kMaxNodes <=
              std::numeric_limits<std::uint32_t>::max());
static_assert(RoutingGrid::kMaxGcellsPerAxis - 1 <=
              std::numeric_limits<std::uint16_t>::max());
static_assert(RoutingGrid::kMaxLayers <=
              std::numeric_limits<std::uint8_t>::max());

/// Scratch arrays for repeated A* searches, epoch-stamped so they never
/// need clearing between searches, plus the open list every search reuses.
struct SearchScratch {
  std::vector<float> g;
  std::vector<std::uint8_t> arrival;    ///< Dir + 1; 0 = tree seed
  std::vector<std::uint32_t> epoch;     ///< search stamp
  std::vector<std::uint32_t> tree_mark; ///< per-net tree membership stamp
  OpenList open;                        ///< reused by every search
  std::uint32_t current_epoch = 0;
  std::uint32_t current_net_mark = 0;

  explicit SearchScratch(std::size_t nodes)
      : g(nodes, kInf),
        arrival(nodes, 0),
        epoch(nodes, 0),
        tree_mark(nodes, 0) {}
};

/// Routes one net at a time against a *read-only* grid view. A NetRouter
/// never mutates grid usage — commits and rip-ups are the wave scheduler's
/// job — so several NetRouters (one per concurrent task, each with its own
/// scratch) may route different nets of a wave against the same snapshot.
class NetRouter {
 public:
  NetRouter(const RoutingGrid& grid, const RouterConfig& config)
      : grid_(grid),
        config_(config),
        scratch_(grid.num_nodes()),
        edge_classes_(static_cast<std::size_t>(grid.num_layers())) {
    for (int layer = 1; layer <= grid.num_layers(); ++layer) {
      for (int d = 0; d < kNumDirs; ++d) {
        const Dir dir = static_cast<Dir>(d);
        edge_classes_[layer - 1][d] = {base_cost(layer, dir),
                                       grid.layer_capacity(layer, dir)};
      }
    }
  }

  /// Route one net against the current grid snapshot. Does NOT commit
  /// usage — the caller commits `route.grid_edges` in fixed net order.
  void route_net(NetRoute& route, int& fallbacks) {
    route.grid_edges.clear();
    if (route.pin_nodes.size() < 2) return;

    ++scratch_.current_net_mark;
    const std::uint32_t mark = scratch_.current_net_mark;
    std::vector<GridCoord> tree_nodes;
    add_tree_node(route.pin_nodes.front(), mark, tree_nodes);

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

    SearchWork work;
    for (const GridCoord& target : targets) {
      std::size_t target_index = grid_.node_index(target);
      if (scratch_.tree_mark[target_index] == mark) continue;  // already on tree
      ++work.searches;
      if (!astar_to_tree(target, mark, tree_nodes, route, work)) {
        fallback_route(target, mark, tree_nodes, route);
        ++fallbacks;
      }
    }
    SMA_COUNT_N("route.astar_searches", work.searches);
    SMA_COUNT_N("route.astar_expansions", work.expansions);
    SMA_COUNT_N("route.astar_pushes", work.pushes);
    SMA_COUNT_N("route.astar_stale_pops", work.stale_pops);
  }

 private:
  /// One net's A* work, added to the route.astar_* counters once per net.
  struct SearchWork {
    std::size_t searches = 0;
    std::size_t expansions = 0;  ///< nodes expanded
    std::size_t pushes = 0;      ///< open-list pushes
    std::size_t stale_pops = 0;  ///< pops of superseded entries
  };

  /// Base cost and capacity shared by every edge leaving one layer in one
  /// direction; usage and history are the only per-edge cost terms.
  struct EdgeClass {
    double base;
    int capacity;
  };

  double base_cost(int layer, Dir d) const {
    if (d == Dir::kUp || d == Dir::kDown) return config_.via_cost;
    double base = grid_.is_preferred(layer, d) ? 1.0 : config_.wrongway_mult;
    if (layer == 1) base *= config_.m1_cost_mult;
    if (layer > 3) {
      base *= 1.0 + config_.layer_height_cost * (layer - 3);
    }
    return base;
  }

  /// Cost of traversing an edge of class `edge` with the given usage and
  /// history.
  float edge_cost(const EdgeClass& edge, int usage, float history) const {
    const int cap = edge.capacity;
    double cost = edge.base;
    cost += config_.history_weight * history;
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

  void add_tree_node(const GridCoord& c, std::uint32_t mark,
                     std::vector<GridCoord>& tree_nodes) {
    const std::size_t index = grid_.node_index(c);
    if (scratch_.tree_mark[index] != mark) {
      scratch_.tree_mark[index] = mark;
      tree_nodes.push_back(c);
    }
  }

  /// Multi-source A* from the current tree to `target`. On success, appends
  /// the path's edges and adds its nodes to the tree. Adds its expansions,
  /// pushes and stale pops to `work`; at most `max_expansions` expansions
  /// per search.
  bool astar_to_tree(const GridCoord& target, std::uint32_t mark,
                     std::vector<GridCoord>& tree_nodes, NetRoute& route,
                     SearchWork& work) {
    ++scratch_.current_epoch;
    const std::uint32_t epoch = scratch_.current_epoch;
    OpenList& open = scratch_.open;
    open.clear();
    std::size_t pushes = 0;
    std::size_t stale_pops = 0;

    // f = g + h is >= +0.0 and never NaN (g starts at +0.0f; validate()
    // keeps every cost term and the heuristic >= 0), as the open list's key
    // requires.
    auto visit = [&](std::size_t index, const GridCoord& c, float g,
                     std::uint8_t arrival) {
      if (scratch_.epoch[index] == epoch && scratch_.g[index] <= g) return;
      scratch_.epoch[index] = epoch;
      scratch_.g[index] = g;
      scratch_.arrival[index] = arrival;
      open.push({open_key(g + heuristic(c, target),
                          static_cast<std::uint32_t>(index)),
                 static_cast<std::uint16_t>(c.x),
                 static_cast<std::uint16_t>(c.y),
                 static_cast<std::uint8_t>(c.layer)});
      ++pushes;
    };

    for (const GridCoord& c : tree_nodes) {
      visit(grid_.node_index(c), c, 0.0f, 0);
    }

    const std::size_t target_index = grid_.node_index(target);
    const int nx = grid_.nx();
    const int ny = grid_.ny();
    const int layers = grid_.num_layers();
    std::size_t expanded = 0;
    bool found = false;

    while (!open.empty()) {
      const OpenEntry top = open.pop();
      const std::size_t index = key_node(top.key);
      const GridCoord c{top.layer, top.x, top.y};
      const float g = scratch_.g[index];
      if (key_f(top.key) > g + heuristic(c, target)) {  // stale entry
        ++stale_pops;
        continue;
      }

      if (index == target_index) {
        backtrack(c, mark, tree_nodes, route);
        found = true;
        break;
      }
      if (expanded == config_.max_expansions) break;
      ++expanded;

      // Neighbours in Dir order (E, W, N, S, Up, Down), stepped from the
      // carried coordinates.
      const std::array<EdgeClass, kNumDirs>& edges = edge_classes_[c.layer - 1];
      auto relax = [&](Dir d, const GridCoord& next) {
        const float ng =
            g + edge_cost(edges[static_cast<int>(d)], grid_.usage_at(index, d),
                          grid_.history_at(index, d));
        visit(grid_.neighbor_index(index, d), next, ng,
              static_cast<std::uint8_t>(static_cast<int>(d) + 1));
      };
      if (c.x + 1 < nx) relax(Dir::kEast, {c.layer, c.x + 1, c.y});
      if (c.x > 0) relax(Dir::kWest, {c.layer, c.x - 1, c.y});
      if (c.y + 1 < ny) relax(Dir::kNorth, {c.layer, c.x, c.y + 1});
      if (c.y > 0) relax(Dir::kSouth, {c.layer, c.x, c.y - 1});
      if (c.layer < layers) relax(Dir::kUp, {c.layer + 1, c.x, c.y});
      if (c.layer > 1) relax(Dir::kDown, {c.layer - 1, c.x, c.y});
    }
    work.expansions += expanded;
    work.pushes += pushes;
    work.stale_pops += stale_pops;
    return found;
  }

  /// Walk parents from `at` back to a tree seed, recording edges and
  /// enlarging the tree.
  void backtrack(GridCoord at, std::uint32_t mark,
                 std::vector<GridCoord>& tree_nodes, NetRoute& route) {
    std::size_t index = grid_.node_index(at);
    while (scratch_.arrival[index] != 0) {
      Dir arrival_dir = static_cast<Dir>(scratch_.arrival[index] - 1);
      GridCoord prev = grid_.neighbor(at, reverse(arrival_dir));
      route.grid_edges.push_back({prev, arrival_dir});
      add_tree_node(at, mark, tree_nodes);
      at = prev;
      index = grid_.node_index(at);
    }
    add_tree_node(at, mark, tree_nodes);
  }

  /// Guaranteed connection, ignoring congestion: climbs toward M3/M2, runs
  /// the two planar legs, and descends at the target. Used only when A*
  /// exceeds its expansion budget. Every leg stops as soon as a step is
  /// blocked (grid edge missing) instead of spinning on it — a grid with
  /// fewer than 3 metal layers, or a target on the die edge, used to make
  /// the old unconditional `while` legs loop forever.
  void fallback_route(const GridCoord& target, std::uint32_t mark,
                      std::vector<GridCoord>& tree_nodes, NetRoute& route) {
    GridCoord from = tree_nodes.front();
    auto step = [&](GridCoord& c, Dir d) -> bool {
      if (!grid_.has_neighbor(c, d)) return false;
      route.grid_edges.push_back({c, d});
      c = grid_.neighbor(c, d);
      add_tree_node(c, mark, tree_nodes);
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
  std::vector<std::array<EdgeClass, kNumDirs>> edge_classes_;  ///< by layer
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

/// Rejects a config the search cannot order: a negative or non-finite
/// weight gives a negative or NaN f (and a negative via_cost makes the
/// heuristic inadmissible).
void validate(const RouterConfig& config) {
  if (config.wave_size < 1) {
    throw std::invalid_argument("RouterConfig::wave_size must be >= 1");
  }
  const std::pair<const char*, double> weights[] = {
      {"via_cost", config.via_cost},
      {"wrongway_mult", config.wrongway_mult},
      {"m1_cost_mult", config.m1_cost_mult},
      {"present_weight", config.present_weight},
      {"history_weight", config.history_weight},
      {"overflow_penalty", config.overflow_penalty},
      {"layer_height_cost", config.layer_height_cost},
  };
  for (const auto& [name, value] : weights) {
    if (!std::isfinite(value) || value < 0.0) {
      throw std::invalid_argument(std::string("RouterConfig::") + name +
                                  " must be finite and >= 0, got " +
                                  std::to_string(value));
    }
  }
}

}  // namespace

RoutingResult route_design(const place::Placement& placement,
                           RoutingGrid& grid, const RouterConfig& config,
                           runtime::ThreadPool* pool) {
  validate(config);
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
    // The negotiation wave width starts at half the first-pass width and
    // halves again every round (never below 1), so late rounds approach
    // the sequential schedule whose full usage visibility PathFinder's
    // convergence relies on — full-width negotiation waves measurably
    // leave residual overflow (see BENCH_flow.json).
    const std::size_t negotiation_wave = std::max<std::size_t>(
        1, static_cast<std::size_t>(config.wave_size) >>
               std::min(iter, 30));  // clamped: shifting by >= width is UB
    route_waves(offenders, result, grid, loaner, pool, negotiation_wave,
                /*rip_up_first=*/true);
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
