#include "route/router.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <tuple>
#include <utility>

#include "netlist/generator.hpp"
#include "obs/obs.hpp"
#include "place/global_placer.hpp"
#include "place/legalizer.hpp"
#include "route/open_list.hpp"
#include "test_support.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace sma::route {
namespace {

struct Routed {
  netlist::Netlist nl;
  place::Floorplan fp;
  std::unique_ptr<place::Placement> placement;
  tech::LayerStack stack = tech::LayerStack::nangate45_like();
  std::unique_ptr<RoutingGrid> grid;
  RoutingResult result;
};

Routed route_small(int gates = 80, std::uint64_t seed = 5,
                   runtime::ThreadPool* pool = nullptr,
                   const RouterConfig& config = {},
                   const RoutingGrid::Config& grid_config = {}) {
  netlist::GeneratorConfig generator;
  generator.num_inputs = 8;
  generator.num_outputs = 4;
  generator.num_gates = gates;
  generator.seed = seed;
  Routed r{netlist::generate_netlist(generator, "r", &sma::test::library()),
           {},
           nullptr};
  r.fp = place::make_floorplan(r.nl);
  r.placement = std::make_unique<place::Placement>(&r.nl, r.fp);
  place::run_global_placement(*r.placement);
  place::run_legalization(*r.placement);
  r.grid = std::make_unique<RoutingGrid>(&r.stack, r.fp.die, grid_config);
  r.result = route_design(*r.placement, *r.grid, config, pool);
  return r;
}

/// Full structural equality of two routing results (edges, geometry,
/// aggregates) — the byte-identity the wave determinism contract promises.
void expect_identical(const RoutingResult& a, const RoutingResult& b) {
  ASSERT_EQ(a.routes.size(), b.routes.size());
  EXPECT_EQ(a.total_wirelength, b.total_wirelength);
  EXPECT_EQ(a.total_vias, b.total_vias);
  EXPECT_EQ(a.final_overflow, b.final_overflow);
  EXPECT_EQ(a.fallback_routes, b.fallback_routes);
  for (std::size_t n = 0; n < a.routes.size(); ++n) {
    const NetRoute& ra = a.routes[n];
    const NetRoute& rb = b.routes[n];
    ASSERT_EQ(ra.grid_edges.size(), rb.grid_edges.size()) << "net " << n;
    for (std::size_t e = 0; e < ra.grid_edges.size(); ++e) {
      EXPECT_EQ(ra.grid_edges[e].from, rb.grid_edges[e].from)
          << "net " << n << " edge " << e;
      EXPECT_EQ(ra.grid_edges[e].dir, rb.grid_edges[e].dir)
          << "net " << n << " edge " << e;
    }
    EXPECT_EQ(ra.segments, rb.segments) << "net " << n;
    EXPECT_EQ(ra.vias, rb.vias) << "net " << n;
  }
}

/// Every routed net must form a connected tree over its pin nodes, using
/// only edges that exist in `grid`.
void expect_connected(const netlist::Netlist& nl, const RoutingGrid& grid,
                      const RoutingResult& result) {
  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    const NetRoute& route = result.routes[n];
    if (route.pin_nodes.size() < 2) continue;

    std::map<std::size_t, std::vector<std::size_t>> adj;
    for (const GridEdge& e : route.grid_edges) {
      ASSERT_TRUE(grid.has_neighbor(e.from, e.dir))
          << "net " << nl.net(n).name << " uses a nonexistent edge";
      std::size_t a = grid.node_index(e.from);
      std::size_t b = grid.node_index(grid.neighbor(e.from, e.dir));
      adj[a].push_back(b);
      adj[b].push_back(a);
    }
    // BFS from the first pin.
    std::set<std::size_t> reached;
    std::vector<std::size_t> stack = {grid.node_index(route.pin_nodes[0])};
    reached.insert(stack[0]);
    while (!stack.empty()) {
      std::size_t v = stack.back();
      stack.pop_back();
      for (std::size_t w : adj[v]) {
        if (reached.insert(w).second) stack.push_back(w);
      }
    }
    for (const GridCoord& pin : route.pin_nodes) {
      EXPECT_TRUE(reached.contains(grid.node_index(pin)))
          << "net " << nl.net(n).name << " pin unreachable";
    }
  }
}

void check_connectivity(const Routed& r) {
  expect_connected(r.nl, *r.grid, r.result);
}

TEST(Router, AllNetsConnected) {
  Routed r = route_small();
  check_connectivity(r);
}

TEST(Router, UsageMatchesRoutes) {
  Routed r = route_small();
  // Sum of per-net edges must equal total grid usage.
  long route_edges = 0;
  for (const NetRoute& route : r.result.routes) {
    route_edges += static_cast<long>(route.grid_edges.size());
  }
  long usage = 0;
  for (std::size_t i = 0; i < r.grid->num_nodes(); ++i) {
    GridCoord c = r.grid->coord_of(i);
    if (r.grid->has_neighbor(c, Dir::kEast)) {
      usage += r.grid->usage(c, Dir::kEast);
    }
    if (r.grid->has_neighbor(c, Dir::kNorth)) {
      usage += r.grid->usage(c, Dir::kNorth);
    }
    if (r.grid->has_neighbor(c, Dir::kUp)) usage += r.grid->usage(c, Dir::kUp);
  }
  EXPECT_EQ(route_edges, usage);
}

TEST(Router, GeometryMatchesGridEdges) {
  Routed r = route_small();
  for (const NetRoute& route : r.result.routes) {
    // Total segment length equals planar step count * gcell size.
    long planar = 0;
    long vias = 0;
    for (const GridEdge& e : route.grid_edges) {
      if (e.dir == Dir::kUp || e.dir == Dir::kDown) {
        ++vias;
      } else {
        ++planar;
      }
    }
    EXPECT_EQ(route.total_wirelength(),
              planar * r.grid->gcell_size());
    EXPECT_EQ(static_cast<long>(route.vias.size()), vias);
  }
}

TEST(Router, WirelengthTracksPlacementHpwl) {
  Routed r = route_small();
  std::int64_t hpwl = r.placement->total_hpwl();
  // Routed length >= HPWL-ish and below a generous detour factor.
  EXPECT_GT(r.result.total_wirelength, hpwl / 4);
  EXPECT_LT(r.result.total_wirelength, hpwl * 4);
}

TEST(Router, PreferredDirectionDominates) {
  Routed r = route_small(120, 9);
  long preferred = 0;
  long wrongway = 0;
  for (const NetRoute& route : r.result.routes) {
    for (const RouteSegment& s : route.segments) {
      bool horizontal = s.is_horizontal();
      bool pref = (r.stack.preferred(s.layer) == util::Axis::kHorizontal) ==
                  horizontal;
      if (s.a == s.b) continue;
      (pref ? preferred : wrongway) += s.length();
    }
  }
  EXPECT_GT(preferred, 3 * wrongway);
}

TEST(Router, LowOverflowOnUncongestedDesign) {
  Routed r = route_small();
  EXPECT_LE(r.result.final_overflow, 5);
}

TEST(Router, DeterministicAcrossRuns) {
  Routed a = route_small(60, 77);
  Routed b = route_small(60, 77);
  ASSERT_EQ(a.result.routes.size(), b.result.routes.size());
  EXPECT_EQ(a.result.total_wirelength, b.result.total_wirelength);
  EXPECT_EQ(a.result.total_vias, b.result.total_vias);
  for (std::size_t i = 0; i < a.result.routes.size(); ++i) {
    EXPECT_EQ(a.result.routes[i].grid_edges.size(),
              b.result.routes[i].grid_edges.size());
  }
}

// --- wave determinism contract -----------------------------------------

TEST(Router, ParallelWavesBitIdenticalToSerial) {
  // Two design profiles, threads {1, 2, 4}: the wave schedule is a
  // property of the config, so every pool size must reproduce the serial
  // routes edge-for-edge.
  struct Profile {
    int gates;
    std::uint64_t seed;
  };
  for (const Profile& p : {Profile{80, 5}, Profile{150, 9}}) {
    Routed serial = route_small(p.gates, p.seed);
    for (int threads : {2, 4}) {
      runtime::ThreadPool pool(threads - 1);
      Routed parallel = route_small(p.gates, p.seed, &pool);
      SCOPED_TRACE(testing::Message()
                   << "gates " << p.gates << ", threads " << threads);
      expect_identical(serial.result, parallel.result);
    }
  }
}

TEST(Router, WaveScheduleStableAcrossRuns) {
  // Same binary, same config, two runs (one serial, two pooled): the
  // schedule must not depend on any run-to-run state.
  runtime::ThreadPool pool(3);
  Routed first = route_small(60, 77, &pool);
  Routed second = route_small(60, 77, &pool);
  expect_identical(first.result, second.result);
}

TEST(Router, WaveSizeOneSerialMatchesPooled) {
  // wave_size = 1: every net sees all previously committed nets. It
  // differs from the default wave schedule in general but must itself be
  // deterministic and parallel-invariant (each wave holds a single net, so
  // the pool has nothing to reorder).
  RouterConfig sequential;
  sequential.wave_size = 1;
  Routed serial = route_small(100, 21, nullptr, sequential);
  runtime::ThreadPool pool(2);
  Routed parallel = route_small(100, 21, &pool, sequential);
  expect_identical(serial.result, parallel.result);
}

// --- pinned route digests ----------------------------------------------

/// FNV-1a digest of every net's grid edges plus the routing totals.
std::uint64_t route_digest(const RoutingResult& result) {
  util::ContentHash h;
  for (const NetRoute& route : result.routes) {
    h.add(static_cast<std::uint64_t>(route.grid_edges.size()));
    for (const GridEdge& e : route.grid_edges) {
      h.add(e.from.layer).add(e.from.x).add(e.from.y);
      h.add(static_cast<int>(e.dir));
    }
  }
  h.add(result.total_wirelength).add(result.total_vias);
  h.add(result.final_overflow).add(result.fallback_routes);
  return h.digest();
}

TEST(Router, RoutesMatchPinnedDigests) {
  // Digests recorded before the A* expansion was reworked (per-layer cost
  // tables, coordinates carried in queue entries, a reused open list); the
  // search must keep reproducing them edge for edge, serial and pooled.
  // One 250-gate design under four configs that each pin a different
  // part of the search; in every case its first pass overflows, so
  // negotiation rounds run too.
  constexpr int kGates = 250;
  constexpr std::uint64_t kSeed = 21;

  struct Case {
    const char* name;
    RouterConfig config;
    RoutingGrid::Config grid;
    std::uint64_t digest;
  };
  std::vector<Case> cases(4);
  cases[0].name = "default config, negotiation rounds";
  cases[0].digest = 0x3e7d2170a98c8b51;
  // Small enough that some searches give up part-way and take the
  // fallback: pins that stale pops do not count toward the budget.
  cases[1].name = "max_expansions = 300";
  cases[1].config.max_expansions = 300;
  cases[1].digest = 0x5a3b55e60547a3e8;
  cases[2].name = "wrongway_capacity = 0";
  cases[2].grid.wrongway_capacity = 0;
  cases[2].digest = 0x979571a10029c8a7;
  // The sequential schedule: every net sees every earlier net's usage.
  // Its digest was recorded from the reworked search, which the cases
  // above tie to the earlier one.
  cases[3].name = "wave_size = 1";
  cases[3].config.wave_size = 1;
  cases[3].digest = 0x3c4d691fd508a1fb;

  runtime::ThreadPool pool(3);  // 4 threads with the caller
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    RouterConfig first_pass_only = c.config;
    first_pass_only.max_iterations = 1;
    EXPECT_GT(route_small(kGates, kSeed, nullptr, first_pass_only, c.grid)
                  .result.final_overflow,
              0);
    Routed serial = route_small(kGates, kSeed, nullptr, c.config, c.grid);
    Routed pooled = route_small(kGates, kSeed, &pool, c.config, c.grid);
    EXPECT_EQ(route_digest(serial.result), c.digest)
        << std::hex << "0x" << route_digest(serial.result);
    EXPECT_EQ(route_digest(pooled.result), c.digest)
        << std::hex << "0x" << route_digest(pooled.result);
    if (c.config.max_expansions < RouterConfig{}.max_expansions) {
      EXPECT_GT(serial.result.fallback_routes, 0);
    }
  }

  // Every budget from 1 to 64 on a small design: some search then reaches
  // its target on the first pop after its last allowed expansion, which
  // pins that the budget is checked after the target test.
  const Routed small = route_small(80, 5);
  util::ContentHash serial_sweep;
  util::ContentHash pooled_sweep;
  for (std::size_t budget = 1; budget <= 64; ++budget) {
    RouterConfig config;
    config.max_expansions = budget;
    RoutingGrid serial_grid(&small.stack, small.fp.die);
    serial_sweep.add(
        route_digest(route_design(*small.placement, serial_grid, config)));
    RoutingGrid pooled_grid(&small.stack, small.fp.die);
    pooled_sweep.add(route_digest(
        route_design(*small.placement, pooled_grid, config, &pool)));
  }
  EXPECT_EQ(serial_sweep.digest(), 0x1b3a9eab003f3a0eu)
      << std::hex << "0x" << serial_sweep.digest();
  EXPECT_EQ(pooled_sweep.digest(), 0x1b3a9eab003f3a0eu)
      << std::hex << "0x" << pooled_sweep.digest();
}

TEST(Router, SearchWorkCountersMatchSerialAndPooled) {
  // The route.astar_* counters count the A* work behind the route seconds:
  // searches, expansions, open-list pushes and stale pops. Each is a sum
  // over nets of a per-net count, so none may depend on the thread count.
  obs::Registry& registry = obs::Registry::global();
  obs::Counter& searches = registry.counter("route.astar_searches");
  obs::Counter& expansions = registry.counter("route.astar_expansions");
  obs::Counter& pushes = registry.counter("route.astar_pushes");
  obs::Counter& stale_pops = registry.counter("route.astar_stale_pops");
  auto work = [&](runtime::ThreadPool* pool) {
    const std::uint64_t s0 = searches.value();
    const std::uint64_t e0 = expansions.value();
    const std::uint64_t p0 = pushes.value();
    const std::uint64_t st0 = stale_pops.value();
    route_small(150, 9, pool);
    return std::tuple(searches.value() - s0, expansions.value() - e0,
                      pushes.value() - p0, stale_pops.value() - st0);
  };
  const auto serial = work(nullptr);
  runtime::ThreadPool pool(3);  // 4 threads with the caller
  const auto pooled = work(&pool);
  const auto [serial_searches, serial_expansions, serial_pushes,
              serial_stale_pops] = serial;
  EXPECT_GT(serial_searches, 0u);
  EXPECT_GT(serial_expansions, serial_searches);
  // Every pop is an expansion, a stale pop or a search's last pop.
  EXPECT_GE(serial_pushes, serial_expansions + serial_stale_pops);
  EXPECT_EQ(serial, pooled);
}

TEST(Router, RejectsInvalidConfig) {
  netlist::GeneratorConfig generator;
  generator.num_inputs = 4;
  generator.num_outputs = 2;
  generator.num_gates = 10;
  netlist::Netlist nl =
      netlist::generate_netlist(generator, "w", &sma::test::library());
  place::Floorplan fp = place::make_floorplan(nl);
  place::Placement placement(&nl, fp);
  place::run_global_placement(placement);
  tech::LayerStack stack = tech::LayerStack::nangate45_like();
  auto route_with = [&](const RouterConfig& config) {
    RoutingGrid grid(&stack, fp.die);
    return route_design(placement, grid, config);
  };
  RouterConfig zero_wave;
  zero_wave.wave_size = 0;
  EXPECT_THROW(route_with(zero_wave), std::invalid_argument);

  // A negative or NaN cost weight would give a negative or NaN f, which
  // the open list's key cannot order; each is rejected by name. Zero is a
  // legal weight.
  const std::pair<const char*, double RouterConfig::*> weights[] = {
      {"via_cost", &RouterConfig::via_cost},
      {"wrongway_mult", &RouterConfig::wrongway_mult},
      {"m1_cost_mult", &RouterConfig::m1_cost_mult},
      {"present_weight", &RouterConfig::present_weight},
      {"history_weight", &RouterConfig::history_weight},
      {"overflow_penalty", &RouterConfig::overflow_penalty},
      {"layer_height_cost", &RouterConfig::layer_height_cost},
  };
  for (const auto& [name, field] : weights) {
    for (double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
      SCOPED_TRACE(std::string(name) + " = " + std::to_string(bad));
      RouterConfig config;
      config.*field = bad;
      try {
        route_with(config);
        ADD_FAILURE() << "accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
            << e.what();
      }
    }
    RouterConfig zero;
    zero.*field = 0.0;
    EXPECT_NO_THROW(route_with(zero)) << name;
  }
}

// --- the open list ------------------------------------------------------

/// The open list's order before the packed key: by f, ties by node id
/// (a greater-than, as std::priority_queue takes it).
struct ReferenceEntry {
  float f;
  std::uint32_t node;
};
bool pops_after(const ReferenceEntry& a, const ReferenceEntry& b) {
  if (a.f != b.f) return a.f > b.f;
  return a.node > b.node;
}

TEST(OpenList, PopsInExactFNodeOrder) {
  // Random interleaved pushes and pops, mirrored into a std::priority_queue
  // under the old comparator, must pop the same (f, node) sequence bit for
  // bit. The values cover what the router can push: +0, subnormal f, many
  // equal f at different nodes, repeated (f, node) pairs (a node pushed
  // twice at one f) and f up to 1e30.
  util::Pcg32 rng(2019);
  std::vector<ReferenceEntry> pushed;
  auto random_entry = [&]() -> ReferenceEntry {
    if (!pushed.empty() && rng.next_below(8) == 0) {
      return pushed[rng.next_below(static_cast<std::uint32_t>(pushed.size()))];
    }
    float f = 0.0f;
    switch (rng.next_below(6)) {
      case 0: f = 0.0f; break;
      case 1:
        f = std::numeric_limits<float>::denorm_min() *
            static_cast<float>(1 + rng.next_below(1000));
        break;
      case 2: f = static_cast<float>(rng.next_below(8)); break;
      case 3: f = static_cast<float>(rng.next_double() * 500.0); break;
      case 4: f = static_cast<float>(rng.next_double() * 1e30); break;
      default: f = 1e30f; break;
    }
    const std::uint32_t node =
        rng.next_below(4) == 0 ? rng.next_u32() : rng.next_below(64);
    return {f, node};
  };
  // The router carries a node's coordinates in its entry; here they are
  // a function of the node, as they are there.
  auto entry_of = [](const ReferenceEntry& e) {
    return OpenEntry{open_key(e.f, e.node),
                     static_cast<std::uint16_t>(e.node),
                     static_cast<std::uint16_t>(e.node >> 16),
                     static_cast<std::uint8_t>(e.node % 251)};
  };

  OpenList open;
  std::size_t pops = 0;
  for (int round = 0; round < 40; ++round) {
    open.clear();  // reused across rounds, as across searches
    std::priority_queue<ReferenceEntry, std::vector<ReferenceEntry>,
                        decltype(&pops_after)>
        reference(&pops_after);
    pushed.clear();
    // Alternate growing and draining phases so the heap is exercised at
    // every size, including the one-child last parent.
    const std::uint32_t push_percent = round % 2 == 0 ? 70 : 45;
    for (int step = 0; step < 3000; ++step) {
      if (reference.empty() || rng.next_below(100) < push_percent) {
        const ReferenceEntry e = random_entry();
        pushed.push_back(e);
        reference.push(e);
        open.push(entry_of(e));
      } else {
        const ReferenceEntry want = reference.top();
        reference.pop();
        const OpenEntry got = open.pop();
        ++pops;
        ASSERT_EQ(key_node(got.key), want.node) << "pop " << pops;
        ASSERT_EQ(std::bit_cast<std::uint32_t>(key_f(got.key)),
                  std::bit_cast<std::uint32_t>(want.f))
            << "pop " << pops;
        const OpenEntry coords = entry_of(want);
        ASSERT_EQ(got.x, coords.x);
        ASSERT_EQ(got.y, coords.y);
        ASSERT_EQ(got.layer, coords.layer);
      }
      ASSERT_EQ(open.size(), reference.size());
    }
    while (!reference.empty()) {  // drain: the tail order must match too
      const ReferenceEntry want = reference.top();
      reference.pop();
      const OpenEntry got = open.pop();
      ++pops;
      ASSERT_EQ(got.key, open_key(want.f, want.node)) << "pop " << pops;
    }
    EXPECT_TRUE(open.empty());
  }
  EXPECT_GT(pops, 50000u);
}

// --- fallback-route termination (regression) ---------------------------

TEST(Router, FallbackTerminatesOnTwoLayerGrid) {
  // max_expansions = 0 forces every connection through the L-shape
  // fallback. On a 2-layer stack the fallback's "climb to M3" leg can
  // never complete; the old unconditional `while (layer < 3) step(kUp)`
  // spun forever once the step was blocked. The legs must bail out when
  // blocked and still deliver a connected route.
  std::vector<tech::LayerInfo> layers = {
      {"M1", util::Axis::kHorizontal, 140, 0.2, 3.0},
      {"M2", util::Axis::kVertical, 140, 0.2, 3.0},
  };
  tech::LayerStack two_layer(layers);

  netlist::GeneratorConfig generator;
  generator.num_inputs = 6;
  generator.num_outputs = 3;
  generator.num_gates = 40;
  generator.seed = 3;
  netlist::Netlist nl =
      netlist::generate_netlist(generator, "two", &sma::test::library());
  place::Floorplan fp = place::make_floorplan(nl);
  place::Placement placement(&nl, fp);
  place::run_global_placement(placement);
  place::run_legalization(placement);

  RoutingGrid grid(&two_layer, fp.die);
  RouterConfig config;
  config.max_expansions = 0;  // A* always gives up -> fallback every leg
  RoutingResult result = route_design(placement, grid, config);

  EXPECT_GT(result.fallback_routes, 0);
  // Every multi-pin net still forms a connected tree over its pins.
  expect_connected(nl, grid, result);
}

// --- zero-capacity edge costs (regression) -----------------------------

TEST(Router, ZeroWrongwayCapacityRoutesWithoutNanCosts) {
  // wrongway_capacity = 0 is a legal "no wrong-way tracks" config. The
  // old edge cost divided usage by the zero capacity, and the resulting
  // NaN broke the A* ordering; now such edges carry a finite overflow
  // surcharge and routing completes connected and deterministically.
  netlist::GeneratorConfig generator;
  generator.num_inputs = 8;
  generator.num_outputs = 4;
  generator.num_gates = 80;
  generator.seed = 5;
  netlist::Netlist nl =
      netlist::generate_netlist(generator, "zw", &sma::test::library());
  place::Floorplan fp = place::make_floorplan(nl);
  place::Placement placement(&nl, fp);
  place::run_global_placement(placement);
  place::run_legalization(placement);

  tech::LayerStack stack = tech::LayerStack::nangate45_like();
  RoutingGrid::Config grid_config;
  grid_config.wrongway_capacity = 0;
  RoutingGrid grid_a(&stack, fp.die, grid_config);
  RoutingResult a = route_design(placement, grid_a);
  RoutingGrid grid_b(&stack, fp.die, grid_config);
  RoutingResult b = route_design(placement, grid_b);
  expect_identical(a, b);

  for (netlist::NetId n = 0; n < nl.num_nets(); ++n) {
    const NetRoute& route = a.routes[n];
    if (route.pin_nodes.size() < 2) continue;
    EXPECT_FALSE(route.grid_edges.empty()) << "net " << nl.net(n).name;
  }
}

TEST(NetRoute, PerLayerAccounting) {
  Routed r = route_small();
  for (const NetRoute& route : r.result.routes) {
    std::int64_t sum = 0;
    for (int layer = 1; layer <= 6; ++layer) {
      sum += route.wirelength_on(layer);
    }
    EXPECT_EQ(sum, route.total_wirelength());
    int via_sum = 0;
    for (int cut = 1; cut <= 5; ++cut) via_sum += route.vias_on(cut);
    EXPECT_EQ(via_sum, static_cast<int>(route.vias.size()));
  }
}

}  // namespace
}  // namespace sma::route
