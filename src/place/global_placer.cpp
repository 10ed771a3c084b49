#include "place/global_placer.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "obs/obs.hpp"
#include "runtime/parallel.hpp"

namespace sma::place {

namespace {

using netlist::CellId;
using netlist::NetId;
using netlist::PinRef;

struct Vec2 {
  double x = 0.0;
  double y = 0.0;
};

/// Accumulation lanes of the centroid relaxation (see `relax`). The lane
/// count fixes how the floating-point sums associate, so it shapes every
/// layout (and the layout-cache entries keyed on them); the thread count
/// never does.
constexpr int kRelaxLanes = 8;

/// Per-lane accumulation arrays for `relax`, allocated once per placement
/// run and zeroed per iteration (the zeroing is cheap next to the net
/// traversal; keeping the arrays avoids reallocating lanes * cells
/// doubles a few hundred times per flow).
struct RelaxScratch {
  struct Lane {
    std::vector<Vec2> target;
    std::vector<double> weight;
  };
  std::vector<Lane> lanes;

  RelaxScratch(int num_lanes, std::size_t num_cells) : lanes(num_lanes) {
    for (Lane& lane : lanes) {
      lane.target.resize(num_cells);
      lane.weight.resize(num_cells);
    }
  }
};

/// One pass of centroid relaxation: every cell moves `pull` of the way
/// toward the weighted centroid of the nets it belongs to (ports act as
/// fixed anchors). This is the classic quadratic-placement fixed-point
/// iteration (Jacobi flavor: all reads see the previous iteration's
/// positions, so lanes may accumulate concurrently).
///
/// Lane l accumulates the contiguous net block [l*N/L, (l+1)*N/L) into its
/// private arrays; the per-cell reduction then adds lane partials in lane
/// order. The association of the floating-point sums is fixed by the lane
/// count alone — never by the thread count — which is what makes the
/// parallel run bit-identical to the serial one.
void relax(const netlist::Netlist& nl, const Placement& placement,
           std::vector<Vec2>& pos, double pull, RelaxScratch& scratch,
           runtime::ThreadPool* pool) {
  const std::size_t num_lanes = scratch.lanes.size();
  const std::size_t num_nets = static_cast<std::size_t>(nl.num_nets());
  const std::size_t num_cells = static_cast<std::size_t>(nl.num_cells());

  SMA_COUNT("place.relax_passes");
  runtime::parallel_for(pool, 0, num_lanes, /*grain=*/1, [&](std::size_t l) {
    SMA_TRACE_SPAN_V("place", "relax_lane", l);
    RelaxScratch::Lane& lane = scratch.lanes[l];
    std::fill(lane.target.begin(), lane.target.end(), Vec2{});
    std::fill(lane.weight.begin(), lane.weight.end(), 0.0);
    const NetId net_begin = static_cast<NetId>(l * num_nets / num_lanes);
    const NetId net_end = static_cast<NetId>((l + 1) * num_nets / num_lanes);

    for (NetId n = net_begin; n < net_end; ++n) {
      const netlist::Net& net = nl.net(n);
      if (net.degree() < 2) continue;
      double cx = 0.0;
      double cy = 0.0;
      int count = 0;
      auto accumulate = [&](const PinRef& pin) {
        if (pin.is_port()) {
          const util::Point& p = placement.port_location(pin.id);
          cx += static_cast<double>(p.x);
          cy += static_cast<double>(p.y);
        } else {
          cx += pos[pin.id].x;
          cy += pos[pin.id].y;
        }
        ++count;
      };
      if (net.has_driver()) accumulate(net.driver);
      for (const PinRef& sink : net.sinks) accumulate(sink);
      cx /= count;
      cy /= count;

      // Small nets pull harder than huge fanout nets.
      double w = 1.0 / static_cast<double>(net.degree() - 1);
      auto attract = [&](const PinRef& pin) {
        if (pin.is_port()) return;
        lane.target[pin.id].x += w * cx;
        lane.target[pin.id].y += w * cy;
        lane.weight[pin.id] += w;
      };
      if (net.has_driver()) attract(net.driver);
      for (const PinRef& sink : net.sinks) attract(sink);
    }
  });

  // Fixed-order lane reduction + position update, one cell per slot.
  runtime::parallel_for(
      pool, 0, num_cells, runtime::default_grain(num_cells, pool),
      [&](std::size_t c) {
        double tx = 0.0;
        double ty = 0.0;
        double w = 0.0;
        for (const RelaxScratch::Lane& lane : scratch.lanes) {
          tx += lane.target[c].x;
          ty += lane.target[c].y;
          w += lane.weight[c];
        }
        if (w <= 0.0) return;
        pos[c].x += pull * (tx / w - pos[c].x);
        pos[c].y += pull * (ty / w - pos[c].y);
      });
}

/// Order-preserving uniform spreading: cells are sorted into k x-bands of
/// equal count, and within each band sorted by y and distributed evenly.
/// Monotone in both axes, so the relaxed solution's neighbourhood
/// structure survives while density becomes uniform — the whitespace the
/// legalizer needs. Bands cover disjoint slices of `order` and the
/// comparators are strict total orders (index tie-breaks), so the
/// per-band sorts run concurrently with a unique, deterministic result.
void spread_by_rank(const Placement& placement, std::vector<Vec2>& pos,
                    runtime::ThreadPool* pool) {
  const int num_cells = static_cast<int>(pos.size());
  if (num_cells == 0) return;
  const Floorplan& fp = placement.floorplan();
  const double die_w = static_cast<double>(fp.die.width());
  const double die_h = static_cast<double>(fp.die.height());

  const int bands = std::max(1, static_cast<int>(std::lround(
                                     std::sqrt(static_cast<double>(num_cells)))));
  std::vector<int> order(num_cells);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (pos[a].x != pos[b].x) return pos[a].x < pos[b].x;
    if (pos[a].y != pos[b].y) return pos[a].y < pos[b].y;
    return a < b;
  });

  const int per_band = (num_cells + bands - 1) / bands;
  runtime::parallel_for(
      pool, 0, static_cast<std::size_t>(bands), /*grain=*/1,
      [&](std::size_t band) {
        const int begin = static_cast<int>(band) * per_band;
        const int end = std::min(num_cells, begin + per_band);
        if (begin >= end) return;
        std::sort(order.begin() + begin, order.begin() + end,
                  [&](int a, int b) {
                    if (pos[a].y != pos[b].y) return pos[a].y < pos[b].y;
                    if (pos[a].x != pos[b].x) return pos[a].x < pos[b].x;
                    return a < b;
                  });
        const double x = (band + 0.5) / bands * die_w;
        const int in_band = end - begin;
        for (int i = begin; i < end; ++i) {
          pos[order[i]].x = x;
          pos[order[i]].y = (i - begin + 0.5) / in_band * die_h;
        }
      });
}

}  // namespace

void run_global_placement(Placement& placement,
                          const GlobalPlacerConfig& config,
                          runtime::ThreadPool* pool) {
  const netlist::Netlist& nl = placement.netlist();
  const Floorplan& fp = placement.floorplan();
  if (nl.num_cells() == 0) return;

  util::Pcg32 rng(config.seed, 0x91ac);
  const double die_w = static_cast<double>(fp.die.width());
  const double die_h = static_cast<double>(fp.die.height());

  // Initial placement: cell-id-order space-filling boustrophedon with a
  // little jitter. Netlist ids follow logic creation order, which is
  // already strongly correlated with connectivity, so this start embeds
  // the graph's "bandwidth" structure for the relaxation to refine —
  // much better than a random start for local fixed-point methods.
  std::vector<Vec2> pos(nl.num_cells());
  const int cols = std::max(1, static_cast<int>(std::lround(std::sqrt(
                                    static_cast<double>(nl.num_cells())))));
  const int rows_needed = (nl.num_cells() + cols - 1) / cols;
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    int row = c / cols;
    int col = c % cols;
    if (row % 2 == 1) col = cols - 1 - col;  // snake
    pos[c].x = (col + 0.3 + 0.4 * rng.next_double()) / cols * die_w;
    pos[c].y = (row + 0.3 + 0.4 * rng.next_double()) /
               std::max(1, rows_needed) * die_h;
  }

  RelaxScratch scratch(kRelaxLanes, static_cast<std::size_t>(nl.num_cells()));

  // Alternate quadratic relaxation (clusters connected cells) with
  // order-preserving spreading (restores uniform density). Early rounds
  // relax aggressively to discover global structure; later rounds make
  // smaller moves to refine it — a Kraftwerk-like schedule.
  for (int round = 0; round < config.rounds; ++round) {
    SMA_TRACE_SPAN_V("place", "round", round);
    const double t = config.rounds <= 1
                         ? 0.0
                         : static_cast<double>(round) / (config.rounds - 1);
    const double pull = config.pull * (1.0 - 0.6 * t);
    const int iters =
        std::max(2, static_cast<int>(config.iterations_per_round * (1.0 - 0.5 * t)));
    for (int iter = 0; iter < iters; ++iter) {
      relax(nl, placement, pos, pull, scratch, pool);
      for (CellId c = 0; c < nl.num_cells(); ++c) {
        pos[c].x = std::clamp(pos[c].x, 0.0, die_w - 1.0);
        pos[c].y = std::clamp(pos[c].y, 0.0, die_h - 1.0);
      }
    }
    spread_by_rank(placement, pos, pool);
  }

  // Final gentle relaxation without re-collapsing.
  for (int iter = 0; iter < config.refine_iterations; ++iter) {
    relax(nl, placement, pos, config.refine_pull, scratch, pool);
    for (CellId c = 0; c < nl.num_cells(); ++c) {
      pos[c].x = std::clamp(pos[c].x, 0.0, die_w - 1.0);
      pos[c].y = std::clamp(pos[c].y, 0.0, die_h - 1.0);
    }
  }

  for (CellId c = 0; c < nl.num_cells(); ++c) {
    placement.set_cell_origin(c,
                              {static_cast<std::int64_t>(pos[c].x),
                               static_cast<std::int64_t>(pos[c].y)});
  }
}

}  // namespace sma::place
