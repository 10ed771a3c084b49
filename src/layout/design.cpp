#include "layout/design.hpp"

#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace sma::layout {

// Phase timing rides on obs::TimedSpan: each phase still lands its
// wall-clock seconds in Design::timings (the public accessor benches
// consume, measured whether or not tracing is on), and when tracing is on
// the same interval shows up as a "flow" span in the Chrome trace.
Design run_flow(netlist::Netlist netlist, const FlowConfig& config,
                runtime::ThreadPool* pool) {
  util::Timer timer;
  Design design;
  design.netlist = std::make_unique<netlist::Netlist>(std::move(netlist));
  design.stack =
      std::make_unique<tech::LayerStack>(tech::LayerStack::nangate45_like());

  place::Floorplan floorplan =
      place::make_floorplan(*design.netlist, config.utilization);
  design.placement =
      std::make_unique<place::Placement>(design.netlist.get(), floorplan);

  {
    obs::TimedSpan span("flow", "global_place");
    place::GlobalPlacerConfig global = config.global_placer;
    global.seed ^= config.seed * 0x9e3779b97f4a7c15ULL;
    run_global_placement(*design.placement, global, pool);
    design.timings.global_place_seconds = span.stop();
  }

  {
    obs::TimedSpan span("flow", "legalize");
    run_legalization(*design.placement);
    design.timings.legalize_seconds = span.stop();
  }

  {
    obs::TimedSpan span("flow", "detailed_place");
    place::DetailedPlacerConfig detailed = config.detailed_placer;
    detailed.seed ^= config.seed * 0xbf58476d1ce4e5b9ULL;
    run_detailed_placement(*design.placement, detailed);
    design.timings.detailed_place_seconds = span.stop();
  }

  design.grid = std::make_unique<route::RoutingGrid>(
      design.stack.get(), floorplan.die, config.grid);
  {
    obs::TimedSpan span("flow", "route");
    design.routing = route::route_design(*design.placement, *design.grid,
                                         config.router, pool);
    design.timings.route_seconds = span.stop();
  }

  util::log_info() << design.netlist->name() << ": flow done in "
                   << timer.seconds() << "s, HPWL "
                   << design.placement->total_hpwl() << ", WL "
                   << design.routing.total_wirelength << ", vias "
                   << design.routing.total_vias << ", overflow "
                   << design.routing.final_overflow;
  return design;
}

}  // namespace sma::layout
