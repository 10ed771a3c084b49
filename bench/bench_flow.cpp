// Cache-cold physical-design-flow bench: per-phase timings and the wave
// router's determinism + quality contract (the measurement for
// intra-flow parallelism).
//
// For every requested design the bench runs the wave-scheduled flow at
// each requested thread count, verifies that every count produces a
// byte-identical layout (DEF string), and reports global-place /
// legalize / detailed-place / route / negotiation seconds per run. The
// serial run's routing quality (wirelength, vias, final overflow,
// fallbacks) goes into the JSON, so a change to the wave schedule shows
// its cost against the committed BENCH_flow.json. The embedded run report
// covers the serial runs only, so its counters (route.astar_* and the
// rest) do not depend on the thread list.
//
// Human-readable progress goes to stderr; stdout carries exactly one JSON
// object (scripts/bench.sh redirects it to BENCH_flow.json). Exit status
// is non-zero if any thread count broke byte-identity.
//
// Flags:
//   --threads=1,2,4    thread counts to sweep (1 always measured first)
//   --designs=c432,... design profiles (default: c432 and b13, small and
//                      mid, plus c3540, large enough that the router's A*
//                      dominates the flow)
//   --wave=N           wave_size for the wave runs (default: RouterConfig)
//   --seed=2019        flow seed
//   --smoke            minimal sweep (c432, threads 1,2) for CI
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "layout/def_io.hpp"
#include "layout/design.hpp"
#include "netlist/profiles.hpp"
#include "route/router.hpp"
#include "runtime/thread_pool.hpp"
#include "tech/cell_library.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace {

using sma::benchutil::parse_int;
using sma::benchutil::split_list;

struct FlowRun {
  int threads = 0;
  double seconds = 0.0;
  sma::layout::FlowTimings timings;
  double negotiation_seconds = 0.0;
  std::int64_t wirelength = 0;
  int vias = 0;
  int overflow = 0;
  int fallbacks = 0;
  std::string def;  ///< byte-identity witness
};

FlowRun run_flow_once(const sma::netlist::DesignProfile& profile,
                      const sma::layout::FlowConfig& flow, int threads,
                      sma::obs::RunReport* report = nullptr) {
  static const sma::tech::CellLibrary kLibrary =
      sma::tech::CellLibrary::nangate45_like();
  sma::netlist::Netlist nl =
      sma::netlist::build_profile(profile, &kLibrary, flow.seed);
  sma::runtime::Config runtime_config;
  runtime_config.threads = threads;
  std::unique_ptr<sma::runtime::ThreadPool> pool = runtime_config.make_pool();

  sma::util::Timer timer;
  sma::layout::Design design =
      sma::layout::run_flow(std::move(nl), flow, pool.get());
  if (report != nullptr) report->add_flow(profile.name, design);
  FlowRun run;
  run.threads = threads;
  run.seconds = timer.seconds();
  run.timings = design.timings;
  run.negotiation_seconds = design.routing.negotiation_seconds;
  run.wirelength = design.routing.total_wirelength;
  run.vias = design.routing.total_vias;
  run.overflow = design.routing.final_overflow;
  run.fallbacks = design.routing.fallback_routes;
  run.def = sma::layout::to_def_string(design);
  return run;
}

void append_run_json(std::ostringstream& json, const FlowRun& run,
                     double baseline_seconds) {
  json << "{\"threads\": " << run.threads << ", \"seconds\": " << run.seconds
       << ", \"global_place_seconds\": " << run.timings.global_place_seconds
       << ", \"legalize_seconds\": " << run.timings.legalize_seconds
       << ", \"detailed_place_seconds\": "
       << run.timings.detailed_place_seconds
       << ", \"route_seconds\": " << run.timings.route_seconds
       << ", \"negotiation_seconds\": " << run.negotiation_seconds
       << ", \"speedup\": "
       << (run.seconds > 0.0 ? baseline_seconds / run.seconds : 0.0) << "}";
}

void append_quality_json(std::ostringstream& json, const FlowRun& run) {
  json << "\"seconds\": " << run.seconds
       << ", \"wirelength\": " << run.wirelength << ", \"vias\": " << run.vias
       << ", \"overflow\": " << run.overflow
       << ", \"fallbacks\": " << run.fallbacks;
}

}  // namespace

int main(int argc, char** argv) {
  sma::util::set_log_level(sma::util::LogLevel::kWarn);
  sma::benchutil::init_observability();

  std::vector<int> threads = {1, 2, 4};
  std::vector<std::string> design_names = {"c432", "b13", "c3540"};
  int wave_size = sma::route::RouterConfig{}.wave_size;
  std::uint64_t seed = 2019;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      threads = {1, 2};
      design_names = {"c432"};
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads.clear();
      for (const std::string& t : split_list(arg.substr(10))) {
        threads.push_back(parse_int(t, "--threads", 1));
      }
    } else if (arg.rfind("--designs=", 0) == 0) {
      design_names = split_list(arg.substr(10));
    } else if (arg.rfind("--wave=", 0) == 0) {
      wave_size = parse_int(arg.substr(7), "--wave", 1);
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = static_cast<std::uint64_t>(
          parse_int(arg.substr(7), "--seed", 0));
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }
  if (threads.empty() || design_names.empty()) {
    std::cerr << "need at least one thread count and one design\n";
    return 2;
  }

  // Serial first: it is the speedup denominator and the identity witness.
  threads.erase(std::remove(threads.begin(), threads.end(), 1),
                threads.end());
  threads.insert(threads.begin(), 1);

  // Oversubscribed counts cannot speed anything up; skip but report them
  // (same policy as bench_parallel, so 1-core hosts still contribute).
  const int host_concurrency = sma::runtime::Config{}.resolved();
  std::vector<int> skipped;
  {
    std::vector<int> runnable;
    for (int t : threads) {
      (t <= host_concurrency ? runnable : skipped).push_back(t);
    }
    if (runnable.empty()) runnable.push_back(1);
    threads = std::move(runnable);
  }

  std::vector<sma::netlist::DesignProfile> designs;
  for (const std::string& name : design_names) {
    try {
      designs.push_back(sma::netlist::find_profile(name));
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
  }

  sma::layout::FlowConfig wave_flow;
  wave_flow.seed = seed;
  wave_flow.router.wave_size = wave_size;

  std::cerr << "bench_flow: " << designs.size() << " designs, wave_size "
            << wave_size << ", host concurrency " << host_concurrency
            << (smoke ? ", smoke" : "") << "\n";

  bool deterministic = true;
  sma::obs::RunReport report("flow", 1);
  const auto log_run = [](const sma::netlist::DesignProfile& profile,
                          const FlowRun& run, const FlowRun& serial) {
    std::cerr << profile.name << " wave threads=" << run.threads << ": "
              << run.seconds << "s (place " << run.timings.global_place_seconds
              << "s, route " << run.timings.route_seconds << "s, negotiation "
              << run.negotiation_seconds << "s), speedup "
              << (run.seconds > 0.0 ? serial.seconds / run.seconds : 0.0)
              << "x\n";
  };

  // Every design's serial run first: it is the speedup denominator and the
  // identity witness. The report reads the process-global metrics, so it
  // is frozen before any pooled run adds to them.
  std::vector<std::vector<FlowRun>> runs(designs.size());
  for (std::size_t d = 0; d < designs.size(); ++d) {
    runs[d].push_back(run_flow_once(designs[d], wave_flow, 1, &report));
    log_run(designs[d], runs[d].front(), runs[d].front());
  }
  const std::string report_json = sma::benchutil::report_fragment(report);

  std::ostringstream body;
  double summary_baseline = 0.0;
  double best_speedup = 0.0;
  int best_threads = 1;
  for (std::size_t d = 0; d < designs.size(); ++d) {
    const sma::netlist::DesignProfile& profile = designs[d];
    std::vector<FlowRun>& design_runs = runs[d];
    bool design_identical = true;
    for (std::size_t i = 1; i < threads.size(); ++i) {
      FlowRun run = run_flow_once(profile, wave_flow, threads[i]);
      if (run.def != design_runs.front().def) {
        design_identical = false;
        deterministic = false;
        std::cerr << "  DETERMINISM FAILURE: " << profile.name
                  << " threads=" << run.threads
                  << " layout differs from threads=1\n";
      }
      run.def.clear();  // only the serial witness is ever compared against
      log_run(profile, run, design_runs.front());
      design_runs.push_back(std::move(run));
    }
    const double baseline_seconds = design_runs.front().seconds;
    if (d == 0) summary_baseline = baseline_seconds;
    for (const FlowRun& run : design_runs) {
      const double speedup =
          run.seconds > 0.0 ? baseline_seconds / run.seconds : 0.0;
      if (speedup > best_speedup) {
        best_speedup = speedup;
        best_threads = run.threads;
      }
    }

    body << (d ? ", " : "") << "{\"design\": ";
    sma::obs::write_json_string(body, profile.name);
    body << ", \"wave\": {\"wave_size\": " << wave_size << ", ";
    append_quality_json(body, design_runs.front());
    body << ", \"identical_across_threads\": "
         << (design_identical ? "true" : "false") << ", \"runs\": [";
    for (std::size_t r = 0; r < design_runs.size(); ++r) {
      if (r) body << ", ";
      append_run_json(body, design_runs[r], baseline_seconds);
    }
    body << "]}}";
  }

  std::ostringstream json;
  json << "{\"bench\": \"flow\", \"seed\": " << seed
       << ", \"wave_size\": " << wave_size << ", \"host_concurrency\": "
       << host_concurrency << ", \"skipped_threads\": [";
  for (std::size_t i = 0; i < skipped.size(); ++i) {
    json << (i ? ", " : "") << skipped[i];
  }
  json << "], \"designs\": [" << body.str()
       << "], \"summary\": {\"baseline_seconds\": " << summary_baseline
       << ", \"best_speedup\": " << best_speedup
       << ", \"best_speedup_threads\": " << best_threads
       << ", \"measured_counts\": " << threads.size() << "}"
       << ", \"deterministic\": " << (deterministic ? "true" : "false")
       << report_json << "}";
  std::cout << json.str() << "\n";
  sma::benchutil::flush_trace();
  std::cerr << (deterministic
                    ? "determinism check: all thread counts byte-identical\n"
                    : "determinism check FAILED: layouts differ\n");
  return deterministic ? 0 : 1;
}
