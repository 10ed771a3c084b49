// Reproduces Table 3: CCR and runtime of the DL attack vs the network-flow
// attack [1], split at Metal 1 and Metal 3, over the 16 benchmark designs.
//
// Flags:
//   --fast (default)   reduced-fidelity profile sized for one CPU core
//   --paper            full 99x99 images / 31 candidates / Table-2 net
//   --layers=1,3       which split layers to run
//   --designs=c432,... subset of designs (default: all 16)
//   --flow-timeout=S   network-flow budget per design in seconds
//   --threads=N        runtime threads (default: hardware concurrency;
//                      DL results are identical at any thread count, but
//                      flow-attack timeout verdicts are wall-clock-based
//                      and can flip under contention, and per-design
//                      Time columns reflect the contended run — use
//                      --threads=1 for paper-comparable runtimes)
//
// Expected shape (not absolute numbers — our substrate is a from-scratch
// simulator, not the authors' Innovus testbed): DL CCR >= flow CCR on
// average, larger gap at M1 than M3, and DL inference orders of magnitude
// faster on the large designs, where the flow attack times out.
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "eval/experiment.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

namespace {

using sma::benchutil::split_list;
using sma::eval::ExperimentProfile;
using sma::eval::Table3Result;
using sma::eval::Table3Row;
using sma::util::format_double;

}  // namespace

int main(int argc, char** argv) {
  sma::util::set_log_level(sma::util::LogLevel::kInfo);
  sma::benchutil::init_observability();

  ExperimentProfile profile = ExperimentProfile::fast();
  bool paper_mode = false;
  std::vector<int> layers = {1, 3};
  std::vector<std::string> design_filter;
  // Profile tweaks are collected and applied after the loop so flag
  // order doesn't matter (--threads=1 --paper must keep 1 thread).
  std::optional<double> flow_timeout;
  std::optional<int> threads;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--paper") {
      profile = ExperimentProfile::paper();
      paper_mode = true;
    } else if (arg == "--fast") {
      profile = ExperimentProfile::fast();
      paper_mode = false;
    } else if (arg.rfind("--layers=", 0) == 0) {
      layers.clear();
      for (const std::string& l : split_list(arg.substr(9))) {
        layers.push_back(std::stoi(l));
      }
    } else if (arg.rfind("--designs=", 0) == 0) {
      design_filter = split_list(arg.substr(10));
    } else if (arg.rfind("--flow-timeout=", 0) == 0) {
      flow_timeout =
          sma::benchutil::parse_double(arg.substr(15), "--flow-timeout", 0.0);
    } else if (arg.rfind("--threads=", 0) == 0) {
      // 0 = hardware concurrency; negative thread counts are nonsense.
      threads = sma::benchutil::parse_int(arg.substr(10), "--threads", 0);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }
  if (flow_timeout) profile.flow_attack.timeout_seconds = *flow_timeout;
  if (threads) profile.runtime.threads = *threads;

  std::vector<sma::netlist::DesignProfile> designs;
  for (const auto& p : sma::netlist::attack_profiles()) {
    if (design_filter.empty()) {
      designs.push_back(p);
    } else {
      for (const std::string& name : design_filter) {
        if (p.name == name) designs.push_back(p);
      }
    }
  }

  std::cout << "Table 3: Comparison with the network-flow attack [1]\n";
  std::cout << "profile: " << (paper_mode ? "paper" : "fast")
            << " (images " << profile.dataset.images.size << "x"
            << profile.dataset.images.size << ", n="
            << profile.dataset.candidates.max_candidates
            << ", flow timeout " << profile.flow_attack.timeout_seconds
            << "s)\n\n";

  for (int layer : layers) {
    Table3Result result =
        sma::eval::run_table3(layer, profile, sma::layout::FlowConfig{},
                              designs, /*seed=*/2019);

    std::cout << "=== Split after Metal " << layer << " ===\n";
    std::cout << "(layouts, features and flow attacks took "
              << format_double(result.prepare_seconds, 1) << "s, training "
              << format_double(result.train_seconds, 1)
              << "s, DL attacks "
              << format_double(result.attack_seconds, 1)
              << "s; designs marked * are scaled down for single-core "
                 "runtime)\n";
    sma::util::Table table({"Design", "#Sk", "#Sc", "CCR%[1]", "CCR%ours",
                            "Time[1](s)", "Time ours(s)", "hit%"});
    for (const Table3Row& row : result.rows) {
      table.add_row({
          row.design + (row.scaled_down ? "*" : ""),
          std::to_string(row.num_sink_fragments),
          std::to_string(row.num_source_fragments),
          row.flow_timed_out ? "N/A" : format_double(row.flow_ccr * 100, 2),
          format_double(row.dl_ccr * 100, 2),
          row.flow_timed_out ? ("> " + format_double(
                                         profile.flow_attack.timeout_seconds,
                                         0))
                             : format_double(row.flow_seconds, 2),
          format_double(row.dl_seconds, 2),
          format_double(row.hit_rate * 100, 1),
      });
    }
    table.add_row({"Average", "", "", format_double(result.avg_flow_ccr * 100, 2),
                   format_double(result.avg_dl_ccr * 100, 2),
                   format_double(result.avg_flow_seconds, 2),
                   format_double(result.avg_dl_seconds, 2), ""});
    double ccr_ratio = result.avg_dl_ccr / result.avg_flow_ccr;
    double time_ratio = result.avg_dl_seconds / result.avg_flow_seconds;
    table.add_row({"Ratio", "", "", "1.00", format_double(ccr_ratio, 2),
                   "1.000", format_double(time_ratio, 3), ""});
    std::cout << table.to_string() << "\n";
    std::cout << "paper reference: CCR ratio 1.21x at M1, 1.12x at M3; "
                 "runtime ratio ~0.001-0.002\n\n";
  }
  sma::benchutil::flush_report(
      sma::obs::RunReport("table3", profile.runtime.resolved()));
  sma::benchutil::flush_trace();
  return 0;
}
