// Serial-vs-parallel speedup of the experiment pipeline (the tentpole
// measurement for the runtime subsystem): run_table3 with the fast()
// profile at each requested thread count, verifying along the way that
// every thread count produces row-for-row identical CCRs (the runtime's
// determinism contract).
//
// Human-readable progress goes to stderr; stdout carries exactly one JSON
// object (scripts/bench.sh redirects it to BENCH_parallel.json).
//
// Every run contributes a datapoint: the 1-thread baseline is always
// measured (prepended if the sweep omits it), and the JSON carries a
// top-level "summary" with the baseline wall-times and best speedup —
// previously a 1-core host skipped every requested count > 1 and the
// bench trajectory stayed empty despite the JSON existing.
//
// Flags:
//   --threads=1,2,4    thread counts to sweep (1 is always the baseline
//                      and is prepended when missing)
//   --designs=c432,... victim subset (default: four small/mid designs)
//   --layer=1          split layer
//   --paper            full-fidelity profile (very slow; default --fast)
#include <algorithm>
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "eval/experiment.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace {

using sma::benchutil::split_list;
using sma::eval::ExperimentProfile;
using sma::eval::Table3Result;

/// The determinism contract covers the DL side (models, CCRs, candidate
/// hit rates). Flow-attack timeouts are wall-clock budgets and may
/// legitimately flip under contention, so flow columns are excluded.
bool dl_rows_identical(const Table3Result& a, const Table3Result& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    if (a.rows[i].design != b.rows[i].design) return false;
    if (a.rows[i].num_sink_fragments != b.rows[i].num_sink_fragments) {
      return false;
    }
    if (a.rows[i].num_source_fragments != b.rows[i].num_source_fragments) {
      return false;
    }
    if (a.rows[i].dl_ccr != b.rows[i].dl_ccr) return false;
    if (a.rows[i].hit_rate != b.rows[i].hit_rate) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  sma::util::set_log_level(sma::util::LogLevel::kWarn);
  sma::benchutil::init_observability();

  ExperimentProfile profile = ExperimentProfile::fast();
  std::string profile_name = "fast";
  std::vector<int> threads = {1, 2, 4};
  std::vector<std::string> design_names = {"c432", "c880", "b7", "b13"};
  int layer = 1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--paper") {
      profile = ExperimentProfile::paper();
      profile_name = "paper";
    } else if (arg == "--fast") {
      profile = ExperimentProfile::fast();
      profile_name = "fast";
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads.clear();
      for (const std::string& t : split_list(arg.substr(10))) {
        threads.push_back(sma::benchutil::parse_int(t, "--threads", 1));
      }
    } else if (arg.rfind("--designs=", 0) == 0) {
      design_names = split_list(arg.substr(10));
    } else if (arg.rfind("--layer=", 0) == 0) {
      layer = sma::benchutil::parse_int(arg.substr(8), "--layer", 1);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }
  if (threads.empty()) {
    std::cerr << "need at least one thread count\n";
    return 2;
  }
  // The serial run is the speedup denominator and the one configuration
  // every host can measure — always include it, and always FIRST (the
  // baseline is runs.front(), so `--threads=4,1` must not leave the
  // 4-thread run as the denominator).
  threads.erase(std::remove(threads.begin(), threads.end(), 1),
                threads.end());
  threads.insert(threads.begin(), 1);

  // Oversubscribing a host (threads > cores) cannot speed anything up and
  // records misleading sub-1x "speedups" — on a 1-CPU machine the old
  // default sweep reported 2 threads as 0.95x. Skip those counts instead
  // of timing them; they remain listed in the JSON for transparency.
  const int host_concurrency = sma::runtime::Config{}.resolved();
  std::vector<int> skipped;
  {
    std::vector<int> runnable;
    for (int t : threads) {
      if (t <= host_concurrency) {
        runnable.push_back(t);
      } else {
        skipped.push_back(t);
      }
    }
    if (!skipped.empty()) {
      std::cerr << "skipping thread counts >" << host_concurrency
                << " (host concurrency):";
      for (int t : skipped) std::cerr << " " << t;
      std::cerr << "\n";
    }
    threads = std::move(runnable);
  }
  if (threads.empty()) {
    // Every requested count oversubscribes; fall back to a serial run so
    // the bench still produces a baseline measurement.
    threads.push_back(1);
    std::cerr << "all requested thread counts exceed host concurrency; "
                 "measuring threads=1 only\n";
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

  std::cerr << "bench_parallel: run_table3 M" << layer << ", profile "
            << profile_name << ", " << designs.size()
            << " designs, host concurrency "
            << sma::runtime::Config{}.resolved() << "\n";

  struct Run {
    int threads = 0;
    double seconds = 0.0;
    double prepare_seconds = 0.0;
    double train_seconds = 0.0;
    double attack_seconds = 0.0;
  };
  std::vector<Run> runs;
  Table3Result baseline;
  bool deterministic = true;
  double baseline_seconds = 0.0;

  for (std::size_t i = 0; i < threads.size(); ++i) {
    ExperimentProfile variant = profile;
    variant.runtime.threads = threads[i];
    sma::util::Timer timer;
    Table3Result result =
        sma::eval::run_table3(layer, variant, sma::layout::FlowConfig{},
                              designs, /*seed=*/2019);
    Run run;
    run.threads = threads[i];
    run.seconds = timer.seconds();
    run.prepare_seconds = result.prepare_seconds;
    run.train_seconds = result.train_seconds;
    run.attack_seconds = result.attack_seconds;
    runs.push_back(run);

    if (i == 0) {
      baseline = result;
      baseline_seconds = run.seconds;
    } else if (!dl_rows_identical(baseline, result)) {
      deterministic = false;
    }
    std::cerr << "  threads=" << run.threads << ": " << run.seconds
              << "s total (prepare " << run.prepare_seconds << "s, train "
              << run.train_seconds << "s, attack " << run.attack_seconds
              << "s), speedup " << baseline_seconds / run.seconds << "x\n";
  }

  std::ostringstream json;
  json << "{\"bench\": \"parallel\", \"profile\": \"" << profile_name
       << "\", \"layer\": " << layer << ", \"designs\": [";
  for (std::size_t i = 0; i < design_names.size(); ++i) {
    json << (i ? ", " : "");
    sma::obs::write_json_string(json, design_names[i]);
  }
  json << "], \"host_concurrency\": " << host_concurrency
       << ", \"skipped_threads\": [";
  for (std::size_t i = 0; i < skipped.size(); ++i) {
    json << (i ? ", " : "") << skipped[i];
  }
  json << "], \"runs\": [";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    json << (i ? ", " : "") << "{\"threads\": " << runs[i].threads
         << ", \"seconds\": " << runs[i].seconds
         << ", \"prepare_seconds\": " << runs[i].prepare_seconds
         << ", \"train_seconds\": " << runs[i].train_seconds
         << ", \"attack_seconds\": " << runs[i].attack_seconds
         << ", \"speedup\": " << baseline_seconds / runs[i].seconds << "}";
  }
  // Top-level summary: the datapoint every run contributes, even when the
  // host can only measure the serial baseline.
  double best_speedup = 0.0;
  int best_threads = runs.empty() ? 0 : runs.front().threads;
  for (const Run& run : runs) {
    const double speedup = baseline_seconds / run.seconds;
    if (speedup > best_speedup) {
      best_speedup = speedup;
      best_threads = run.threads;
    }
  }
  json << "], \"summary\": {\"baseline_threads\": "
       << (runs.empty() ? 0 : runs.front().threads)
       << ", \"baseline_seconds\": " << baseline_seconds
       << ", \"baseline_train_seconds\": "
       << (runs.empty() ? 0.0 : runs.front().train_seconds)
       << ", \"best_speedup\": " << best_speedup
       << ", \"best_speedup_threads\": " << best_threads
       << ", \"measured_counts\": " << runs.size() << "}";
  sma::obs::RunReport report("parallel", threads.back());
  json << ", \"deterministic\": " << (deterministic ? "true" : "false")
       << sma::benchutil::report_fragment(report) << "}";
  std::cout << json.str() << "\n";
  sma::benchutil::flush_trace();
  std::cerr << (deterministic
                    ? "determinism check: all thread counts identical\n"
                    : "determinism check FAILED: rows differ across runs\n");
  return deterministic ? 0 : 1;
}
