// Benchmark for the batched cross-query inference engine and the
// coalescing serve loop (the tentpole measurement of the batched-serving
// PR): train the fast-profile network once, then attack the same split at
// batch widths B in {1, 4, 16, 64} and report queries/sec per width. Two
// gates ride on every width:
//
//   * byte-identity — selections and CCR at width B must equal the
//     B == 1 baseline bit for bit (the batched path is a performance
//     knob, never a semantic one);
//   * alloc-free steady state — after one warm-up pass at width B, the
//     measured repetitions must add ZERO activation-arena heap
//     allocations in the master net, which runs the serial attacks, or
//     in the pinned replicas (each arena grows once to the widest batch
//     and then stays flat).
//
// Each width also runs the ServeLoop front end (max_batch = B) under
// concurrent client threads and reports client-observed p50/p99 submit
// latency plus the realized batch shapes — the coalescing knee is
// visible as queries/sec rising with B until the GEMMs saturate.
//
// Human-readable progress goes to stderr; stdout carries exactly one
// JSON object (scripts/bench.sh redirects it to BENCH_serve.json).
//
// Flags:
//   --smoke         tiny synthetic design, no timing claims; exercises
//                   every width end-to-end and enforces both gates (CI)
//   --design=c432   design used for the sweep
//   --layer=1       split layer
//   --epochs=2      training epochs before the sweep
//   --widths=1,4,16,64
//   --reps=3        timed attack() repetitions per width
//   --clients=4     concurrent submitter threads for the ServeLoop pass
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attack/dataset.hpp"
#include "attack/dl_attack.hpp"
#include "bench_util.hpp"
#include "eval/experiment.hpp"
#include "serve/serve_loop.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace {

bool selections_equal(const sma::attack::AttackResult& a,
                      const sma::attack::AttackResult& b) {
  if (a.selections.size() != b.selections.size()) return false;
  for (std::size_t i = 0; i < a.selections.size(); ++i) {
    if (a.selections[i].sink_fragment != b.selections[i].sink_fragment ||
        a.selections[i].chosen_source != b.selections[i].chosen_source ||
        a.selections[i].correct != b.selections[i].correct ||
        a.selections[i].num_sinks != b.selections[i].num_sinks) {
      return false;
    }
  }
  return a.ccr == b.ccr;  // bit-equal, not approximately
}

double percentile(std::vector<double> sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  std::sort(sorted_us.begin(), sorted_us.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(idx, sorted_us.size() - 1)];
}

struct WidthResult {
  int width = 0;
  double attack_seconds = 0.0;  ///< per timed repetition
  double queries_per_sec = 0.0;
  long steady_arena_allocs = 0;
  bool identical = false;
  double serve_p50_us = 0.0;
  double serve_p99_us = 0.0;
  long serve_batches = 0;
  std::size_t serve_max_batch = 0;
};

}  // namespace

int main(int argc, char** argv) {
  sma::util::set_log_level(sma::util::LogLevel::kWarn);
  sma::benchutil::init_observability();

  bool smoke = false;
  std::string design = "c432";
  int layer = 1;
  int epochs = 2;
  int reps = 3;
  int clients = 4;
  std::vector<int> widths = {1, 4, 16, 64};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--design=", 0) == 0) {
      design = arg.substr(9);
    } else if (arg.rfind("--layer=", 0) == 0) {
      layer = sma::benchutil::parse_int(arg.substr(8), "--layer", 1);
    } else if (arg.rfind("--epochs=", 0) == 0) {
      epochs = sma::benchutil::parse_int(arg.substr(9), "--epochs", 1);
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = sma::benchutil::parse_int(arg.substr(7), "--reps", 1);
    } else if (arg.rfind("--clients=", 0) == 0) {
      clients = sma::benchutil::parse_int(arg.substr(10), "--clients", 1);
    } else if (arg.rfind("--widths=", 0) == 0) {
      widths.clear();
      for (const std::string& w : sma::benchutil::split_list(arg.substr(9))) {
        widths.push_back(sma::benchutil::parse_int(w, "--widths", 1));
      }
      if (widths.empty()) {
        std::cerr << "--widths needs at least one width\n";
        return 2;
      }
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }

  sma::eval::ExperimentProfile profile = sma::eval::ExperimentProfile::fast();
  sma::eval::PreparedSplit prepared;
  if (smoke) {
    // Tiny synthetic design, images ON: the batched fusion seam (source
    // rows + strided sink broadcast) only exists on the image branch, so
    // the smoke gate must drive it.
    sma::netlist::DesignProfile tiny;
    tiny.name = "smoke_serve";
    tiny.num_inputs = 8;
    tiny.num_outputs = 4;
    tiny.num_gates = 420;
    prepared = sma::eval::prepare_split(tiny, 3, sma::layout::FlowConfig{},
                                        /*seed=*/2019);
    layer = 3;
    epochs = std::min(epochs, 2);
    reps = std::min(reps, 2);
    profile.net.hidden = 16;
    profile.net.vector_res_blocks = 1;
    profile.net.merged_res_blocks = 1;
    profile.net.conv_channels = {4, 6, 8, 10};
    profile.net.image_fc = 16;
    profile.net.fc6_width = 8;
    profile.dataset.candidates.max_candidates = 6;
    profile.dataset.images.size = 9;
    profile.dataset.images.pixel_sizes = {200, 400};
  } else {
    std::cerr << "bench_serve: preparing " << design << " (M" << layer
              << ")...\n";
    try {
      prepared = sma::eval::prepare_split(sma::netlist::find_profile(design),
                                          layer, sma::layout::FlowConfig{},
                                          /*seed=*/2019);
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
  }

  sma::attack::DatasetConfig dataset_config = profile.dataset;
  dataset_config.build_images = profile.net.use_images;
  sma::nn::NetConfig net_config = profile.net;
  if (net_config.use_images) {
    net_config.image_channels =
        static_cast<int>(dataset_config.images.pixel_sizes.size());
  }
  sma::attack::TrainConfig train_config = profile.train;
  train_config.epochs = epochs;

  std::vector<sma::attack::QueryDataset> training;
  training.emplace_back(prepared.split.get(), dataset_config);
  std::vector<sma::attack::QueryDataset> validation;
  sma::attack::DlAttack dl(net_config);
  std::cerr << "bench_serve: training " << epochs << " epochs...\n";
  dl.train(training, validation, train_config);

  // The victim dataset; construction renders its images, so the sweep
  // times inference, not feature extraction.
  const sma::attack::QueryDataset victim(prepared.split.get(), dataset_config);
  const long num_queries = static_cast<long>(victim.num_queries());

  // Batch-1 serial baseline: the identity oracle for every width.
  const sma::attack::AttackResult baseline = dl.attack(victim);
  std::cerr << "bench_serve: " << num_queries << " queries, baseline CCR "
            << baseline.ccr << "\n";

  sma::obs::RunReport report("serve", 1);
  // The timed attacks run serially on the master net and the ServeLoop on
  // leased replicas, so the steady-state gate counts both kinds of arena.
  const auto arena_allocs = [&dl] {
    return dl.net().arena().stats().allocs +
           dl.inference_arena_stats().allocs;
  };
  std::vector<WidthResult> results;
  bool identity_ok = true;
  bool alloc_free = true;
  for (int width : widths) {
    WidthResult r;
    r.width = width;

    // Warm-up pass: grows the replica arena to this width's shapes and
    // runs the identity gate.
    const sma::attack::AttackResult warm = dl.attack(victim, nullptr, width);
    r.identical = selections_equal(warm, baseline);
    identity_ok = identity_ok && r.identical;

    const long allocs_before = arena_allocs();
    sma::util::Timer timer;
    for (int rep = 0; rep < reps; ++rep) {
      const sma::attack::AttackResult timed = dl.attack(victim, nullptr, width);
      r.identical = r.identical && selections_equal(timed, baseline);
    }
    r.attack_seconds = timer.seconds() / reps;
    r.steady_arena_allocs = arena_allocs() - allocs_before;
    identity_ok = identity_ok && r.identical;
    alloc_free = alloc_free && r.steady_arena_allocs == 0;
    r.queries_per_sec = r.attack_seconds > 0.0
                            ? static_cast<double>(num_queries) /
                                  r.attack_seconds
                            : 0.0;

    // ServeLoop pass: concurrent clients, client-observed submit latency.
    {
      sma::serve::ServeConfig serve_config;
      serve_config.max_batch = width;
      serve_config.max_wait_us = 200;
      serve_config.dispatchers = 2;
      sma::serve::ServeLoop loop(dl, serve_config);
      std::vector<std::vector<double>> lat_us(
          static_cast<std::size_t>(clients));
      std::vector<sma::attack::Selection> got(
          static_cast<std::size_t>(num_queries));
      std::vector<std::thread> threads;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([c, clients, num_queries, &lat_us, &got, &loop,
                              &victim] {
          for (long i = c; i < num_queries; i += clients) {
            sma::util::Timer t;
            got[static_cast<std::size_t>(i)] =
                loop.submit(victim, static_cast<std::size_t>(i));
            lat_us[static_cast<std::size_t>(c)].push_back(t.seconds() * 1e6);
          }
        });
      }
      for (std::thread& t : threads) t.join();
      loop.shutdown();
      const sma::serve::ServeStats stats = loop.stats();
      r.serve_batches = stats.batches;
      r.serve_max_batch = stats.max_batch_seen;
      std::vector<double> all_us;
      for (const std::vector<double>& per_client : lat_us) {
        all_us.insert(all_us.end(), per_client.begin(), per_client.end());
      }
      r.serve_p50_us = percentile(all_us, 0.5);
      r.serve_p99_us = percentile(all_us, 0.99);
      bool serve_identical = true;
      for (long i = 0; i < num_queries; ++i) {
        const sma::attack::Selection& g = got[static_cast<std::size_t>(i)];
        const sma::attack::Selection& w =
            baseline.selections[static_cast<std::size_t>(i)];
        serve_identical = serve_identical &&
                          g.sink_fragment == w.sink_fragment &&
                          g.chosen_source == w.chosen_source &&
                          g.correct == w.correct && g.num_sinks == w.num_sinks;
      }
      r.identical = r.identical && serve_identical;
      identity_ok = identity_ok && serve_identical;
      // The last width's serve stats land in the embedded report (the
      // width/latency distributions accumulate across the whole sweep in
      // the metrics histograms).
      report.add_serve(stats);
    }

    std::cerr << "  B=" << r.width << ": " << r.queries_per_sec
              << " queries/sec (" << r.attack_seconds << " s/attack, "
              << r.steady_arena_allocs << " steady arena allocs), serve p50 "
              << r.serve_p50_us << "us p99 " << r.serve_p99_us << "us over "
              << r.serve_batches << " batches (max width "
              << r.serve_max_batch << "), "
              << (r.identical ? "identical" : "DIFFERS") << "\n";
    results.push_back(r);
  }
  report.add_replicas(dl);

  // The knee: the width where queries/sec peaks. Below it throughput must
  // rise with B (wider GEMMs amortize per-query overhead); beyond it the
  // kernels are saturated and extra width just adds latency. A 5% slack
  // absorbs timer noise between adjacent widths.
  std::size_t knee = 0;
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (results[i].queries_per_sec > results[knee].queries_per_sec) knee = i;
  }
  bool monotonic = true;
  for (std::size_t i = 0; i < knee; ++i) {
    monotonic = monotonic && results[i].queries_per_sec <=
                                 results[i + 1].queries_per_sec * 1.05;
  }
  std::cerr << "  knee at B=" << results[knee].width << ", throughput "
            << (monotonic ? "monotonic" : "NOT monotonic") << " up to it\n";

  std::ostringstream json;
  json << "{\"bench\": \"serve\", \"smoke\": " << (smoke ? "true" : "false")
       << ", \"design\": \"" << (smoke ? "smoke_serve" : design)
       << "\", \"layer\": " << layer << ", \"epochs\": " << epochs
       << ", \"reps\": " << reps << ", \"clients\": " << clients
       << ", \"num_queries\": " << num_queries << ", \"widths\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WidthResult& r = results[i];
    if (i > 0) json << ", ";
    json << "{\"width\": " << r.width
         << ", \"attack_seconds\": " << r.attack_seconds
         << ", \"queries_per_sec\": " << r.queries_per_sec
         << ", \"steady_arena_allocs\": " << r.steady_arena_allocs
         << ", \"identical\": " << (r.identical ? "true" : "false")
         << ", \"serve_p50_us\": " << r.serve_p50_us
         << ", \"serve_p99_us\": " << r.serve_p99_us
         << ", \"serve_batches\": " << r.serve_batches
         << ", \"serve_max_batch\": " << r.serve_max_batch << "}";
  }
  json << "], \"knee_width\": " << results[knee].width
       << ", \"monotonic_to_knee\": " << (monotonic ? "true" : "false")
       << ", \"identity_ok\": " << (identity_ok ? "true" : "false")
       << ", \"alloc_free\": " << (alloc_free ? "true" : "false")
       << sma::benchutil::report_fragment(report) << "}";
  std::cout << json.str() << "\n";
  sma::benchutil::flush_trace();

  std::cerr << (identity_ok
                    ? "bit-identity check: all widths match batch-1\n"
                    : "bit-identity check FAILED\n");
  if (!alloc_free) {
    std::cerr << "steady-state check FAILED: arena still allocating after "
                 "warm-up\n";
  }
  if (!identity_ok || !alloc_free) return 1;
  return 0;
}
