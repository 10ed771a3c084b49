// Training-throughput benchmark: trains the fast-profile network, conv
// trunk included (images on), on one real design with the production
// training loop and reports s/epoch. It also reports steady-state
// allocation behavior: the first epoch warms each net's arena up to the
// largest query shape, and every later epoch must add ZERO arena heap
// allocations. The JSON carries the warm-up and last-epoch alloc counts
// (total and per query) and the pinned arena bytes; in --smoke mode a
// nonzero steady-state alloc count fails the run (the CI gate).
//
// Human-readable progress goes to stderr; stdout carries exactly one
// JSON object (scripts/bench.sh redirects it to BENCH_train.json).
//
// Flags:
//   --smoke        tiny synthetic design and net, 2 epochs (warm-up +
//                  steady state), no timing claims; gates zero
//                  steady-state arena allocations (CI)
//   --design=c432  design to train on
//   --layer=1      split layer
//   --epochs=3     training epochs
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "attack/dataset.hpp"
#include "attack/dl_attack.hpp"
#include "bench_util.hpp"
#include "eval/experiment.hpp"
#include "util/logging.hpp"

int main(int argc, char** argv) {
  sma::util::set_log_level(sma::util::LogLevel::kWarn);
  sma::benchutil::init_observability();

  bool smoke = false;
  std::string design = "c432";
  int layer = 1;
  int epochs = 3;
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
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }

  sma::eval::ExperimentProfile profile = sma::eval::ExperimentProfile::fast();
  sma::eval::PreparedSplit prepared;
  if (smoke) {
    // Tiny synthetic design and a tiny net (fast-profile conv trunk, narrow
    // FC head): trains end-to-end in about a second. Two epochs so the
    // second exercises (and gates) the alloc-free steady state.
    epochs = 2;
    layer = 1;
    design = "smoke_train";
    sma::netlist::DesignProfile tiny;
    tiny.name = design;
    tiny.num_inputs = 8;
    tiny.num_outputs = 4;
    tiny.num_gates = 280;
    prepared = sma::eval::prepare_split(tiny, layer,
                                        sma::layout::FlowConfig{},
                                        /*seed=*/2019);
    profile.net.hidden = 16;
    profile.net.vector_res_blocks = 1;
    profile.net.merged_res_blocks = 1;
    profile.dataset.candidates.max_candidates = 6;
  } else {
    std::cerr << "bench_train: preparing " << design << " (M" << layer
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
  dataset_config.build_images = true;
  sma::nn::NetConfig net_config = profile.net;
  net_config.use_images = true;
  net_config.image_channels =
      static_cast<int>(profile.dataset.images.pixel_sizes.size());
  sma::attack::TrainConfig train_config = profile.train;
  train_config.epochs = epochs;
  // The smoke gate needs every query shape seen during warm-up; per-epoch
  // subsampling could defer a large query past epoch 1.
  if (smoke) train_config.max_queries_per_design = 0;

  std::vector<sma::attack::QueryDataset> training;
  // Construction renders every image, so s/epoch measures the training
  // loop, not feature extraction.
  training.emplace_back(prepared.split.get(), dataset_config);
  std::vector<sma::attack::QueryDataset> validation;

  std::cerr << "bench_train: " << epochs << " epochs, batch "
            << train_config.batch_size << " lanes, images on\n";
  sma::attack::DlAttack dl(net_config);
  const sma::attack::TrainStats stats =
      dl.train(training, validation, train_config, /*pool=*/nullptr);
  sma::obs::RunReport report("train", 1);
  report.add_train(stats);

  const double s_per_epoch = stats.seconds / epochs;
  const long warmup_allocs = stats.arena_allocs_per_epoch.empty()
                                 ? 0
                                 : stats.arena_allocs_per_epoch.front();
  const long steady_allocs = stats.arena_allocs_per_epoch.empty()
                                 ? 0
                                 : stats.arena_allocs_per_epoch.back();
  const long queries_per_epoch = stats.queries_seen / epochs;
  const double steady_allocs_per_query =
      queries_per_epoch > 0
          ? static_cast<double>(steady_allocs) / queries_per_epoch
          : 0.0;
  std::cerr << "  " << s_per_epoch << " s/epoch (" << stats.queries_seen
            << " queries, " << steady_allocs << " steady-state arena allocs, "
            << stats.arena_bytes_pinned << " arena bytes)\n";
  // Post-warm-up epochs must add zero arena heap allocations. Gated in
  // smoke mode (full runs subsample per epoch, so a late-arriving larger
  // query can legitimately grow an arena; the counts are still reported).
  const bool alloc_free =
      steady_allocs == 0 && epochs > 1 && stats.queries_seen > 0;
  if (smoke) {
    std::cerr << (alloc_free
                      ? "steady-state check: zero arena allocs after warm-up\n"
                      : "steady-state check FAILED: arena still allocating "
                        "after warm-up\n");
  }

  std::ostringstream json;
  json << "{\"bench\": \"train\", \"smoke\": " << (smoke ? "true" : "false")
       << ", \"design\": \"" << design << "\", \"layer\": " << layer
       << ", \"epochs\": " << epochs
       << ", \"lanes\": " << train_config.batch_size
       << ", \"images\": true"
       << ", \"queries_per_epoch\": " << queries_per_epoch
       << ", \"fused_s_per_epoch\": " << s_per_epoch
       << ", \"fused_warmup_allocs\": " << warmup_allocs
       << ", \"fused_steady_allocs\": " << steady_allocs
       << ", \"fused_steady_allocs_per_query\": " << steady_allocs_per_query
       << ", \"fused_arena_bytes\": " << stats.arena_bytes_pinned
       << sma::benchutil::report_fragment(report) << "}";
  std::cout << json.str() << "\n";
  sma::benchutil::flush_trace();
  return smoke && !alloc_free ? 1 : 0;
}
