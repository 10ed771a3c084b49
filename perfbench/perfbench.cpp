// perfbench: the measuring program of the repository benchmark.
//
// One workload is a split layer and a victim set taken through the Table-3
// pipeline (generate -> place & route -> split -> features -> train -> DL
// attack -> flow attack, as eval::run_table3 runs it), plus a warm phase on
// a fixed set of victims: datasets and a model built in set-up, then
// attacked offline at batch widths 1 and 16 and served through ServeLoop.
// perfbench/run.py builds this program, checks its digest against the
// recorded one and prints the benchmark's result.
//
// A run lays out the warm victims (untimed), sets the warm phase up several
// times (the median is setup_s), then alternates warm rounds with cold
// passes, W P W P ... W, so every figure samples the whole run.
//   --trace 0  the passes are cold eval::run_table3 calls (split cache
//              cleared first), repeated until --seconds of pass time; prints
//              the end-to-end metrics.
//   --trace 1  one untraced run_table3 pass as the reference, then the same
//              pipeline re-run from its public calls, in the same order and
//              with the same seeds, with a span around every call; its rows
//              must equal the reference rows bit for bit. Warm rounds carry
//              spans around every attack() and submit(). Prints the
//              per-layer metrics and writes the spans to --spans-out.
//
// Usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--smoke] [--spans-out PATH]
// stdout carries exactly one JSON object; progress goes to stderr.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "attack/dataset.hpp"
#include "attack/dl_attack.hpp"
#include "attack/flow_attack.hpp"
#include "eval/experiment.hpp"
#include "eval/split_cache.hpp"
#include "layout/design.hpp"
#include "netlist/profiles.hpp"
#include "nn/gemm.hpp"
#include "runtime/parallel.hpp"
#include "serve/serve_loop.hpp"
#include "spans.hpp"
#include "split/split_design.hpp"
#include "tech/cell_library.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace {

using perfbench::Clock;
using perfbench::ScopedSpan;
using perfbench::Tracer;
using sma::eval::Table3Row;

// ---------------------------------------------------------------- config

/// Threads for every stage; capped at the host's core count.
constexpr int kThreads = 3;

/// The wide offline attack() batch width, measured against batch width 1.
constexpr int kWideBatch = 16;

struct Workload {
  std::string name;
  int split_layer = 1;
  std::vector<std::string> victims;
  int epochs = 2;                ///< overrides ExperimentProfile::fast()
  int max_queries_per_design = 60;
  // Warm phase.
  std::vector<std::string> warm_victims;  ///< laid out at kWarmSeed
  int warm_train_queries = 32;   ///< queries per victim for the warm model
  int setup_reps = 2;            ///< warm set-ups per run (median reported)
  int serve_requests = 150;      ///< per round
  double serve_rate = 60.0;      ///< offered requests per second
};

Workload make_workload(const std::string& name, bool smoke) {
  Workload w;
  w.name = name;
  if (name == "table3_m1") {
    // Sized so that DlAttack::train is the larger part of the pass.
    w.split_layer = 1;
    w.victims = {"c432", "c880"};
    w.epochs = 3;
    w.max_queries_per_design = 140;
    w.warm_victims = {"c432", "c880"};
  } else if (name == "table3_m3_large") {
    w.split_layer = 3;
    w.victims = {"c1908", "c2670", "c3540"};
    w.warm_victims = {"c1908", "c2670"};
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  if (smoke) {
    w.victims = {w.split_layer == 1 ? "c432" : "c880"};
    w.warm_victims = w.victims;
    w.epochs = 1;
    w.max_queries_per_design = 8;
    w.warm_train_queries = 8;
    w.setup_reps = 1;
    w.serve_requests = 100;
  }
  return w;
}

sma::eval::ExperimentProfile make_profile(const Workload& w, int threads) {
  sma::eval::ExperimentProfile p = sma::eval::ExperimentProfile::fast();
  p.train.epochs = w.epochs;
  p.train.max_queries_per_design = w.max_queries_per_design;
  p.runtime.threads = threads;
  p.work_dir.clear();
  return p;
}

std::vector<sma::netlist::DesignProfile> profiles_of(
    const std::vector<std::string>& names) {
  std::vector<sma::netlist::DesignProfile> out;
  for (const std::string& name : names) {
    out.push_back(sma::netlist::find_profile(name));
  }
  return out;
}

// The per-design seeds run_table3 derives from its master seed.
std::uint64_t corpus_seed(std::uint64_t seed,
                          const sma::netlist::DesignProfile& p) {
  return seed ^ (p.num_gates * 31ull);
}
std::uint64_t victim_seed(std::uint64_t seed,
                          const sma::netlist::DesignProfile& p) {
  return seed ^ 0x5151u ^ (p.num_gates * 131ull);
}

sma::attack::DatasetConfig dataset_config(
    const sma::eval::ExperimentProfile& profile,
    sma::runtime::ThreadPool* pool) {
  sma::attack::DatasetConfig config = profile.dataset;
  config.build_images = profile.net.use_images;
  config.pool = pool;
  return config;
}

sma::nn::NetConfig net_config(const sma::eval::ExperimentProfile& profile,
                              std::uint64_t seed) {
  sma::nn::NetConfig config = profile.net;
  config.image_channels =
      static_cast<int>(profile.dataset.images.pixel_sizes.size());
  config.seed ^= seed;
  return config;
}

// ------------------------------------------------------------ bookkeeping

/// Operations attempted and failed. A failure is an exception, a flow
/// attack timeout, a failed submit or a correctness-check mismatch.
struct Ledger {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;

  void op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
      std::cerr << "perfbench: FAILED: " << what << "\n";
    }
  }
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool rows_equal(const std::vector<Table3Row>& a,
                const std::vector<Table3Row>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].design != b[i].design ||
        a[i].num_sink_fragments != b[i].num_sink_fragments ||
        a[i].num_source_fragments != b[i].num_source_fragments ||
        a[i].flow_timed_out != b[i].flow_timed_out ||
        !same_bits(a[i].dl_ccr, b[i].dl_ccr) ||
        !same_bits(a[i].flow_ccr, b[i].flow_ccr) ||
        !same_bits(a[i].hit_rate, b[i].hit_rate)) {
      return false;
    }
  }
  return true;
}

bool same_selection(const sma::attack::Selection& a,
                    const sma::attack::Selection& b) {
  return a.sink_fragment == b.sink_fragment &&
         a.chosen_source == b.chosen_source && a.correct == b.correct &&
         a.num_sinks == b.num_sinks;
}

bool selections_equal(const sma::attack::AttackResult& a,
                      const sma::attack::AttackResult& b) {
  if (a.selections.size() != b.selections.size()) return false;
  for (std::size_t i = 0; i < a.selections.size(); ++i) {
    if (!same_selection(a.selections[i], b.selections[i])) return false;
  }
  return same_bits(a.ccr, b.ccr);
}

// ------------------------------------------------------------ cold passes

struct Pass {
  sma::eval::Table3Result result;
  double wall_s = 0.0;
  sma::eval::SplitCache::Stats cache;
};

/// Check a pass: split cache cold, no flow timeout, rows as the reference.
void check_pass(const Pass& pass, std::size_t designs,
                const std::vector<Table3Row>* reference, const char* what,
                Ledger& ledger) {
  for (const Table3Row& row : pass.result.rows) {
    ledger.op(true, "dl attack " + row.design);
    ledger.op(!row.flow_timed_out, "flow attack timed out on " + row.design);
  }
  ledger.op(pass.cache.hits == 0 && pass.cache.misses == designs,
            std::string(what) + ": split cache was not cold (" +
                std::to_string(pass.cache.hits) + " hits, " +
                std::to_string(pass.cache.misses) + " misses, expected " +
                std::to_string(designs) + ")");
  if (reference != nullptr) {
    ledger.op(rows_equal(pass.result.rows, *reference),
              std::string(what) + ": rows differ from the reference pass");
  }
}

/// One cold eval::run_table3 call.
Pass run_table3_pass(const Workload& w,
                     const sma::eval::ExperimentProfile& profile,
                     std::uint64_t seed) {
  sma::eval::SplitCache::global().clear();
  Pass pass;
  sma::util::Timer timer;
  pass.result = sma::eval::run_table3(w.split_layer, profile,
                                      sma::layout::FlowConfig{},
                                      profiles_of(w.victims), seed);
  pass.wall_s = timer.seconds();
  pass.cache = sma::eval::SplitCache::global().stats();
  return pass;
}

/// Work counts and layer times gathered by the traced pass.
struct LayerCounts {
  std::mutex mutex;
  double global_place_s = 0.0, legalize_s = 0.0, detailed_place_s = 0.0;
  double route_s = 0.0, negotiation_s = 0.0;
  long overflow = 0, fallbacks = 0, wirelength = 0, vias = 0;
  long sink_fragments = 0, virtual_pins = 0;
  long queries = 0, candidate_rows = 0, image_lookups = 0, images = 0;
  long victim_queries = 0, victim_hits = 0;
  sma::attack::TrainStats train;

  void add_dataset(const sma::attack::QueryDataset& ds, bool victim) {
    long rows = 0, lookups = 0, hits = 0;
    for (std::size_t i = 0; i < ds.num_queries(); ++i) {
      const int n = ds.batch_rows(i);
      rows += n;
      if (n > 0) lookups += n + 1;
      if (ds.target(i) >= 0) ++hits;
    }
    std::lock_guard<std::mutex> lock(mutex);
    queries += static_cast<long>(ds.num_queries());
    candidate_rows += rows;
    image_lookups += lookups;
    images += static_cast<long>(ds.cached_images());
    if (victim) {
      victim_queries += static_cast<long>(ds.num_queries());
      victim_hits += hits;
    }
  }
};

/// prepare_split, re-run from its public calls with a span around each.
sma::eval::PreparedSplit traced_prepare(
    const sma::netlist::DesignProfile& profile, int split_layer,
    std::uint64_t seed, sma::runtime::ThreadPool* pool, Tracer& tracer,
    int parent, LayerCounts& counts) {
  static const sma::tech::CellLibrary kLibrary =
      sma::tech::CellLibrary::nangate45_like();
  sma::layout::FlowConfig flow;
  flow.seed = seed;
  sma::eval::PreparedSplit prepared;
  prepared.name = profile.name;
  prepared.design = sma::eval::SplitCache::global().get_or_build(
      sma::eval::design_cache_key(profile, flow, seed), [&] {
        sma::netlist::Netlist netlist = [&] {
          ScopedSpan span(tracer, "netlist.build", parent);
          return sma::netlist::build_profile(profile, &kLibrary, seed);
        }();
        const double start = tracer.now();
        int flow_span = -1;
        sma::layout::Design design = [&] {
          ScopedSpan span(tracer, "layout.flow", parent);
          flow_span = span.id();
          return sma::layout::run_flow(std::move(netlist), flow, pool);
        }();
        // Child spans from the flow's own phase timings, laid end to end
        // from the start of the run_flow span.
        const sma::layout::FlowTimings& t = design.timings;
        double at = start;
        for (const auto& [name, seconds] :
             {std::pair<const char*, double>{"place.global",
                                              t.global_place_seconds},
              {"place.legalize", t.legalize_seconds},
              {"place.detailed", t.detailed_place_seconds},
              {"route.route", t.route_seconds}}) {
          const int id = tracer.add(name, flow_span, -1, at, at + seconds);
          if (std::strcmp(name, "route.route") == 0) {
            tracer.add("route.negotiation", id, -1, at,
                       at + design.routing.negotiation_seconds);
          }
          at += seconds;
        }
        std::lock_guard<std::mutex> lock(counts.mutex);
        counts.global_place_s += t.global_place_seconds;
        counts.legalize_s += t.legalize_seconds;
        counts.detailed_place_s += t.detailed_place_seconds;
        counts.route_s += t.route_seconds;
        counts.negotiation_s += design.routing.negotiation_seconds;
        counts.overflow += design.routing.final_overflow;
        counts.fallbacks += design.routing.fallback_routes;
        counts.wirelength += design.routing.total_wirelength;
        counts.vias += design.routing.total_vias;
        return std::make_shared<const sma::layout::Design>(std::move(design));
      });
  {
    ScopedSpan span(tracer, "split.extract", parent);
    prepared.split = std::make_unique<sma::split::SplitDesign>(
        prepared.design.get(), split_layer, pool);
  }
  const sma::split::SplitStats stats = prepared.split->stats();
  std::lock_guard<std::mutex> lock(counts.mutex);
  counts.sink_fragments += stats.num_sink_fragments;
  counts.virtual_pins += stats.num_virtual_pins;
  return prepared;
}

/// The run_table3 pipeline from its public calls, in the same order, with
/// the same seeds and the same parallel structure.
Pass traced_table3_pass(const Workload& w,
                        const sma::eval::ExperimentProfile& profile,
                        std::uint64_t seed, Tracer& tracer, int root,
                        LayerCounts& counts) {
  sma::eval::SplitCache::global().clear();
  Pass pass;
  sma::util::Timer timer;
  std::unique_ptr<sma::runtime::ThreadPool> owned_pool =
      profile.runtime.make_pool();
  sma::runtime::ThreadPool* pool = owned_pool.get();
  const sma::attack::DatasetConfig config = dataset_config(profile, pool);

  struct TrainingDesign {
    sma::eval::PreparedSplit prepared;
    std::unique_ptr<sma::attack::QueryDataset> dataset;
  };
  const std::vector<sma::netlist::DesignProfile>& corpus =
      sma::netlist::training_profiles();
  std::vector<TrainingDesign> designs = sma::runtime::parallel_map(
      pool, corpus.size(), /*grain=*/1, [&](std::size_t i) {
        TrainingDesign d;
        d.prepared = traced_prepare(corpus[i], w.split_layer,
                                    corpus_seed(seed, corpus[i]), pool,
                                    tracer, root, counts);
        ScopedSpan span(tracer, "features.dataset", root);
        d.dataset = std::make_unique<sma::attack::QueryDataset>(
            d.prepared.split.get(), config);
        counts.add_dataset(*d.dataset, false);
        return d;
      });
  std::vector<sma::attack::QueryDataset> training;
  for (TrainingDesign& d : designs) training.push_back(std::move(*d.dataset));
  std::vector<sma::attack::QueryDataset> validation;

  sma::attack::DlAttack dl(net_config(profile, seed));
  {
    ScopedSpan span(tracer, "train.fit", root);
    counts.train = dl.train(training, validation, profile.train, pool);
  }

  const std::vector<sma::netlist::DesignProfile> victims =
      profiles_of(w.victims);
  pass.result.rows = sma::runtime::parallel_map(
      pool, victims.size(), /*grain=*/1, [&](std::size_t d) {
        const sma::eval::PreparedSplit prepared =
            traced_prepare(victims[d], w.split_layer,
                           victim_seed(seed, victims[d]), pool, tracer, root,
                           counts);
        Table3Row row;
        row.design = victims[d].name;
        row.scaled_down = victims[d].scaled_down;
        row.num_sink_fragments =
            static_cast<int>(prepared.split->sink_fragments().size());
        row.num_source_fragments =
            static_cast<int>(prepared.split->source_fragments().size());
        sma::util::Timer dl_timer;
        std::unique_ptr<sma::attack::QueryDataset> dataset;
        {
          ScopedSpan span(tracer, "features.dataset", root);
          dataset = std::make_unique<sma::attack::QueryDataset>(
              prepared.split.get(), config);
        }
        sma::attack::AttackResult dl_result;
        {
          ScopedSpan span(tracer, "attack.infer", root);
          dl_result = dl.attack(*dataset, pool);
        }
        row.dl_ccr = dl_result.ccr;
        row.dl_seconds = dl_timer.seconds();
        row.hit_rate = dataset->candidate_hit_rate();
        counts.add_dataset(*dataset, true);
        sma::attack::AttackResult flow_result;
        {
          ScopedSpan span(tracer, "flow_attack", root);
          flow_result = sma::attack::run_flow_attack(*prepared.split,
                                                     profile.flow_attack);
        }
        row.flow_ccr = flow_result.ccr;
        row.flow_seconds = flow_result.seconds;
        row.flow_timed_out = flow_result.timed_out;
        return row;
      });
  sma::eval::finalize_averages(pass.result);
  pass.wall_s = timer.seconds();
  pass.cache = sma::eval::SplitCache::global().stats();
  return pass;
}

// ------------------------------------------------------------ warm phase

/// The warm phase's designs: fixed (seed kWarmSeed), so warm figures do
/// not move with the workload seed, which feeds run_table3 and the serving
/// schedule. Laid out once per run, before any timing, from a cold cache.
constexpr std::uint64_t kWarmSeed = 2019;

std::vector<sma::eval::PreparedSplit> make_warm_splits(
    const Workload& w, sma::runtime::ThreadPool* pool) {
  sma::eval::SplitCache::global().clear();
  std::vector<sma::eval::PreparedSplit> splits;
  for (const sma::netlist::DesignProfile& v : profiles_of(w.warm_victims)) {
    splits.push_back(
        sma::eval::prepare_split(v, w.split_layer, sma::layout::FlowConfig{},
                                 victim_seed(kWarmSeed, v), pool));
  }
  return splits;
}

/// What the warm phase serves, built by one set-up: the warm victims'
/// datasets with images prebuilt, a model trained briefly on them, arenas
/// warmed at every width, and the batch-1 selections every later answer
/// must equal.
struct WarmState {
  std::vector<sma::attack::QueryDataset> datasets;
  std::unique_ptr<sma::attack::DlAttack> dl;
  std::vector<sma::attack::AttackResult> b1;
};

std::unique_ptr<WarmState> build_warm(
    const Workload& w, const std::vector<sma::eval::PreparedSplit>& splits,
    const sma::eval::ExperimentProfile& p, sma::runtime::ThreadPool* pool,
    Ledger& ledger) {
  auto state = std::make_unique<WarmState>();
  const sma::attack::DatasetConfig config = dataset_config(p, pool);
  for (const sma::eval::PreparedSplit& s : splits) {
    state->datasets.emplace_back(s.split.get(), config);
  }
  state->dl =
      std::make_unique<sma::attack::DlAttack>(net_config(p, kWarmSeed));
  sma::attack::TrainConfig train = p.train;
  train.epochs = 1;
  train.max_queries_per_design = w.warm_train_queries;
  std::vector<sma::attack::QueryDataset> validation;
  state->dl->train(state->datasets, validation, train, pool);
  for (sma::attack::QueryDataset& ds : state->datasets) {
    state->b1.push_back(state->dl->attack(ds, pool, 1));
  }
  for (std::size_t d = 0; d < state->datasets.size(); ++d) {
    const sma::attack::AttackResult r =
        state->dl->attack(state->datasets[d], pool, kWideBatch);
    ledger.op(selections_equal(r, state->b1[d]),
              "warm-up B=" + std::to_string(kWideBatch) + " selections differ "
              "from B=1 on " + w.warm_victims[d]);
  }
  return state;
}

struct ServeOutcome {
  std::vector<double> latency_ms;  ///< from each request's due time
  std::vector<double> late_ms;     ///< submit start minus due time
  double window_s = 0.0;           ///< first due time to last answer
  long answered = 0;
  sma::serve::ServeStats stats;
};

/// Open-loop serving: `serve_requests` arrivals of a Poisson process at
/// `serve_rate` (conditioned on the count, so the schedule spans exactly
/// requests / rate seconds), each a uniformly drawn victim query. One
/// dispatcher; the remaining threads submit, each taking the next due
/// request when free, so the generator runs late only when every
/// submitter is blocked.
ServeOutcome run_serve(const Workload& w, WarmState& state, int submitters,
                       std::uint64_t seed, Tracer& tracer, int root,
                       Ledger& ledger) {
  const long n = w.serve_requests;
  std::mt19937_64 rng(seed ^ 0x5e7e5e7eull);
  const auto uniform = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
  };
  const double horizon = static_cast<double>(n) / w.serve_rate;
  std::vector<double> due(static_cast<std::size_t>(n));
  for (double& t : due) t = uniform() * horizon;
  std::sort(due.begin(), due.end());
  struct Target {
    std::size_t dataset;
    std::size_t query;
  };
  std::size_t total = 0;
  for (const auto& ds : state.datasets) total += ds.num_queries();
  std::vector<Target> targets;
  for (long k = 0; k < n; ++k) {
    std::size_t pick = static_cast<std::size_t>(uniform() *
                                                static_cast<double>(total));
    std::size_t d = 0;
    while (pick >= state.datasets[d].num_queries()) {
      pick -= state.datasets[d].num_queries();
      ++d;
    }
    targets.push_back({d, pick});
  }

  sma::serve::ServeConfig config;
  config.dispatchers = 1;
  ServeOutcome out;
  out.latency_ms.assign(static_cast<std::size_t>(n), 0.0);
  out.late_ms.assign(static_cast<std::size_t>(n), 0.0);
  std::vector<sma::attack::Selection> got(static_cast<std::size_t>(n));
  std::vector<char> ok(static_cast<std::size_t>(n), 0);
  std::vector<Clock::time_point> done(static_cast<std::size_t>(n));
  std::atomic<long> next{0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  {
    sma::serve::ServeLoop loop(*state.dl, config);
    std::vector<std::thread> submit_threads;
    for (int s = 0; s < submitters; ++s) {
      submit_threads.emplace_back([&] {
        for (long k = next++; k < n; k = next++) {
          const std::size_t i = static_cast<std::size_t>(k);
          const Clock::time_point due_at =
              t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due[i]));
          std::this_thread::sleep_until(due_at);
          const int request = tracer.add("serve.request", root, k,
                                         tracer.seconds_at(due_at), 0.0);
          const Clock::time_point start = Clock::now();
          try {
            ScopedSpan span(tracer, "serve.submit", request, k);
            got[i] = loop.submit(state.datasets[targets[i].dataset],
                                 targets[i].query);
            ok[i] = 1;
          } catch (const std::exception& e) {
            std::cerr << "perfbench: submit failed: " << e.what() << "\n";
          }
          done[i] = Clock::now();
          if (request >= 0) tracer.end(request);
          out.late_ms[i] =
              std::chrono::duration<double, std::milli>(start - due_at).count();
          out.latency_ms[i] =
              std::chrono::duration<double, std::milli>(done[i] - due_at)
                  .count();
        }
      });
    }
    for (std::thread& t : submit_threads) t.join();
    loop.shutdown();
    out.stats = loop.stats();
  }
  Clock::time_point last = t0;
  for (long k = 0; k < n; ++k) {
    const std::size_t i = static_cast<std::size_t>(k);
    const Target& t = targets[i];
    const bool right =
        ok[i] != 0 &&
        same_selection(got[i], state.b1[t.dataset].selections[t.query]);
    ledger.op(right, "serve request " + std::to_string(k) + " (" +
                         w.warm_victims[t.dataset] + " query " +
                         std::to_string(t.query) + ")");
    if (right) ++out.answered;
    last = std::max(last, done[i]);
  }
  const Clock::time_point first_due =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(due.front()));
  out.window_s = std::chrono::duration<double>(last - first_due).count();
  return out;
}

/// The measured warm phase runs in rounds, interleaved with the cold passes
/// so its samples spread over the whole run. Each round attacks every warm
/// victim alone, as the paper times an attack — DL (features from a fresh
/// dataset plus batch-1 inference) and network flow — then attacks the
/// prebuilt datasets at the wide batch width, then serves one segment.
/// Every figure is the median over rounds, so a slow stretch of the host
/// that hits one round does not move it; the p99 needs the pooled samples.
struct WarmResult {
  std::vector<double> dl_attack_s, flow_attack_s;  ///< per round
  std::vector<double> qps_b1, qps_wide;            ///< per round
  std::vector<double> p50_ms, p90_ms, serve_qps;  ///< per round
  std::vector<double> latency_ms, late_ms;        ///< pooled over rounds
  sma::serve::ServeStats stats;                   ///< summed over rounds
  std::vector<double> flow_ccr;                   ///< per warm victim
};

void run_warm_round(const Workload& w,
                    const std::vector<sma::eval::PreparedSplit>& splits,
                    WarmState& state, const sma::eval::ExperimentProfile& p,
                    int submitters, std::uint64_t seed,
                    sma::runtime::ThreadPool* pool, Tracer& tracer, int root,
                    Ledger& ledger, WarmResult& out) {
  const int round = static_cast<int>(out.dl_attack_s.size());
  const sma::attack::DatasetConfig config = dataset_config(p, pool);
  const std::size_t n = splits.size();
  double dl_s = 0.0, flow_s = 0.0, infer_s = 0.0;
  long queries = 0;
  for (std::size_t d = 0; d < n; ++d) {
    sma::util::Timer timer;
    sma::attack::QueryDataset fresh(splits[d].split.get(), config);
    const double features_s = timer.seconds();
    sma::attack::AttackResult r;
    {
      ScopedSpan span(tracer, "warm.attack_b1", root);
      r = state.dl->attack(fresh, pool, 1);
    }
    const double attack_s = timer.seconds();
    dl_s += attack_s;
    infer_s += attack_s - features_s;
    queries += static_cast<long>(fresh.num_queries());
    ledger.op(selections_equal(r, state.b1[d]),
              "fresh-dataset selections differ on " + w.warm_victims[d]);

    sma::util::Timer flow_timer;
    sma::attack::AttackResult flow;
    {
      ScopedSpan span(tracer, "warm.flow_attack", root);
      flow = sma::attack::run_flow_attack(*splits[d].split, p.flow_attack);
    }
    flow_s += flow_timer.seconds();
    if (round == 0) out.flow_ccr.push_back(flow.ccr);
    ledger.op(!flow.timed_out && same_bits(flow.ccr, out.flow_ccr[d]),
              "warm flow attack timed out or changed on " +
                  w.warm_victims[d]);
  }
  out.dl_attack_s.push_back(dl_s / static_cast<double>(n));
  out.flow_attack_s.push_back(flow_s / static_cast<double>(n));
  out.qps_b1.push_back(static_cast<double>(queries) / infer_s);
  const std::string span_name = "warm.attack_b" + std::to_string(kWideBatch);
  double wide_s = 0.0;
  for (std::size_t d = 0; d < n; ++d) {
    sma::util::Timer timer;
    sma::attack::AttackResult r;
    {
      ScopedSpan span(tracer, span_name, root);
      r = state.dl->attack(state.datasets[d], pool, kWideBatch);
    }
    wide_s += timer.seconds();
    ledger.op(selections_equal(r, state.b1[d]),
              "B=" + std::to_string(kWideBatch) + " selections differ from "
              "B=1 on " + w.warm_victims[d]);
  }
  out.qps_wide.push_back(static_cast<double>(queries) / wide_s);
  const std::uint64_t round_seed =
      seed ^ (static_cast<std::uint64_t>(round) * 0x9e3779b97f4a7c15ull);
  const ServeOutcome serve =
      run_serve(w, state, submitters, round_seed, tracer, root, ledger);
  out.p50_ms.push_back(percentile(serve.latency_ms, 0.5));
  out.p90_ms.push_back(percentile(serve.latency_ms, 0.9));
  out.serve_qps.push_back(static_cast<double>(serve.answered) /
                          serve.window_s);
  out.latency_ms.insert(out.latency_ms.end(), serve.latency_ms.begin(),
                        serve.latency_ms.end());
  out.late_ms.insert(out.late_ms.end(), serve.late_ms.begin(),
                     serve.late_ms.end());
  out.stats.answered += serve.stats.answered;
  out.stats.failed += serve.stats.failed;
  out.stats.batches += serve.stats.batches;
  out.stats.max_queue_depth =
      std::max(out.stats.max_queue_depth, serve.stats.max_queue_depth);
}

// ------------------------------------------------------------- output

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

template <typename T>
std::string json_list(const std::vector<T>& items) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out << (i > 0 ? ", " : "");
    if constexpr (std::is_same_v<T, std::string>) {
      out << json_string(items[i]);
    } else {
      out << items[i];
    }
  }
  out << "]";
  return out.str();
}

/// Digest of everything the correctness check pins: per design the sink
/// and source counts, DL CCR, flow CCR and hit rate (bit patterns), the
/// warm victims' flow CCRs and every warm batch-1 selection.
std::string outputs_digest(const std::vector<Table3Row>& rows,
                           const WarmState& warm,
                           const std::vector<double>& warm_flow_ccr) {
  sma::util::ContentHash h;
  h.add("perfbench-rows-v1");
  for (const Table3Row& row : rows) {
    h.add(row.design)
        .add(row.num_sink_fragments)
        .add(row.num_source_fragments)
        .add(row.flow_timed_out)
        .add(row.dl_ccr)
        .add(row.flow_ccr)
        .add(row.hit_rate);
  }
  for (double ccr : warm_flow_ccr) h.add(ccr);
  for (const sma::attack::AttackResult& r : warm.b1) {
    h.add(r.ccr);
    for (const sma::attack::Selection& s : r.selections) {
      h.add(s.sink_fragment).add(s.chosen_source).add(s.correct);
    }
  }
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h.digest()));
  return buf;
}

/// The Table-3 rows of one pass, with the paper-protocol averages.
std::string table3_rows_json(const sma::eval::Table3Result& r) {
  std::ostringstream out;
  out << "{\"avg_dl_ccr\": " << json_number(r.avg_dl_ccr)
      << ", \"avg_flow_ccr\": " << json_number(r.avg_flow_ccr)
      << ", \"rows\": [";
  for (std::size_t i = 0; i < r.rows.size(); ++i) {
    const Table3Row& row = r.rows[i];
    out << (i > 0 ? ", " : "") << "{\"design\": " << json_string(row.design)
        << ", \"sink_fragments\": " << row.num_sink_fragments
        << ", \"source_fragments\": " << row.num_source_fragments
        << ", \"dl_ccr\": " << json_number(row.dl_ccr)
        << ", \"flow_ccr\": " << json_number(row.flow_ccr)
        << ", \"hit_rate\": " << json_number(row.hit_rate)
        << ", \"dl_seconds\": " << json_number(row.dl_seconds)
        << ", \"flow_seconds\": " << json_number(row.flow_seconds)
        << ", \"flow_timed_out\": " << (row.flow_timed_out ? "true" : "false")
        << "}";
  }
  out << "]}";
  return out.str();
}

std::string config_json(const Workload& w,
                        const sma::eval::ExperimentProfile& p, int threads,
                        int submitters) {
  const sma::serve::ServeConfig serve;
  std::ostringstream out;
  std::vector<long> pixel_sizes(p.dataset.images.pixel_sizes.begin(),
                                p.dataset.images.pixel_sizes.end());
  std::vector<int> conv(p.net.conv_channels.begin(), p.net.conv_channels.end());
  out << "{\"profile\": \"ExperimentProfile::fast\""
      << ", \"split_layer\": " << w.split_layer
      << ", \"designs\": " << json_list(w.victims)
      << ", \"training_designs\": " << sma::netlist::training_profiles().size()
      << ", \"threads\": " << threads
      << ", \"dataset\": {\"max_candidates\": "
      << p.dataset.candidates.max_candidates
      << ", \"image_size\": " << p.dataset.images.size
      << ", \"pixel_sizes\": " << json_list(pixel_sizes) << "}"
      << ", \"net\": {\"hidden\": " << p.net.hidden
      << ", \"vector_res_blocks\": " << p.net.vector_res_blocks
      << ", \"merged_res_blocks\": " << p.net.merged_res_blocks
      << ", \"conv_channels\": " << json_list(conv)
      << ", \"image_fc\": " << p.net.image_fc
      << ", \"fc6_width\": " << p.net.fc6_width
      << ", \"use_images\": " << (p.net.use_images ? "true" : "false") << "}"
      << ", \"train\": {\"epochs\": " << p.train.epochs
      << ", \"decay_every\": " << p.train.decay_every
      << ", \"max_queries_per_design\": " << p.train.max_queries_per_design
      << ", \"batch_size\": " << p.train.batch_size << "}"
      << ", \"flow_attack\": {\"timeout_seconds\": "
      << p.flow_attack.timeout_seconds
      << ", \"max_candidates\": " << p.flow_attack.candidates.max_candidates
      << "}"
      << ", \"warm\": {\"designs\": " << json_list(w.warm_victims)
      << ", \"widths\": [1, " << kWideBatch << "]"
      << ", \"rounds\": \"one before the first pass and one after each\""
      << ", \"warm_seed\": " << kWarmSeed
      << ", \"train_epochs\": 1, \"train_queries_per_design\": "
      << w.warm_train_queries << ", \"setup_reps\": " << w.setup_reps
      << ", \"serve_requests_per_round\": " << w.serve_requests
      << ", \"offered_rate_per_s\": " << w.serve_rate
      << ", \"arrivals\": \"open-loop Poisson\""
      << ", \"serve_max_batch\": " << serve.max_batch
      << ", \"serve_max_wait_us\": " << serve.max_wait_us
      << ", \"dispatchers\": 1, \"submitters\": " << submitters << "}}";
  return out.str();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 2019;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string spans_out;
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      o.workload = value();
    } else if (arg == "--seed") {
      o.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value());
    } else if (arg == "--trace") {
      o.trace = std::stoi(value()) != 0;
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--spans-out") {
      o.spans_out = value();
    } else {
      throw std::invalid_argument("unknown flag: " + arg);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  sma::util::set_log_level(sma::util::LogLevel::kWarn);
  Options opt;
  Workload w;
  try {
    opt = parse_options(argc, argv);
    w = make_workload(opt.workload, opt.smoke);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  const int hw =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int threads = std::min(kThreads, hw);
  const sma::eval::ExperimentProfile profile = make_profile(w, threads);
  // Serving uses at most nproc threads: one dispatcher, the rest submit.
  const int submitters = std::max(1, hw - 1);
  const std::size_t num_designs =
      sma::netlist::training_profiles().size() + w.victims.size();

  Ledger ledger;
  for (const char* var : {"SMA_CACHE_DIR", "SMA_FAULT", "SMA_TRACE"}) {
    const char* v = std::getenv(var);
    ledger.op(v == nullptr || *v == '\0',
              std::string(var) + " must be unset for a cold, isolated run");
  }

  Tracer tracer(opt.trace);
  std::vector<Metric> metrics;
  std::string digest;
  std::string rows_json = "null";
  std::unique_ptr<sma::runtime::ThreadPool> pool = profile.runtime.make_pool();
  try {
    // ---- warm inputs (laid out once, untimed), then the warm set-up,
    // several times (median reported); both run before the cold passes, so
    // the process is warm when they are timed.
    const std::vector<sma::eval::PreparedSplit> warm_splits =
        make_warm_splits(w, pool.get());
    std::vector<double> setup_s;
    std::unique_ptr<WarmState> warm;
    for (int rep = 0; rep < w.setup_reps; ++rep) {
      sma::util::Timer timer;
      std::unique_ptr<WarmState> fresh =
          build_warm(w, warm_splits, profile, pool.get(), ledger);
      setup_s.push_back(timer.seconds());
      if (warm != nullptr) {
        for (std::size_t d = 0; d < warm->b1.size(); ++d) {
          ledger.op(selections_equal(fresh->b1[d], warm->b1[d]),
                    "warm set-up is not deterministic on " +
                        w.warm_victims[d]);
        }
      }
      warm = std::move(fresh);
    }

    // ---- the Table-3 pipeline, interleaved with the warm rounds
    WarmResult wr;
    const int warm_root = opt.trace ? tracer.begin("warm", -1) : -1;
    const long allocs_before = warm->dl->inference_arena_stats().allocs;
    const auto warm_round = [&] {
      run_warm_round(w, warm_splits, *warm, profile, submitters, opt.seed,
                     pool.get(), tracer, warm_root, ledger, wr);
    };
    std::vector<Pass> passes;
    LayerCounts counts;
    Pass traced;
    int root = -1;
    warm_round();
    if (!opt.trace) {
      double pass_seconds = 0.0;
      do {
        passes.push_back(run_table3_pass(w, profile, opt.seed));
        check_pass(passes.back(), num_designs,
                   passes.size() > 1 ? &passes.front().result.rows : nullptr,
                   "run_table3 pass", ledger);
        pass_seconds += passes.back().wall_s;
        std::cerr << "perfbench: " << w.name << " pass "
                  << passes.size() << ": " << passes.back().wall_s << " s\n";
        warm_round();
      } while (pass_seconds < opt.seconds);
    } else {
      passes.push_back(run_table3_pass(w, profile, opt.seed));
      check_pass(passes.back(), num_designs, nullptr, "run_table3 pass",
                 ledger);
      warm_round();
      root = tracer.begin("pass", -1);
      traced =
          traced_table3_pass(w, profile, opt.seed, tracer, root, counts);
      tracer.end(root);
      check_pass(traced, num_designs, &passes.front().result.rows,
                 "traced pass", ledger);
      std::cerr << "perfbench: " << w.name << " reference pass "
                << passes.front().wall_s << " s, traced pass "
                << traced.wall_s << " s\n";
      warm_round();
    }
    tracer.end(warm_root);
    const long steady_allocs =
        warm->dl->inference_arena_stats().allocs - allocs_before;
    const std::vector<Table3Row>& rows = passes.front().result.rows;

    digest = outputs_digest(rows, *warm, wr.flow_ccr);
    rows_json = table3_rows_json(passes.front().result);

    const auto add = [&metrics](const char* name, double value,
                                const char* unit) {
      metrics.push_back({name, value, unit});
    };
    if (!opt.trace) {
      std::vector<double> wall, dl_s, flow_s;
      for (const Pass& p : passes) {
        wall.push_back(p.wall_s);
        dl_s.push_back(p.result.avg_dl_seconds);
        flow_s.push_back(p.result.avg_flow_seconds);
      }
      const sma::eval::Table3Result& r = passes.front().result;
      add("setup_s", median(setup_s), "s");
      add("pipeline_s", median(wall), "s");
      add("dl_attack_s", median(wr.dl_attack_s), "s");
      add("flow_attack_s", median(wr.flow_attack_s), "s");
      // The run_table3 figures: contended (victims run concurrently) and
      // dependent on the seed's designs.
      add("table3.dl_attack_s", median(dl_s), "s");
      add("table3.flow_attack_s", median(flow_s), "s");
      add("dl_ccr", r.avg_dl_ccr, "fraction");
      add("flow_ccr", r.avg_flow_ccr, "fraction");
      add("infer_qps_b1", median(wr.qps_b1), "queries/s");
      metrics.push_back({"infer_qps_b" + std::to_string(kWideBatch),
                         median(wr.qps_wide), "queries/s"});
      add("serve_p50_ms", median(wr.p50_ms), "ms");
      add("serve_p90_ms", median(wr.p90_ms), "ms");
      add("serve_p99_ms", percentile(wr.latency_ms, 0.99), "ms");
      add("serve_qps", median(wr.serve_qps), "queries/s");
    } else {
      const std::vector<perfbench::Span> spans = tracer.spans();
      const auto totals = perfbench::summarize(spans);
      const auto total = [&totals](const char* name) {
        const auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.total;
      };
      const sma::attack::TrainStats& ts = counts.train;
      long steady_train_allocs = 0;
      for (std::size_t e = 1; e < ts.arena_allocs_per_epoch.size(); ++e) {
        steady_train_allocs += ts.arena_allocs_per_epoch[e];
      }
      const sma::attack::ReplicaSet::LeaseStats lease =
          warm->dl->replica_lease_stats();
      const perfbench::Span& pass_span = spans[static_cast<std::size_t>(root)];
      const double attributed = perfbench::covered_by(
          spans,
          {"netlist.build", "layout.flow", "split.extract", "features.dataset",
           "train.fit", "attack.infer", "flow_attack"},
          pass_span.start, pass_span.end);
      const auto flow_timeouts = std::count_if(
          traced.result.rows.begin(), traced.result.rows.end(),
          [](const Table3Row& row) { return row.flow_timed_out; });
      add("netlist.build_s", total("netlist.build"), "s");
      add("layout.flow_s", total("layout.flow"), "s");
      add("place.global_s", counts.global_place_s, "s");
      add("place.legalize_s", counts.legalize_s, "s");
      add("place.detailed_s", counts.detailed_place_s, "s");
      add("route.route_s", counts.route_s, "s");
      add("route.negotiation_s", counts.negotiation_s, "s");
      add("route.overflow", counts.overflow, "count");
      add("route.fallbacks", counts.fallbacks, "count");
      add("route.wirelength", counts.wirelength, "dbu");
      add("route.vias", counts.vias, "count");
      add("split_cache.hits", traced.cache.hits, "count");
      add("split_cache.misses", traced.cache.misses, "count");
      add("split.extract_s", total("split.extract"), "s");
      add("split.sink_fragments", counts.sink_fragments, "count");
      add("split.virtual_pins", counts.virtual_pins, "count");
      add("features.dataset_s", total("features.dataset"), "s");
      add("features.queries", counts.queries, "count");
      add("features.candidate_rows", counts.candidate_rows, "count");
      add("features.hit_rate",
          counts.victim_queries > 0
              ? static_cast<double>(counts.victim_hits) / counts.victim_queries
              : 0.0,
          "fraction");
      add("features.image_reuse",
          counts.images > 0
              ? static_cast<double>(counts.image_lookups) / counts.images
              : 0.0,
          "lookups/image");
      const double fit_s = total("train.fit");
      add("train.fit_s", fit_s, "s");
      add("train.s_per_epoch",
          fit_s / std::max<std::size_t>(1, ts.epoch_loss.size()), "s");
      add("train.queries_per_s", static_cast<double>(ts.queries_seen) / fit_s,
          "queries/s");
      add("train.steady_arena_allocs", steady_train_allocs, "count");
      add("train.final_loss",
          ts.epoch_loss.empty() ? std::nan("") : ts.epoch_loss.back(), "loss");
      // Diagnostic: the share of the traced pass spent in DlAttack::train.
      add("train.pass_share_pct", 100.0 * fit_s / traced.wall_s, "%");
      const double infer_s = total("attack.infer");
      add("attack.infer_s", infer_s, "s");
      add("attack.queries_per_s",
          static_cast<double>(counts.victim_queries) / infer_s, "queries/s");
      add("replica.lease_wait_s", lease.wait_seconds, "s");
      add("replica.occupancy_s", lease.occupancy_seconds, "s");
      add("replica.clones", lease.clones_created, "count");
      add("infer.steady_arena_allocs", steady_allocs, "count");
      add("flow_attack.s", total("flow_attack"), "s");
      add("flow_attack.timeouts", static_cast<double>(flow_timeouts), "count");
      add("serve.batches", wr.stats.batches, "count");
      add("serve.mean_batch_width",
          wr.stats.batches > 0
              ? static_cast<double>(wr.stats.answered) / wr.stats.batches
              : 0.0,
          "requests/batch");
      add("serve.max_queue_depth",
          static_cast<double>(wr.stats.max_queue_depth), "count");
      add("serve.failed", wr.stats.failed, "count");
      add("serve.gen_late_p99_ms", percentile(wr.late_ms, 0.99), "ms");
      add("trace.attributed_pct", 100.0 * attributed / traced.wall_s, "%");
      add("trace.overhead_pct",
          100.0 * (traced.wall_s - passes.front().wall_s) /
              passes.front().wall_s,
          "%");
    }
    // Diagnostics outside the metric contract.
    add("passes", static_cast<double>(passes.size()), "count");
  } catch (const std::exception& e) {
    ledger.op(false, std::string("exception: ") + e.what());
  }

  if (opt.trace && !opt.spans_out.empty()) {
    std::ofstream out(opt.spans_out);
    if (out) {
      perfbench::write_spans_json(out, tracer.spans());
    } else {
      std::cerr << "perfbench: cannot write " << opt.spans_out << "\n";
    }
  }

  char host[256] = {0};
  gethostname(host, sizeof(host) - 1);
  std::ostringstream json;
  json << "{\"workload\": " << json_string(w.name)
       << ", \"seed\": " << opt.seed << ", \"trace\": " << (opt.trace ? 1 : 0)
       << ", \"smoke\": " << (opt.smoke ? "true" : "false")
       << ", \"digest\": " << json_string(digest)
       << ", \"attempted\": " << ledger.attempted
       << ", \"failed\": " << ledger.failed
       << ", \"failures\": " << json_list(ledger.failures)
       << ", \"record\": {\"host\": " << json_string(host)
       << ", \"nproc\": " << hw << ", \"threads\": " << threads
       << ", \"isa\": " << json_string(sma::nn::active_isa())
       << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
       << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
       << ", \"config\": " << config_json(w, profile, threads, submitters)
       << ", \"table3\": " << rows_json << "}, \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i > 0 ? ", " : "") << json_string(metrics[i].name)
         << ": {\"value\": " << json_number(metrics[i].value)
         << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return ledger.failed == 0 ? 0 : 1;
}
