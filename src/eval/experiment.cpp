#include "eval/experiment.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <numeric>
#include <optional>
#include <string>

#include "eval/split_cache.hpp"
#include "eval/work_unit.hpp"
#include "obs/obs.hpp"
#include "runtime/parallel.hpp"
#include "util/durable_io.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace sma::eval {

PreparedSplit prepare_split(const netlist::DesignProfile& profile,
                            int split_layer, const layout::FlowConfig& flow,
                            std::uint64_t seed, runtime::ThreadPool* pool) {
  static const tech::CellLibrary kLibrary = tech::CellLibrary::nangate45_like();

  SMA_TRACE_SPAN("eval", "prepare_split");
  PreparedSplit prepared;
  prepared.name = profile.name;
  // Key on the *effective* flow config (seed overrides FlowConfig::seed),
  // so configs differing only in the overridden field share one entry.
  layout::FlowConfig flow_config = flow;
  flow_config.seed = seed;
  prepared.design = SplitCache::global().get_or_build(
      design_cache_key(profile, flow_config, seed), [&] {
        netlist::Netlist nl = netlist::build_profile(profile, &kLibrary, seed);
        return std::make_shared<const layout::Design>(
            layout::run_flow(std::move(nl), flow_config, pool));
      });
  prepared.split = std::make_unique<split::SplitDesign>(prepared.design.get(),
                                                        split_layer, pool);
  return prepared;
}

ExperimentProfile ExperimentProfile::fast() {
  ExperimentProfile p;
  p.dataset.candidates.max_candidates = 15;
  p.dataset.images.size = 15;
  p.dataset.images.pixel_sizes = {100, 200, 400};
  p.net = nn::NetConfig::fast();
  p.train.epochs = 12;
  p.train.decay_every = 8;
  p.train.max_queries_per_design = 250;
  // Lane-parallel gradient accumulation; the lane count is part of the
  // profile (not the thread count), so results are machine-independent.
  p.train.batch_size = 8;
  p.flow_attack.timeout_seconds = 20.0;
  return p;
}

ExperimentProfile ExperimentProfile::paper() {
  ExperimentProfile p;
  p.dataset.candidates.max_candidates = 31;
  p.dataset.images.size = 99;
  p.dataset.images.pixel_sizes = {50, 100, 200};
  p.net = nn::NetConfig::paper();
  p.train.epochs = 60;
  p.train.decay_every = 20;
  p.train.max_queries_per_design = 0;  // all queries
  p.train.batch_size = 1;  // the paper's per-query SGD
  p.flow_attack.timeout_seconds = 100000.0;
  return p;
}

namespace {

/// Build a dataset for one prepared design under `profile`, with or
/// without images.
std::unique_ptr<attack::QueryDataset> make_dataset(
    const PreparedSplit& prepared, const ExperimentProfile& profile,
    bool build_images, runtime::ThreadPool* pool) {
  attack::DatasetConfig config = profile.dataset;
  config.build_images = build_images;
  config.pool = pool;
  return std::make_unique<attack::QueryDataset>(prepared.split.get(), config);
}

/// The per-design seeds every experiment derives from its master seed.
std::uint64_t corpus_seed(std::uint64_t seed,
                          const netlist::DesignProfile& design) {
  return seed ^ (design.num_gates * 31ull);
}
std::uint64_t victim_seed(std::uint64_t seed,
                          const netlist::DesignProfile& design) {
  return seed ^ 0x5151u ^ (design.num_gates * 131ull);
}

/// Phase 1's task list for a pass over the training corpus and `designs`:
/// job j < corpus.size() is corpus design j, and job corpus.size() + d is
/// victim d. Largest design first, so the longest layouts start early and
/// the small ones fill in behind them; the sort is stable, so ties keep
/// corpus-then-victim order. A design's results are a pure function of
/// its profile, seed and config, so the order never changes a row.
std::vector<std::size_t> largest_first(
    const std::vector<netlist::DesignProfile>& corpus,
    const std::vector<netlist::DesignProfile>& designs) {
  const auto gates = [&](std::size_t job) {
    return job < corpus.size() ? corpus[job].num_gates
                               : designs[job - corpus.size()].num_gates;
  };
  std::vector<std::size_t> jobs(corpus.size() + designs.size());
  std::iota(jobs.begin(), jobs.end(), std::size_t{0});
  std::stable_sort(jobs.begin(), jobs.end(), [&](std::size_t a, std::size_t b) {
    return gates(a) > gates(b);
  });
  return jobs;
}

/// Train a DL attack on `training`, in order. Training parallelizes over
/// gradient lanes (see DlAttack). Concurrent calls may share `training`:
/// datasets are immutable once built. `train_seconds`, when non-null,
/// receives the wall time of `DlAttack::train` alone.
attack::DlAttack train_on(const std::vector<attack::QueryDataset>& training,
                          const ExperimentProfile& profile,
                          std::uint64_t seed, runtime::ThreadPool* pool,
                          double* train_seconds = nullptr) {
  std::vector<attack::QueryDataset> validation;  // optional; unused by default
  nn::NetConfig net_config = profile.net;
  net_config.image_channels =
      static_cast<int>(profile.dataset.images.pixel_sizes.size());
  net_config.seed ^= seed;
  attack::DlAttack dl(net_config);
  util::Timer timer;
  dl.train(training, validation, profile.train, pool);
  if (train_seconds != nullptr) *train_seconds = timer.seconds();
  return dl;
}

/// ------------------------------------------------------------------
/// Durable work units (ExperimentProfile::work_dir).
///
/// A unit file holds one completed, slot-addressed result (a Table-3 row
/// or a Figure-5 setting) inside a durable_io frame, keyed by a digest of
/// the full run configuration plus its slot index. Reruns load matching
/// units and skip the work; anything else (missing, damaged, or from a
/// different configuration) is recomputed and rewritten. The payload
/// codec is eval/work_unit.hpp.
/// ------------------------------------------------------------------

constexpr const char* kWorkFrameKind = "sma-work-unit";
constexpr std::uint32_t kWorkSchemaVersion = 1;

/// Fingerprint of everything that determines a run's results: the split
/// layer, the master seed, every experiment knob that feeds the dataset,
/// network, training schedule or flow attack, and — via the same digests
/// the split cache keys on — the flow configuration and every design
/// profile (training corpus and victims alike).
std::uint64_t experiment_digest(const char* what, int split_layer,
                                const ExperimentProfile& p,
                                const layout::FlowConfig& flow,
                                const std::vector<netlist::DesignProfile>& designs,
                                std::uint64_t seed) {
  util::ContentHash h;
  h.add("sma-experiment-v1").add(what).add(split_layer).add(seed);
  // Both attacks build their candidate lists from every field.
  const auto add_candidates = [&h](const split::CandidateConfig& c) {
    h.add(c.max_candidates)
        .add(c.use_direction_criterion)
        .add(c.use_non_duplication);
  };

  add_candidates(p.dataset.candidates);
  h.add(p.dataset.images.size)
      .add(p.dataset.images.wire_half_width)
      .add(p.dataset.build_images);
  for (std::int64_t px : p.dataset.images.pixel_sizes) h.add(px);

  h.add(nn::encode_net_config(p.net));  // every NetConfig field

  h.add(attack::encode_train_schedule(p.train)).add(p.train.epochs);

  add_candidates(p.flow_attack.candidates);
  h.add(p.flow_attack.avg_sink_cap)
      .add(p.flow_attack.max_slots)
      .add(p.flow_attack.timeout_seconds);

  const auto add_design = [&](const netlist::DesignProfile& d,
                              std::uint64_t design_seed) {
    layout::FlowConfig flow_config = flow;
    flow_config.seed = design_seed;
    h.add(design_cache_key(d, flow_config, design_seed));
  };
  for (const netlist::DesignProfile& d : netlist::training_profiles()) {
    add_design(d, corpus_seed(seed, d));
  }
  h.add(designs.size());
  for (const netlist::DesignProfile& d : designs) {
    add_design(d, victim_seed(seed, d));
  }
  return h.digest();
}

std::string work_unit_path(const std::string& dir, std::uint64_t digest,
                           std::size_t slot) {
  char name[64];
  std::snprintf(name, sizeof(name), "%016llx_%03zu.sma",
                static_cast<unsigned long long>(digest), slot);
  return dir + "/" + name;
}

/// Persist one unit; failure degrades to a warning (the run continues,
/// the unit is simply recomputed next time).
void save_work_unit(const std::string& path, const std::string& payload) {
  if (util::save_frame_file(path, kWorkFrameKind, kWorkSchemaVersion,
                            "work.save", payload)) {
    SMA_COUNT("work.units_saved");
  }
}

/// Load the work units of slots [0, slots); a slot whose unit is missing
/// or damaged stays empty and is recomputed.
template <typename Row>
std::vector<std::optional<Row>> load_work_units(
    const std::string& dir, std::uint64_t digest, std::size_t slots,
    Row (*decode)(const std::string&, std::uint64_t, std::size_t)) {
  std::vector<std::optional<Row>> cached(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    const util::FrameLoad got = util::load_frame_file(
        work_unit_path(dir, digest, s), kWorkFrameKind, kWorkSchemaVersion,
        "work.load", [&](const std::string& payload) {
          cached[s] = decode(payload, digest, s);
        });
    if (got == util::FrameLoad::kLoaded) SMA_COUNT("work.units_loaded");
  }
  return cached;
}

}  // namespace

void finalize_averages(Table3Result& result) {
  int flow_rows = 0;
  double flow_ccr = 0.0;
  double flow_secs = 0.0;
  double dl_ccr_on_flow_rows = 0.0;
  double dl_secs = 0.0;
  for (const Table3Row& row : result.rows) {
    dl_secs += row.dl_seconds;
    if (!row.flow_timed_out) {
      ++flow_rows;
      flow_ccr += row.flow_ccr;
      flow_secs += row.flow_seconds;
      dl_ccr_on_flow_rows += row.dl_ccr;
    }
  }
  // Paper protocol: averages exclude designs where [1] timed out.
  result.avg_flow_ccr = flow_rows > 0 ? flow_ccr / flow_rows : std::nan("");
  result.avg_dl_ccr =
      flow_rows > 0 ? dl_ccr_on_flow_rows / flow_rows : std::nan("");
  result.avg_flow_seconds =
      flow_rows > 0 ? flow_secs / flow_rows : std::nan("");
  result.avg_dl_seconds =
      result.rows.empty() ? 0.0 : dl_secs / result.rows.size();
}

Table3Result run_table3(int split_layer, const ExperimentProfile& profile,
                        const layout::FlowConfig& flow,
                        const std::vector<netlist::DesignProfile>& designs,
                        std::uint64_t seed) {
  // Durable work units: completed rows from an earlier (killed) run are
  // loaded up front; when every row is present the expensive training run
  // is skipped entirely.
  const bool use_work = !profile.work_dir.empty();
  std::uint64_t digest = 0;
  std::vector<std::optional<Table3Row>> cached(designs.size());
  if (use_work) {
    util::ensure_dir(profile.work_dir);
    digest = experiment_digest("table3", split_layer, profile, flow, designs,
                               seed);
    cached = load_work_units(profile.work_dir, digest, designs.size(),
                             decode_t3_row);
    if (!designs.empty() &&
        std::all_of(cached.begin(), cached.end(),
                    [](const std::optional<Table3Row>& row) {
                      return row.has_value();
                    })) {
      util::log_info() << "table3 M" << split_layer << ": all "
                       << designs.size()
                       << " rows loaded from work units, skipping training";
      Table3Result result;
      for (std::size_t d = 0; d < designs.size(); ++d) {
        result.rows.push_back(std::move(*cached[d]));
      }
      finalize_averages(result);
      return result;
    }
  }

  std::unique_ptr<runtime::ThreadPool> owned_pool =
      profile.runtime.make_pool();
  runtime::ThreadPool* pool = owned_pool.get();
  Table3Result result;

  // Phase 1: everything that does not need the model, as one largest-first
  // task list — each training design's layout and dataset, and each
  // uncached victim's layout, dataset and flow attack. Every job writes
  // only its own slot.
  const std::vector<netlist::DesignProfile>& corpus_profiles =
      netlist::training_profiles();
  const std::size_t num_corpus = corpus_profiles.size();
  struct Victim {
    PreparedSplit prepared;
    std::unique_ptr<attack::QueryDataset> dataset;
    Table3Row row;  ///< all but dl_ccr; dl_seconds holds the feature time
  };
  std::vector<PreparedSplit> corpus(num_corpus);
  std::vector<std::unique_ptr<attack::QueryDataset>> corpus_data(num_corpus);
  std::vector<Victim> victims(designs.size());
  std::vector<std::size_t> jobs = largest_first(corpus_profiles, designs);
  std::erase_if(jobs, [&](std::size_t job) {
    return job >= num_corpus && cached[job - num_corpus].has_value();
  });

  util::Timer prepare_timer;
  runtime::parallel_for(pool, 0, jobs.size(), /*grain=*/1, [&](std::size_t k) {
    const std::size_t job = jobs[k];
    if (job < num_corpus) {
      corpus[job] =
          prepare_split(corpus_profiles[job], split_layer, flow,
                        corpus_seed(seed, corpus_profiles[job]), pool);
      corpus_data[job] =
          make_dataset(corpus[job], profile, profile.net.use_images, pool);
      return;
    }
    const netlist::DesignProfile& design_profile = designs[job - num_corpus];
    Victim& victim = victims[job - num_corpus];
    victim.prepared =
        prepare_split(design_profile, split_layer, flow,
                      victim_seed(seed, design_profile), pool);

    Table3Row& row = victim.row;
    row.design = design_profile.name;
    row.scaled_down = design_profile.scaled_down;
    row.num_sink_fragments =
        static_cast<int>(victim.prepared.split->sink_fragments().size());
    row.num_source_fragments =
        static_cast<int>(victim.prepared.split->source_fragments().size());

    // Dataset construction is feature extraction, so its time counts
    // toward the DL attack's runtime (as in the paper).
    util::Timer feature_timer;
    victim.dataset =
        make_dataset(victim.prepared, profile, profile.net.use_images, pool);
    row.dl_seconds = feature_timer.seconds();
    row.hit_rate = victim.dataset->candidate_hit_rate();

    attack::AttackResult flow_result =
        attack::run_flow_attack(*victim.prepared.split, profile.flow_attack);
    row.flow_ccr = flow_result.ccr;
    row.flow_seconds = flow_result.seconds;
    row.flow_timed_out = flow_result.timed_out;
  });
  result.prepare_seconds = prepare_timer.seconds();
  util::log_info() << "table3 M" << split_layer << ": " << jobs.size()
                   << " designs laid out, featurized and flow-attacked in "
                   << result.prepare_seconds << "s";

  // Phase 2: train on the corpus datasets, in corpus order (freed once
  // the model is trained).
  attack::DlAttack dl = [&] {
    std::vector<attack::QueryDataset> training;
    for (auto& data : corpus_data) training.push_back(std::move(*data));
    return train_on(training, profile, seed, pool, &result.train_seconds);
  }();
  util::log_info() << "M" << split_layer << " model trained in "
                   << result.train_seconds << "s ("
                   << profile.runtime.resolved() << " threads)";

  // Phase 3: the victims' DL attacks in design order, one at a time, each
  // over the whole pool (attack() is byte-identical at any thread count).
  // Caveat: with threads > 1 the per-row *_seconds are wall-clock times
  // measured on a shared pool — use threads = 1 for paper-comparable
  // runtimes.
  util::Timer attack_timer;
  result.rows.resize(designs.size());
  for (std::size_t d = 0; d < designs.size(); ++d) {
    if (cached[d].has_value()) {
      result.rows[d] = std::move(*cached[d]);
      continue;
    }
    Victim& victim = victims[d];
    Table3Row& row = victim.row;
    util::Timer dl_timer;
    row.dl_ccr = dl.attack(*victim.dataset, pool).ccr;
    row.dl_seconds += dl_timer.seconds();

    util::log_info() << row.design << ": #Sk " << row.num_sink_fragments
                     << ", #Sc " << row.num_source_fragments << ", DL "
                     << row.dl_ccr * 100 << "% in " << row.dl_seconds
                     << "s, flow "
                     << (row.flow_timed_out
                             ? std::string("timeout")
                             : std::to_string(row.flow_ccr * 100) + "%")
                     << " in " << row.flow_seconds << "s";
    if (use_work) {
      save_work_unit(work_unit_path(profile.work_dir, digest, d),
                     encode_t3_row(digest, d, row));
    }
    result.rows[d] = std::move(row);
  }
  result.attack_seconds = attack_timer.seconds();
  util::log_info() << "table3 M" << split_layer << ": victims attacked in "
                   << result.attack_seconds << "s";

  finalize_averages(result);
  return result;
}

std::vector<AblationRow> run_figure5(
    const ExperimentProfile& profile, const layout::FlowConfig& flow,
    const std::vector<netlist::DesignProfile>& designs, std::uint64_t seed) {
  constexpr int kSplitLayer = 3;  // the paper's Figure-5 baseline is M3
  struct Setting {
    const char* name;
    bool two_class;
    bool use_images;
  };
  constexpr Setting kSettings[] = {
      {"two-class", true, false},
      {"vec", false, false},
      {"vec+img", false, true},
  };
  constexpr std::size_t kNumSettings = std::size(kSettings);

  // Durable work units, one per setting: a rerun retrains only the
  // settings whose unit is missing or damaged.
  const bool use_work = !profile.work_dir.empty();
  std::uint64_t digest = 0;
  std::vector<std::optional<AblationRow>> cached(kNumSettings);
  if (use_work) {
    util::ensure_dir(profile.work_dir);
    digest =
        experiment_digest("figure5", kSplitLayer, profile, flow, designs, seed);
    cached = load_work_units(profile.work_dir, digest, kNumSettings,
                             decode_f5_row);
  }
  std::vector<AblationRow> rows(kNumSettings);
  std::vector<std::size_t> pending;  // the settings to train
  // The dataset kinds (0: vector-only, 1: with images) the pending
  // settings need; two-class and vec share the vector-only datasets.
  std::array<bool, 2> needed{};
  for (std::size_t s = 0; s < kNumSettings; ++s) {
    if (cached[s].has_value()) {
      rows[s] = std::move(*cached[s]);
      continue;
    }
    pending.push_back(s);
    needed[kSettings[s].use_images] = true;
  }
  if (pending.empty()) {
    util::log_info()
        << "figure5: all settings loaded from work units, skipping training";
    return rows;
  }

  std::unique_ptr<runtime::ThreadPool> owned_pool =
      profile.runtime.make_pool();
  runtime::ThreadPool* pool = owned_pool.get();

  // Phase 1: as in run_table3, one largest-first task list. Each training
  // design and each victim is laid out and split once, then featurized
  // once per needed dataset kind. The datasets point into `prepared`.
  struct Featurized {
    PreparedSplit prepared;
    std::array<std::unique_ptr<attack::QueryDataset>, 2> datasets;
    std::array<double, 2> seconds{};  ///< each dataset's build time
  };
  const std::vector<netlist::DesignProfile>& corpus_profiles =
      netlist::training_profiles();
  const std::size_t num_corpus = corpus_profiles.size();
  std::vector<Featurized> featurized(num_corpus + designs.size());
  const std::vector<std::size_t> jobs = largest_first(corpus_profiles, designs);
  util::Timer prepare_timer;
  runtime::parallel_for(pool, 0, jobs.size(), /*grain=*/1, [&](std::size_t k) {
    const std::size_t job = jobs[k];
    Featurized& design = featurized[job];
    design.prepared =
        job < num_corpus
            ? prepare_split(corpus_profiles[job], kSplitLayer, flow,
                            corpus_seed(seed, corpus_profiles[job]), pool)
            : prepare_split(designs[job - num_corpus], kSplitLayer, flow,
                            victim_seed(seed, designs[job - num_corpus]),
                            pool);
    for (const bool images : {false, true}) {
      if (!needed[images]) continue;
      util::Timer feature_timer;
      design.datasets[images] =
          make_dataset(design.prepared, profile, images, pool);
      design.seconds[images] = feature_timer.seconds();
    }
  });
  util::log_info() << "figure5: " << jobs.size()
                   << " designs laid out and featurized in "
                   << prepare_timer.seconds() << "s";
  std::array<std::vector<attack::QueryDataset>, 2> corpus;
  for (const bool images : {false, true}) {
    if (!needed[images]) continue;
    for (std::size_t i = 0; i < num_corpus; ++i) {
      corpus[images].push_back(std::move(*featurized[i].datasets[images]));
    }
  }

  // Phase 2: the pending settings side by side. Each trains on its corpus
  // datasets, which the settings only read, then attacks every victim in
  // design order. Rows are slot-addressed, so they equal a serial run's.
  // As in run_table3, a victim's time is its feature time plus its attack
  // time.
  const auto run_setting = [&](std::size_t k) {
    const std::size_t s = pending[k];
    const Setting& setting = kSettings[s];
    ExperimentProfile variant = profile;
    variant.net.two_class = setting.two_class;
    variant.net.use_images = setting.use_images;
    // M3 corpora are small (few broken nets per design), so training can
    // afford every query and a longer schedule.
    variant.train.max_queries_per_design = 0;
    variant.train.epochs = std::max(variant.train.epochs, 36);
    variant.train.decay_every = 12;
    attack::DlAttack dl =
        train_on(corpus[setting.use_images], variant, seed, pool);

    // Deterministic reduction: sum in design order.
    double ccr_sum = 0.0;
    double secs_sum = 0.0;
    for (std::size_t d = 0; d < designs.size(); ++d) {
      const Featurized& victim = featurized[num_corpus + d];
      attack::QueryDataset& dataset = *victim.datasets[setting.use_images];
      util::Timer attack_timer;
      ccr_sum += dl.attack(dataset, pool).ccr;
      secs_sum += victim.seconds[setting.use_images] + attack_timer.seconds();
    }
    AblationRow row;
    row.setting = setting.name;
    row.avg_ccr = designs.empty() ? 0.0 : ccr_sum / designs.size();
    row.avg_inference_seconds =
        designs.empty() ? 0.0 : secs_sum / designs.size();
    util::log_info() << "figure5 " << row.setting << ": avg CCR "
                     << row.avg_ccr * 100 << "%, avg inference "
                     << row.avg_inference_seconds << "s";
    if (use_work) {
      save_work_unit(work_unit_path(profile.work_dir, digest, s),
                     encode_f5_row(digest, s, row));
    }
    rows[s] = std::move(row);
  };
  runtime::parallel_for(pool, 0, pending.size(), /*grain=*/1, run_setting);
  return rows;
}

}  // namespace sma::eval
