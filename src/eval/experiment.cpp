#include "eval/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <string>

#include "eval/split_cache.hpp"
#include "obs/obs.hpp"
#include "runtime/parallel.hpp"
#include "util/durable_io.hpp"
#include "util/fault.hpp"
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

/// Build a dataset for one prepared design under `profile`.
attack::QueryDataset make_dataset(const PreparedSplit& prepared,
                                  const ExperimentProfile& profile,
                                  bool build_images,
                                  runtime::ThreadPool* pool) {
  attack::DatasetConfig config = profile.dataset;
  config.build_images = build_images && profile.net.use_images;
  config.pool = pool;
  return attack::QueryDataset(prepared.split.get(), config);
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

/// One training design, laid out, split and featurized. The dataset
/// points into `prepared`, which must outlive it.
struct CorpusDesign {
  PreparedSplit prepared;
  std::unique_ptr<attack::QueryDataset> dataset;
};

CorpusDesign prepare_corpus_design(const netlist::DesignProfile& design,
                                   int split_layer,
                                   const ExperimentProfile& profile,
                                   const layout::FlowConfig& flow,
                                   std::uint64_t seed,
                                   runtime::ThreadPool* pool) {
  CorpusDesign out;
  out.prepared = prepare_split(design, split_layer, flow,
                               corpus_seed(seed, design), pool);
  out.dataset = std::make_unique<attack::QueryDataset>(
      make_dataset(out.prepared, profile, true, pool));
  return out;
}

/// Train a DL attack on the corpus datasets in corpus order (moved out of
/// `corpus`). Training parallelizes over gradient lanes (see DlAttack).
/// `train_seconds`, when non-null, receives the wall time of
/// `DlAttack::train` alone.
attack::DlAttack train_on(std::vector<CorpusDesign>& corpus,
                          const ExperimentProfile& profile,
                          std::uint64_t seed, runtime::ThreadPool* pool,
                          double* train_seconds = nullptr) {
  std::vector<attack::QueryDataset> training;
  training.reserve(corpus.size());
  for (CorpusDesign& design : corpus) {
    training.push_back(std::move(*design.dataset));
  }
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

/// Train a DL attack over the standard training corpus at `split_layer`.
/// One task per training design covers layout generation and feature
/// extraction; designs are independent, so no barrier between stages.
attack::DlAttack train_attack(int split_layer,
                              const ExperimentProfile& profile,
                              const layout::FlowConfig& flow,
                              std::uint64_t seed,
                              runtime::ThreadPool* pool) {
  const std::vector<netlist::DesignProfile>& profiles =
      netlist::training_profiles();
  std::vector<CorpusDesign> corpus = runtime::parallel_map(
      pool, profiles.size(), /*grain=*/1, [&](std::size_t i) {
        return prepare_corpus_design(profiles[i], split_layer, profile, flow,
                                     seed, pool);
      });
  return train_on(corpus, profile, seed, pool);
}

/// ------------------------------------------------------------------
/// Durable work units (ExperimentProfile::work_dir).
///
/// A unit file holds one completed, slot-addressed result (a Table-3 row
/// or a Figure-5 setting) inside a durable_io frame, keyed by a digest of
/// the full run configuration plus its slot index. Reruns load matching
/// units and skip the work; anything else (missing, damaged, or from a
/// different configuration) is recomputed and rewritten. Numeric fields
/// round-trip as raw bit patterns, so a resumed run's output is
/// bit-identical to an uninterrupted one.
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

  h.add(p.dataset.candidates.max_candidates)
      .add(p.dataset.candidates.use_direction_criterion)
      .add(p.dataset.candidates.use_non_duplication)
      .add(p.dataset.images.size)
      .add(p.dataset.images.wire_half_width)
      .add(p.dataset.build_images);
  for (std::int64_t px : p.dataset.images.pixel_sizes) h.add(px);

  h.add(p.net.vector_dim)
      .add(p.net.hidden)
      .add(p.net.vector_res_blocks)
      .add(p.net.merged_res_blocks)
      .add(p.net.use_images)
      .add(p.net.image_fc)
      .add(p.net.fc6_width)
      .add(p.net.two_class)
      .add(p.net.seed);
  for (int c : p.net.conv_channels) h.add(c);

  h.add(p.train.epochs)
      .add(p.train.decay_every)
      .add(p.train.max_queries_per_design)
      .add(p.train.batch_size)
      .add(p.train.seed)
      .add(p.train.adam.lr)
      .add(p.train.adam.beta1)
      .add(p.train.adam.beta2)
      .add(p.train.adam.eps)
      .add(p.train.adam.decay);

  h.add(p.flow_attack.candidates.max_candidates)
      .add(p.flow_attack.avg_sink_cap)
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

void append_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void append_bits(std::string& out, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  append_u64(out, bits);
}

void append_str(std::string& out, const std::string& s) {
  append_u64(out, s.size());
  out.append(s);
}

/// Bounds-checked reader for work-unit payloads.
class WorkCursor {
 public:
  explicit WorkCursor(const std::string& bytes) : bytes_(bytes) {}

  std::uint64_t read_u64(const char* what) {
    std::uint64_t v = 0;
    if (bytes_.size() - pos_ < sizeof(v)) {
      throw util::FrameError(std::string("work unit truncated in ") + what);
    }
    std::memcpy(&v, bytes_.data() + pos_, sizeof(v));
    pos_ += sizeof(v);
    return v;
  }

  double read_bits(const char* what) {
    const std::uint64_t bits = read_u64(what);
    double d = 0.0;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
  }

  std::string read_str(const char* what) {
    const std::uint64_t size = read_u64(what);
    if (size > bytes_.size() - pos_) {
      throw util::FrameError(std::string("work unit truncated in ") + what);
    }
    std::string s(bytes_.data() + pos_, static_cast<std::size_t>(size));
    pos_ += static_cast<std::size_t>(size);
    return s;
  }

  /// A non-negative count that must fit an `int`.
  int read_count(const char* what) {
    const std::uint64_t v = read_u64(what);
    if (v > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      throw util::FrameError(std::string("work unit ") + what +
                             " out of range");
    }
    return static_cast<int>(v);
  }

  /// Every byte must have been consumed: a payload with trailing bytes
  /// came from a different encoder.
  void expect_end() const {
    if (pos_ != bytes_.size()) {
      throw util::FrameError("work unit has " +
                             std::to_string(bytes_.size() - pos_) +
                             " trailing bytes");
    }
  }

 private:
  const std::string& bytes_;
  std::size_t pos_ = 0;
};

std::string encode_t3_row(std::uint64_t digest, std::size_t slot,
                          const Table3Row& row) {
  std::string out;
  append_u64(out, digest);
  append_u64(out, slot);
  append_str(out, row.design);
  append_u64(out, static_cast<std::uint64_t>(row.num_sink_fragments));
  append_u64(out, static_cast<std::uint64_t>(row.num_source_fragments));
  append_u64(out, (row.flow_timed_out ? 1u : 0u) |
                      (row.scaled_down ? 2u : 0u));
  append_bits(out, row.flow_ccr);
  append_bits(out, row.flow_seconds);
  append_bits(out, row.dl_ccr);
  append_bits(out, row.dl_seconds);
  append_bits(out, row.hit_rate);
  return out;
}

Table3Row decode_t3_row(const std::string& payload, std::uint64_t digest,
                        std::size_t slot) {
  WorkCursor cur(payload);
  if (cur.read_u64("digest") != digest || cur.read_u64("slot") != slot) {
    throw util::FrameError("work unit belongs to a different run or slot");
  }
  Table3Row row;
  row.design = cur.read_str("design name");
  row.num_sink_fragments = cur.read_count("sink count");
  row.num_source_fragments = cur.read_count("source count");
  const std::uint64_t flags = cur.read_u64("flags");
  if ((flags & ~std::uint64_t{3}) != 0) {
    throw util::FrameError("work unit has unknown flag bits");
  }
  row.flow_timed_out = (flags & 1u) != 0;
  row.scaled_down = (flags & 2u) != 0;
  row.flow_ccr = cur.read_bits("flow ccr");
  row.flow_seconds = cur.read_bits("flow seconds");
  row.dl_ccr = cur.read_bits("dl ccr");
  row.dl_seconds = cur.read_bits("dl seconds");
  row.hit_rate = cur.read_bits("hit rate");
  cur.expect_end();
  return row;
}

std::string encode_f5_row(std::uint64_t digest, std::size_t slot,
                          const AblationRow& row) {
  std::string out;
  append_u64(out, digest);
  append_u64(out, slot);
  append_str(out, row.setting);
  append_bits(out, row.avg_ccr);
  append_bits(out, row.avg_inference_seconds);
  return out;
}

AblationRow decode_f5_row(const std::string& payload, std::uint64_t digest,
                          std::size_t slot) {
  WorkCursor cur(payload);
  if (cur.read_u64("digest") != digest || cur.read_u64("slot") != slot) {
    throw util::FrameError("work unit belongs to a different run or slot");
  }
  AblationRow row;
  row.setting = cur.read_str("setting name");
  row.avg_ccr = cur.read_bits("avg ccr");
  row.avg_inference_seconds = cur.read_bits("avg inference seconds");
  cur.expect_end();
  return row;
}

/// Load one unit's payload, or nullopt when it is missing, damaged (the
/// file is deleted for recompute), or FaultInjected-free unreadable.
std::optional<std::string> load_work_unit(const std::string& path) {
  if (!util::file_exists(path)) return std::nullopt;
  try {
    util::fault::point("work.load");
    return util::read_frame_file(path, kWorkFrameKind, kWorkSchemaVersion);
  } catch (util::fault::FaultInjected&) {
    throw;
  } catch (const std::exception& e) {
    util::log_warn() << "discarding corrupt work unit " << path << ": "
                     << e.what();
    std::remove(path.c_str());
    return std::nullopt;
  }
}

/// Persist one unit; failure degrades to a warning (the run continues,
/// the unit is simply recomputed next time).
void save_work_unit(const std::string& path, const std::string& payload) {
  try {
    util::fault::point("work.save");
    util::write_frame_file(path, kWorkFrameKind, kWorkSchemaVersion, payload);
    SMA_COUNT("work.units_saved");
  } catch (const util::DurableIoError& e) {
    util::log_warn() << "work unit save failed for " << path << ": "
                     << e.what();
  }
}

}  // namespace

void finalize_averages(Table3Result& result) {
  int flow_rows = 0;
  double flow_ccr = 0.0;
  double flow_secs = 0.0;
  double dl_ccr_on_flow_rows = 0.0;
  double dl_ccr_all = 0.0;
  double dl_secs = 0.0;
  for (const Table3Row& row : result.rows) {
    dl_ccr_all += row.dl_ccr;
    dl_secs += row.dl_seconds;
    if (!row.flow_timed_out) {
      ++flow_rows;
      flow_ccr += row.flow_ccr;
      flow_secs += row.flow_seconds;
      dl_ccr_on_flow_rows += row.dl_ccr;
    }
  }
  (void)dl_ccr_all;
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
    bool all_cached = !designs.empty();
    for (std::size_t d = 0; d < designs.size(); ++d) {
      const std::optional<std::string> payload =
          load_work_unit(work_unit_path(profile.work_dir, digest, d));
      if (payload.has_value()) {
        try {
          cached[d] = decode_t3_row(*payload, digest, d);
          SMA_COUNT("work.units_loaded");
        } catch (const util::FrameError& e) {
          util::log_warn() << "recomputing work unit " << d << ": "
                           << e.what();
        }
      }
      if (!cached[d].has_value()) all_cached = false;
    }
    if (all_cached) {
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

  // Phase 1: everything that does not need the model, as one task list —
  // each training design's layout and dataset, and each victim's layout,
  // dataset and flow attack. Largest design first, so the longest layouts
  // start early and the small ones fill in behind them (a stable sort, so
  // ties keep corpus-then-victim order). Every job writes only its own
  // slot, and a design's results are a pure function of its profile, seed
  // and config, so the schedule never changes a row.
  const std::vector<netlist::DesignProfile>& corpus_profiles =
      netlist::training_profiles();
  const std::size_t num_corpus = corpus_profiles.size();
  struct Victim {
    PreparedSplit prepared;
    std::unique_ptr<attack::QueryDataset> dataset;
    Table3Row row;  ///< all but dl_ccr; dl_seconds holds the feature time
  };
  std::vector<CorpusDesign> corpus(num_corpus);
  std::vector<Victim> victims(designs.size());
  std::vector<std::size_t> jobs;  // corpus index, or num_corpus + victim
  for (std::size_t i = 0; i < num_corpus; ++i) jobs.push_back(i);
  for (std::size_t d = 0; d < designs.size(); ++d) {
    if (!cached[d].has_value()) jobs.push_back(num_corpus + d);
  }
  const auto job_profile =
      [&](std::size_t job) -> const netlist::DesignProfile& {
    return job < num_corpus ? corpus_profiles[job] : designs[job - num_corpus];
  };
  std::stable_sort(jobs.begin(), jobs.end(), [&](std::size_t a, std::size_t b) {
    return job_profile(a).num_gates > job_profile(b).num_gates;
  });

  util::Timer prepare_timer;
  runtime::parallel_for(pool, 0, jobs.size(), /*grain=*/1, [&](std::size_t k) {
    const std::size_t job = jobs[k];
    if (job < num_corpus) {
      corpus[job] = prepare_corpus_design(corpus_profiles[job], split_layer,
                                          profile, flow, seed, pool);
      return;
    }
    const netlist::DesignProfile& design_profile = job_profile(job);
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
    victim.dataset = std::make_unique<attack::QueryDataset>(
        make_dataset(victim.prepared, profile, true, pool));
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

  // Phase 2: train on the corpus datasets, in corpus order.
  attack::DlAttack dl =
      train_on(corpus, profile, seed, pool, &result.train_seconds);
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
  constexpr std::size_t kNumSettings = 3;

  // Durable work units, one per setting: a rerun retrains only the
  // settings whose unit is missing or damaged.
  const bool use_work = !profile.work_dir.empty();
  std::uint64_t digest = 0;
  std::vector<std::optional<AblationRow>> cached(kNumSettings);
  bool all_cached = false;
  if (use_work) {
    util::ensure_dir(profile.work_dir);
    digest =
        experiment_digest("figure5", kSplitLayer, profile, flow, designs, seed);
    all_cached = true;
    for (std::size_t s = 0; s < kNumSettings; ++s) {
      const std::optional<std::string> payload =
          load_work_unit(work_unit_path(profile.work_dir, digest, s));
      if (payload.has_value()) {
        try {
          cached[s] = decode_f5_row(*payload, digest, s);
          SMA_COUNT("work.units_loaded");
        } catch (const util::FrameError& e) {
          util::log_warn() << "recomputing work unit " << s << ": "
                           << e.what();
        }
      }
      if (!cached[s].has_value()) all_cached = false;
    }
  }
  if (all_cached) {
    util::log_info()
        << "figure5: all settings loaded from work units, skipping training";
    std::vector<AblationRow> rows;
    for (std::size_t s = 0; s < kNumSettings; ++s) {
      rows.push_back(std::move(*cached[s]));
    }
    return rows;
  }

  std::unique_ptr<runtime::ThreadPool> owned_pool =
      profile.runtime.make_pool();
  runtime::ThreadPool* pool = owned_pool.get();

  struct Setting {
    const char* name;
    bool two_class;
    bool use_images;
  };
  const Setting settings[] = {
      {"two-class", true, false},
      {"vec", false, false},
      {"vec+img", false, true},
  };

  // One setting end-to-end: train, then evaluate every victim design.
  // Each setting is fully independent (own model, own per-design
  // datasets, deterministic pipeline), so the result is the same whether
  // settings run back-to-back or concurrently.
  auto run_setting = [&](const Setting& setting) {
    ExperimentProfile variant = profile;
    variant.net.two_class = setting.two_class;
    variant.net.use_images = setting.use_images;
    // M3 corpora are small (few broken nets per design), so training can
    // afford every query and a longer schedule.
    variant.train.max_queries_per_design = 0;
    variant.train.epochs = std::max(variant.train.epochs, 36);
    variant.train.decay_every = 12;

    attack::DlAttack dl = train_attack(kSplitLayer, variant, flow, seed, pool);

    struct PerDesign {
      double ccr = 0.0;
      double seconds = 0.0;
    };
    std::vector<PerDesign> per_design = runtime::parallel_map(
        pool, designs.size(), /*grain=*/1, [&](std::size_t d) {
          PreparedSplit prepared =
              prepare_split(designs[d], kSplitLayer, flow,
                            victim_seed(seed, designs[d]), pool);
          util::Timer timer;
          attack::QueryDataset dataset =
              make_dataset(prepared, variant, setting.use_images, pool);
          attack::AttackResult result = dl.attack(dataset, pool);
          return PerDesign{result.ccr, timer.seconds()};
        });

    // Deterministic reduction: sum in design order on this thread.
    double ccr_sum = 0.0;
    double secs_sum = 0.0;
    for (const PerDesign& p : per_design) {
      ccr_sum += p.ccr;
      secs_sum += p.seconds;
    }
    AblationRow row;
    row.setting = setting.name;
    row.avg_ccr = designs.empty() ? 0.0 : ccr_sum / designs.size();
    row.avg_inference_seconds =
        designs.empty() ? 0.0 : secs_sum / designs.size();
    util::log_info() << "figure5 " << row.setting << ": avg CCR "
                     << row.avg_ccr * 100 << "%, avg inference "
                     << row.avg_inference_seconds << "s";
    return row;
  };

  // Work-unit wrapper: a cached setting returns immediately (its training
  // run never starts); a computed one is persisted before it lands in its
  // slot.
  auto run_setting_cached = [&](std::size_t s) {
    if (use_work && cached[s].has_value()) return *cached[s];
    AblationRow row = run_setting(settings[s]);
    if (use_work) {
      save_work_unit(work_unit_path(profile.work_dir, digest, s),
                     encode_f5_row(digest, s, row));
    }
    return row;
  };

  static_assert(kNumSettings == sizeof(settings) / sizeof(settings[0]));
  std::vector<AblationRow> rows(kNumSettings);
  if (pool != nullptr) {
    // Pre-warm the split cache: all three settings want the same layouts,
    // and concurrent first requests would all miss the same key and each
    // rebuild the flow (SplitCache builds outside its lock and discards
    // duplicate inserts). One parallel pass per distinct design here means
    // the settings below hit the cache instead of racing to fill it.
    {
      const std::vector<netlist::DesignProfile>& corpus =
          netlist::training_profiles();
      runtime::parallel_for(
          pool, 0, corpus.size() + designs.size(), /*grain=*/1,
          [&](std::size_t i) {
            if (i < corpus.size()) {
              prepare_split(corpus[i], kSplitLayer, flow,
                            corpus_seed(seed, corpus[i]), pool);
            } else {
              const netlist::DesignProfile& d = designs[i - corpus.size()];
              prepare_split(d, kSplitLayer, flow, victim_seed(seed, d), pool);
            }
          });
    }
    // The three settings train as one TaskGroup: setting-level tasks keep
    // every thread busy across the serial stretches of a single training
    // run, and rows land in setting order (slot-addressed), so the output
    // matches the sequential loop row-for-row.
    runtime::TaskGroup group(pool);
    for (std::size_t s = 0; s < kNumSettings; ++s) {
      group.run(
          [s, &rows, &run_setting_cached] { rows[s] = run_setting_cached(s); });
    }
    group.wait();
  } else {
    for (std::size_t s = 0; s < kNumSettings; ++s) {
      rows[s] = run_setting_cached(s);
    }
  }
  return rows;
}

}  // namespace sma::eval
