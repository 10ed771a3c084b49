// End-to-end experiment orchestration.
//
// Reproduces the paper's evaluation protocol: generate benchmark layouts
// with the physical-design flow, split them at M1/M3, train the DL attack
// on the training corpus, and attack each victim design with the DL attack
// and the network-flow baseline — producing the rows of Table 3 and the
// series of Figure 5.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "attack/dl_attack.hpp"
#include "attack/flow_attack.hpp"
#include "attack/proximity_attack.hpp"
#include "layout/design.hpp"
#include "netlist/profiles.hpp"
#include "runtime/thread_pool.hpp"
#include "split/split_design.hpp"

namespace sma::eval {

/// A design taken through generation -> flow -> split, with stable
/// addresses (everything heap-allocated). The layout is shared and
/// immutable: several PreparedSplits (e.g. the same design split at
/// different layers, or prepared by a Table-3 and a Figure-5 pass) may
/// reference one cached `Design`.
struct PreparedSplit {
  std::string name;
  std::shared_ptr<const layout::Design> design;
  std::unique_ptr<split::SplitDesign> split;
};

/// Generate `profile` with `seed`, run the implementation flow, split.
/// The flow result is content-addressed through `SplitCache::global()`
/// (see eval/split_cache.hpp): repeated calls with the same profile, flow
/// config and seed reuse the stored layout instead of re-running
/// placement and routing. Cached and fresh results are byte-identical, so
/// every downstream number (Table 3, Figure 5, flow attack) is unchanged
/// by the cache.
///
/// A non-null `pool` parallelizes inside a cache-cold flow run (placement
/// relaxation lanes, routing waves) and fragment extraction. Layouts are
/// bit-identical at any thread count, so the pool never enters the cache
/// key — pooled and serial calls share one cache entry.
PreparedSplit prepare_split(const netlist::DesignProfile& profile,
                            int split_layer, const layout::FlowConfig& flow,
                            std::uint64_t seed,
                            runtime::ThreadPool* pool = nullptr);

/// Fast defaults for single-core experiments: 15x15 three-scale images,
/// 15 candidates, reduced conv widths. `paper_fidelity` switches to the
/// full 99x99 / 31-candidate / Table-2 configuration.
struct ExperimentProfile {
  attack::DatasetConfig dataset;
  nn::NetConfig net;
  attack::TrainConfig train;
  attack::FlowAttackConfig flow_attack;
  /// Thread count for every stage (0 = hardware concurrency): one pool
  /// runs the layouts, features and flow attacks side by side, then
  /// training, then each victim's DL attack in turn (see `run_table3`).
  /// Any value yields bit-identical DL models and CCRs; only wall-clock
  /// time changes. Sole exception: network-flow attack *timeouts* are
  /// wall-clock budgets, so flow rows sitting near the timeout can flip
  /// when the flow attack shares the pool with other designs' layouts.
  runtime::Config runtime;
  /// Directory for durable experiment work units (empty = disabled). Each
  /// completed Table-3 row / Figure-5 setting is written there as a
  /// checksummed, content-addressed file keyed by a digest of the full run
  /// configuration. A rerun (same configuration) loads the completed units
  /// instead of recomputing them — when every unit is present, even
  /// training is skipped — so a killed sweep resumes where it stopped.
  /// Numeric fields round-trip as raw bit patterns: resumed and fresh
  /// results are bit-identical. A damaged unit file is detected, deleted,
  /// and recomputed.
  std::string work_dir;

  static ExperimentProfile fast();
  static ExperimentProfile paper();
};

/// One Table-3 row.
struct Table3Row {
  std::string design;
  int num_sink_fragments = 0;
  int num_source_fragments = 0;
  double flow_ccr = 0.0;       ///< NaN when timed out
  double flow_seconds = 0.0;
  bool flow_timed_out = false;
  double dl_ccr = 0.0;
  double dl_seconds = 0.0;     ///< inference + feature extraction
  double hit_rate = 0.0;       ///< candidate-list coverage (diagnostic)
  bool scaled_down = false;
};

struct Table3Result {
  std::vector<Table3Row> rows;
  /// Wall time of each phase of the pass (see `run_table3`); all zero when
  /// every row was loaded from a work unit.
  double prepare_seconds = 0.0;  ///< layouts, features and flow attacks
  double train_seconds = 0.0;    ///< `DlAttack::train` alone
  double attack_seconds = 0.0;   ///< the victims' DL attacks
  /// Averages over rows where the flow attack finished (paper protocol).
  double avg_flow_ccr = 0.0;
  double avg_dl_ccr = 0.0;
  double avg_flow_seconds = 0.0;
  double avg_dl_seconds = 0.0;
};

/// Fill in the aggregate fields from `rows`.
void finalize_averages(Table3Result& result);

/// Train once on the training corpus, then attack every design of
/// `designs` at `split_layer`, on one pool in three phases:
///  1. one task per design, largest first: each training design is laid
///     out, split and featurized; each victim is laid out, split,
///     featurized and attacked with the network-flow baseline;
///  2. the model trains on the corpus datasets, in corpus order;
///  3. each victim's DL attack runs over the whole pool, in design order.
/// Rows are bit-identical at any thread count. A row's `dl_seconds` is its
/// phase-1 feature time plus its phase-3 attack time and its
/// `flow_seconds` comes from phase 1; both are wall-clock times measured
/// on the shared pool. Rows loaded from work units skip phases 1 and 3.
Table3Result run_table3(int split_layer, const ExperimentProfile& profile,
                        const layout::FlowConfig& flow,
                        const std::vector<netlist::DesignProfile>& designs,
                        std::uint64_t seed);

/// One Figure-5 bar: an attack setting and its averages over the victim
/// designs.
struct AblationRow {
  std::string setting;       ///< "two-class", "vec", "vec+img"
  double avg_ccr = 0.0;
  double avg_inference_seconds = 0.0;
};

/// Reproduce Figure 5: split at M3, compare two-class loss (vector
/// features), softmax loss (vector features), softmax loss (vector +
/// image features). Runs on `run_table3`'s schedule, without a flow
/// attack, on one pool in two phases:
///  1. one task per design, largest first: each training design and each
///     victim is laid out and split once, then featurized once per dataset
///     kind a setting to be trained needs (two-class and vec share the
///     vector-only datasets, vec+img has its own with images);
///  2. the settings not loaded from work units run side by side: each
///     trains on its corpus datasets, then attacks every victim in design
///     order over the whole pool.
/// Rows are bit-identical at any thread count. A row's
/// `avg_inference_seconds` averages each victim's phase-1 feature time
/// plus its attack time, as `run_table3`'s `dl_seconds` does.
std::vector<AblationRow> run_figure5(const ExperimentProfile& profile,
                                     const layout::FlowConfig& flow,
                                     const std::vector<netlist::DesignProfile>& designs,
                                     std::uint64_t seed);

}  // namespace sma::eval
