#include "eval/experiment.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"
#include "util/hash.hpp"

namespace sma::eval {
namespace {

/// Very small profiles so the end-to-end experiment stays fast in CI.
std::vector<netlist::DesignProfile> tiny_designs() {
  std::vector<netlist::DesignProfile> designs;
  netlist::DesignProfile a;
  a.name = "tiny_a";
  a.num_inputs = 8;
  a.num_outputs = 4;
  a.num_gates = 300;
  designs.push_back(a);
  netlist::DesignProfile b = a;
  b.name = "tiny_b";
  b.num_gates = 260;
  designs.push_back(b);
  return designs;
}

ExperimentProfile tiny_profile() {
  ExperimentProfile p = ExperimentProfile::fast();
  p.dataset.candidates.max_candidates = 6;
  p.dataset.images.size = 9;
  p.dataset.images.pixel_sizes = {200, 400};
  p.net.hidden = 16;
  p.net.vector_res_blocks = 1;
  p.net.merged_res_blocks = 1;
  p.net.conv_channels = {4, 6, 8, 10};
  p.net.image_fc = 16;
  p.train.epochs = 2;
  p.train.max_queries_per_design = 40;
  return p;
}

TEST(Experiment, PrepareSplitProducesConsistentDesign) {
  netlist::DesignProfile profile = tiny_designs()[0];
  PreparedSplit prepared =
      prepare_split(profile, 3, layout::FlowConfig{}, 42);
  EXPECT_EQ(prepared.name, "tiny_a");
  EXPECT_TRUE(prepared.design->netlist->validate().empty());
  EXPECT_GT(prepared.split->sink_fragments().size(), 0u);
  EXPECT_GT(prepared.split->source_fragments().size(), 0u);
}

TEST(Experiment, ProfilesDifferInFidelity) {
  ExperimentProfile fast = ExperimentProfile::fast();
  ExperimentProfile paper = ExperimentProfile::paper();
  EXPECT_LT(fast.dataset.images.size, paper.dataset.images.size);
  EXPECT_EQ(paper.dataset.candidates.max_candidates, 31);
  EXPECT_EQ(paper.dataset.images.size, 99);
  EXPECT_EQ(paper.dataset.images.pixel_sizes,
            (std::vector<std::int64_t>{50, 100, 200}));
  EXPECT_EQ(paper.net.conv_channels, (std::array<int, 4>{16, 32, 64, 128}));
}

// NOTE: this is a miniature end-to-end run of the whole paper pipeline —
// training designs through physical design, split, DL training, and both
// attacks. Kept tiny; the bench binaries run the real thing.
TEST(Experiment, Table3EndToEndTiny) {
  // Use the tiny training corpus: swap in tiny profiles by running the
  // pipeline pieces directly.
  ExperimentProfile profile = tiny_profile();
  layout::FlowConfig flow;

  // Train on one tiny design.
  PreparedSplit train_split =
      prepare_split(tiny_designs()[0], 3, flow, 7);
  attack::DatasetConfig dataset_config = profile.dataset;
  std::vector<attack::QueryDataset> training;
  training.emplace_back(train_split.split.get(), dataset_config);
  std::vector<attack::QueryDataset> validation;

  nn::NetConfig net_config = profile.net;
  net_config.image_channels =
      static_cast<int>(profile.dataset.images.pixel_sizes.size());
  attack::DlAttack dl(net_config);
  dl.train(training, validation, profile.train);

  // Attack the other tiny design.
  PreparedSplit victim = prepare_split(tiny_designs()[1], 3, flow, 8);
  attack::QueryDataset victim_data(victim.split.get(), dataset_config);
  attack::AttackResult dl_result = dl.attack(victim_data);
  EXPECT_GE(dl_result.ccr, 0.0);
  EXPECT_LE(dl_result.ccr, 1.0);

  attack::AttackResult flow_result =
      attack::run_flow_attack(*victim.split, profile.flow_attack);
  EXPECT_FALSE(flow_result.timed_out);
}

/// Digest of what the determinism contract pins in Figure-5 rows: each
/// setting's name and the bit pattern of its average CCR. The wall-clock
/// field is left out.
std::uint64_t figure5_rows_digest(const std::vector<AblationRow>& rows) {
  util::ContentHash h;
  for (const AblationRow& row : rows) h.add(row.setting).add(row.avg_ccr);
  return h.digest();
}

/// `figure5_rows_digest` of the rows below, recorded from the schedule
/// that prepared every design once per setting.
constexpr std::uint64_t kFigure5RowsDigest = 0xcd9051bf0a18e7e0ull;

TEST(Experiment, Figure5ConcurrentSettingsMatchSerial) {
  // run_figure5 trains its three settings side by side when the profile
  // resolves > 1 thread; the rows must match a 1-thread run bitwise
  // (settings are independent and slot-addressed).
  layout::FlowConfig flow;
  std::vector<netlist::DesignProfile> victims = {tiny_designs()[0]};

  ExperimentProfile serial_profile = tiny_profile();
  serial_profile.runtime.threads = 1;
  std::vector<AblationRow> serial =
      run_figure5(serial_profile, flow, victims, 2019);

  ExperimentProfile parallel_profile = tiny_profile();
  parallel_profile.runtime.threads = 4;
  std::vector<AblationRow> parallel =
      run_figure5(parallel_profile, flow, victims, 2019);

  // Pinned: any schedule of the pass must reproduce these rows bit for
  // bit, serial and pooled alike.
  EXPECT_EQ(figure5_rows_digest(serial), kFigure5RowsDigest);
  EXPECT_EQ(figure5_rows_digest(parallel), kFigure5RowsDigest);
  ASSERT_EQ(serial.size(), 3u);
  ASSERT_EQ(parallel.size(), 3u);
  EXPECT_EQ(serial[0].setting, "two-class");
  EXPECT_EQ(serial[1].setting, "vec");
  EXPECT_EQ(serial[2].setting, "vec+img");
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].setting, parallel[i].setting);
    // Bit-identical CCRs: the determinism contract across thread counts.
    EXPECT_EQ(serial[i].avg_ccr, parallel[i].avg_ccr)
        << "setting " << serial[i].setting;
  }
}

TEST(Experiment, FinalizeAveragesSkipsTimeouts) {
  Table3Result result;
  Table3Row a;
  a.flow_ccr = 0.5;
  a.dl_ccr = 0.6;
  a.flow_seconds = 10;
  a.dl_seconds = 1;
  result.rows.push_back(a);
  Table3Row b;
  b.flow_timed_out = true;
  b.dl_ccr = 0.4;
  b.dl_seconds = 2;
  result.rows.push_back(b);
  finalize_averages(result);
  EXPECT_DOUBLE_EQ(result.avg_flow_ccr, 0.5);
  EXPECT_DOUBLE_EQ(result.avg_dl_ccr, 0.6);  // only non-timeout rows
  EXPECT_DOUBLE_EQ(result.avg_dl_seconds, 1.5);
}

}  // namespace
}  // namespace sma::eval
