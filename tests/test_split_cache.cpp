// Content-addressed layout cache: a hit must be indistinguishable from a
// fresh flow run (same bytes, same downstream numbers), and the key must
// separate everything that feeds the flow.
#include "eval/split_cache.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "eval/experiment.hpp"
#include "layout/def_io.hpp"
#include "netlist/profiles.hpp"
#include "obs/obs.hpp"
#include "runtime/thread_pool.hpp"
#include "split/split_design.hpp"

namespace sma::eval {
namespace {

netlist::DesignProfile tiny_profile(const char* name, int gates) {
  netlist::DesignProfile p;
  p.name = name;
  p.num_inputs = 8;
  p.num_outputs = 4;
  p.num_gates = gates;
  return p;
}

/// Each test starts from an empty global cache and leaves it that way
/// (other test binaries have their own process).
class SplitCacheTest : public ::testing::Test {
 protected:
  void SetUp() override { SplitCache::global().clear(); }
  void TearDown() override { SplitCache::global().clear(); }
};

TEST_F(SplitCacheTest, KeySeparatesFlowInputs) {
  const netlist::DesignProfile a = tiny_profile("tiny_a", 300);
  const netlist::DesignProfile b = tiny_profile("tiny_b", 300);
  layout::FlowConfig flow;

  const std::uint64_t base = design_cache_key(a, flow, 7);
  EXPECT_EQ(base, design_cache_key(a, flow, 7));
  EXPECT_NE(base, design_cache_key(b, flow, 7));
  EXPECT_NE(base, design_cache_key(a, flow, 8));

  layout::FlowConfig other = flow;
  other.utilization = 0.6;
  EXPECT_NE(base, design_cache_key(a, other, 7));
  other = flow;
  other.router.via_cost = 3.0;
  EXPECT_NE(base, design_cache_key(a, other, 7));
  other = flow;
  other.grid.m2_capacity += 1;
  EXPECT_NE(base, design_cache_key(a, other, 7));
  // The wave schedule shapes the layout, so it must separate keys...
  other = flow;
  other.router.wave_size = 1;
  EXPECT_NE(base, design_cache_key(a, other, 7));
}

TEST_F(SplitCacheTest, PooledAndSerialFlowsShareOneDigestAndEntry) {
  // ...while the thread count must NOT: pooled and serial flows are
  // bit-identical, share one digest, and therefore one cache entry.
  const netlist::DesignProfile profile = tiny_profile("tiny_a", 280);
  layout::FlowConfig flow;

  PreparedSplit serial = prepare_split(profile, 3, flow, 9);
  const std::string serial_def = layout::to_def_string(*serial.design);

  runtime::ThreadPool pool(3);
  PreparedSplit pooled = prepare_split(profile, 3, flow, 9, &pool);
  // Same digest -> the pooled call hit the serial call's entry.
  EXPECT_EQ(SplitCache::global().stats().misses, 1u);
  EXPECT_EQ(SplitCache::global().stats().hits, 1u);
  EXPECT_EQ(serial.design.get(), pooled.design.get());

  // Cache-cold pooled build: byte-identical layout, equal end-to-end.
  SplitCache::global().clear();
  PreparedSplit cold = prepare_split(profile, 3, flow, 9, &pool);
  EXPECT_NE(serial.design.get(), cold.design.get());
  EXPECT_EQ(serial_def, layout::to_def_string(*cold.design));
  // The split itself (pooled fragment extraction) matches too.
  EXPECT_EQ(serial.split->stats().num_fragments,
            cold.split->stats().num_fragments);
  EXPECT_EQ(serial.split->stats().num_virtual_pins,
            cold.split->stats().num_virtual_pins);
  ASSERT_EQ(serial.split->fragments().size(), cold.split->fragments().size());
  for (std::size_t f = 0; f < serial.split->fragments().size(); ++f) {
    const split::Fragment& a = serial.split->fragment(static_cast<int>(f));
    const split::Fragment& b = cold.split->fragment(static_cast<int>(f));
    ASSERT_EQ(a.net, b.net);
    ASSERT_EQ(a.segments, b.segments);
    ASSERT_EQ(a.vias, b.vias);
    ASSERT_EQ(a.virtual_pins, b.virtual_pins);
    ASSERT_EQ(a.has_driver, b.has_driver);
    ASSERT_EQ(a.num_sink_pins, b.num_sink_pins);
  }
}

TEST_F(SplitCacheTest, HitSharesTheDesignAndCountsStats) {
  const netlist::DesignProfile profile = tiny_profile("tiny_a", 300);
  layout::FlowConfig flow;

  PreparedSplit first = prepare_split(profile, 3, flow, 7);
  const SplitCache::Stats after_first = SplitCache::global().stats();
  EXPECT_EQ(after_first.misses, 1u);
  EXPECT_EQ(after_first.hits, 0u);

  PreparedSplit second = prepare_split(profile, 3, flow, 7);
  const SplitCache::Stats after_second = SplitCache::global().stats();
  EXPECT_EQ(after_second.misses, 1u);
  EXPECT_EQ(after_second.hits, 1u);
  // A hit returns the *same* immutable layout, not a rebuild.
  EXPECT_EQ(first.design.get(), second.design.get());

  // A different split layer re-splits the cached layout — no new flow.
  PreparedSplit other_layer = prepare_split(profile, 1, flow, 7);
  EXPECT_EQ(SplitCache::global().stats().hits, 2u);
  EXPECT_EQ(first.design.get(), other_layer.design.get());
  EXPECT_NE(first.split->stats().num_fragments,
            0);  // both layers produced real splits
}

TEST_F(SplitCacheTest, HitIsByteIdenticalToFreshFlow) {
  const netlist::DesignProfile profile = tiny_profile("tiny_a", 260);
  layout::FlowConfig flow;

  PreparedSplit warm = prepare_split(profile, 3, flow, 11);
  PreparedSplit cached = prepare_split(profile, 3, flow, 11);
  const std::string cached_def = layout::to_def_string(*cached.design);

  SplitCache::global().clear();
  PreparedSplit fresh = prepare_split(profile, 3, flow, 11);
  EXPECT_NE(cached.design.get(), fresh.design.get());
  EXPECT_EQ(cached_def, layout::to_def_string(*fresh.design));
}

TEST_F(SplitCacheTest, LruEvictsLeastRecentlyUsed) {
  SplitCache::global().set_capacity(2);
  const netlist::DesignProfile a = tiny_profile("tiny_a", 260);
  const netlist::DesignProfile b = tiny_profile("tiny_b", 280);
  const netlist::DesignProfile c = tiny_profile("tiny_c", 300);
  layout::FlowConfig flow;

  prepare_split(a, 3, flow, 1);
  prepare_split(b, 3, flow, 1);
  prepare_split(a, 3, flow, 1);  // touch a: b is now LRU
  prepare_split(c, 3, flow, 1);  // evicts b
  EXPECT_EQ(SplitCache::global().size(), 2u);

  const SplitCache::Stats before = SplitCache::global().stats();
  prepare_split(a, 3, flow, 1);
  EXPECT_EQ(SplitCache::global().stats().hits, before.hits + 1);
  prepare_split(b, 3, flow, 1);  // miss: was evicted
  EXPECT_EQ(SplitCache::global().stats().misses, before.misses + 1);
  SplitCache::global().set_capacity(32);
}

TEST_F(SplitCacheTest, Table3RowsUnchangedByCache) {
  // The experiment protocol must produce bit-identical rows whether the
  // flow results come from the cache or from fresh runs. Vector-only
  // fast-profile variant keeps the double run test-sized.
  ExperimentProfile profile = ExperimentProfile::fast();
  profile.net.use_images = false;
  profile.net.hidden = 16;
  profile.net.vector_res_blocks = 1;
  profile.net.merged_res_blocks = 1;
  profile.dataset.candidates.max_candidates = 6;
  profile.train.epochs = 1;
  profile.train.max_queries_per_design = 10;
  profile.flow_attack.timeout_seconds = 1e6;
  profile.runtime.threads = 1;

  std::vector<netlist::DesignProfile> designs = {tiny_profile("tiny_a", 300)};
  layout::FlowConfig flow;

  // A cold pass builds every layout through the flow: one miss per
  // training design and victim, and no hit.
  const std::size_t num_designs =
      netlist::training_profiles().size() + designs.size();
  Table3Result uncached = run_table3(3, profile, flow, designs, 2019);
  EXPECT_EQ(SplitCache::global().stats().hits, 0u);
  EXPECT_EQ(SplitCache::global().stats().misses, num_designs);

  // So does a cold pooled pass: it prepares every design exactly once.
  SplitCache::global().clear();
  ExperimentProfile pooled = profile;
  pooled.runtime.threads = 3;
  Table3Result warmup = run_table3(3, pooled, flow, designs, 2019);
  const SplitCache::Stats warm_stats = SplitCache::global().stats();
  EXPECT_EQ(warm_stats.hits, 0u);
  EXPECT_EQ(warm_stats.misses, num_designs);

  Table3Result cached = run_table3(3, profile, flow, designs, 2019);
  const SplitCache::Stats hit_stats = SplitCache::global().stats();
  // The cached rerun rebuilt nothing: training corpus and victim each hit
  // exactly once.
  EXPECT_EQ(hit_stats.misses, warm_stats.misses);
  EXPECT_EQ(hit_stats.hits, warm_stats.hits + num_designs);

  ASSERT_EQ(uncached.rows.size(), cached.rows.size());
  for (std::size_t i = 0; i < uncached.rows.size(); ++i) {
    const Table3Row& u = uncached.rows[i];
    const Table3Row& c = cached.rows[i];
    EXPECT_EQ(u.design, c.design);
    EXPECT_EQ(u.num_sink_fragments, c.num_sink_fragments);
    EXPECT_EQ(u.num_source_fragments, c.num_source_fragments);
    EXPECT_EQ(u.dl_ccr, c.dl_ccr);
    EXPECT_EQ(u.flow_ccr, c.flow_ccr);
    EXPECT_EQ(u.hit_rate, c.hit_rate);
    EXPECT_EQ(u.flow_timed_out, c.flow_timed_out);
    // And the warm (first cached) run matches too.
    EXPECT_EQ(u.dl_ccr, warmup.rows[i].dl_ccr);
  }
  EXPECT_EQ(uncached.avg_dl_ccr, cached.avg_dl_ccr);
  EXPECT_EQ(uncached.avg_flow_ccr, cached.avg_flow_ccr);
}

TEST_F(SplitCacheTest, Figure5PreparesEachDesignOnce) {
  // A cold pooled Figure-5 pass lays out and splits every training design
  // and victim once for all three settings: one miss each and no hit.
  // Two-class and vec share each design's vector-only dataset and vec+img
  // has its own with images, so every design gets two datasets. With a
  // pool, the settings train side by side, two of them on the same
  // datasets (which the thread-sanitizer leg checks).
  ExperimentProfile profile = ExperimentProfile::fast();
  profile.dataset.candidates.max_candidates = 6;
  profile.dataset.images.size = 9;
  profile.dataset.images.pixel_sizes = {200, 400};
  profile.net.hidden = 16;
  profile.net.vector_res_blocks = 1;
  profile.net.merged_res_blocks = 1;
  profile.net.conv_channels = {4, 6, 8, 10};
  profile.net.image_fc = 16;
  profile.runtime.threads = 4;
  const std::vector<netlist::DesignProfile> victims = {
      tiny_profile("tiny_a", 300)};

  obs::Counter& extractions =
      obs::Registry::global().counter("split.extractions");
  obs::Counter& builds = obs::Registry::global().counter("dataset.builds");
  const std::uint64_t extractions_before = extractions.value();
  const std::uint64_t builds_before = builds.value();
  const std::vector<AblationRow> rows =
      run_figure5(profile, layout::FlowConfig{}, victims, 2019);
  ASSERT_EQ(rows.size(), 3u);

  const std::size_t num_designs =
      netlist::training_profiles().size() + victims.size();
  EXPECT_EQ(SplitCache::global().stats().misses, num_designs);
  EXPECT_EQ(SplitCache::global().stats().hits, 0u);
  EXPECT_EQ(extractions.value() - extractions_before, num_designs);
  EXPECT_EQ(builds.value() - builds_before, 2 * num_designs);
}

}  // namespace
}  // namespace sma::eval
