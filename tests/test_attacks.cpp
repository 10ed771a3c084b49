#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "attack/dl_attack.hpp"
#include "attack/flow_attack.hpp"
#include "attack/proximity_attack.hpp"
#include "eval/experiment.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "test_support.hpp"

namespace sma::attack {
namespace {

TEST(ComputeCcr, WeightsBySinkCount) {
  std::vector<Selection> selections(3);
  selections[0] = {0, 1, true, 3};
  selections[1] = {1, 2, false, 1};
  selections[2] = {2, 3, true, 1};
  EXPECT_DOUBLE_EQ(compute_ccr(selections), 4.0 / 5.0);
  EXPECT_DOUBLE_EQ(compute_ccr({}), 0.0);
}

class AttackTest : public ::testing::Test {
 protected:
  void SetUp() override { s_ = &test::shared_split(3, 400, 13); }
  const test::SmallSplit* s_ = nullptr;
};

TEST_F(AttackTest, ProximityAttackProducesSelections) {
  AttackResult result = run_proximity_attack(*s_->split);
  EXPECT_EQ(result.selections.size(), s_->split->sink_fragments().size());
  EXPECT_GE(result.ccr, 0.0);
  EXPECT_LE(result.ccr, 1.0);
  EXPECT_FALSE(result.timed_out);
  // Proximity must beat random guessing among the ~48 candidates (~2%)
  // by a wide margin.
  EXPECT_GT(result.ccr, 0.06);
}

TEST_F(AttackTest, FlowAttackRespectsCapacities) {
  AttackResult result = run_flow_attack(*s_->split);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.selections.size(), s_->split->sink_fragments().size());
  EXPECT_GT(result.ccr, 0.1);

  // No source fragment may be assigned more sinks than its capacity bound.
  FlowAttackConfig config;
  std::map<int, int> assignments;
  for (const Selection& sel : result.selections) {
    if (sel.chosen_source >= 0) ++assignments[sel.chosen_source];
  }
  for (const auto& [source, count] : assignments) {
    EXPECT_LE(count, config.max_slots);
  }
}

TEST_F(AttackTest, FlowAttackTimeoutPath) {
  FlowAttackConfig config;
  config.timeout_seconds = 1e-9;  // force immediate timeout
  AttackResult result = run_flow_attack(*s_->split, config);
  EXPECT_TRUE(result.timed_out);
  EXPECT_TRUE(std::isnan(result.ccr));
}

TEST_F(AttackTest, DlAttackVectorOnlyTrainsAndAttacks) {
  DatasetConfig dataset_config;
  dataset_config.candidates.max_candidates = 8;
  dataset_config.build_images = false;

  std::vector<QueryDataset> training;
  training.emplace_back(s_->split.get(), dataset_config);
  const test::SmallSplit& extra = test::shared_split(3, 400, 16);
  training.emplace_back(extra.split.get(), dataset_config);
  std::vector<QueryDataset> validation;

  nn::NetConfig net_config;
  net_config.hidden = 24;
  net_config.vector_res_blocks = 1;
  net_config.merged_res_blocks = 1;
  net_config.use_images = false;

  TrainConfig train_config;
  train_config.epochs = 6;
  train_config.max_queries_per_design = 200;

  DlAttack dl(net_config);
  TrainStats stats = dl.train(training, validation, train_config);
  EXPECT_EQ(stats.epoch_loss.size(), 6u);
  EXPECT_GT(stats.queries_seen, 0);
  // Loss should drop from the first epoch to the last.
  EXPECT_LT(stats.epoch_loss.back(), stats.epoch_loss.front());

  // Attack a fresh layout of the same character (self-attack sanity).
  const test::SmallSplit& victim = test::shared_split(3, 400, 14);
  QueryDataset victim_data(victim.split.get(), dataset_config);
  AttackResult result = dl.attack(victim_data);
  EXPECT_EQ(result.selections.size(), victim.split->sink_fragments().size());
  // Trained DL should comfortably beat random choice (1/8).
  EXPECT_GT(result.ccr, 0.16);
}

TEST_F(AttackTest, DlAttackBeatsUntrainedNet) {
  DatasetConfig dataset_config;
  dataset_config.candidates.max_candidates = 8;
  dataset_config.build_images = false;

  nn::NetConfig net_config;
  net_config.hidden = 24;
  net_config.vector_res_blocks = 1;
  net_config.merged_res_blocks = 1;
  net_config.use_images = false;

  const test::SmallSplit& victim = test::shared_split(3, 400, 14);

  // Untrained baseline.
  DlAttack untrained(net_config);
  QueryDataset victim_data1(victim.split.get(), dataset_config);
  double untrained_ccr = untrained.attack(victim_data1).ccr;

  // Trained.
  std::vector<QueryDataset> training;
  training.emplace_back(s_->split.get(), dataset_config);
  std::vector<QueryDataset> validation;
  TrainConfig train_config;
  train_config.epochs = 6;
  DlAttack trained(net_config);
  trained.train(training, validation, train_config);
  QueryDataset victim_data2(victim.split.get(), dataset_config);
  double trained_ccr = trained.attack(victim_data2).ccr;

  EXPECT_GT(trained_ccr, untrained_ccr);
}

TEST_F(AttackTest, TrainingWithValidationTracksCcr) {
  DatasetConfig dataset_config;
  dataset_config.candidates.max_candidates = 6;
  dataset_config.build_images = false;

  std::vector<QueryDataset> training;
  training.emplace_back(s_->split.get(), dataset_config);
  const test::SmallSplit& val = test::shared_split(3, 300, 15);
  std::vector<QueryDataset> validation;
  validation.emplace_back(val.split.get(), dataset_config);

  nn::NetConfig net_config;
  net_config.hidden = 16;
  net_config.vector_res_blocks = 1;
  net_config.merged_res_blocks = 1;
  net_config.use_images = false;

  TrainConfig train_config;
  train_config.epochs = 4;
  train_config.validate_every = 2;
  train_config.max_queries_per_design = 100;

  DlAttack dl(net_config);
  TrainStats stats = dl.train(training, validation, train_config);
  EXPECT_EQ(stats.validation_ccr.size(), 2u);
}

TEST(TrainSchedule, EveryListedFieldMovesTheBytes) {
  // The training-checkpoint and experiment digests hash these bytes, so
  // each field they list must change them, and no other field may.
  const TrainConfig base;
  const std::string bytes = encode_train_schedule(base);
  const std::vector<void (*)(TrainConfig&)> edits = {
      [](TrainConfig& c) { c.adam.lr *= 2; },
      [](TrainConfig& c) { c.adam.beta1 = 0.8; },
      [](TrainConfig& c) { c.adam.beta2 = 0.99; },
      [](TrainConfig& c) { c.adam.eps = 1e-7; },
      [](TrainConfig& c) { c.adam.decay = 0.5; },
      [](TrainConfig& c) { c.decay_every += 1; },
      [](TrainConfig& c) { c.max_queries_per_design += 1; },
      [](TrainConfig& c) { c.batch_size += 1; },
      [](TrainConfig& c) { c.seed += 1; },
  };
  for (std::size_t i = 0; i < edits.size(); ++i) {
    TrainConfig changed = base;
    edits[i](changed);
    EXPECT_NE(encode_train_schedule(changed), bytes) << "field " << i;
  }
  TrainConfig other = base;
  other.epochs += 1;
  other.validate_every = 2;
  other.checkpoint_every = 3;
  other.checkpoint_path = "elsewhere.sma";
  EXPECT_EQ(encode_train_schedule(other), bytes);
}

// ---------------------------------------------------------------------
// attack() embeds each distinct virtual-pin image once, then scores every
// query against that table. Its selections must equal the per-query path
// (the one-query forward that training runs) bit for bit, whatever the
// width, the thread count, and how the dataset's pins fall into the
// 64-pin embed chunks.
// ---------------------------------------------------------------------

/// The fast profile's 15 px, 3-channel images, `max_candidates` per query.
DatasetConfig fast_dataset_config(int max_candidates) {
  DatasetConfig config = eval::ExperimentProfile::fast().dataset;
  config.candidates.max_candidates = max_candidates;
  return config;
}

nn::NetConfig fast_net_config(bool use_images, bool two_class) {
  nn::NetConfig config = nn::NetConfig::fast();
  config.image_channels =
      static_cast<int>(fast_dataset_config(8).images.pixel_sizes.size());
  config.use_images = use_images;
  config.two_class = two_class;
  return config;
}

/// A fast net trained for one short epoch, so its scores are not those of
/// the random initialization.
std::unique_ptr<DlAttack> briefly_trained(const nn::NetConfig& config) {
  const test::SmallSplit& split = test::shared_split(1, 24, 5);
  std::vector<QueryDataset> training;
  training.emplace_back(split.split.get(), fast_dataset_config(8));
  std::vector<QueryDataset> validation;
  TrainConfig train_config;
  train_config.epochs = 1;
  train_config.max_queries_per_design = 24;
  auto dl = std::make_unique<DlAttack>(config);
  dl->train(training, validation, train_config);
  return dl;
}

/// The per-query oracle: Eq. 2 over each query's one-query forward.
AttackResult per_query(nn::AttackNet& net, const QueryDataset& dataset) {
  AttackResult result;
  result.selections.resize(dataset.num_queries());
  nn::QueryInput input;
  for (std::size_t i = 0; i < dataset.num_queries(); ++i) {
    const split::SinkQuery& query = dataset.query(i);
    Selection& out = result.selections[i];
    out.sink_fragment = query.sink_fragment;
    out.num_sinks = query.num_sinks;
    if (query.candidates.empty()) continue;
    const QueryRef ref{&dataset, i};
    assemble_batch(&ref, 1, input);
    const nn::Tensor& scores = net.forward(input);
    const split::Vpp& best = query.candidates[static_cast<std::size_t>(
        nn::predict(scores.data(), static_cast<int>(query.candidates.size()),
                    scores.shape().size() == 2 ? 2 : 1))];
    out.chosen_source = best.source_fragment;
    out.correct = best.positive;
  }
  result.ccr = compute_ccr(result.selections);
  return result;
}

void expect_same_result(const AttackResult& got, const AttackResult& want) {
  ASSERT_EQ(got.selections.size(), want.selections.size());
  for (std::size_t i = 0; i < got.selections.size(); ++i) {
    EXPECT_EQ(got.selections[i].sink_fragment,
              want.selections[i].sink_fragment) << "query " << i;
    EXPECT_EQ(got.selections[i].chosen_source,
              want.selections[i].chosen_source) << "query " << i;
    EXPECT_EQ(got.selections[i].correct, want.selections[i].correct)
        << "query " << i;
    EXPECT_EQ(got.selections[i].num_sinks, want.selections[i].num_sinks)
        << "query " << i;
  }
  EXPECT_EQ(std::memcmp(&got.ccr, &want.ccr, sizeof(double)), 0)
      << got.ccr << " vs " << want.ccr;
}

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// Image lookups a per-query pass makes over `dataset`: n + 1 per live
/// query (its sources and its sink).
std::uint64_t image_lookups(const QueryDataset& dataset) {
  std::uint64_t lookups = 0;
  for (std::size_t i = 0; i < dataset.num_queries(); ++i) {
    const std::size_t n = dataset.query(i).candidates.size();
    if (n > 0) lookups += n + 1;
  }
  return lookups;
}

struct EmbedCase {
  std::string name;
  int gates;
  std::uint64_t seed;
  int max_candidates;
  int pins;  ///< distinct pins, pinned so the chunk relation cannot drift
};

/// M1 splits of tiny designs whose pin counts sit below, at and above one
/// 64-pin embed chunk, and a dataset whose every query is empty.
const std::vector<EmbedCase>& embed_cases() {
  static const std::vector<EmbedCase> cases = {
      {"below_one_chunk", 16, 1, 8, 55},
      {"one_chunk", 20, 4, 8, 64},
      {"three_chunks", 60, 1, 8, 183},
      {"zero_candidates", 16, 1, 0, 0},
  };
  return cases;
}

/// Zero fc1's weights: the vector branch then gives every candidate the
/// same row, so each selection turns on the image embeddings alone and a
/// wrong or missing embedding row shows up as a changed selection.
void silence_vector_branch(DlAttack& dl) {
  const std::vector<nn::Param> params = dl.net().params();
  ASSERT_EQ(params[0].name.rfind("fc1", 0), 0u) << params[0].name;
  params[0].value->fill(0.0f);
}

void check_embed_attack(DlAttack& dl, std::initializer_list<int> widths) {
  runtime::ThreadPool pool2(2);
  runtime::ThreadPool pool3(3);
  for (const EmbedCase& c : embed_cases()) {
    SCOPED_TRACE(c.name);
    const test::SmallSplit& split = test::shared_split(1, c.gates, c.seed);
    const QueryDataset dataset(split.split.get(),
                               fast_dataset_config(c.max_candidates));
    ASSERT_EQ(dataset.cached_images(), static_cast<std::size_t>(c.pins));
    ASSERT_GT(dataset.num_queries(), 0u);
    const AttackResult want = per_query(dl.net(), dataset);
    for (int width : widths) {
      for (runtime::ThreadPool* pool :
           {static_cast<runtime::ThreadPool*>(nullptr), &pool2, &pool3}) {
        SCOPED_TRACE("width " + std::to_string(width) + ", " +
                     std::to_string(pool ? pool->num_threads() : 0) +
                     " threads");
        const std::uint64_t embedded = counter("attack.images_embedded");
        const std::uint64_t lookups = counter("attack.image_lookups");
        expect_same_result(dl.attack(dataset, pool, width), want);
        EXPECT_EQ(counter("attack.images_embedded") - embedded,
                  static_cast<std::uint64_t>(c.pins));
        EXPECT_EQ(counter("attack.image_lookups") - lookups,
                  c.pins > 0 ? image_lookups(dataset) : 0u);
      }
    }
  }
}

TEST(EmbedOnceAttack, MatchesPerQuerySelection) {
  std::unique_ptr<DlAttack> dl =
      briefly_trained(fast_net_config(/*use_images=*/true, false));
  check_embed_attack(*dl, {1, 4, 16, 64});
  silence_vector_branch(*dl);
  check_embed_attack(*dl, {1, 16});

  // An image net has nothing to embed from a dataset built without images.
  DatasetConfig vector_only = fast_dataset_config(8);
  vector_only.build_images = false;
  const QueryDataset no_images(test::shared_split(1, 16, 1).split.get(),
                               vector_only);
  EXPECT_THROW(dl->attack(no_images), std::invalid_argument);
}

TEST(EmbedOnceAttack, TwoClassHeadMatchesPerQuerySelection) {
  std::unique_ptr<DlAttack> dl =
      briefly_trained(fast_net_config(/*use_images=*/true, true));
  silence_vector_branch(*dl);
  check_embed_attack(*dl, {1, 4, 16, 64});
}

TEST(EmbedOnceAttack, VectorOnlyNetSkipsTheEmbedPass) {
  // A vector-only net attacking a dataset that carries images: no pin is
  // embedded, and the net's arena ends exactly as large as a twin's that
  // ran the per-query path over the same batches — the embedding table
  // and the image slots are never acquired.
  const nn::NetConfig config = fast_net_config(/*use_images=*/false, false);
  const test::SmallSplit& split = test::shared_split(1, 60, 1);
  const QueryDataset dataset(split.split.get(), fast_dataset_config(8));
  ASSERT_GT(dataset.cached_images(), 0u);
  constexpr std::size_t kWidth = 4;

  DlAttack embed_path(config);
  const std::uint64_t embedded = counter("attack.images_embedded");
  const std::uint64_t lookups = counter("attack.image_lookups");
  const AttackResult got = embed_path.attack(dataset, nullptr, kWidth);
  EXPECT_EQ(counter("attack.images_embedded"), embedded);
  EXPECT_EQ(counter("attack.image_lookups"), lookups);

  DlAttack twin(config);
  AttackResult want;
  want.selections.resize(dataset.num_queries());
  nn::QueryInput input;
  std::vector<QueryRef> refs(kWidth);
  for (std::size_t base = 0; base < dataset.num_queries(); base += kWidth) {
    const std::size_t count = std::min(kWidth, dataset.num_queries() - base);
    for (std::size_t k = 0; k < count; ++k) refs[k] = {&dataset, base + k};
    select_batch(twin.net(), refs.data(), count, input,
                 &want.selections[base]);
  }
  want.ccr = compute_ccr(want.selections);
  expect_same_result(got, want);

  const nn::ArenaStats used = embed_path.net().arena().stats();
  const nn::ArenaStats twin_used = twin.net().arena().stats();
  EXPECT_EQ(used.bytes_pinned, twin_used.bytes_pinned);
  EXPECT_EQ(used.allocs, twin_used.allocs);
}

}  // namespace
}  // namespace sma::attack
