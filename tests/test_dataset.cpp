#include "attack/dataset.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "test_support.hpp"

namespace sma::attack {
namespace {

DatasetConfig small_config(bool images = true) {
  DatasetConfig config;
  config.candidates.max_candidates = 8;
  config.images.size = 15;
  config.images.pixel_sizes = {100, 200};
  config.build_images = images;
  return config;
}

/// Query `i` alone: a batch of one.
nn::QueryInput input_of(QueryDataset& dataset, std::size_t i) {
  nn::QueryInput input;
  const QueryRef ref{&dataset, i};
  assemble_batch(&ref, 1, input);
  return input;
}

class DatasetTest : public ::testing::Test {
 protected:
  void SetUp() override { s_ = &test::shared_split(3, 400, 7); }
  const test::SmallSplit* s_ = nullptr;
};

TEST_F(DatasetTest, InputShapes) {
  QueryDataset dataset(s_->split.get(), small_config());
  ASSERT_GT(dataset.num_queries(), 0u);
  for (std::size_t i = 0; i < std::min<std::size_t>(5, dataset.num_queries());
       ++i) {
    const int n = static_cast<int>(dataset.query(i).candidates.size());
    if (n == 0) continue;
    nn::QueryInput input = input_of(dataset, i);
    EXPECT_EQ(input.vec.shape(),
              (std::vector<int>{n, features::kNumVectorFeatures}));
    EXPECT_EQ(input.images.shape(), (std::vector<int>{n + 1, 2, 15, 15}));
    EXPECT_EQ(input.query_rows, (std::vector<int>{n}));
  }
}

TEST_F(DatasetTest, VectorOnlyLeavesImagesEmpty) {
  QueryDataset dataset(s_->split.get(), small_config(false));
  nn::QueryInput input = input_of(dataset, 0);
  EXPECT_TRUE(input.images.empty());
  EXPECT_FALSE(input.vec.empty());
}

TEST_F(DatasetTest, BatchStacksQueriesInSlotOrder) {
  QueryDataset dataset(s_->split.get(), small_config());
  const std::size_t count = std::min<std::size_t>(6, dataset.num_queries());
  std::vector<QueryRef> refs;
  for (std::size_t i = count; i-- > 0;) refs.push_back({&dataset, i});
  nn::QueryInput batch;
  assemble_batch(refs.data(), refs.size(), batch);
  ASSERT_EQ(batch.query_rows.size(), count);

  // Each query's rows and planes are its batch-of-one input, in slot order.
  const std::size_t row = features::kNumVectorFeatures;
  const std::size_t plane = 2 * 15 * 15;
  std::size_t r = 0;
  std::size_t m = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const int n = batch.query_rows[k];
    ASSERT_EQ(n, dataset.batch_rows(refs[k].query));
    if (n == 0) continue;
    const nn::QueryInput one = input_of(dataset, refs[k].query);
    EXPECT_EQ(std::memcmp(batch.vec.data() + r * row, one.vec.data(),
                          one.vec.size() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(batch.images.data() + m * plane, one.images.data(),
                          one.images.size() * sizeof(float)),
              0);
    r += static_cast<std::size_t>(n);
    m += static_cast<std::size_t>(n) + 1;
  }
  EXPECT_EQ(batch.vec.size(), r * row);
  EXPECT_EQ(batch.images.size(), m * plane);
}

TEST_F(DatasetTest, BatchRejectsMixedImageGeometry) {
  QueryDataset images(s_->split.get(), small_config());
  QueryDataset vector_only(s_->split.get(), small_config(false));
  const QueryRef refs[] = {{&images, 0}, {&vector_only, 0}};
  nn::QueryInput batch;
  EXPECT_THROW(assemble_batch(refs, 2, batch), std::invalid_argument);
}

TEST_F(DatasetTest, ImageCachingSharesVirtualPins) {
  QueryDataset dataset(s_->split.get(), small_config());
  std::size_t queries = std::min<std::size_t>(10, dataset.num_queries());
  std::size_t total_images = 0;
  for (std::size_t i = 0; i < queries; ++i) {
    total_images += dataset.query(i).candidates.size() + 1;
    input_of(dataset, i);
  }
  // Cache must be smaller than the naive count (pins are shared).
  EXPECT_LT(dataset.cached_images(), total_images);
  EXPECT_GT(dataset.cached_images(), 0u);
}

TEST_F(DatasetTest, TargetsMatchQueries) {
  QueryDataset dataset(s_->split.get(), small_config());
  for (std::size_t i = 0; i < dataset.num_queries(); ++i) {
    const split::SinkQuery& q = dataset.query(i);
    EXPECT_EQ(dataset.target(i), q.positive_index);
    EXPECT_EQ(dataset.num_sinks(i), q.num_sinks);
    if (q.positive_index >= 0) {
      EXPECT_LT(q.positive_index, static_cast<int>(q.candidates.size()));
    }
  }
}

TEST_F(DatasetTest, HitRateMatchesSplitHelper) {
  QueryDataset dataset(s_->split.get(), small_config());
  EXPECT_GT(dataset.candidate_hit_rate(), 0.0);
  EXPECT_LE(dataset.candidate_hit_rate(), 1.0);
}

}  // namespace
}  // namespace sma::attack
