#include "attack/dataset.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <set>

#include "runtime/thread_pool.hpp"
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
nn::QueryInput input_of(const QueryDataset& dataset, std::size_t i) {
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
    // forward's one-query layout: candidate j's source at plane j, the
    // sink at plane n.
    std::vector<int> sources(static_cast<std::size_t>(n));
    std::iota(sources.begin(), sources.end(), 0);
    EXPECT_EQ(input.source_rows, sources);
    EXPECT_EQ(input.sink_rows, std::vector<int>(sources.size(), n));
  }
}

TEST_F(DatasetTest, VectorOnlyLeavesImagesEmpty) {
  QueryDataset dataset(s_->split.get(), small_config(false));
  EXPECT_EQ(dataset.cached_images(), 0u);
  nn::QueryInput input = input_of(dataset, 0);
  EXPECT_TRUE(input.images.empty());
  EXPECT_TRUE(input.source_rows.empty());
  EXPECT_TRUE(input.sink_rows.empty());
  EXPECT_FALSE(input.vec.empty());
}

TEST_F(DatasetTest, BatchStacksQueriesInSlotOrder) {
  QueryDataset dataset(s_->split.get(), small_config());
  const std::size_t count = std::min<std::size_t>(6, dataset.num_queries());
  std::vector<QueryRef> refs;
  for (std::size_t i = count; i-- > 0;) refs.push_back({&dataset, i});
  nn::QueryInput batch;
  assemble_batch(refs.data(), refs.size(), batch);

  // Each query's rows and planes are its batch-of-one input, in slot
  // order, and each row names the planes of its own source and sink pins.
  const std::size_t row = features::kNumVectorFeatures;
  const std::size_t plane = 2 * 15 * 15;
  const auto same_plane = [&](int batch_plane, int dataset_image) {
    return std::memcmp(batch.images.data() + batch_plane * plane,
                       dataset.images().data() + dataset_image * plane,
                       plane * sizeof(float)) == 0;
  };
  std::size_t r = 0;
  std::size_t m = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const int n = dataset.batch_rows(refs[k].query);
    if (n == 0) continue;
    const nn::QueryInput one = input_of(dataset, refs[k].query);
    EXPECT_EQ(std::memcmp(batch.vec.data() + r * row, one.vec.data(),
                          one.vec.size() * sizeof(float)),
              0);
    EXPECT_EQ(std::memcmp(batch.images.data() + m * plane, one.images.data(),
                          one.images.size() * sizeof(float)),
              0);
    const std::size_t first =
        static_cast<std::size_t>(dataset.first_row(refs[k].query));
    for (std::size_t j = 0; j < static_cast<std::size_t>(n); ++j) {
      EXPECT_TRUE(same_plane(batch.source_rows[r + j],
                             dataset.source_rows()[first + j]));
      EXPECT_TRUE(same_plane(batch.sink_rows[r + j],
                             dataset.sink_rows()[first + j]));
    }
    r += static_cast<std::size_t>(n);
    m += static_cast<std::size_t>(n) + 1;
  }
  EXPECT_EQ(batch.vec.size(), r * row);
  EXPECT_EQ(batch.images.size(), m * plane);
  EXPECT_EQ(batch.source_rows.size(), r);
  EXPECT_EQ(batch.sink_rows.size(), r);
}

TEST_F(DatasetTest, BatchRejectsMixedImageGeometry) {
  QueryDataset images(s_->split.get(), small_config());
  QueryDataset vector_only(s_->split.get(), small_config(false));
  const QueryRef refs[] = {{&images, 0}, {&vector_only, 0}};
  nn::QueryInput batch;
  EXPECT_THROW(assemble_batch(refs, 2, batch), std::invalid_argument);
}

TEST_F(DatasetTest, ImageCachingSharesVirtualPins) {
  // Construction renders one image per distinct virtual pin any query
  // references: each candidate's source pin and the sink's first pin.
  runtime::ThreadPool pool(2);
  DatasetConfig pooled_config = small_config();
  pooled_config.pool = &pool;
  const QueryDataset pooled(s_->split.get(), pooled_config);
  const QueryDataset serial(s_->split.get(), small_config());
  EXPECT_EQ(pooled.config().pool, nullptr);

  std::set<int> pins;
  std::size_t naive = 0;
  std::vector<QueryRef> pooled_refs;
  std::vector<QueryRef> serial_refs;
  for (std::size_t i = 0; i < serial.num_queries(); ++i) {
    const split::SinkQuery& q = serial.query(i);
    pooled_refs.push_back({&pooled, i});
    serial_refs.push_back({&serial, i});
    if (q.candidates.empty()) continue;
    for (const split::Vpp& vpp : q.candidates) pins.insert(vpp.source_vp);
    pins.insert(s_->split->fragment(q.sink_fragment).virtual_pins.front());
    naive += q.candidates.size() + 1;
  }
  ASSERT_GT(pins.size(), 0u);
  EXPECT_EQ(serial.cached_images(), pins.size());
  EXPECT_EQ(pooled.cached_images(), pins.size());
  // Pins are shared between queries, so the cache beats the naive count.
  EXPECT_LT(pins.size(), naive);

  // Every query of both datasets, as one batch each: identical bytes.
  nn::QueryInput from_pooled;
  nn::QueryInput from_serial;
  assemble_batch(pooled_refs.data(), pooled_refs.size(), from_pooled);
  assemble_batch(serial_refs.data(), serial_refs.size(), from_serial);
  ASSERT_EQ(from_pooled.vec.size(), from_serial.vec.size());
  ASSERT_EQ(from_pooled.images.size(), from_serial.images.size());
  EXPECT_EQ(std::memcmp(from_pooled.vec.data(), from_serial.vec.data(),
                        from_serial.vec.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(from_pooled.images.data(), from_serial.images.data(),
                        from_serial.images.size() * sizeof(float)),
            0);
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
