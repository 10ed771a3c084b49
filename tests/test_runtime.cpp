#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "eval/experiment.hpp"
#include "util/hash.hpp"
#include "util/timer.hpp"

namespace sma::runtime {
namespace {

TEST(ThreadPool, StartupShutdownAcrossSizes) {
  for (int threads : {1, 2, 4, 7}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    std::atomic<int> ran{0};
    TaskGroup group(&pool);
    for (int i = 0; i < 3 * threads; ++i) {
      group.run([&ran] { ran.fetch_add(1); });
    }
    group.wait();
    EXPECT_EQ(ran.load(), 3 * threads);
  }
  // Idle pools must tear down cleanly too.
  ThreadPool idle(3);
}

TEST(ThreadPool, DefaultSizeUsesHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1);
}

TEST(Config, ResolvesThreads) {
  Config config;
  EXPECT_GE(config.resolved(), 1);
  config.threads = 5;
  EXPECT_EQ(config.resolved(), 5);
  config.threads = 1;
  EXPECT_EQ(config.make_pool(), nullptr);  // serial = no pool
  // The calling thread is always a worker, so a pool for N total compute
  // threads holds N - 1 pool workers.
  config.threads = 2;
  auto pool = config.make_pool();
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->num_threads(), 1);
  config.threads = 4;
  EXPECT_EQ(config.make_pool()->num_threads(), 3);
}

TEST(ParallelFor, EmptyRangeDoesNothing) {
  ThreadPool pool(4);
  int calls = 0;
  parallel_for(&pool, 5, 5, 1, [&calls](std::size_t) { ++calls; });
  parallel_for(&pool, 7, 3, 1, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SingleItem) {
  ThreadPool pool(4);
  std::vector<int> hits(1, 0);
  parallel_for(&pool, 0, 1, 1, [&hits](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(hits[0], 1);
}

TEST(ParallelFor, FewerItemsThanThreads) {
  ThreadPool pool(8);
  std::vector<int> out(3, 0);
  parallel_for(&pool, 0, 3, 1,
               [&out](std::size_t i) { out[i] = static_cast<int>(i) + 1; });
  EXPECT_EQ(out, (std::vector<int>{1, 2, 3}));
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            std::size_t{1000}}) {
    std::vector<int> counts(257, 0);
    parallel_for(&pool, 0, counts.size(), grain,
                 [&counts](std::size_t i) { ++counts[i]; });
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 257)
        << "grain " << grain;
    for (int c : counts) EXPECT_EQ(c, 1);
  }
}

TEST(ParallelFor, NullPoolRunsSerially) {
  std::vector<int> out(10, 0);
  parallel_for(nullptr, 0, out.size(), 3,
               [&out](std::size_t i) { out[i] = static_cast<int>(i); });
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[i], i);
}

TEST(ParallelFor, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for(&pool, 0, 100, 1,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool must remain usable after a failed loop.
  std::atomic<int> ran{0};
  parallel_for(&pool, 0, 8, 1, [&ran](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 8);
}

TEST(TaskGroup, PropagatesFirstException) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  group.run([] { throw std::logic_error("task failed"); });
  group.run([] {});
  EXPECT_THROW(group.wait(), std::logic_error);
  // wait() after the throw is idempotent.
  group.wait();
}

TEST(TaskGroup, InlineExecutionWithoutPool) {
  TaskGroup group(nullptr);
  int ran = 0;
  group.run([&ran] { ++ran; });
  group.run([&ran] { ++ran; });
  group.wait();
  EXPECT_EQ(ran, 2);
}

TEST(ParallelMap, ResultsLandInSlots) {
  ThreadPool pool(4);
  std::vector<int> squares =
      parallel_map(&pool, 20, [](std::size_t i) -> int {
        return static_cast<int>(i * i);
      });
  ASSERT_EQ(squares.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(squares[i], i * i);
}

TEST(ParallelFor, NestedLoopsDoNotDeadlock) {
  ThreadPool pool(2);
  std::vector<std::vector<int>> out(6);
  parallel_for(&pool, 0, out.size(), 1, [&](std::size_t i) {
    out[i].assign(32, 0);
    parallel_for(&pool, 0, out[i].size(), 4, [&out, i](std::size_t j) {
      out[i][j] = static_cast<int>(i * 100 + j);
    });
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t j = 0; j < out[i].size(); ++j) {
      EXPECT_EQ(out[i][j], static_cast<int>(i * 100 + j));
    }
  }
}

TEST(TaskRng, PureFunctionOfSeedAndIndex) {
  util::Pcg32 a = task_rng(42, 7);
  util::Pcg32 b = task_rng(42, 7);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());

  // Distinct indices decorrelate.
  util::Pcg32 c = task_rng(42, 8);
  util::Pcg32 d = task_rng(42, 7);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (c.next_u32() == d.next_u32()) ++same;
  }
  EXPECT_LT(same, 4);
}

// ---- determinism of the parallel experiment pipeline -------------------

/// A reduced Table-3 configuration: real 9-design training corpus, tiny
/// net/images so the double run stays test-sized.
eval::ExperimentProfile determinism_profile(int threads) {
  eval::ExperimentProfile p = eval::ExperimentProfile::fast();
  p.dataset.candidates.max_candidates = 6;
  p.dataset.images.size = 9;
  p.dataset.images.pixel_sizes = {200, 400};
  p.net.hidden = 16;
  p.net.vector_res_blocks = 1;
  p.net.merged_res_blocks = 1;
  p.net.conv_channels = {4, 6, 8, 10};
  p.net.image_fc = 16;
  p.train.epochs = 2;
  p.train.max_queries_per_design = 20;
  p.train.batch_size = 4;
  p.flow_attack.timeout_seconds = 1e6;  // no time-dependent behavior
  p.runtime.threads = threads;
  return p;
}

std::vector<netlist::DesignProfile> determinism_designs() {
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

/// Digest of every field of the rows that the determinism contract pins:
/// design, fragment counts, the timeout flag and the bit patterns of the
/// two CCRs and the hit rate. The wall-clock fields are left out.
std::uint64_t table3_rows_digest(const eval::Table3Result& result) {
  util::ContentHash h;
  for (const eval::Table3Row& row : result.rows) {
    h.add(row.design)
        .add(row.num_sink_fragments)
        .add(row.num_source_fragments)
        .add(row.flow_timed_out)
        .add(row.dl_ccr)
        .add(row.flow_ccr)
        .add(row.hit_rate);
  }
  return h.digest();
}

/// `table3_rows_digest` of the rows above, recorded from the three-phase
/// schedule (corpus, training, victims) that preceded the largest-first
/// task list.
constexpr std::uint64_t kTable3RowsDigest = 0xa14552f05a84af3cull;

TEST(Determinism, ParallelTable3MatchesSerialRowForRow) {
  const std::vector<netlist::DesignProfile> designs = determinism_designs();
  layout::FlowConfig flow;

  util::Timer serial_timer;
  eval::Table3Result serial =
      eval::run_table3(3, determinism_profile(1), flow, designs, 2019);
  const double serial_wall = serial_timer.seconds();
  util::Timer parallel_timer;
  eval::Table3Result parallel =
      eval::run_table3(3, determinism_profile(4), flow, designs, 2019);
  const double parallel_wall = parallel_timer.seconds();

  // The phase walls are real, disjoint parts of each call.
  for (const auto& [result, wall] : {std::pair{&serial, serial_wall},
                                     std::pair{&parallel, parallel_wall}}) {
    EXPECT_GT(result->prepare_seconds, 0.0);
    EXPECT_GT(result->train_seconds, 0.0);
    EXPECT_GT(result->attack_seconds, 0.0);
    EXPECT_LE(result->prepare_seconds + result->train_seconds +
                  result->attack_seconds,
              wall);
  }

  // Pinned: any schedule of the pass must reproduce these rows bit for bit,
  // serial and pooled alike.
  EXPECT_EQ(table3_rows_digest(serial), kTable3RowsDigest);
  EXPECT_EQ(table3_rows_digest(parallel), kTable3RowsDigest);

  ASSERT_EQ(serial.rows.size(), parallel.rows.size());
  for (std::size_t i = 0; i < serial.rows.size(); ++i) {
    const eval::Table3Row& s = serial.rows[i];
    const eval::Table3Row& p = parallel.rows[i];
    EXPECT_EQ(s.design, p.design);
    EXPECT_EQ(s.num_sink_fragments, p.num_sink_fragments);
    EXPECT_EQ(s.num_source_fragments, p.num_source_fragments);
    // Bit-identical CCRs, not just approximately equal: the parallel
    // runtime's determinism contract.
    EXPECT_EQ(s.dl_ccr, p.dl_ccr) << "row " << s.design;
    EXPECT_EQ(s.flow_ccr, p.flow_ccr) << "row " << s.design;
    EXPECT_EQ(s.hit_rate, p.hit_rate) << "row " << s.design;
    EXPECT_EQ(s.flow_timed_out, p.flow_timed_out);
  }
  EXPECT_EQ(serial.avg_dl_ccr, parallel.avg_dl_ccr);
  EXPECT_EQ(serial.avg_flow_ccr, parallel.avg_flow_ccr);
}

TEST(Determinism, LaneParallelTrainingMatchesSerial) {
  // Same model trained twice with batch lanes — once serially, once on a
  // pool — must serialize to identical bytes.
  const std::vector<netlist::DesignProfile> designs = determinism_designs();
  layout::FlowConfig flow;
  eval::PreparedSplit prepared =
      eval::prepare_split(designs[0], 3, flow, 77);

  attack::DatasetConfig dataset_config;
  dataset_config.candidates.max_candidates = 6;
  dataset_config.build_images = false;

  nn::NetConfig net_config;
  net_config.hidden = 16;
  net_config.vector_res_blocks = 1;
  net_config.merged_res_blocks = 1;
  net_config.use_images = false;

  attack::TrainConfig train_config;
  train_config.epochs = 3;
  train_config.batch_size = 4;

  auto run = [&](ThreadPool* pool) {
    std::vector<attack::QueryDataset> training;
    training.emplace_back(prepared.split.get(), dataset_config);
    std::vector<attack::QueryDataset> validation;
    attack::DlAttack dl(net_config);
    attack::TrainStats stats =
        dl.train(training, validation, train_config, pool);
    std::stringstream bytes;
    dl.net().save(bytes);
    return std::make_pair(stats.epoch_loss, bytes.str());
  };

  auto [serial_loss, serial_bytes] = run(nullptr);
  ThreadPool pool(4);
  auto [parallel_loss, parallel_bytes] = run(&pool);

  EXPECT_EQ(serial_loss, parallel_loss);
  EXPECT_EQ(serial_bytes, parallel_bytes);
}

}  // namespace
}  // namespace sma::runtime
