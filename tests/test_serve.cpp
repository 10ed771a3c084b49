// Batched inference + serving-loop contracts (src/serve/, PR "batched
// cross-query inference engine").
//
// The central claim under test: stacking B queries into one forward
// pass is BYTE-identical per query to B batches of one — at every batch
// width, thread count, and batch composition, datasets mixed or not — so
// the serving tier can coalesce requests freely without changing any
// answer. Plus the serving-loop lifecycle (shutdown drains in-flight
// requests deterministically), the immutable dataset (concurrent attacks
// and serving read one freshly built dataset), and the replica set's
// lease accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "attack/dl_attack.hpp"
#include "attack/replica_set.hpp"
#include "nn/losses.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/serve_loop.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace sma::attack {
namespace {

DatasetConfig serve_dataset_config() {
  DatasetConfig config;
  config.candidates.max_candidates = 8;
  config.images.size = 9;
  config.images.pixel_sizes = {200, 400};
  return config;
}

nn::NetConfig serve_net_config() {
  nn::NetConfig config;
  config.hidden = 16;
  config.vector_res_blocks = 1;
  config.merged_res_blocks = 1;
  config.image_channels = 2;
  config.conv_channels = {4, 6, 8, 10};
  config.image_fc = 16;
  config.fc6_width = 8;
  return config;
}

/// Shared trained model + victim dataset + the batch-1 serial baseline
/// (selections AND raw per-query score bytes). Built once: training even
/// the tiny image net dominates suite time otherwise.
struct ServeFixtureState {
  std::unique_ptr<DlAttack> dl;
  std::unique_ptr<QueryDataset> victim;
  AttackResult baseline;
  std::vector<std::vector<float>> baseline_scores;  ///< per query, [] if empty
};

ServeFixtureState& fixture() {
  static ServeFixtureState* state = [] {
    auto* s = new ServeFixtureState();
    const test::SmallSplit& train_split = test::shared_split(3, 400, 13);
    const test::SmallSplit& victim_split = test::shared_split(3, 400, 14);

    std::vector<QueryDataset> training;
    training.emplace_back(train_split.split.get(), serve_dataset_config());
    std::vector<QueryDataset> validation;

    TrainConfig train_config;
    train_config.epochs = 2;
    train_config.max_queries_per_design = 60;

    s->dl = std::make_unique<DlAttack>(serve_net_config());
    s->dl->train(training, validation, train_config);

    s->victim = std::make_unique<QueryDataset>(victim_split.split.get(),
                                               serve_dataset_config());
    s->baseline = s->dl->attack(*s->victim);

    // Raw batch-1 score bytes per query: the identity oracle.
    nn::QueryInput input;
    for (std::size_t i = 0; i < s->victim->num_queries(); ++i) {
      std::vector<float>& row = s->baseline_scores.emplace_back();
      if (s->victim->query(i).candidates.empty()) continue;
      const QueryRef ref{s->victim.get(), i};
      assemble_batch(&ref, 1, input);
      const nn::Tensor& scores = s->dl->net().forward(input);
      row.assign(scores.data(), scores.data() + scores.size());
    }
    return s;
  }();
  return *state;
}

/// Refs to `dataset`'s queries [first, first + count).
std::vector<QueryRef> refs_of(const QueryDataset& dataset, std::size_t first,
                              std::size_t count) {
  std::vector<QueryRef> refs;
  for (std::size_t k = 0; k < count; ++k) refs.push_back({&dataset, first + k});
  return refs;
}

void expect_selections_equal(const AttackResult& got,
                             const AttackResult& want) {
  ASSERT_EQ(got.selections.size(), want.selections.size());
  for (std::size_t i = 0; i < got.selections.size(); ++i) {
    EXPECT_EQ(got.selections[i].sink_fragment, want.selections[i].sink_fragment);
    EXPECT_EQ(got.selections[i].chosen_source, want.selections[i].chosen_source);
    EXPECT_EQ(got.selections[i].correct, want.selections[i].correct);
    EXPECT_EQ(got.selections[i].num_sinks, want.selections[i].num_sinks);
  }
  EXPECT_EQ(got.ccr, want.ccr);  // bit-equal, not approximately
}

TEST(BatchedAttack, BitIdenticalAcrossWidthsAndThreads) {
  ServeFixtureState& f = fixture();
  for (int width : {1, 2, 8, 64}) {
    {
      SCOPED_TRACE("serial width " + std::to_string(width));
      expect_selections_equal(f.dl->attack(*f.victim, nullptr, width),
                              f.baseline);
    }
    for (int threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads) + " width " +
                   std::to_string(width));
      runtime::ThreadPool pool(threads);
      expect_selections_equal(f.dl->attack(*f.victim, &pool, width),
                              f.baseline);
    }
  }
}

TEST(BatchedAttack, WidthsBeyondTheDatasetMatchBatchOne) {
  // A width past the query count makes each chunk one batch. The batch
  // buffer is sized by the chunk, not by the width: INT_MAX must neither
  // throw std::bad_alloc nor allocate gigabytes for a few hundred queries.
  ServeFixtureState& f = fixture();
  const int past_end = static_cast<int>(f.victim->num_queries()) + 1;
  for (int width : {past_end, std::numeric_limits<int>::max()}) {
    {
      SCOPED_TRACE("serial width " + std::to_string(width));
      expect_selections_equal(f.dl->attack(*f.victim, nullptr, width),
                              f.baseline);
    }
    SCOPED_TRACE("pooled width " + std::to_string(width));
    runtime::ThreadPool pool(4);
    expect_selections_equal(f.dl->attack(*f.victim, &pool, width),
                            f.baseline);
  }
}

TEST(BatchedAttack, NoChunkIsEmpty) {
  // attack() splits n queries over min(n, threads + 1) workers in chunks
  // of ceil(n / workers). Find a pool size where that chunk size covers
  // the queries in fewer chunks than workers, so an empty chunk would
  // lease (and on first use clone) a replica with nothing to do.
  ServeFixtureState& f = fixture();
  const std::size_t n = f.victim->num_queries();
  int threads = 0;
  std::size_t chunks = 0;
  for (int t = 1; t <= 8 && threads == 0; ++t) {
    const std::size_t workers = std::min<std::size_t>(n, t + 1);
    const std::size_t chunk = (n + workers - 1) / workers;
    if ((n + chunk - 1) / chunk < workers) {
      threads = t;
      chunks = (n + chunk - 1) / chunk;
    }
  }
  ASSERT_GT(threads, 0) << "no pool size up to 8 leaves an empty chunk for "
                        << n << " queries";

  DlAttack dl(serve_net_config());
  const AttackResult serial = dl.attack(*f.victim);
  runtime::ThreadPool pool(threads);
  expect_selections_equal(dl.attack(*f.victim, &pool), serial);
  EXPECT_EQ(dl.replica_lease_stats().clones_created,
            static_cast<long>(chunks));
  EXPECT_EQ(dl.replica_lease_stats().replicas_leased,
            static_cast<long>(chunks));
}

TEST(BatchedAttack, ScoresBitEqualToBatchOne) {
  ServeFixtureState& f = fixture();
  const std::size_t n = f.victim->num_queries();
  ASSERT_GT(n, 8u);
  nn::QueryInput input;
  for (std::size_t width : {std::size_t{2}, std::size_t{8}, n}) {
    SCOPED_TRACE("width " + std::to_string(width));
    for (std::size_t base = 0; base < n; base += width) {
      const std::size_t count = std::min(width, n - base);
      assemble_batch(refs_of(*f.victim, base, count).data(), count, input);
      ASSERT_EQ(input.query_rows.size(), count);
      int rows = 0;
      for (int nq : input.query_rows) rows += nq;
      if (rows == 0) continue;
      const nn::Tensor& scores = f.dl->net().forward(input);
      ASSERT_EQ(scores.dim(0), rows);
      const float* s = scores.data();
      for (std::size_t k = 0; k < count; ++k) {
        const std::vector<float>& want = f.baseline_scores[base + k];
        ASSERT_EQ(static_cast<std::size_t>(input.query_rows[k]), want.size());
        EXPECT_EQ(std::memcmp(s, want.data(), want.size() * sizeof(float)), 0)
            << "query " << base + k << " diverges from batch-1";
        s += want.size();
      }
    }
  }
}

TEST(BatchedAttack, RaggedFinalBatch) {
  ServeFixtureState& f = fixture();
  const std::size_t n = f.victim->num_queries();
  ASSERT_GE(n, 3u);
  // A trailing batch narrower than the width: the last 3 queries alone.
  nn::QueryInput input;
  assemble_batch(refs_of(*f.victim, n - 3, 3).data(), 3, input);
  int rows = 0;
  for (int nq : input.query_rows) rows += nq;
  if (rows > 0) {
    const nn::Tensor& scores = f.dl->net().forward(input);
    const float* s = scores.data();
    for (std::size_t k = 0; k < 3; ++k) {
      const std::vector<float>& want = f.baseline_scores[n - 3 + k];
      EXPECT_EQ(std::memcmp(s, want.data(), want.size() * sizeof(float)), 0);
      s += want.size();
    }
  }
  // A width that cannot divide the dataset evenly end-to-end.
  const int ragged_width = 7;
  expect_selections_equal(f.dl->attack(*f.victim, nullptr, ragged_width),
                          f.baseline);
}

TEST(BatchedAttack, SingleQueryDegenerateBatch) {
  // A batch of one ({n}) and a hand-built input (empty query_rows: one
  // query over every row) are the same query.
  ServeFixtureState& f = fixture();
  nn::QueryInput input;
  for (std::size_t i = 0; i < std::min<std::size_t>(4, f.victim->num_queries());
       ++i) {
    if (f.victim->query(i).candidates.empty()) continue;
    assemble_batch(refs_of(*f.victim, i, 1).data(), 1, input);
    ASSERT_EQ(input.query_rows.size(), 1u);
    input.query_rows.clear();
    const nn::Tensor& scores = f.dl->net().forward(input);
    const std::vector<float>& want = f.baseline_scores[i];
    ASSERT_EQ(static_cast<std::size_t>(scores.size()), want.size());
    EXPECT_EQ(
        std::memcmp(scores.data(), want.data(), want.size() * sizeof(float)),
        0);
  }
}

TEST(BatchedAttack, MixedDatasetBatchesMatchEachDatasetsBatchOne) {
  // The serving loop's case: one batch holds queries of several designs.
  // A second victim with the same image geometry, its own batch-1 attack()
  // as the oracle, and select_batch over refs alternating between the two.
  ServeFixtureState& f = fixture();
  const test::SmallSplit& other_split = test::shared_split(3, 400, 15);
  QueryDataset other(other_split.split.get(), serve_dataset_config());
  QueryDataset* datasets[] = {f.victim.get(), &other};
  const AttackResult baselines[] = {f.baseline, f.dl->attack(other)};

  ASSERT_GT(other.num_queries(), 8u);

  std::vector<QueryRef> refs;
  const std::size_t n = std::max(f.victim->num_queries(), other.num_queries());
  for (std::size_t i = 0; i < n; ++i) {
    for (QueryDataset* d : datasets) {
      if (i < d->num_queries()) refs.push_back({d, i});
    }
  }
  const auto want = [&](const QueryRef& ref) -> const Selection& {
    const std::size_t d = ref.dataset == datasets[0] ? 0 : 1;
    return baselines[d].selections[ref.query];
  };

  nn::QueryInput input;
  for (std::size_t width : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE("width " + std::to_string(width));
    std::vector<Selection> got(refs.size());
    for (std::size_t base = 0; base < refs.size(); base += width) {
      const std::size_t count = std::min(width, refs.size() - base);
      select_batch(f.dl->net(), refs.data() + base, count, input,
                   got.data() + base);
    }
    for (std::size_t k = 0; k < refs.size(); ++k) {
      const Selection& w = want(refs[k]);
      EXPECT_EQ(got[k].sink_fragment, w.sink_fragment) << "slot " << k;
      EXPECT_EQ(got[k].chosen_source, w.chosen_source) << "slot " << k;
      EXPECT_EQ(got[k].correct, w.correct) << "slot " << k;
      EXPECT_EQ(got[k].num_sinks, w.num_sinks) << "slot " << k;
    }
  }
}

TEST(BatchedForward, SkipsZeroRowQueries) {
  // Unit-level: a batch whose middle query has no candidates contributes
  // no rows and no planes, and the live queries' scores are bit-equal to
  // their solo forwards.
  nn::NetConfig config = serve_net_config();
  nn::AttackNet net(config);
  util::Pcg32 rng(11);
  nn::QueryInput a;
  a.vec = nn::Tensor::randn({3, 27}, rng, 1.0);
  a.images = nn::Tensor::randn({4, 2, 15, 15}, rng, 0.3);
  nn::QueryInput b;
  b.vec = nn::Tensor::randn({2, 27}, rng, 1.0);
  b.images = nn::Tensor::randn({3, 2, 15, 15}, rng, 0.3);

  std::vector<float> want_a, want_b;
  {
    const nn::Tensor& sa = net.forward(a);
    want_a.assign(sa.data(), sa.data() + sa.size());
    const nn::Tensor& sb = net.forward(b);
    want_b.assign(sb.data(), sb.data() + sb.size());
  }

  nn::QueryInput batch;
  batch.query_rows = {3, 0, 2};
  batch.vec = nn::Tensor({5, 27});
  std::memcpy(batch.vec.data(), a.vec.data(), 3 * 27 * sizeof(float));
  std::memcpy(batch.vec.data() + 3 * 27, b.vec.data(), 2 * 27 * sizeof(float));
  batch.images = nn::Tensor({7, 2, 15, 15});
  const std::size_t plane = 2 * 15 * 15;
  std::memcpy(batch.images.data(), a.images.data(), 4 * plane * sizeof(float));
  std::memcpy(batch.images.data() + 4 * plane, b.images.data(),
              3 * plane * sizeof(float));

  const nn::Tensor& scores = net.forward(batch);
  ASSERT_EQ(scores.dim(0), 5);
  EXPECT_EQ(std::memcmp(scores.data(), want_a.data(),
                        want_a.size() * sizeof(float)),
            0);
  EXPECT_EQ(std::memcmp(scores.data() + want_a.size(), want_b.data(),
                        want_b.size() * sizeof(float)),
            0);
}

TEST(BatchedForward, RejectsBadBatches) {
  nn::AttackNet net(serve_net_config());
  nn::QueryInput batch;
  batch.query_rows = {0, 0};
  batch.vec = nn::Tensor({0, 27});
  EXPECT_THROW(net.forward(batch), std::invalid_argument);
  util::Pcg32 rng(5);
  batch.query_rows = {2, -1};
  batch.vec = nn::Tensor::randn({2, 27}, rng, 1.0);
  EXPECT_THROW(net.forward(batch), std::invalid_argument);
  // Row count must match the stacked vec.
  batch.query_rows = {2, 3};
  EXPECT_THROW(net.forward(batch), std::invalid_argument);
}

TEST(BatchedForward, BackwardAfterBatchedThrows) {
  nn::NetConfig config = serve_net_config();
  config.use_images = false;
  nn::AttackNet net(config);
  util::Pcg32 rng(3);

  nn::QueryInput batch;
  batch.query_rows = {2, 2};
  batch.vec = nn::Tensor::randn({4, 27}, rng, 1.0);
  const nn::Tensor& scores = net.forward(batch);
  nn::Tensor grad(scores.shape());
  EXPECT_THROW(net.backward(grad), std::logic_error);

  // A later one-query forward re-arms the training path.
  nn::QueryInput single;
  single.vec = nn::Tensor::randn({2, 27}, rng, 1.0);
  const nn::Tensor& s = net.forward(single);
  nn::Tensor g(s.shape());
  EXPECT_NO_THROW(net.backward(g));
}

TEST(ServeLoop, MatchesBatchOneAcrossConcurrentClients) {
  ServeFixtureState& f = fixture();
  serve::ServeConfig config;
  config.max_batch = 8;
  config.max_wait_us = 200;
  config.dispatchers = 2;
  serve::ServeLoop loop(*f.dl, config);

  const std::size_t n = f.victim->num_queries();
  std::vector<Selection> got(n);
  const int clients = 4;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([c, n, &got, &loop, &f] {
      for (std::size_t i = c; i < n; i += clients) {
        got[i] = loop.submit(*f.victim, i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  loop.shutdown();

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i].sink_fragment, f.baseline.selections[i].sink_fragment);
    EXPECT_EQ(got[i].chosen_source, f.baseline.selections[i].chosen_source);
    EXPECT_EQ(got[i].correct, f.baseline.selections[i].correct);
    EXPECT_EQ(got[i].num_sinks, f.baseline.selections[i].num_sinks);
  }

  const serve::ServeStats stats = loop.stats();
  EXPECT_EQ(stats.submitted, static_cast<long>(n));
  EXPECT_EQ(stats.answered + stats.empty, static_cast<long>(n));
  EXPECT_EQ(stats.failed, 0);
  EXPECT_GE(stats.max_batch_seen, 1u);
  EXPECT_LE(stats.max_batch_seen, 8u);
}

TEST(ServeLoop, ShutdownDrainsInFlightRequests) {
  ServeFixtureState& f = fixture();
  serve::ServeConfig config;
  config.max_batch = 4;
  config.max_wait_us = 2000;  // long budget: shutdown must cut it short
  serve::ServeLoop loop(*f.dl, config);

  const std::size_t n = f.victim->num_queries();
  std::atomic<long> answered{0};
  std::atomic<long> rejected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([c, n, &answered, &rejected, &loop, &f] {
      for (std::size_t i = c; i < n; i += 3) {
        try {
          const Selection got = loop.submit(*f.victim, i);
          // An answered request must carry the batch-1 answer even when
          // the loop is tearing down around it.
          EXPECT_EQ(got.chosen_source,
                    f.baseline.selections[i].chosen_source);
          answered.fetch_add(1);
        } catch (const std::runtime_error&) {
          rejected.fetch_add(1);  // submitted after shutdown
        }
      }
    });
  }
  // Let some requests in, then close the loop under load.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  loop.shutdown();
  for (std::thread& t : clients) t.join();

  // Every request was either answered correctly or rejected cleanly...
  EXPECT_EQ(answered.load() + rejected.load(), static_cast<long>(n));
  // ...and nothing was left hanging: accepted == completed.
  const serve::ServeStats stats = loop.stats();
  EXPECT_EQ(stats.answered + stats.empty, answered.load());
  EXPECT_EQ(stats.failed, 0);
  EXPECT_THROW(loop.submit(*f.victim, 0), std::runtime_error);
}

TEST(ServeLoop, RejectsMismatchedImageGeometry) {
  ServeFixtureState& f = fixture();
  serve::ServeLoop loop(*f.dl, serve::ServeConfig{});
  // Register the fleet geometry with a first request.
  std::size_t any = 0;
  loop.submit(*f.victim, any);
  // A vector-only dataset cannot share batches with an image fleet.
  DatasetConfig mismatched = serve_dataset_config();
  mismatched.build_images = false;
  const test::SmallSplit& split = test::shared_split(3, 400, 14);
  QueryDataset other(split.split.get(), mismatched);
  EXPECT_THROW(loop.submit(other, 0), std::invalid_argument);
}

TEST(ServeLoop, AttacksAndServingShareOneFreshDataset) {
  // A dataset built without a pool, never read before: construction has
  // already rendered every image, so two pooled attacks and a
  // two-dispatcher serving loop may all read it at once.
  ServeFixtureState& f = fixture();
  const QueryDataset dataset(test::shared_split(3, 400, 14).split.get(),
                             serve_dataset_config());
  const std::size_t n = dataset.num_queries();
  ASSERT_EQ(n, f.victim->num_queries());

  serve::ServeConfig config;
  config.max_batch = 8;
  config.max_wait_us = 200;
  config.dispatchers = 2;
  serve::ServeLoop loop(*f.dl, config);

  AttackResult attacked[2];
  std::vector<Selection> served(n);
  std::vector<std::thread> threads;
  for (int a = 0; a < 2; ++a) {
    threads.emplace_back([a, &attacked, &dataset, &f] {
      runtime::ThreadPool pool(2);
      attacked[a] = f.dl->attack(dataset, &pool);
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([c, n, &served, &dataset, &loop] {
      for (std::size_t i = c; i < n; i += 2) {
        served[i] = loop.submit(dataset, i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  loop.shutdown();

  expect_selections_equal(attacked[0], f.baseline);
  expect_selections_equal(attacked[1], f.baseline);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(served[i].sink_fragment, f.baseline.selections[i].sink_fragment);
    EXPECT_EQ(served[i].chosen_source, f.baseline.selections[i].chosen_source);
    EXPECT_EQ(served[i].correct, f.baseline.selections[i].correct);
    EXPECT_EQ(served[i].num_sinks, f.baseline.selections[i].num_sinks);
  }
  EXPECT_EQ(loop.stats().failed, 0);
}

TEST(ReplicaSet, LiveLeasesCountTowardOccupancy) {
  DlAttack dl(serve_net_config());
  double slept_us = 0.0;
  {
    ReplicaLease lease = dl.replicas().lease(2, dl.net());
    // A live lease shows in the peak and the lease count at once...
    const ReplicaSet::LeaseStats held = dl.replica_lease_stats();
    EXPECT_EQ(held.max_on_loan, 2u);
    EXPECT_EQ(held.leases, 1);
    EXPECT_EQ(held.clones_created, 2);
    const double start_us = obs::now_us();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    slept_us = obs::now_us() - start_us;
  }
  // ...and adds its occupancy, 2 replicas x its hold time, on release.
  const ReplicaSet::LeaseStats after = dl.replica_lease_stats();
  EXPECT_GE(after.occupancy_seconds, 2 * (slept_us * 1e-6));
  EXPECT_EQ(after.max_on_loan, 2u);

  // A later lease reuses the pinned replicas.
  ReplicaLease again = dl.replicas().lease(1, dl.net());
  EXPECT_EQ(dl.replica_lease_stats().clones_created, 2);
  EXPECT_EQ(dl.replica_lease_stats().leases, 2);
}

}  // namespace
}  // namespace sma::attack
