// Batched inference + serving-loop contracts (src/serve/, PR "batched
// cross-query inference engine").
//
// The central claim under test: the inference path (one `embed` over a
// batch's images, one `score` over its candidate rows) is BYTE-identical
// per query to the one-query training `forward` — at every batch width,
// thread count, and batch composition, datasets mixed or not — so the
// serving tier can coalesce requests freely without changing any
// answer. Plus the serving-loop lifecycle (shutdown drains in-flight
// requests deterministically), the immutable dataset (concurrent attacks
// and serving read one freshly built dataset), and the replica set's
// lease accounting.
#include <gtest/gtest.h>

#include <algorithm>
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

    // Raw score bytes of each query's one-query forward: the identity
    // oracle.
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

void expect_same_selection(const Selection& got, const Selection& want) {
  EXPECT_EQ(got.sink_fragment, want.sink_fragment);
  EXPECT_EQ(got.chosen_source, want.chosen_source);
  EXPECT_EQ(got.correct, want.correct);
  EXPECT_EQ(got.num_sinks, want.num_sinks);
}

void expect_selections_equal(const AttackResult& got,
                             const AttackResult& want) {
  ASSERT_EQ(got.selections.size(), want.selections.size());
  for (std::size_t i = 0; i < got.selections.size(); ++i) {
    SCOPED_TRACE("query " + std::to_string(i));
    expect_same_selection(got.selections[i], want.selections[i]);
  }
  EXPECT_EQ(got.ccr, want.ccr);  // bit-equal, not approximately
}

/// The scores select_batch computes for `refs[0..count)` (at least one
/// with candidates): the batch assembled into `input`, one embed over its
/// planes and one score of its rows against them.
const nn::Tensor& batch_scores(nn::AttackNet& net, const QueryRef* refs,
                               std::size_t count, nn::QueryInput& input) {
  assemble_batch(refs, count, input);
  const nn::Tensor& embeddings =
      net.embed(input.images, 0, input.images.dim(0));
  return net.score(input.vec, &embeddings, input.source_rows.data(),
                   input.sink_rows.data());
}

/// Expects `scores`, a batch's in slot order, to hold each victim query
/// `queries[k]` at the bytes of its one-query forward.
void expect_forward_bytes(const nn::Tensor& scores,
                          const std::vector<std::size_t>& queries) {
  const ServeFixtureState& f = fixture();
  std::size_t rows = 0;
  for (std::size_t q : queries) rows += f.baseline_scores[q].size();
  ASSERT_EQ(scores.size(), rows);
  const float* s = scores.data();
  for (std::size_t q : queries) {
    const std::vector<float>& want = f.baseline_scores[q];
    EXPECT_EQ(std::memcmp(s, want.data(), want.size() * sizeof(float)), 0)
        << "query " << q << " diverges from its one-query forward";
    s += want.size();
  }
}

/// The victim's query indices [first, first + count).
std::vector<std::size_t> span_of(std::size_t first, std::size_t count) {
  std::vector<std::size_t> queries(count);
  for (std::size_t k = 0; k < count; ++k) queries[k] = first + k;
  return queries;
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
  // Every batch width's scores are each query's one-query forward bytes,
  // and select_batch picks the batch-1 answers.
  ServeFixtureState& f = fixture();
  const std::size_t n = f.victim->num_queries();
  ASSERT_GT(n, 8u);
  nn::QueryInput input;
  for (std::size_t width : {std::size_t{2}, std::size_t{8}, n}) {
    SCOPED_TRACE("width " + std::to_string(width));
    AttackResult got;
    got.selections.resize(n);
    for (std::size_t base = 0; base < n; base += width) {
      const std::size_t count = std::min(width, n - base);
      const std::vector<QueryRef> refs = refs_of(*f.victim, base, count);
      if (f.victim->first_row(base + count) > f.victim->first_row(base)) {
        expect_forward_bytes(
            batch_scores(f.dl->net(), refs.data(), count, input),
            span_of(base, count));
      }
      select_batch(f.dl->net(), refs.data(), count, input,
                   got.selections.data() + base);
    }
    got.ccr = compute_ccr(got.selections);
    expect_selections_equal(got, f.baseline);
  }
}

TEST(BatchedAttack, RaggedFinalBatch) {
  ServeFixtureState& f = fixture();
  const std::size_t n = f.victim->num_queries();
  ASSERT_GE(n, 3u);
  // A trailing batch narrower than the width: the last 3 queries alone.
  nn::QueryInput input;
  if (f.victim->first_row(n) > f.victim->first_row(n - 3)) {
    expect_forward_bytes(batch_scores(f.dl->net(),
                                      refs_of(*f.victim, n - 3, 3).data(), 3,
                                      input),
                         span_of(n - 3, 3));
  }
  // A width that cannot divide the dataset evenly end-to-end.
  const int ragged_width = 7;
  expect_selections_equal(f.dl->attack(*f.victim, nullptr, ragged_width),
                          f.baseline);
}

TEST(BatchedAttack, SingleQueryDegenerateBatch) {
  // A batch of one through the inference path is its query's forward.
  ServeFixtureState& f = fixture();
  nn::QueryInput input;
  for (std::size_t i = 0; i < std::min<std::size_t>(4, f.victim->num_queries());
       ++i) {
    const QueryRef ref{f.victim.get(), i};
    if (!f.victim->query(i).candidates.empty()) {
      expect_forward_bytes(batch_scores(f.dl->net(), &ref, 1, input), {i});
    }
    Selection got;
    select_batch(f.dl->net(), &ref, 1, input, &got);
    expect_same_selection(got, f.baseline.selections[i]);
  }
}

TEST(BatchedAttack, SkipsZeroRowQueries) {
  // A batch whose middle query has no candidates: it adds no rows and no
  // planes, gets the no-op choice, and the live queries around it keep
  // their one-query forward bytes and answers.
  ServeFixtureState& f = fixture();
  DatasetConfig no_candidates = serve_dataset_config();
  no_candidates.candidates.max_candidates = 0;
  const QueryDataset empty(test::shared_split(3, 400, 14).split.get(),
                           no_candidates);
  ASSERT_GT(empty.num_queries(), 0u);
  ASSERT_EQ(empty.batch_rows(0), 0);
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < f.victim->num_queries() && live.size() < 2;
       ++i) {
    if (f.victim->batch_rows(i) > 0) live.push_back(i);
  }
  ASSERT_EQ(live.size(), 2u);
  const QueryRef refs[] = {
      {f.victim.get(), live[0]}, {&empty, 0}, {f.victim.get(), live[1]}};
  const int rows =
      f.victim->batch_rows(live[0]) + f.victim->batch_rows(live[1]);

  nn::QueryInput input;
  expect_forward_bytes(batch_scores(f.dl->net(), refs, 3, input), live);
  EXPECT_EQ(input.vec.dim(0), rows);
  EXPECT_EQ(input.images.dim(0), rows + 2);

  Selection got[3];
  select_batch(f.dl->net(), refs, 3, input, got);
  expect_same_selection(got[0], f.baseline.selections[live[0]]);
  expect_same_selection(got[2], f.baseline.selections[live[1]]);
  EXPECT_EQ(got[1].sink_fragment, empty.query(0).sink_fragment);
  EXPECT_EQ(got[1].chosen_source, -1);
  EXPECT_FALSE(got[1].correct);
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
      SCOPED_TRACE("slot " + std::to_string(k));
      expect_same_selection(got[k], want(refs[k]));
    }
  }
}

TEST(BatchedForward, ForwardTakesOneQuery) {
  // forward is the one-query training pass: an assembled batch of two
  // image queries (2 more planes than rows + 1) and an input without
  // candidate rows throw, while one query assembled alone runs.
  ServeFixtureState& f = fixture();
  nn::AttackNet net(serve_net_config());
  std::vector<QueryRef> live;
  for (std::size_t i = 0; i < f.victim->num_queries() && live.size() < 2;
       ++i) {
    if (f.victim->batch_rows(i) > 0) live.push_back({f.victim.get(), i});
  }
  ASSERT_EQ(live.size(), 2u);
  nn::QueryInput input;
  assemble_batch(live.data(), 2, input);
  EXPECT_THROW(net.forward(input), std::invalid_argument);
  nn::QueryInput no_rows;
  no_rows.vec = nn::Tensor({0, 27});
  EXPECT_THROW(net.forward(no_rows), std::invalid_argument);
  assemble_batch(live.data(), 1, input);
  EXPECT_EQ(net.forward(input).dim(0), f.victim->batch_rows(live[0].query));
}

TEST(BatchedForward, BackwardOnlyAfterForward) {
  // select_batch's embed and score passes are inference-only: backward
  // after them throws, and a later one-query forward re-arms the
  // training path.
  ServeFixtureState& f = fixture();
  nn::AttackNet net(serve_net_config());
  const std::size_t count = std::min<std::size_t>(8, f.victim->num_queries());
  ASSERT_GT(f.victim->first_row(count), 0);
  const std::vector<QueryRef> refs = refs_of(*f.victim, 0, count);
  nn::QueryInput input;
  std::vector<Selection> out(count);
  select_batch(net, refs.data(), count, input, out.data());
  EXPECT_THROW(net.backward(nn::Tensor({f.victim->first_row(count)})),
               std::logic_error);

  const auto live = std::find_if(refs.begin(), refs.end(), [&f](auto ref) {
    return f.victim->batch_rows(ref.query) > 0;
  });
  assemble_batch(&*live, 1, input);
  const nn::Tensor& s = net.forward(input);
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
    SCOPED_TRACE("query " + std::to_string(i));
    expect_same_selection(got[i], f.baseline.selections[i]);
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
    SCOPED_TRACE("query " + std::to_string(i));
    expect_same_selection(served[i], f.baseline.selections[i]);
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
