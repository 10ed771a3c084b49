// Activation-arena tests: slot reuse semantics (grow-only capacity, no
// clearing, stats), the zero-allocations-per-query steady state of the
// whole network hot path (asserted both through arena stats and through
// a global operator-new counter), and the no-stale-read regression —
// shape-varying query sequences through one reused net / one pinned
// replica must be byte-identical to fresh-net baselines, at thread
// counts {1, 4} and lane counts {1, 8}.
#include "nn/arena.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <vector>

#include "attack/dl_attack.hpp"
#include "eval/experiment.hpp"
#include "nn/attack_net.hpp"
#include "nn/gemm.hpp"
#include "nn/losses.hpp"
#include "nn/optimizer.hpp"
#include "runtime/thread_pool.hpp"
#include "util/rng.hpp"

// ---------------------------------------------------------------------
// Global allocation counter. Overriding operator new binary-wide lets the
// steady-state test assert that a warm net's forward/backward performs
// literally zero heap allocations — stronger than the arena's own stats,
// which only see arena-managed storage.
namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<long> g_alloc_count{0};

void* counted_alloc_nothrow(std::size_t size) noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_alloc(std::size_t size) {
  void* p = counted_alloc_nothrow(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

// The nothrow forms must be replaced too: the standard library reaches
// them directly (std::stable_sort's temporary buffer, for one), and under
// ASan a nothrow-new allocation freed by our free()-based operator delete
// is reported as an alloc-dealloc mismatch.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc_nothrow(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace sma::nn {
namespace {

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// ---------------------------------------------------------------------
// Arena unit tests

TEST(Arena, SlotAddressesAreStable) {
  Arena arena;
  const Arena::Slot a = arena.add_tensor();
  const Arena::Slot b = arena.add_tensor();
  Tensor& ta = arena.tensor(a, {4, 4}, Arena::Fill::kNone);
  // Registering and acquiring other slots never moves an existing one.
  const Arena::Slot c = arena.add_tensor();
  arena.tensor(b, {128, 128}, Arena::Fill::kNone);
  arena.tensor(c, {64}, Arena::Fill::kZero);
  EXPECT_EQ(&ta, &arena.tensor(a, {4, 4}, Arena::Fill::kNone));
}

TEST(Arena, GrowOnlyCapacityAndNoClearing) {
  Arena arena;
  const Arena::Slot s = arena.add_tensor();
  Tensor& t = arena.tensor(s, {4, 4}, Arena::Fill::kNone);
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<float>(i + 1);
  const long allocs_warm = arena.stats().allocs;
  EXPECT_GE(allocs_warm, 1);

  // Shrink: same storage, logical extent drops, stale contents visible.
  Tensor& t2 = arena.tensor(s, {2, 2}, Arena::Fill::kNone);
  EXPECT_EQ(t2.size(), 4u);
  EXPECT_FLOAT_EQ(t2[0], 1.0f);
  EXPECT_FLOAT_EQ(t2[3], 4.0f);

  // Grow back within the high-water mark: NO allocation, NO zero-fill —
  // the old bytes are still there (the no-stale-read contract is real).
  Tensor& t3 = arena.tensor(s, {4, 4}, Arena::Fill::kNone);
  EXPECT_EQ(arena.stats().allocs, allocs_warm);
  EXPECT_FLOAT_EQ(t3[15], 16.0f);

  // Fill::kZero reproduces a freshly constructed tensor's bytes.
  Tensor& t4 = arena.tensor(s, {4, 4}, Arena::Fill::kZero);
  for (std::size_t i = 0; i < t4.size(); ++i) EXPECT_FLOAT_EQ(t4[i], 0.0f);

  // Growing past the high-water mark allocates (counted).
  arena.tensor(s, {8, 8}, Arena::Fill::kNone);
  EXPECT_GT(arena.stats().allocs, allocs_warm);
}

TEST(Arena, FloatAndByteBuffersReuse) {
  Arena arena;
  const Arena::Slot f = arena.add_floats();
  const Arena::Slot b = arena.add_bytes();
  float* p1 = arena.floats(f, 100, Arena::Fill::kNone);
  for (int i = 0; i < 100; ++i) p1[i] = static_cast<float>(i);
  std::uint8_t* q1 = arena.bytes(b, 64);
  q1[63] = 7;
  const long allocs_warm = arena.stats().allocs;

  // Shrink-then-grow within the high-water mark: same pointers, stale
  // contents, zero allocations.
  EXPECT_EQ(arena.floats(f, 10, Arena::Fill::kNone), p1);
  float* p2 = arena.floats(f, 80, Arena::Fill::kNone);
  EXPECT_EQ(p2, p1);
  EXPECT_FLOAT_EQ(p2[79], 79.0f);
  EXPECT_EQ(arena.bytes(b, 64)[63], 7);
  EXPECT_EQ(arena.stats().allocs, allocs_warm);

  // kZero clears exactly the requested extent.
  float* p3 = arena.floats(f, 50, Arena::Fill::kZero);
  for (int i = 0; i < 50; ++i) EXPECT_FLOAT_EQ(p3[i], 0.0f);
}

TEST(Arena, StatsTrackScratchGrowth) {
  Arena arena;
  const long before = arena.stats().allocs;
  GemmScratch& scratch = arena.gemm_scratch();
  scratch.a_panel.resize(4096);  // as the GEMM kernels do internally
  const ArenaStats grown = arena.stats();
  EXPECT_GT(grown.allocs, before);
  EXPECT_GE(grown.bytes_pinned, 4096 * sizeof(float));
  // Stable capacity => no further counted allocations.
  EXPECT_EQ(arena.stats().allocs, grown.allocs);
}

// ---------------------------------------------------------------------
// Network-level steady state

NetConfig tiny_image_config() {
  NetConfig config;
  config.hidden = 16;
  config.vector_res_blocks = 1;
  config.merged_res_blocks = 1;
  config.use_images = true;
  config.image_channels = 1;
  config.conv_channels = {4, 4, 4, 4};
  config.image_fc = 8;
  config.fc6_width = 8;
  return config;
}

/// [n] vec + [n+1] images query, deterministic in (n, salt).
QueryInput make_input(const NetConfig& config, int n, int image_size,
                      std::uint64_t salt) {
  util::Pcg32 rng(salt, 0x1234);
  QueryInput input;
  input.vec = Tensor::randn({n, config.vector_dim}, rng, 1.0);
  if (config.use_images) {
    input.images = Tensor::randn(
        {n + 1, config.image_channels, image_size, image_size}, rng, 1.0);
  }
  return input;
}

TEST(ArenaNet, SteadyStateHasZeroHeapAllocations) {
  const NetConfig config = tiny_image_config();
  const int image_size = 15;  // conv stack: 15 -> 5 -> 2 -> 1
  AttackNet net(config);

  const std::vector<int> ns = {2, 6, 4};
  // Pre-build inputs and per-n score gradients so the counted region
  // contains exactly forward + backward.
  std::vector<QueryInput> inputs;
  std::vector<Tensor> dscores;
  for (std::size_t i = 0; i < ns.size(); ++i) {
    inputs.push_back(make_input(config, ns[i], image_size, 11 + i));
    util::Pcg32 grng(100 + i);
    dscores.push_back(Tensor::randn({ns[i]}, grng, 1.0));
  }

  // Warm-up: one pass over every shape (including the largest).
  for (std::size_t i = 0; i < ns.size(); ++i) {
    net.forward(inputs[i]);
    net.backward(dscores[i]);
  }
  const long arena_allocs_warm = net.arena().stats().allocs;
  EXPECT_GT(arena_allocs_warm, 0);

  // Steady state: two more passes over the same shapes must perform zero
  // heap allocations — none in the arena, none anywhere else.
  g_alloc_count.store(0);
  g_count_allocs.store(true);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < ns.size(); ++i) {
      net.forward(inputs[i]);
      net.backward(dscores[i]);
    }
  }
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_count.load(), 0)
      << "warm forward/backward hit the allocator";
  EXPECT_EQ(net.arena().stats().allocs, arena_allocs_warm);
  EXPECT_GT(net.arena().stats().bytes_pinned, 0u);
}

// ---------------------------------------------------------------------
// No-stale-read regressions: shape-varying reuse vs fresh baselines

TEST(ArenaNet, ShapeVaryingForwardMatchesFreshNet) {
  const NetConfig config = tiny_image_config();
  const int image_size = 15;
  AttackNet reused(config);
  // Alternate small/large so every buffer shrinks and regrows.
  const std::vector<int> ns = {6, 2, 5, 1, 4, 6};
  for (std::size_t i = 0; i < ns.size(); ++i) {
    QueryInput input = make_input(config, ns[i], image_size, 40 + i);
    Tensor got = reused.forward(input);
    AttackNet fresh(config);  // same config + seed => identical weights
    Tensor want = fresh.forward(input);
    EXPECT_TRUE(same_bytes(got, want)) << "query " << i << " (n=" << ns[i]
                                       << ") diverged from fresh net";
  }
}

TEST(ArenaNet, StaleWarmupNeverLeaksIntoTraining) {
  // Net B first digests a large garbage query (oversizing every arena
  // buffer and leaving junk in the slack), then both nets train on the
  // same shape-varying sequence. Any stale byte escaping a reused buffer
  // would diverge the models.
  const NetConfig config = tiny_image_config();
  const int image_size = 15;
  AttackNet a(config);
  AttackNet b(config);

  {
    QueryInput junk = make_input(config, 9, image_size, 999);
    b.forward(junk);
    util::Pcg32 grng(77);
    Tensor junk_grad = Tensor::randn({9}, grng, 3.0);
    b.backward(junk_grad);
    // Discard the junk gradients; Adam state does not exist yet.
    for (Param& p : b.params()) p.grad->fill(0.0f);
  }

  Adam adam_a(a.params());
  Adam adam_b(b.params());
  const std::vector<int> ns = {3, 7, 2, 6, 1, 5};
  for (std::size_t i = 0; i < ns.size(); ++i) {
    QueryInput input = make_input(config, ns[i], image_size, 300 + i);
    const int target = static_cast<int>(i) % ns[i];
    LossResult loss_a = softmax_regression_loss(a.forward(input), target);
    a.backward(loss_a.grad);
    adam_a.step(nullptr);
    LossResult loss_b = softmax_regression_loss(b.forward(input), target);
    b.backward(loss_b.grad);
    adam_b.step(nullptr);
    EXPECT_DOUBLE_EQ(loss_a.loss, loss_b.loss) << "query " << i;
  }

  std::stringstream bytes_a;
  std::stringstream bytes_b;
  a.save(bytes_a);
  b.save(bytes_b);
  EXPECT_EQ(bytes_a.str(), bytes_b.str())
      << "stale warm-up contents leaked into the trained model";
}

TEST(ArenaNet, PinnedReplicaShapeVaryingMatchesMaster) {
  const NetConfig config = tiny_image_config();
  const int image_size = 15;
  AttackNet master(config);
  AttackNet replica = master.clone_shared();
  const std::vector<int> ns = {5, 2, 7, 2, 5};
  for (std::size_t i = 0; i < ns.size(); ++i) {
    QueryInput input = make_input(config, ns[i], image_size, 70 + i);
    Tensor from_master = master.forward(input);
    Tensor from_replica = replica.forward(input);
    EXPECT_TRUE(same_bytes(from_master, from_replica))
        << "replica diverged at query " << i << " (n=" << ns[i] << ")";
    AttackNet fresh(config);
    Tensor want = fresh.forward(input);
    EXPECT_TRUE(same_bytes(from_master, want))
        << "master diverged from fresh net at query " << i;
  }
}

}  // namespace
}  // namespace sma::nn

// ---------------------------------------------------------------------
// End-to-end: shape-varying corpora through training lanes and pinned
// inference replicas at threads {1, 4} x lanes {1, 8}.

namespace sma::attack {
namespace {

eval::PreparedSplit tiny_prepared() {
  netlist::DesignProfile profile;
  profile.name = "tiny_arena";
  profile.num_inputs = 8;
  profile.num_outputs = 4;
  profile.num_gates = 280;
  return eval::prepare_split(profile, 3, layout::FlowConfig{}, 91);
}

nn::NetConfig tiny_net_config() {
  nn::NetConfig config;
  config.hidden = 16;
  config.vector_res_blocks = 1;
  config.merged_res_blocks = 1;
  config.use_images = false;
  return config;
}

struct TrainOutcome {
  std::string model_bytes;
  TrainStats stats;
};

TrainOutcome train_once(const eval::PreparedSplit& prepared, int lanes,
                        runtime::ThreadPool* pool) {
  DatasetConfig dataset_config;
  dataset_config.candidates.max_candidates = 6;
  dataset_config.build_images = false;

  TrainConfig train_config;
  train_config.epochs = 3;
  train_config.batch_size = lanes;
  train_config.max_queries_per_design = 0;  // deterministic epoch set

  std::vector<QueryDataset> training;
  training.emplace_back(prepared.split.get(), dataset_config);
  std::vector<QueryDataset> validation;
  DlAttack dl(tiny_net_config());
  TrainOutcome outcome;
  outcome.stats = dl.train(training, validation, train_config, pool);
  EXPECT_GT(outcome.stats.queries_seen, 0);
  std::stringstream bytes;
  dl.net().save(bytes);
  outcome.model_bytes = bytes.str();
  return outcome;
}

TEST(ArenaTraining, ThreadAndLaneMatrixStaysByteIdentical) {
  eval::PreparedSplit prepared = tiny_prepared();
  for (int lanes : {1, 8}) {
    const TrainOutcome serial = train_once(prepared, lanes, nullptr);
    runtime::ThreadPool pool(4);
    const TrainOutcome pooled = train_once(prepared, lanes, &pool);
    EXPECT_EQ(serial.model_bytes, pooled.model_bytes)
        << "1-thread vs 4-thread model diverged at lanes " << lanes;
    // Every epoch after the first revisits the same query set: the
    // arenas must be fully warm — zero allocations per steady epoch.
    ASSERT_EQ(serial.stats.arena_allocs_per_epoch.size(), 3u);
    EXPECT_GT(serial.stats.arena_allocs_per_epoch[0], 0);
    EXPECT_EQ(serial.stats.arena_allocs_per_epoch[1], 0)
        << "lanes " << lanes << " (serial)";
    EXPECT_EQ(serial.stats.arena_allocs_per_epoch[2], 0);
    EXPECT_EQ(pooled.stats.arena_allocs_per_epoch[1], 0)
        << "lanes " << lanes << " (pooled)";
    EXPECT_EQ(pooled.stats.arena_allocs_per_epoch[2], 0);
    EXPECT_GT(serial.stats.arena_bytes_pinned, 0u);
  }
}

TEST(ArenaServing, PinnedReplicasStayAllocFreeAcrossAttacks) {
  eval::PreparedSplit prepared = tiny_prepared();
  DatasetConfig dataset_config;
  dataset_config.candidates.max_candidates = 6;
  dataset_config.build_images = false;

  TrainConfig train_config;
  train_config.epochs = 2;
  train_config.batch_size = 4;

  std::vector<QueryDataset> training;
  training.emplace_back(prepared.split.get(), dataset_config);
  std::vector<QueryDataset> validation;
  DlAttack dl(tiny_net_config());
  runtime::ThreadPool pool(4);
  dl.train(training, validation, train_config, &pool);

  QueryDataset victim(prepared.split.get(), dataset_config);
  AttackResult first = dl.attack(victim, &pool);
  // Replica arenas warm on the first pass over the victim...
  const nn::ArenaStats warm = dl.inference_arena_stats();
  EXPECT_GT(warm.bytes_pinned, 0u);
  // ...and later passes over already-seen query shapes add nothing.
  for (int round = 0; round < 3; ++round) {
    AttackResult again = dl.attack(victim, &pool);
    EXPECT_EQ(again.ccr, first.ccr);
  }
  const nn::ArenaStats steady = dl.inference_arena_stats();
  EXPECT_EQ(steady.allocs, warm.allocs)
      << "pinned replicas allocated on a repeated attack()";
}

}  // namespace
}  // namespace sma::attack
