// The fused training-step engine's contract: one fused reduce + Adam pass
// is byte-identical to a separate lane reduce followed by Adam::step at
// every lane count and every thread count. DlAttack::train produces the
// same model bytes with and without a pool, pinned to digests recorded
// before its per-query and three-pass loops were folded into the serial
// and pooled lane loops. Pinned inference replicas are reused across
// attack() calls without changing any result.
#include "nn/train_step.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "attack/dl_attack.hpp"
#include "eval/experiment.hpp"
#include "nn/attack_net.hpp"
#include "nn/optimizer.hpp"
#include "nn_oracle.hpp"
#include "runtime/parallel.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace sma::nn {
namespace {

/// A bank of parameter tensors with private gradients.
struct ParamBank {
  std::vector<Tensor> values;
  std::vector<Tensor> grads;

  explicit ParamBank(const std::vector<std::vector<int>>& shapes,
                     util::Pcg32& rng) {
    values.reserve(shapes.size());
    grads.reserve(shapes.size());
    for (const auto& shape : shapes) {
      values.push_back(Tensor::randn(shape, rng, 0.5));
      grads.emplace_back(shape);
    }
  }

  std::vector<Param> params() {
    std::vector<Param> out;
    for (std::size_t i = 0; i < values.size(); ++i) {
      out.push_back({"p" + std::to_string(i), &values[i], &grads[i]});
    }
    return out;
  }
};

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Deterministic pseudo-gradients, identical for both banks.
void fill_grads(std::vector<Tensor>& lane_grads, util::Pcg32& rng) {
  for (Tensor& g : lane_grads) {
    for (std::size_t j = 0; j < g.size(); ++j) {
      g[j] = static_cast<float>(rng.next_gaussian());
    }
  }
}

/// Fused step vs a separate reduce + Adam::step on raw tensors: `lanes`
/// gradient lanes, several steps (the last one with a partial batch), run
/// serially or on a pool. Master weights must match byte for byte, and
/// every consumed gradient must be zeroed the same way.
void check_fused_matches_reduce_then_adam(int lanes,
                                          runtime::ThreadPool* pool) {
  // Odd sizes on purpose: no tile or grain boundary alignment.
  const std::vector<std::vector<int>> shapes = {{7, 13}, {13}, {31, 3}, {5}};
  util::Pcg32 init(2024);
  ParamBank master_a(shapes, init);
  util::Pcg32 init_b(2024);  // identical initial weights
  ParamBank master_b(shapes, init_b);

  auto make_lanes = [&](int count) {
    std::vector<ParamBank> banks;
    util::Pcg32 lane_rng(7);
    for (int l = 0; l < count; ++l) banks.emplace_back(shapes, lane_rng);
    return banks;
  };
  std::vector<ParamBank> lanes_a = make_lanes(lanes);
  std::vector<ParamBank> lanes_b = make_lanes(lanes);

  AdamConfig config;
  config.lr = 0.01;
  Adam adam_a(master_a.params(), config);

  TrainStep engine(master_b.params(), config);
  std::vector<std::vector<Param>> lane_params_b;
  for (ParamBank& lane : lanes_b) lane_params_b.push_back(lane.params());
  engine.attach_lanes(lane_params_b);

  std::vector<Param> master_params_a = master_a.params();
  std::vector<std::vector<Param>> lane_params_a;
  for (ParamBank& lane : lanes_a) lane_params_a.push_back(lane.params());

  util::Pcg32 grad_rng_a(99);
  util::Pcg32 grad_rng_b(99);
  for (int step = 0; step < 5; ++step) {
    const int active = step == 4 && lanes > 1 ? lanes - 1 : lanes;
    for (int l = 0; l < active; ++l) {
      fill_grads(lanes_a[l].grads, grad_rng_a);
      fill_grads(lanes_b[l].grads, grad_rng_b);
    }

    // Reference: reduce in ascending lane order, then the Adam step.
    runtime::parallel_for(
        pool, 0, master_params_a.size(), /*grain=*/4, [&](std::size_t k) {
          float* master = master_params_a[k].grad->data();
          const std::size_t size = master_params_a[k].grad->size();
          for (int l = 0; l < active; ++l) {
            float* lane = lane_params_a[l][k].grad->data();
            for (std::size_t j = 0; j < size; ++j) {
              master[j] += lane[j];
              lane[j] = 0.0f;
            }
          }
        });
    adam_a.step(pool);

    // Fused: one pass.
    engine.step(active, pool);
  }

  for (std::size_t k = 0; k < shapes.size(); ++k) {
    EXPECT_TRUE(same_bytes(master_a.values[k], master_b.values[k]))
        << "master param " << k << " diverged (lanes " << lanes << ")";
    EXPECT_TRUE(same_bytes(master_a.grads[k], master_b.grads[k]))
        << "master grad " << k << " not zeroed identically";
    for (int l = 0; l < lanes; ++l) {
      EXPECT_TRUE(same_bytes(lanes_a[l].grads[k], lanes_b[l].grads[k]))
          << "lane " << l << " grad " << k << " not zeroed identically";
    }
  }
}

TEST(TrainStep, FusedMatchesReduceThenAdamAcrossLanesAndThreads) {
  // 11 lanes: the reduce takes lanes eight at a time, then three.
  for (int lanes : {1, 2, 8, 11}) {
    check_fused_matches_reduce_then_adam(lanes, nullptr);
    runtime::ThreadPool pool(4);
    check_fused_matches_reduce_then_adam(lanes, &pool);
  }
}

TEST(TrainStep, BlockedStepMatchesScalarReference) {
  // The fused pass over Adam's element blocks against a whole-tensor lane
  // reduce followed by the scalar per-parameter Adam loop it replaced,
  // over every vector tail and a tensor of four blocks, with hostile
  // gradients (see adam_identity_grad), serially and on a pool. Three
  // lanes; the fifth step runs two.
  const std::vector<std::vector<int>> shapes =
      test::oracle::adam_identity_shapes();
  constexpr int kLanes = 3;
  runtime::ThreadPool pool(4);
  for (runtime::ThreadPool* p : {static_cast<runtime::ThreadPool*>(nullptr),
                                 &pool}) {
    SCOPED_TRACE(p == nullptr ? "serial" : "pool");
    util::Pcg32 init(41);
    ParamBank master(shapes, init);
    util::Pcg32 init_ref(41);
    ParamBank ref_master(shapes, init_ref);
    util::Pcg32 lane_init(43);
    std::vector<ParamBank> lanes;
    std::vector<ParamBank> ref_lanes;
    for (int l = 0; l < kLanes; ++l) {
      lanes.emplace_back(shapes, lane_init);
      ref_lanes.push_back(lanes.back());
    }
    AdamConfig config;
    config.lr = 0.01;
    TrainStep engine(master.params(), config);
    std::vector<std::vector<Param>> lane_params;
    for (ParamBank& lane : lanes) lane_params.push_back(lane.params());
    engine.attach_lanes(lane_params);
    test::oracle::Adam reference(ref_master.params(), config);

    util::Pcg32 grad_rng(97);
    for (int step = 0; step < 6; ++step) {
      const int active = step == 4 ? kLanes - 1 : kLanes;
      for (int l = 0; l < active; ++l) {
        for (std::size_t k = 0; k < shapes.size(); ++k) {
          const bool tiny = k + 1 < shapes.size() && k % 3 == 0;
          Tensor& g = lanes[l].grads[k];
          for (std::size_t j = 0; j < g.size(); ++j) {
            g[j] = test::oracle::adam_identity_grad(grad_rng, tiny);
            ref_lanes[l].grads[k][j] = g[j];
          }
        }
      }
      engine.step(active, p);
      for (std::size_t k = 0; k < shapes.size(); ++k) {
        Tensor& sum = ref_master.grads[k];
        for (int l = 0; l < active; ++l) {
          Tensor& lane = ref_lanes[l].grads[k];
          for (std::size_t j = 0; j < sum.size(); ++j) {
            sum[j] += lane[j];
            lane[j] = 0.0f;
          }
        }
      }
      reference.step();
      for (std::size_t k = 0; k < shapes.size(); ++k) {
        EXPECT_TRUE(same_bytes(master.values[k], ref_master.values[k]))
            << "step " << step << " weight " << k;
        EXPECT_TRUE(same_bytes(master.grads[k], ref_master.grads[k]))
            << "step " << step << " grad " << k;
        for (int l = 0; l < kLanes; ++l) {
          EXPECT_TRUE(same_bytes(lanes[l].grads[k], ref_lanes[l].grads[k]))
              << "step " << step << " lane " << l << " grad " << k;
        }
      }
      EXPECT_TRUE(engine.optimizer().serialize() == reference.serialize())
          << "step " << step << " state";
    }
  }
}

TEST(TrainStep, NegativeActiveLanesThrows) {
  // A negative count is a caller bug (a miscomputed partial batch), not a
  // "no lanes active" request — silently clamping it to 0 would run a
  // spurious Adam step on zero gradients and advance the step counter.
  const std::vector<std::vector<int>> shapes = {{3, 3}};
  util::Pcg32 init(11);
  ParamBank master(shapes, init);
  TrainStep engine(master.params(), {});
  // Throws with no lanes attached...
  EXPECT_THROW(engine.step(-1, nullptr), std::invalid_argument);
  // ...and with lanes attached (where the old code clamped).
  util::Pcg32 lane_init(12);
  ParamBank lane(shapes, lane_init);
  engine.attach_lanes({lane.params()});
  EXPECT_THROW(engine.step(-3, nullptr), std::invalid_argument);
  // Zero stays valid: it means "no active lanes this step".
  EXPECT_NO_THROW(engine.step(0, nullptr));
}

TEST(TrainStep, NoLanesDegradesToAdamStep) {
  const std::vector<std::vector<int>> shapes = {{4, 4}, {9}};
  util::Pcg32 init(5);
  ParamBank a(shapes, init);
  util::Pcg32 init_b(5);
  ParamBank b(shapes, init_b);

  Adam adam(a.params(), {});
  TrainStep engine(b.params(), {});
  util::Pcg32 ga(1), gb(1);
  for (int step = 0; step < 3; ++step) {
    fill_grads(a.grads, ga);
    fill_grads(b.grads, gb);
    adam.step(nullptr);
    engine.step(/*active_lanes=*/0, nullptr);
  }
  for (std::size_t k = 0; k < shapes.size(); ++k) {
    EXPECT_TRUE(same_bytes(a.values[k], b.values[k]));
  }
}

TEST(AttackNetSharing, SharedCloneTracksMasterWeights) {
  NetConfig config;
  config.hidden = 16;
  config.vector_res_blocks = 1;
  config.merged_res_blocks = 1;
  config.use_images = false;
  AttackNet master(config);
  AttackNet replica = master.clone_shared();

  util::Pcg32 rng(3);
  QueryInput input;
  input.vec = Tensor::randn({5, 27}, rng, 1.0);

  Tensor a = master.forward(input);
  Tensor b = replica.forward(input);
  EXPECT_TRUE(same_bytes(a, b));

  // Mutate the master's weights; the replica must see the change with no
  // synchronization (it reads the same tensors).
  for (Param& p : master.params()) {
    for (std::size_t j = 0; j < p.value->size(); ++j) (*p.value)[j] += 0.25f;
  }
  Tensor a2 = master.forward(input);
  Tensor b2 = replica.forward(input);
  EXPECT_TRUE(same_bytes(a2, b2));
  EXPECT_FALSE(same_bytes(a, a2));

  // The replica's private weight storage is freed, not duplicated.
  for (Param& p : replica.params()) {
    EXPECT_EQ(p.value->size(), 0u) << p.name;
  }
}

}  // namespace
}  // namespace sma::nn

namespace sma::attack {
namespace {

/// Tiny end-to-end corpus (the determinism-test pattern): one generated
/// design, vector-only features.
eval::PreparedSplit tiny_prepared(int split_layer = 3) {
  netlist::DesignProfile profile;
  profile.name = "tiny_fused";
  profile.num_inputs = 8;
  profile.num_outputs = 4;
  profile.num_gates = 280;
  return eval::prepare_split(profile, split_layer, layout::FlowConfig{}, 77);
}

nn::NetConfig tiny_net_config() {
  nn::NetConfig config;
  config.hidden = 16;
  config.vector_res_blocks = 1;
  config.merged_res_blocks = 1;
  config.use_images = false;
  return config;
}

/// The tiny net with the fast profile's conv trunk (3 image channels,
/// conv widths {8, 16, 32, 64}) switched on.
nn::NetConfig tiny_image_net_config() {
  nn::NetConfig config = tiny_net_config();
  config.use_images = true;
  config.conv_channels = nn::NetConfig::fast().conv_channels;
  config.image_fc = 16;
  config.fc6_width = 8;
  return config;
}

/// Model bytes after a short DlAttack::train on the tiny corpus. Vector
/// only by default; with `images` the dataset renders the fast profile's
/// 15x15 three-scale images for up to 15 candidates, so a query stacks up
/// to 16 planes through the conv trunk.
std::string train_model_bytes(const eval::PreparedSplit& prepared,
                              int batch_size, runtime::ThreadPool* pool,
                              bool images = false) {
  DatasetConfig dataset_config;
  dataset_config.candidates.max_candidates = 6;
  dataset_config.build_images = false;

  TrainConfig train_config;
  train_config.epochs = 2;
  train_config.batch_size = batch_size;
  if (images) {
    dataset_config = eval::ExperimentProfile::fast().dataset;
    train_config.max_queries_per_design = 20;
  }

  std::vector<QueryDataset> training;
  training.emplace_back(prepared.split.get(), dataset_config);
  std::vector<QueryDataset> validation;
  DlAttack dl(images ? tiny_image_net_config() : tiny_net_config());
  TrainStats stats = dl.train(training, validation, train_config, pool);
  // Guard against a vacuous pass: the tiny corpus must actually contain
  // trainable queries, or the bit-identity comparison proves nothing.
  EXPECT_GT(stats.queries_seen, 0);
  std::stringstream bytes;
  dl.net().save(bytes);
  return bytes.str();
}

TEST(Training, ModelBytesMatchAcrossThreadsAndPinnedDigests) {
  // FNV-1a digests of the saved models, recorded when DlAttack::train
  // still ran a separate per-query SGD loop (batch_size 1) and could run
  // its pooled lanes on the three-pass reduce / Adam / broadcast path.
  // The corpus has 74 trainable queries per epoch, so batch sizes 3 and 8
  // end every epoch on a partial batch. Each model must also be identical
  // with and without a pool.
  struct Pin {
    int lanes;
    std::uint64_t digest;
  };
  const Pin pins[] = {{1, 0x543577a61bd56682ull},
                      {3, 0x715bffd3d8092141ull},
                      {8, 0x6e07e182e4aa9b3cull}};
  const eval::PreparedSplit prepared = tiny_prepared(/*split_layer=*/1);
  runtime::ThreadPool pool(4);
  for (const Pin& pin : pins) {
    const std::string serial = train_model_bytes(prepared, pin.lanes, nullptr);
    EXPECT_EQ(
        util::ContentHash().add_bytes(serial.data(), serial.size()).digest(),
        pin.digest)
        << "model moved at lanes " << pin.lanes;
    EXPECT_TRUE(serial == train_model_bytes(prepared, pin.lanes, &pool))
        << "pooled != serial at lanes " << pin.lanes;
  }
}

TEST(Training, ImageTrunkModelBytesMatchPinnedDigests) {
  // The conv trunk's forward and backward trained end to end: FNV-1a
  // digests of the saved models, recorded before Conv2d processed its
  // images in cache-sized tiles. At 15x15 pixels conv1's im2col columns
  // span several tiles (and the trunk's 1x1 maps exercise the stride-3
  // edge clamp). 20 queries per epoch, so batch 8 ends on a partial
  // batch. Each model must also be identical with and without a pool.
  struct Pin {
    int lanes;
    std::uint64_t digest;
  };
  const Pin pins[] = {{1, 0xe9164beee7cdfbf3ull},
                      {8, 0xcf124225cff906c3ull}};
  const eval::PreparedSplit prepared = tiny_prepared(/*split_layer=*/1);
  runtime::ThreadPool pool(4);
  for (const Pin& pin : pins) {
    const std::string serial =
        train_model_bytes(prepared, pin.lanes, nullptr, /*images=*/true);
    EXPECT_EQ(
        util::ContentHash().add_bytes(serial.data(), serial.size()).digest(),
        pin.digest)
        << "model moved at lanes " << pin.lanes;
    EXPECT_TRUE(serial ==
                train_model_bytes(prepared, pin.lanes, &pool, /*images=*/true))
        << "pooled != serial at lanes " << pin.lanes;
  }
}

TEST(Training, NonPositiveBatchSizeThrows) {
  // batch_size feeds the checkpoint and work-unit digests as written, so a
  // value below 1 is rejected instead of silently training as 1.
  std::vector<QueryDataset> training;
  std::vector<QueryDataset> validation;
  DlAttack dl(tiny_net_config());
  for (int batch_size : {0, -3}) {
    TrainConfig config;
    config.batch_size = batch_size;
    EXPECT_THROW(dl.train(training, validation, config),
                 std::invalid_argument)
        << "batch_size " << batch_size;
  }
}

TEST(PinnedReplicas, AttackReusesReplicasAndStaysByteIdentical) {
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

  std::stringstream model_before;
  dl.net().save(model_before);

  QueryDataset victim(prepared.split.get(), dataset_config);
  AttackResult first = dl.attack(victim, &pool);
  const long clones_after_first = dl.replica_lease_stats().clones_created;
  EXPECT_GT(clones_after_first, 0);

  for (int round = 0; round < 3; ++round) {
    AttackResult again = dl.attack(victim, &pool);
    // Pinned: repeated calls lease the same replicas instead of cloning.
    EXPECT_EQ(dl.replica_lease_stats().clones_created, clones_after_first);
    // And results are byte-identical call over call.
    EXPECT_EQ(again.ccr, first.ccr);
    ASSERT_EQ(again.selections.size(), first.selections.size());
    for (std::size_t i = 0; i < first.selections.size(); ++i) {
      EXPECT_EQ(again.selections[i].chosen_source,
                first.selections[i].chosen_source);
      EXPECT_EQ(again.selections[i].correct, first.selections[i].correct);
    }
  }

  // Inference must leave the trained model untouched.
  std::stringstream model_after;
  dl.net().save(model_after);
  EXPECT_EQ(model_before.str(), model_after.str());

  // Serial attack (no pool) must agree with the replica-served one — the
  // determinism contract across execution modes.
  AttackResult serial = dl.attack(victim, nullptr);
  EXPECT_EQ(serial.ccr, first.ccr);
}

}  // namespace
}  // namespace sma::attack
