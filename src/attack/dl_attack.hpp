// The deep-learning attack (Secs. 4-5 of the paper).
//
// Training: per-query softmax-regression loss (or the two-class ablation
// loss) over the n candidate VPPs of each sink fragment in the training
// designs, each query one `AttackNet::forward` + `backward`; Adam with the
// paper's step-decay schedule. Attacking: for every sink fragment of the
// victim design, pick the candidate with the highest predicted score
// (Eq. 2), scored by `AttackNet::embed` + `AttackNet::score` — over a
// whole dataset in `attack`, over a served batch in `select_batch`.
//
// Parallel execution: with `batch_size` > 1 training accumulates the
// gradients of a batch on fixed "lanes" — replicas that share the
// master's weight tensors, one query per lane per step — and reduces lane
// gradients into the Adam step in lane order. With a pool the lanes run
// concurrently and each step is one fused reduce+Adam pass (the TrainStep
// engine); without one, a single replica serves the lanes in turn. The
// lane structure (and therefore every floating-point sum) depends only on
// `batch_size`, so any thread count, including none, produces
// bit-identical models. Inference over a dataset runs in two passes
// (`attack`): it embeds each distinct virtual-pin image once, then scores
// every query against that embedding table, with both passes partitioned
// over pinned shared-weight replicas (ReplicaSet). Every embedding row
// and score row is independent of what shares its pass, and each query's
// selection lands in its own slot, so this gives the bytes of the
// one-query `forward` and parallel CCRs equal serial ones.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/attack_result.hpp"
#include "attack/dataset.hpp"
#include "attack/replica_set.hpp"
#include "nn/attack_net.hpp"
#include "nn/losses.hpp"
#include "nn/optimizer.hpp"
#include "runtime/thread_pool.hpp"

namespace sma::attack {

struct TrainConfig {
  int epochs = 24;
  nn::AdamConfig adam;        ///< lr 0.001, decay 0.6 (paper schedule)
  int decay_every = 20;       ///< epochs between lr decays
  /// Cap on training queries drawn per design per epoch (subsampling keeps
  /// single-core training tractable; 0 = use all).
  int max_queries_per_design = 400;
  /// Queries per optimizer step. 1 reproduces the paper's per-query SGD;
  /// > 1 sums gradients over the batch via parallel lanes (the effective
  /// step size grows with the batch, as with any summed minibatch, and a
  /// trailing partial batch takes a proportionally smaller step). Changing
  /// this changes the trained model — it is a training hyperparameter,
  /// not a performance knob; thread count alone never changes results.
  /// Must be >= 1: `DlAttack::train` throws std::invalid_argument
  /// otherwise.
  int batch_size = 1;
  std::uint64_t seed = 99;
  /// Report validation CCR every k epochs (0 = never).
  int validate_every = 0;
  /// Save a resumable checkpoint to `checkpoint_path` every k completed
  /// epochs (0 = never). A later `train` call with the same configuration
  /// and datasets picks the checkpoint up and continues — producing a
  /// final model byte-identical to an uninterrupted run (the durability
  /// contract tests/test_durability.cpp gates). A checkpoint from a
  /// *different* configuration (this struct's or the net's NetConfig) or
  /// dataset is detected via an embedded digest and discarded; a damaged
  /// checkpoint file likewise falls back
  /// to a fresh start instead of failing the run.
  int checkpoint_every = 0;
  std::string checkpoint_path;
};

/// The TrainConfig fields that shape the training stream, as bytes: the
/// five Adam fields as f64, decay_every, max_queries_per_design and
/// batch_size as i32, then the u64 seed. The one list of them: the
/// training-checkpoint digest and eval::experiment_digest hash these
/// bytes.
std::string encode_train_schedule(const TrainConfig& config);

struct TrainStats {
  std::vector<double> epoch_loss;      ///< mean loss per epoch
  std::vector<double> validation_ccr;  ///< filled when validate_every > 0
  double seconds = 0.0;
  long queries_seen = 0;
  /// Activation-arena heap-growth events per epoch, summed over the
  /// master net and every gradient-lane replica. The first epoch warms
  /// the arenas up to the largest query shape; once every query shape of
  /// an epoch has been seen before, its entry is 0 — the alloc-free
  /// steady state bench_train and CI assert.
  std::vector<long> arena_allocs_per_epoch;
  /// Arena backing bytes pinned at the end of training (master + lanes).
  std::size_t arena_bytes_pinned = 0;
  /// Epoch index this run resumed from (0 = started fresh). On resume the
  /// per-epoch vectors above still cover the FULL run: the histories come
  /// from the checkpoint and `arena_allocs_per_epoch` is zero-padded for
  /// the skipped epochs, so every vector stays indexable by epoch.
  int resumed_from_epoch = 0;
};

/// The per-query inference step (Eq. 2) over a batch: gather
/// `refs[0..count)` into `input` (the caller's reusable buffer, see
/// `assemble_batch`), run one `AttackNet::embed` over its planes and one
/// `AttackNet::score` of its rows against them on `net`, and write each
/// query's argmax candidate to `out[0..count)`. Empty-candidate queries
/// get the no-op choice and add nothing to the pass; an all-empty batch
/// never reaches the net. Per-query scores, hence selections, are
/// byte-identical at every width and batch composition, including
/// batches that mix datasets, to a one-query `AttackNet::forward` and to
/// `DlAttack::attack`. The serving loop (src/serve/) selects through
/// here.
void select_batch(nn::AttackNet& net, const QueryRef* refs, std::size_t count,
                  nn::QueryInput& input, Selection* out);

class DlAttack {
 public:
  explicit DlAttack(const nn::NetConfig& net_config);
  /// Adopt an existing (e.g. deserialized) network.
  explicit DlAttack(nn::AttackNet net);

  nn::AttackNet& net() { return net_; }

  /// Train on `training` datasets; if `validation` is non-empty and
  /// `config.validate_every` > 0, track validation CCR. `pool` only
  /// changes wall-clock time, never the resulting model. Throws
  /// std::invalid_argument when `config.batch_size` < 1.
  TrainStats train(const std::vector<QueryDataset>& training,
                   const std::vector<QueryDataset>& validation,
                   const TrainConfig& config,
                   runtime::ThreadPool* pool = nullptr);

  /// Run inference over every query of `dataset`. With a pool the shared
  /// network is never used directly — workers run *pinned* replicas
  /// leased from the ReplicaSet (shared read-only weights, private
  /// activation caches; no per-call clone) — so concurrent `attack` calls
  /// on one DlAttack, over one dataset or several, are safe as long as
  /// every call passes a pool, and repeated calls reuse the same replicas.
  ///
  /// Two passes over the nets it runs (the master without a pool, else
  /// one leased replica per worker):
  ///  1. embed: the dataset's distinct pin images (`QueryDataset::images`)
  ///     go through `AttackNet::embed` once each, in contiguous 64-pin
  ///     chunks dealt round-robin over the nets, into one arena-backed
  ///     embedding table (the first net's `embedding_table`). Vector-only
  ///     nets skip this pass.
  ///  2. score: the queries split into contiguous chunks, one per net, and
  ///     each chunk runs `AttackNet::score` over `batch_width` consecutive
  ///     queries at a time, every candidate reading its source and sink
  ///     embeddings from the table by row.
  /// Counters `attack.images_embedded` and `attack.image_lookups` (the
  /// n + 1 images per query a per-query pass would embed) and spans
  /// `attack.embed` / `attack.score` record the passes. Partitions depend
  /// only on the query count, the pin count, the thread count and the
  /// width, and the width is purely a performance knob: selections and
  /// CCR are byte-identical to Eq. 2 over each query's one-query
  /// `forward`, at every width and thread count (tests/test_attacks.cpp,
  /// tests/test_serve.cpp, bench_serve).
  AttackResult attack(const QueryDataset& dataset,
                      runtime::ThreadPool* pool = nullptr,
                      int batch_width = 1);

  /// The pinned inference replica set — the serving loop (src/serve/)
  /// leases its per-batch replicas from it directly.
  ReplicaSet& replicas() { return *replicas_; }

  /// Aggregate activation-arena stats over the pinned inference replicas
  /// (each replica owns one arena for its lifetime; repeated attack()
  /// calls over already-seen query shapes add zero allocations).
  nn::ArenaStats inference_arena_stats() const {
    return replicas_->arena_stats();
  }

  /// Lease-lifecycle stats of the pinned replica set (leases, clones,
  /// acquisition wait, occupancy) — the serving section of obs::RunReport.
  /// Pinning means `clones_created` stops growing once the set covers the
  /// widest concurrent demand.
  ReplicaSet::LeaseStats replica_lease_stats() const {
    return replicas_->lease_stats();
  }

 private:
  nn::AttackNet net_;
  /// Pinned inference replicas (heap-allocated so DlAttack stays movable;
  /// replicas reference net_'s layer objects, which have stable
  /// addresses even when the DlAttack moves).
  std::unique_ptr<ReplicaSet> replicas_;
};

}  // namespace sma::attack
