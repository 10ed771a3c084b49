#include "attack/dl_attack.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "attack/checkpoint.hpp"
#include "nn/train_step.hpp"
#include "obs/obs.hpp"
#include "runtime/parallel.hpp"
#include "util/durable_io.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace sma::attack {

namespace {

/// Pins per chunk of attack()'s embed pass: wide enough to fill the conv
/// GEMMs' register panels, narrow enough that a dataset's few hundred
/// pins spread over the leased replicas.
constexpr int kEmbedChunk = 64;

/// Scores per candidate row: 2 for the two-class head, else 1.
int score_cols(const nn::Tensor& scores) {
  return scores.shape().size() == 2 && scores.dim(1) == 2 ? 2 : 1;
}

/// Eq. 2 for one query: the candidate with the best of its score rows at
/// `scores` (`cols` per row); the no-op choice when it has none.
Selection select_query(const split::SinkQuery& query, const float* scores,
                       int cols) {
  Selection out;
  out.sink_fragment = query.sink_fragment;
  out.num_sinks = query.num_sinks;
  if (!query.candidates.empty()) {
    const int predicted = nn::predict(
        scores, static_cast<int>(query.candidates.size()), cols);
    out.chosen_source = query.candidates[predicted].source_fragment;
    out.correct = query.candidates[predicted].positive;
  }
  return out;
}

}  // namespace

void select_batch(nn::AttackNet& net, const QueryRef* refs, std::size_t count,
                  nn::QueryInput& input, Selection* out) {
  std::size_t live_rows = 0;
  for (std::size_t k = 0; k < count; ++k) {
    live_rows += refs[k].dataset->query(refs[k].query).candidates.size();
  }
  const float* s = nullptr;
  int cols = 1;
  if (live_rows > 0) {
    assemble_batch(refs, count, input);
    // One embed over the batch's planes, one score against them, as
    // attack() scores against its table.
    const nn::Tensor* embeddings = nullptr;
    if (net.config().use_images) {
      if (input.images.empty()) {
        throw std::invalid_argument(
            "select_batch: an image net needs datasets built with images");
      }
      embeddings = &net.embed(input.images, 0, input.images.dim(0));
    }
    // Scores live in the net's activation arena — read in place.
    const nn::Tensor& scores = net.score(input.vec, embeddings,
                                         input.source_rows.data(),
                                         input.sink_rows.data());
    s = scores.data();
    cols = score_cols(scores);
  }
  std::size_t row = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const split::SinkQuery& query = refs[k].dataset->query(refs[k].query);
    out[k] = select_query(query, s + row * cols, cols);
    row += query.candidates.size();
  }
}

std::string encode_train_schedule(const TrainConfig& config) {
  const nn::AdamConfig& adam = config.adam;
  util::ByteWriter out;
  for (double v : {adam.lr, adam.beta1, adam.beta2, adam.eps, adam.decay}) {
    out.f64(v);
  }
  for (int v : {config.decay_every, config.max_queries_per_design,
                config.batch_size}) {
    out.u32(static_cast<std::uint32_t>(v));
  }
  out.u64(config.seed);
  return out.take();
}

DlAttack::DlAttack(const nn::NetConfig& net_config)
    : net_(net_config), replicas_(std::make_unique<ReplicaSet>()) {}

DlAttack::DlAttack(nn::AttackNet net)
    : net_(std::move(net)), replicas_(std::make_unique<ReplicaSet>()) {}

TrainStats DlAttack::train(const std::vector<QueryDataset>& training,
                           const std::vector<QueryDataset>& validation,
                           const TrainConfig& config,
                           runtime::ThreadPool* pool) {
  if (config.batch_size < 1) {
    // batch_size feeds the checkpoint and work-unit digests as written;
    // clamping it would train one configuration under another's digest.
    throw std::invalid_argument("DlAttack::train: batch_size must be >= 1");
  }
  SMA_TRACE_SPAN_V("train", "train", config.epochs);
  util::Timer timer;
  TrainStats stats;
  util::Pcg32 rng(config.seed, 0x7a13);

  nn::TrainStep engine(net_.params(), config.adam);
  const bool two_class = net_.config().two_class;
  const int lanes = config.batch_size;

  // Index all trainable queries (those whose candidate list contains the
  // positive VPP — Eq. 6 needs a labelled target).
  std::vector<std::vector<QueryRef>> per_design(training.size());
  for (std::size_t d = 0; d < training.size(); ++d) {
    for (std::size_t q = 0; q < training[d].num_queries(); ++q) {
      if (training[d].target(q) >= 0 &&
          !training[d].query(q).candidates.empty()) {
        per_design[d].push_back({&training[d], q});
      }
    }
  }

  // Per-epoch sample: subsample each design's queries, then shuffle the
  // combined order so designs interleave. Factored out because resume
  // replays it (below): the shuffles both mutate `per_design` cumulatively
  // and advance `rng`, so a resumed run must re-derive the completed
  // epochs' sampling to put both back in the exact mid-run state.
  const auto build_epoch_order = [&]() {
    std::vector<QueryRef> order;
    for (auto& refs : per_design) {
      util::shuffle(refs, rng);
      std::size_t take = config.max_queries_per_design > 0
                             ? std::min<std::size_t>(
                                   refs.size(),
                                   static_cast<std::size_t>(
                                       config.max_queries_per_design))
                             : refs.size();
      order.insert(order.end(), refs.begin(), refs.begin() + take);
    }
    util::shuffle(order, rng);
    return order;
  };

  // Master parameters, captured once: the checkpoint target and (on
  // resume) the restore target. Restoring IN PLACE into these tensors —
  // before any lane replica exists — means the shared-weight lane
  // replicas read the restored weights by construction.
  std::vector<nn::Param> ckpt_params = net_.params();
  const bool checkpointing =
      config.checkpoint_every > 0 && !config.checkpoint_path.empty();
  std::uint64_t ckpt_digest = 0;
  int start_epoch = 0;
  if (checkpointing) {
    // Fingerprint of everything that shapes the training stream: the
    // Adam schedule, the sampling/batching hyperparameters, the seed,
    // the network configuration (initial weights included, via its
    // seed), the dataset shape, and the model's parameter sizes. A
    // checkpoint whose digest differs resumes nothing.
    util::ContentHash h;
    h.add("sma-train-checkpoint-v1");
    h.add(encode_train_schedule(config));
    h.add(nn::encode_net_config(net_.config()));
    h.add(per_design.size());
    for (const auto& refs : per_design) h.add(refs.size());
    h.add(ckpt_params.size());
    for (const nn::Param& p : ckpt_params) h.add(p.value->size());
    ckpt_digest = h.digest();

    TrainCheckpoint ckpt;
    if (try_load_checkpoint(config.checkpoint_path, ckpt_digest,
                            config.epochs, ckpt_params, engine.optimizer(),
                            &ckpt)) {
      start_epoch = ckpt.epochs_done;
      stats.epoch_loss = ckpt.epoch_loss;
      stats.validation_ccr = ckpt.validation_ccr;
      stats.queries_seen = ckpt.queries_seen;
      stats.resumed_from_epoch = start_epoch;
      // Keep the per-epoch vectors epoch-indexable on resume.
      stats.arena_allocs_per_epoch.assign(
          static_cast<std::size_t>(start_epoch), 0);
      // Replay the completed epochs' sampling (cheap: shuffles only).
      for (int e = 0; e < start_epoch; ++e) build_epoch_order();
      // The replay reproduces the checkpointed RNG state exactly;
      // restoring is belt-and-braces against future drift.
      rng.restore_state(ckpt.rng);
      util::log_info() << "resuming training from checkpoint "
                       << config.checkpoint_path << " at epoch "
                       << start_epoch;
    }
  }

  // Training nets. The lane count is fixed by the config — never by the
  // pool — so every reduction below is thread-count-invariant, and the
  // lane structure runs even without a pool: accumulating a batch
  // directly on the master net would associate the per-parameter float
  // additions differently (backward's internal adds interleave with the
  // cross-query sum), so only identical lane bookkeeping keeps serial and
  // pooled models bit-identical. Two loops:
  //  - Serial (no pool, or batch_size == 1): ONE worker runs the queries
  //    of a batch in sequence. At batch_size == 1 the worker is the
  //    master itself — the paper's per-query SGD, backward accumulating
  //    straight into the master gradients. Otherwise it is one pinned
  //    shared-weight replica whose (still cache-hot) gradients accumulate
  //    onto the master after each query, in query order — the same
  //    ascending-order adds the pooled reduce performs — so the per-step
  //    working set is one replica's gradients, im2col buffers and masks
  //    rather than `lanes` replicas' worth.
  //  - Pooled: one shared-weight replica per lane runs concurrently, and
  //    each step is one fused reduce+Adam pass (nn/train_step.hpp). Lanes
  //    read the master's weight tensors, so Adam updates reach every lane
  //    with no broadcast.
  const bool serial = pool == nullptr || lanes == 1;
  const int replicas = lanes == 1 ? 0 : (serial ? 1 : lanes);
  std::vector<nn::AttackNet> lane_nets;
  lane_nets.reserve(replicas);
  for (int l = 0; l < replicas; ++l) lane_nets.push_back(net_.clone_shared());
  std::vector<std::vector<nn::Param>> lane_params;
  for (nn::AttackNet& lane : lane_nets) lane_params.push_back(lane.params());
  // The nets that run training queries: the lane replicas, or the master.
  std::vector<nn::AttackNet*> workers;
  if (lane_nets.empty()) workers.push_back(&net_);
  for (nn::AttackNet& lane : lane_nets) workers.push_back(&lane);
  if (!serial) engine.attach_lanes(lane_params);

  // Reusable input-assembly buffers, one per worker. assemble_batch
  // resizes them in place, so steady-state epochs assemble every query
  // without heap traffic. Each buffer is only ever touched by its own
  // worker's task — race-free under the pool.
  std::vector<nn::QueryInput> lane_inputs(workers.size());

  // Activation-arena accounting: every net owns one arena for its
  // lifetime (master + each lane replica). Epoch deltas expose the
  // warm-up/steady-state split: the explicit warm-up below lands in the
  // first epoch's delta, and every later delta must be 0 — bench_train
  // and CI gate on it. (Validation replicas have their own arenas; see
  // inference_arena_stats().)
  const auto arena_allocs = [&]() {
    long total = net_.arena().stats().allocs;
    for (const nn::AttackNet& lane : lane_nets) {
      total += lane.arena().stats().allocs;
    }
    return total;
  };
  long prev_allocs = arena_allocs();

  // Arena warm-up: run every training net once over the globally largest
  // trainable query (forward + a zero-gradient backward), then discard
  // the still-zero gradients. Every activation/staging buffer is thereby
  // grown to its high-water size up front, so ALL epochs run alloc-free —
  // without this, a pooled lane would only warm to the shapes its own
  // shuffle slots happen to draw, and every reshuffle (or a subsampled
  // epoch introducing a larger query late) could grow an arena mid-run.
  // Model bytes are untouched: forward mutates no weights, backward with
  // a zero upstream gradient adds exact zeros to zero gradients, and the
  // explicit re-zeroing pins the bytes regardless.
  {
    const QueryRef* largest = nullptr;
    int most_candidates = 0;
    for (const auto& refs : per_design) {
      for (const QueryRef& ref : refs) {
        const int n = ref.dataset->batch_rows(ref.query);
        if (n > most_candidates) {
          most_candidates = n;
          largest = &ref;
        }
      }
    }
    if (largest != nullptr) {
      // Each worker's input-assembly buffer warms along with its net.
      for (std::size_t w = 0; w < workers.size(); ++w) {
        nn::AttackNet& net = *workers[w];
        assemble_batch(largest, 1, lane_inputs[w]);
        const nn::Tensor& scores = net.forward(lane_inputs[w]);
        nn::Tensor zero_grad(scores.shape());
        net.backward(zero_grad);
        for (const nn::Param& p : net.params()) p.grad->fill(0.0f);
      }
    }
  }

  // Forward + loss + backward of one training query on `net`; returns the
  // loss. The gradients accumulate into `net`'s parameter gradients.
  const auto train_query = [two_class](nn::AttackNet& net,
                                       nn::QueryInput& input,
                                       const QueryRef& ref) {
    assemble_batch(&ref, 1, input);
    const nn::Tensor& scores = net.forward(input);
    const int target = ref.dataset->target(ref.query);
    const nn::LossResult loss =
        two_class ? nn::two_class_loss(scores, target)
                  : nn::softmax_regression_loss(scores, target);
    net.backward(loss.grad);
    return loss.loss;
  };
  std::vector<double> lane_loss(workers.size(), 0.0);

  for (int epoch = start_epoch; epoch < config.epochs; ++epoch) {
    SMA_TRACE_SPAN_V("train", "epoch", epoch);
    SMA_COUNT("train.epochs");
    // On resume the decays of epochs < start_epoch are already baked into
    // the deserialized optimizer's learning rate — this condition only
    // fires for the epochs this call actually runs.
    if (epoch > 0 && config.decay_every > 0 &&
        epoch % config.decay_every == 0) {
      engine.decay_lr();
    }

    std::vector<QueryRef> order = build_epoch_order();

    double epoch_loss = 0.0;
    for (std::size_t base = 0; base < order.size();
         base += static_cast<std::size_t>(lanes)) {
      const int active = static_cast<int>(
          std::min<std::size_t>(lanes, order.size() - base));
      if (serial) {
        nn::AttackNet& worker = *workers[0];
        for (int l = 0; l < active; ++l) {
          epoch_loss += train_query(worker, lane_inputs[0],
                                    order[base + static_cast<std::size_t>(l)]);
          // A replica worker hands its gradients to the master per query;
          // the master as worker already accumulated them in place.
          if (!lane_nets.empty()) engine.accumulate(lane_params[0]);
        }
        engine.optimizer().step(nullptr);
      } else {
        // Forward/backward one query per lane, concurrently.
        runtime::TaskGroup group(pool);
        for (int l = 0; l < active; ++l) {
          group.run([l, base, &train_query, &workers, &lane_inputs, &order,
                     &lane_loss] {
            const QueryRef& ref = order[base + static_cast<std::size_t>(l)];
            lane_loss[l] = train_query(*workers[l], lane_inputs[l], ref);
          });
        }
        group.wait();
        engine.step(active, pool);
        for (int l = 0; l < active; ++l) epoch_loss += lane_loss[l];
      }
      stats.queries_seen += active;
    }
    stats.epoch_loss.push_back(
        order.empty() ? 0.0 : epoch_loss / static_cast<double>(order.size()));
    const long allocs_now = arena_allocs();
    stats.arena_allocs_per_epoch.push_back(allocs_now - prev_allocs);
    prev_allocs = allocs_now;

    if (config.validate_every > 0 && !validation.empty() &&
        (epoch + 1) % config.validate_every == 0) {
      long total = 0;
      long correct = 0;
      for (const QueryDataset& dataset : validation) {
        AttackResult result = attack(dataset, pool);
        for (const Selection& s : result.selections) {
          total += s.num_sinks;
          if (s.correct) correct += s.num_sinks;
        }
      }
      stats.validation_ccr.push_back(
          total > 0 ? static_cast<double>(correct) / total : 0.0);
      util::log_info() << "epoch " << epoch + 1 << ": loss "
                       << stats.epoch_loss.back() << ", val CCR "
                       << stats.validation_ccr.back();
    } else {
      util::log_debug() << "epoch " << epoch + 1 << ": loss "
                        << stats.epoch_loss.back();
    }

    if (checkpointing && (epoch + 1) % config.checkpoint_every == 0) {
      TrainCheckpoint ckpt;
      ckpt.compat_digest = ckpt_digest;
      ckpt.epochs_done = epoch + 1;
      ckpt.queries_seen = stats.queries_seen;
      ckpt.epoch_loss = stats.epoch_loss;
      ckpt.validation_ccr = stats.validation_ccr;
      ckpt.rng = rng.save_state();
      ckpt.model_blob = encode_params(ckpt_params);
      ckpt.adam_blob = engine.optimizer().serialize();
      // Best effort: a failing disk must not kill the run.
      save_checkpoint(config.checkpoint_path, ckpt);
    }
  }
  stats.arena_bytes_pinned = net_.arena().stats().bytes_pinned;
  for (const nn::AttackNet& lane : lane_nets) {
    stats.arena_bytes_pinned += lane.arena().stats().bytes_pinned;
  }
  stats.seconds = timer.seconds();
  return stats;
}

AttackResult DlAttack::attack(const QueryDataset& dataset,
                              runtime::ThreadPool* pool, int batch_width) {
  SMA_TRACE_SPAN_V("attack", "attack", dataset.num_queries());
  SMA_COUNT("attack.calls");
  if (batch_width < 1) {
    throw std::invalid_argument("DlAttack::attack: batch_width must be >= 1");
  }
  util::Timer timer;
  AttackResult result;
  const bool use_images = net_.config().use_images;
  result.attack_name = use_images ? "dl(vec+img)" : "dl(vec)";
  const std::size_t n = dataset.num_queries();
  const std::size_t bw = static_cast<std::size_t>(batch_width);
  result.selections.assign(n, Selection{});
  const int pins = use_images ? static_cast<int>(dataset.cached_images()) : 0;
  if (use_images && pins == 0 && dataset.first_row(n) > 0) {
    throw std::invalid_argument(
        "DlAttack::attack: an image net needs a dataset built with images");
  }
  const int h = net_.config().hidden;

  // Queries split into contiguous chunks, one per net: the master alone
  // without a pool, else one pinned shared-weight replica per worker. The
  // chunk count follows from the chunk size, so no chunk is empty (5
  // queries over 4 workers make three chunks of 2, 2 and 1, not a fourth
  // with nothing to do). Every partition below depends only on n, the
  // thread count, the pin count and bw — never on scheduling — and every
  // embedding row and score row is width-invariant anyway (nn/attack_net.hpp),
  // so any partition gives the same bytes.
  const std::size_t workers =
      pool == nullptr ? 1
                      : std::min<std::size_t>(
                            n, static_cast<std::size_t>(pool->num_threads()) +
                                   1);
  const std::size_t chunk = n == 0 ? 0 : (n + workers - 1) / workers;
  const std::size_t num_chunks = n == 0 ? 0 : (n + chunk - 1) / chunk;

  const auto run = [&](const std::vector<nn::AttackNet*>& nets) {
    // `body(t)` for t in [0, tasks), task t on nets[t]; inline when one.
    const auto for_each_net = [&nets, pool](std::size_t tasks,
                                            const auto& body) {
      if (tasks == 1) {
        body(0);
        return;
      }
      runtime::TaskGroup group(pool);
      for (std::size_t t = 0; t < tasks; ++t) {
        group.run([t, &body] { body(t); });
      }
      group.wait();
    };

    // 1. Embed each distinct pin once, in kEmbedChunk-wide contiguous
    // chunks dealt round-robin over the nets, into nets[0]'s table (the
    // rows of different chunks are disjoint, so the writes never meet).
    const nn::Tensor* table = nullptr;
    if (pins > 0) {
      SMA_TRACE_SPAN_V("attack", "embed", pins);
      SMA_COUNT_N("attack.images_embedded", pins);
      nn::Tensor& embeddings = nets[0]->embedding_table(pins);
      const int embed_chunks = (pins + kEmbedChunk - 1) / kEmbedChunk;
      const std::size_t tasks = std::min<std::size_t>(
          nets.size(), static_cast<std::size_t>(embed_chunks));
      for_each_net(tasks, [&](std::size_t t) {
        for (int c = static_cast<int>(t); c < embed_chunks;
             c += static_cast<int>(tasks)) {
          const int lo = c * kEmbedChunk;
          const int hi = std::min(pins, lo + kEmbedChunk);
          const nn::Tensor& chunk_rows =
              nets[t]->embed(dataset.images(), lo, hi);
          std::memcpy(embeddings.data() + static_cast<std::size_t>(lo) * h,
                      chunk_rows.data(), sizeof(float) * chunk_rows.size());
        }
      });
      table = &embeddings;
    }

    // 2. Score each net's chunk of queries, bw at a time, against the
    // table. A batch of consecutive queries owns one contiguous range of
    // candidate rows, so its inputs are slices of the dataset's arrays.
    SMA_TRACE_SPAN_V("attack", "score", n);
    for_each_net(nets.size(), [&](std::size_t t) {
      nn::AttackNet& net = *nets[t];
      const std::size_t lo = t * chunk;
      const std::size_t hi = std::min(n, lo + chunk);
      constexpr std::size_t kVec = features::kNumVectorFeatures;
      nn::Tensor vec;  // reused across the chunk's batches
      for (std::size_t base = lo; base < hi; base += bw) {
        const std::size_t count = std::min(bw, hi - base);
        const int first = dataset.first_row(base);
        const int rows = dataset.first_row(base + count) - first;
        const float* s = nullptr;
        int cols = 1;
        if (rows > 0) {
          vec.resize_reuse({rows, features::kNumVectorFeatures});
          std::memcpy(vec.data(),
                      dataset.vector_rows().data() +
                          static_cast<std::size_t>(first) * kVec,
                      sizeof(float) * static_cast<std::size_t>(rows) * kVec);
          const nn::Tensor& scores =
              table == nullptr
                  ? net.score(vec, nullptr, nullptr, nullptr)
                  : net.score(vec, table, dataset.source_rows().data() + first,
                              dataset.sink_rows().data() + first);
          s = scores.data();
          cols = score_cols(scores);
        }
        for (std::size_t q = base; q < base + count; ++q) {
          const int row = dataset.first_row(q) - first;
          result.selections[q] =
              select_query(dataset.query(q), s + row * cols, cols);
        }
      }
    });
  };

  if (pins > 0) {
    // The lookups a per-query pass would embed: n_q + 1 per live query.
    std::size_t lookups = 0;
    for (std::size_t q = 0; q < n; ++q) {
      const std::size_t nq = dataset.query(q).candidates.size();
      if (nq > 0) lookups += nq + 1;
    }
    SMA_COUNT_N("attack.image_lookups", lookups);
  }
  if (pool == nullptr) {
    run({&net_});
  } else if (num_chunks > 0) {
    // Workers run pinned shared-weight replicas leased from the
    // ReplicaSet — no per-call clone, no weight copies — and concurrent
    // attack() calls (e.g. parallel per-design evaluation) lease disjoint
    // replicas, so they stay race-free.
    ReplicaLease lease = replicas_->lease(num_chunks, net_);
    run(lease.nets());
  }
  result.ccr = compute_ccr(result.selections);
  result.seconds = timer.seconds();
  return result;
}

}  // namespace sma::attack
