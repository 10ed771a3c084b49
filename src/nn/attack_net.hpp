// The paper's neural network (Fig. 4 / Table 2).
//
// Two input branches are fused: a vector branch (fc1 + four FC-ResNet
// blocks over 27 per-VPP features) and an image branch (a 12-layer conv
// trunk with weight sharing across the n source images and the sink
// image, global average pooling, two FC layers, and a sink/source fusion
// FC). The merged trunk (one FC, three FC-ResNet blocks, fc6, fc7) emits
// one score per candidate VPP — or two scores per candidate when
// configured as the two-class ablation baseline.
//
// The forward pass is two parts. `embed` runs the image trunk (conv
// trunk → GlobalAvgPool → fc3 → fc4) and gives one embedding row per
// image. `score` is the head: the vector branch, the sink/source fusion
// (each candidate row reads its source and sink embeddings by row index),
// fc5_img, the merged trunk, fc6 and fc7. `forward(QueryInput)` is
// exactly embed + score over one stacked input; training, `backward` and
// the serving path run it. `attack::DlAttack::attack` calls the two parts
// itself: it embeds each distinct virtual-pin image of a dataset once
// and scores every query against that table.
//
// A query is one sink fragment's n candidate VPPs, exactly as in the
// paper's batch definition. One forward call runs a batch of B stacked
// queries in ONE wide pass — every GEMM sees sum(n_q) rows instead of one
// query's n — and is byte-identical per query to B separate batch-1
// passes: the GEMM contract (nn/gemm.hpp) fixes each output element's
// accumulation chain independently of how many other rows share the
// panel, and every non-GEMM stage (pool, activations, the fusion seams)
// is row- or image-local. The same contract makes an image's embedding
// row independent of the other images in its `embed` call, and a
// candidate's score independent of the other rows in its `score` call,
// so embedding a pin once and reading its row from many queries gives
// the bytes of embedding it once per query. Batch-1 is simply a batch of
// one; training runs batches of one, inference any width.
//
// Activation-layout contract: the image branch binds ONE layout across
// the conv trunk — the dataset input and the GlobalAvgPool output are
// the only row-major seams, and everything between them travels in the
// conv pipeline's native layout (channel-major; each tensor's Layout tag
// is authoritative). The vector branch, the fusion/merge
// slots, and the fc head are row-major throughout. See nn/layers.hpp for
// the per-layer contract and nn/tensor.hpp for the tag semantics.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <vector>

#include "nn/arena.hpp"
#include "nn/layers.hpp"
#include "nn/tensor.hpp"

namespace sma::nn {

/// A model stream failed validation at load: bad magic, a header field
/// outside its sane range (hostile or garbage input must never reach
/// tensor allocation as a bad_alloc), a shape mismatch, or truncation.
/// Derives std::runtime_error, so pre-existing catch sites keep working.
class ModelLoadError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct NetConfig {
  int vector_dim = 27;
  int hidden = 128;            ///< width of the FC trunks
  int vector_res_blocks = 4;   ///< paper: fc2 [128x128]x12
  int merged_res_blocks = 3;   ///< paper: fc2 [128x128]x9
  bool use_images = true;
  int image_channels = 3;      ///< one gray channel per scale
  std::array<int, 4> conv_channels = {16, 32, 64, 128};
  int image_fc = 256;          ///< fc3 width
  int fc6_width = 32;
  bool two_class = false;      ///< ablation head (Eq. 3) instead of Eq. 6
  std::uint64_t seed = 42;

  /// The exact Table-2 configuration.
  static NetConfig paper();
  /// Reduced conv widths for single-core CPU training; same topology.
  static NetConfig fast();
};

/// A batch of queries stacked for one forward pass, in slot order. A
/// query with `query_rows[q] == 0` (empty candidate list) contributes no
/// vector rows and no image planes — callers answer it without the net.
struct QueryInput {
  /// [sum n_q, vector_dim]: every query's candidate rows, concatenated.
  Tensor vec;
  /// [sum over n_q>0 of (n_q + 1), channels, size, size]: per query, its
  /// n_q source-pin images then its sink-pin image. Left empty when the
  /// net runs vector-only.
  Tensor images;
  /// Candidate count n_q per query, in slot order. Empty means one query
  /// over all of `vec`'s rows (so a hand-built [n] + [n + 1] input needs
  /// no bookkeeping).
  std::vector<int> query_rows;
};

class AttackNet {
 public:
  explicit AttackNet(const NetConfig& config);

  const NetConfig& config() const { return config_; }

  /// Scores [sum n_q] (or [sum n_q, 2] in two-class mode), query q's
  /// scores at rows [offset_q, offset_q + n_q) where offset_q sums the
  /// preceding slots' rows — byte-identical per query to a batch of one
  /// (see the file header). Exactly `embed` over the stacked images, then
  /// `score` with query q's candidates reading its source rows and its
  /// sink row. At least one query must have candidates (all-empty batches
  /// never reach the net). Reuses this net's arena: slots grow to the
  /// largest batch seen and later batches run alloc-free. The returned
  /// reference points into that arena: it stays valid (and unchanged)
  /// until the next forward or score call on this same net.
  /// Callers that need the scores longer must copy.
  const Tensor& forward(const QueryInput& input);

  /// The image trunk over images [lo, hi) of `images` ([k, channels,
  /// size, size], row-major): [hi - lo, hidden], row i the embedding of
  /// image lo + i, whose bytes depend on that image alone. The whole
  /// tensor is read in place; a strict sub-range is first copied into
  /// this net's arena. Image nets only. The result is arena-backed: valid
  /// until the next embed or forward call on this net.
  const Tensor& embed(const Tensor& images, int lo, int hi);

  /// The scoring head over `vec`'s candidate rows ([rows, vector_dim],
  /// rows > 0): candidate r fuses embedding rows `source_rows[r]` and
  /// `sink_rows[r]` of `embeddings` ([*, hidden], an `embed` result or a
  /// table filled from them). Vector-only nets ignore the last three
  /// arguments, which may then be null. Returns [rows] (or [rows, 2])
  /// scores, row r's bytes depending on row r's inputs alone; arena-backed
  /// like `forward`'s.
  const Tensor& score(const Tensor& vec, const Tensor* embeddings,
                      const int* source_rows, const int* sink_rows);

  /// An arena-backed [rows, hidden] table for embeddings that must
  /// outlive one `embed` call (DlAttack::attack fills one leased
  /// replica's table from every replica's embed calls, then scores
  /// against it). Contents are unspecified until written; the table is
  /// left alone by every other call on this net.
  Tensor& embedding_table(int rows);

  /// Backpropagate d(loss)/d(scores); accumulates parameter gradients.
  /// Only valid right after a one-query `forward`: wider batches and bare
  /// `embed`/`score` calls are inference-only (training keeps the paper's
  /// per-query batch definition), so calling this after one throws
  /// std::logic_error.
  void backward(const Tensor& dscores);

  /// This network's activation arena (stats: bytes pinned, allocations).
  /// Every net — master, gradient lane, pinned inference replica — owns
  /// exactly one arena for its lifetime; after a warm-up query at the
  /// largest shape, `arena().stats().allocs` stops growing: the
  /// forward/backward hot path performs zero heap allocations per query.
  const Arena& arena() const { return *arena_; }

  std::vector<Param> params();
  std::size_t num_parameters();

  /// Binary serialization (config + weights). `save` verifies stream
  /// health after writing and throws std::runtime_error on any failure —
  /// a silent partial write would leave a truncated model file that only
  /// fails (confusingly) at load time. `load` validates every header
  /// field against sane bounds (and, on seekable streams, tensor sizes
  /// against the bytes actually remaining) *before* allocating, so a
  /// truncated or hostile stream throws ModelLoadError instead of
  /// exhausting memory or materializing garbage tensors.
  void save(std::ostream& out);
  static AttackNet load(std::istream& in);

  /// A replica whose layers *read this net's weight tensors* instead of
  /// owning copies (gradients and activation caches stay private, private
  /// weight storage is freed). A fleet of shared replicas carries one
  /// weight copy total: gradient lanes see Adam updates without any
  /// broadcast, and pinned inference replicas (attack/replica_set.hpp)
  /// track the master with zero synchronization. Constraints: this master
  /// must outlive the replica (moving the master is safe — layer objects
  /// live behind stable heap storage), its weights must not be mutated
  /// while a replica is mid-forward/backward, and a shared replica's
  /// `params()`/`save()` see empty value tensors — it is never the
  /// optimizer's target and never serialized.
  AttackNet clone_shared();

 private:
  /// fc1 and the vector ResBlocks: [rows, hidden].
  const Tensor& vector_branch(const Tensor& vec);
  /// Everything after the vector branch `v`: the sink/source fusion,
  /// fc5_img, the merge, the merged trunk, fc6 and fc7 (arguments as for
  /// `score`, already validated).
  const Tensor& head(const Tensor& v, const Tensor* embeddings,
                     const int* source_rows, const int* sink_rows);

  NetConfig config_;

  /// Per-network activation arena (heap-allocated so the net stays
  /// movable: layers cache the arena's address). Owns every layer's
  /// output/staging slot plus the branch-fusion slots below.
  std::unique_ptr<Arena> arena_;

  // Vector branch. All hidden layers fuse their LeakyReLU into the GEMM
  // epilogue (Act::kLeakyReLU); only fc7 emits raw scores.
  std::unique_ptr<Linear> fc1_;
  std::vector<ResBlock> vec_blocks_;

  // Image branch (shared trunk).
  std::vector<Conv2d> convs_;
  GlobalAvgPool pool_;
  std::unique_ptr<Linear> fc3_;
  std::unique_ptr<Linear> fc4_;
  std::unique_ptr<Linear> fc5_img_;

  // Merged trunk.
  std::unique_ptr<Linear> fc5_merged_;
  std::vector<ResBlock> merged_blocks_;
  std::unique_ptr<Linear> fc6_;
  std::unique_ptr<Linear> fc7_;

  // Arena slots outside the layers. fused and merged_in are fully
  // overwritten by each head pass; embed_in (full) stages an embed
  // sub-range;
  // table is written only by its owner's caller (see embedding_table);
  // dv/dimg are fully overwritten each backward; demb accumulates into
  // its sink row and is acquired zero-filled.
  Arena::Slot fused_slot_ = 0;
  Arena::Slot merged_slot_ = 0;
  Arena::Slot embed_in_slot_ = 0;
  Arena::Slot table_slot_ = 0;
  Arena::Slot dv_slot_ = 0;
  Arena::Slot dimg_slot_ = 0;
  Arena::Slot demb_slot_ = 0;

  // forward's per-candidate embedding rows (capacity kept across calls).
  std::vector<int> source_rows_;
  std::vector<int> sink_rows_;

  // Cached candidate-row count for backward.
  int n_ = 0;
  // Set only by a one-query forward, whose seam layout (source rows
  // 0..n-1, sink row n) is the one backward models; every other pass
  // clears it, and backward refuses.
  bool trainable_ = false;
};

}  // namespace sma::nn
