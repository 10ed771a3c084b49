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
// fc5_img, the merged trunk, fc6 and fc7. Inference is those two calls:
// `attack::DlAttack::attack` embeds each distinct virtual-pin image of a
// dataset once and scores every query against that table, and
// `attack::select_batch` (so the serving loop) embeds an assembled
// batch's planes and scores its rows against them. `forward(QueryInput)`
// is the one-query training pass that `backward` unwinds: the vector
// branch, the trunk over the query's n + 1 images, then the head.
//
// A query is one sink fragment's n candidate VPPs, exactly as in the
// paper's batch definition. `embed` and `score` may run many queries'
// images and rows in ONE wide pass and stay byte-identical per row to a
// one-query `forward`: the GEMM contract (nn/gemm.hpp) fixes each output
// element's accumulation chain independently of how many other rows
// share the panel, and every non-GEMM stage (pool, activations, the
// fusion seams) is row- or image-local. So an image's embedding row
// depends on that image alone and a candidate's score on that
// candidate's inputs alone, and embedding a pin once and reading its row
// from many queries gives the bytes of embedding it once per query.
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
#include <string>
#include <vector>

#include "nn/arena.hpp"
#include "nn/layers.hpp"
#include "nn/tensor.hpp"
#include "util/durable_io.hpp"

namespace sma::nn {

/// A model stream failed validation at load: bad magic, a header field
/// outside its sane range (hostile or garbage input must never reach
/// tensor allocation as a bad_alloc), a shape mismatch, or truncation.
/// Every load failure throws this type, including the codec's
/// util::FrameError. Derives std::runtime_error.
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

/// Network input for a batch of queries, in slot order, as
/// attack::assemble_batch gathers it. A batch of one is `forward`'s
/// training input.
struct QueryInput {
  /// [rows, vector_dim]: every query's candidate rows, concatenated.
  Tensor vec;
  /// [planes, channels, size, size]: the images the candidate rows read.
  /// Empty when the net runs vector-only.
  Tensor images;
  /// Per candidate row, the `images` plane of its source pin and of its
  /// query's sink pin: `score`'s last two arguments. Empty when `images`
  /// is.
  std::vector<int> source_rows;
  std::vector<int> sink_rows;
};

/// The model file's 64-byte header: magic "SMA1", the NetConfig fields in
/// declaration order as i32 (flags 0 or 1), then the u64 seed. The one
/// list of NetConfig's fields: the training-checkpoint and work-unit
/// digests hash these bytes.
std::string encode_net_config(const NetConfig& config);

/// The length of the weight section a net of `config` saves.
std::uint64_t weight_section_bytes(const NetConfig& config);

/// The weight section model files and checkpoint weight blobs share: per
/// parameter, in order, a u64 float count and then the raw floats.
void write_param_values(util::ByteWriter& out,
                        const std::vector<Param>& params);

/// Reads a write_param_values section that must be the rest of `in`;
/// throws util::FrameError, leaving `params` unchanged, on any mismatch.
void read_param_values(util::ByteReader& in, std::vector<Param>& params);

class AttackNet {
 public:
  explicit AttackNet(const NetConfig& config);

  const NetConfig& config() const { return config_; }

  /// The one-query training pass that `backward` unwinds: `input.vec`
  /// holds one query's n > 0 candidate rows and, for an image net,
  /// `input.images` its n + 1 images, candidate j's source at plane j and
  /// the sink at plane n (assemble_batch's batch of one; the row vectors
  /// are not read). Any other shape, such as an assembled batch of two
  /// image queries, throws std::invalid_argument. The [n] (or [n, 2])
  /// scores are the bytes `embed` + `score` give the same input. The
  /// returned reference points into this net's arena: it stays valid (and
  /// unchanged) until the next forward or score call on this same net.
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
  /// Only valid right after `forward`: bare `embed`/`score` calls are
  /// inference-only (training keeps the paper's per-query batch
  /// definition), so calling this after one throws std::logic_error.
  void backward(const Tensor& dscores);

  /// This network's activation arena (stats: bytes pinned, allocations).
  /// Every net — master, gradient lane, pinned inference replica — owns
  /// exactly one arena for its lifetime; after a warm-up query at the
  /// largest shape, `arena().stats().allocs` stops growing: the
  /// forward/backward hot path performs zero heap allocations per query.
  const Arena& arena() const { return *arena_; }

  std::vector<Param> params();
  std::size_t num_parameters();

  /// Binary serialization on util's ByteWriter/ByteReader codec, with no
  /// durable_io frame: the header (encode_net_config), then the weight
  /// section (write_param_values). `save` verifies stream health after
  /// writing and throws std::runtime_error on any failure — a silent
  /// partial write would leave a truncated model file that only fails
  /// (confusingly) at load time. `load` range-checks every header field,
  /// then reads the whole weight section (weight_section_bytes) *before*
  /// constructing any layer, from any stream, so a truncated or hostile
  /// stream throws ModelLoadError instead of exhausting memory.
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

  // forward's fusion rows: j for candidate j, n for the sink.
  std::vector<int> source_rows_;
  std::vector<int> sink_rows_;

  // Cached candidate-row count for backward.
  int n_ = 0;
  // Set only by forward, whose seam layout is the one backward models;
  // embed and score clear it, and backward refuses.
  bool trainable_ = false;
};

}  // namespace sma::nn
