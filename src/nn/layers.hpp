// Neural-network layers with explicit backpropagation.
//
// Each layer caches what it needs during `forward` and returns the input
// gradient from `backward`, accumulating parameter gradients internally
// (zeroed by the optimizer step). One layer instance handles one position
// in the network; weight sharing (the conv trunk applied to n+1 images) is
// expressed by batching, not by layer reuse.
//
// Linear and Conv2d lower onto the blocked GEMM core (`nn/gemm.hpp`) with
// a fused bias + LeakyReLU epilogue: constructing a layer with
// `Act::kLeakyReLU` folds the activation into the kernel's writeback (the
// backward mask is captured from the pre-activation sign), which removes
// one full tensor copy per layer while producing bit-identical values to
// a separate activation layer.
//
// Batch-width contract: every layer derives its row (or image) count
// from its INPUT's leading dimension — Linear from size()/in, Conv2d and
// GlobalAvgPool from dim(0), ResBlock from its Linears — and the GEMM
// core fixes each output element's accumulation chain independently of
// how many rows share the call (nn/gemm.hpp). Stacking B queries' rows
// into one input therefore IS the batched wide-GEMM path: per-row
// outputs are byte-identical to B separate calls, at any batch width or
// thread count. `AttackNet::embed` and `AttackNet::score` run every
// inference batch on exactly this, and `AttackNet::forward` each
// one-query training pass; no layer carries separate batch-1/batched
// code.
//
// Activation-arena contract: `forward`/`backward` return references to
// tensors owned by the layer's bound `Arena` (nn/arena.hpp) instead of
// freshly constructed values, so the hot path performs zero heap
// allocations per query once warm. A returned reference stays valid and
// stable until the SAME layer's next `forward`/`backward` call; callers
// that need the data longer must copy. Symmetrically, the tensor passed
// to `forward` is cached by POINTER (not copied) for the backward pass:
// it must stay alive and unmodified until the matching `backward`
// returns — trivially true inside a network, where it is another layer's
// arena slot. Linear, Conv2d and ResBlock delete their rvalue `forward`
// overload, so passing a temporary fails to compile. `AttackNet` binds
// every layer to its per-network arena at construction; a layer used
// standalone (tests, benches) lazily binds itself to a thread-local
// fallback arena on first use — such a layer must then keep running on
// the thread that first called it.
// Call-transient staging (conv's per-tile im2col, masked dy^T and
// dcols^T, the GEMM packing panels and the pack paths' tap table) is NOT
// per-network: it lives in a per-thread staging arena (layers.cpp), one
// hot copy per thread no matter how many replicas run.
// Every arena slot below is annotated with its overwrite discipline (the
// no-stale-read audit): `full` slots are completely rewritten by their
// producer each call and acquired with Fill::kNone; `accum` slots feed
// += consumers and are acquired with Fill::kZero.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "nn/arena.hpp"
#include "nn/gemm.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace sma::nn {

/// A learnable tensor and its gradient, as seen by the optimizer.
struct Param {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

/// Optional activation fused into a layer's epilogue.
enum class Act { kNone, kLeakyReLU };

/// The backward mask of a fused LeakyReLU, shared by Linear and Conv2d:
/// out[i] = dy[i] * (mask[i] ? slope : 1.0f) for i in [0, n), one
/// branch-free pass (AVX2 where the host has it). A product with 1.0f is
/// its operand unchanged (zeros, infinities, subnormals and quiet NaNs
/// alike), so this equals `mask ? dy * slope : dy` bit for bit.
void apply_leaky_mask(const float* dy, const std::uint8_t* mask, float slope,
                      std::size_t n, float* out);

/// y = x W^T + b over the last dimension (optionally + LeakyReLU);
/// x: [N, in] -> y: [N, out].
class Linear {
 public:
  Linear(int in, int out, util::Pcg32& rng, std::string name,
         Act act = Act::kNone, float slope = 0.01f);

  /// Attach this layer's activation/staging slots to `arena`. Call once,
  /// before the first forward; the arena must outlive the layer's use.
  void bind_arena(Arena& arena);

  Tensor& forward(const Tensor& x);
  Tensor& forward(const Tensor&& x) = delete;  ///< x is kept until backward
  Tensor& backward(const Tensor& dy);
  void collect_params(std::vector<Param>& out);

  int in_features() const { return in_; }
  int out_features() const { return out_; }

  /// Weight sharing for replicas (see AttackNet::clone_shared): after
  /// this call the layer reads `master`'s weight/bias tensors and frees
  /// its own weight storage. Gradients and activation caches stay
  /// private, so shared-weight replicas may run forward/backward
  /// concurrently as long as nobody mutates the master's weights
  /// meanwhile. `collect_params` keeps reporting the (now empty) private
  /// storage — a shared replica is never the optimizer's target.
  void share_weights_from(const Linear& master);

  /// The tensors forward/backward read: the master's after
  /// `share_weights_from`, this layer's own otherwise.
  const Tensor& weight() const { return shared_w_ ? *shared_w_ : w_; }
  const Tensor& bias() const { return shared_b_ ? *shared_b_ : b_; }

 private:
  void ensure_arena();

  int in_;
  int out_;
  std::string name_;
  Act act_;
  float slope_;
  Tensor w_;   ///< [out, in]
  Tensor b_;   ///< [out]
  const Tensor* shared_w_ = nullptr;  ///< master's weights, when sharing
  const Tensor* shared_b_ = nullptr;
  Tensor dw_;
  Tensor db_;
  // Arena slots. mask (full: the GEMM epilogue writes every element)
  // persists from forward to backward; y/dx/dmasked (all full) are live
  // only until the next call.
  Arena* arena_ = nullptr;
  Arena::Slot y_slot_ = 0;
  Arena::Slot dx_slot_ = 0;
  Arena::Slot dmasked_slot_ = 0;
  Arena::Slot mask_slot_ = 0;
  /// Input of the last forward, held by pointer (see the header comment's
  /// lifetime contract) — inside a network this is another layer's slot.
  const Tensor* x_ = nullptr;
  std::uint8_t* mask_ = nullptr;     ///< pre-activation < 0, when fused
};

/// 3x3 convolution with padding 1 and configurable stride (1 or 3 in the
/// paper's network). x: [N, C, H, W] -> y: [N, out, H', W'] with
/// H' = floor((H + 2 - 3) / stride) + 1. Lowered through im2col onto the
/// blocked GEMM, with bias (+ optional LeakyReLU) fused into the kernel
/// epilogue.
///
/// Tiles: the layer works through its images in tiles of whole images
/// whose im2col columns fit kTileBytes (at least one image per tile), so
/// the columns a GEMM streams stay in L2 at any batch width. Forward
/// packs each tile's transposed im2col matrix ([patch, tile rows]) into
/// per-thread staging and runs the GEMM into that tile's columns of the
/// output. Backward rebuilds each tile's columns from the forward input,
/// stages the tile's masked dy, accumulates dW and db, and scatters the
/// tile's dcols into dx (shifted runs on stride-1 planes, the tap table
/// elsewhere; see nn/gemm.hpp); nothing im2col-sized persists between
/// forward and backward. The dy staging applies the activation mask in
/// the same pass (apply_leaky_mask). A single tile is just the
/// degenerate case, and tiling never changes a bit: forward chains run
/// over the patch, the dW and db chains continue from the value the
/// previous tile stored in ascending row order, and each dx element
/// belongs to one image (see pack_cm_col2im).
///
/// Layout contract — one persistent activation layout: the GEMM writes
/// its channel-major [out, rows] output DIRECTLY into the layer's output
/// slot, which is tagged Layout::kChannelMajor — for rows = (img, oy, ox)
/// that [out, rows] matrix IS the [n, out, ho, wo] output stored
/// channel-major, so there is no reorder and no staging copy at all. The
/// next conv's im2col reads the channel-major slot through the pack
/// paths in nn/gemm.* (pack_cm_im2col / pack_cm_col2im), which
/// parameterize only the plane base offset by the input's Layout tag:
/// activations stay channel-major across the whole conv trunk, and the
/// only row-major seams in the network are the dataset input (conv1
/// reads NCHW natively through the same pack path) and the GlobalAvgPool
/// output feeding the fc head (a [n+1, C] matrix with no spatial extent —
/// layout-free by construction). Backward mirrors forward: dy must be
/// channel-major like the output it is the gradient of (Debug builds
/// throw std::logic_error on a row-major dy), and dx is produced in the
/// SAME layout as the forward input, so gradients flow through the trunk
/// without any reorder either. Every data movement that remains is
/// counted on the nn.pack_bytes obs counter. Values are bit-identical to
/// a direct im2col conv over naive GEMMs (the test oracle,
/// tests/nn_oracle.*): tiles and layouts change where bytes live, never
/// arithmetic or summation order.
/// The Layout tag guarantee: any tensor returned by forward/backward
/// carries the tag describing its actual storage order, and every
/// consumer dispatches on that tag (Debug builds assert the contract at
/// each boundary; see Tensor's layout checks).
///
/// The input of forward is held by pointer, as in Linear: it must stay
/// alive and unmodified until the matching backward returns.
class Conv2d {
 public:
  Conv2d(int in_channels, int out_channels, int stride, util::Pcg32& rng,
         std::string name, Act act = Act::kNone, float slope = 0.01f);

  /// See Linear::bind_arena.
  void bind_arena(Arena& arena);

  Tensor& forward(const Tensor& x);
  Tensor& forward(const Tensor&& x) = delete;  ///< x is kept until backward
  Tensor& backward(const Tensor& dy);
  void collect_params(std::vector<Param>& out);

  int out_size(int in_size) const { return (in_size + 2 - 3) / stride_ + 1; }

  /// Byte budget of one tile's im2col columns (see the class comment).
  static constexpr std::size_t kTileBytes = std::size_t{256} << 10;
  /// Images per tile for `in_channels` input channels and output planes
  /// of `out_pixels` pixels: as many as fit kTileBytes, at least one.
  static int tile_images(int in_channels, int out_pixels);

  /// When disabled, `backward` accumulates dW/db but skips the input
  /// gradient (dCols + col2im) and returns an empty tensor — the right
  /// setting for a network's first layer, whose input gradient nobody
  /// consumes.
  void set_compute_input_grad(bool enabled) { compute_input_grad_ = enabled; }

  /// Weight sharing for replicas; same contract as
  /// Linear::share_weights_from.
  void share_weights_from(const Conv2d& master);
  const Tensor& weight() const { return shared_w_ ? *shared_w_ : w_; }
  const Tensor& bias() const { return shared_b_ ? *shared_b_ : b_; }

 private:
  void ensure_arena();

  int in_channels_;
  int out_channels_;
  int stride_;
  std::string name_;
  Act act_;
  float slope_;
  bool compute_input_grad_ = true;
  Tensor w_;   ///< [out, in * 9]
  Tensor b_;   ///< [out]
  const Tensor* shared_w_ = nullptr;  ///< master's weights, when sharing
  const Tensor* shared_b_ = nullptr;
  Tensor dw_;
  Tensor db_;
  Tensor empty_;  ///< returned when the input gradient is skipped
  // Arena slots. mask (full: GEMM epilogue, tile by tile) persists from
  // forward to backward; out (full: direct GEMM writeback, tile by tile)
  // and dx (accum: col2im += — acquired Fill::kZero) are live until the
  // next call. The tiles' im2col, masked-dy and dcols staging (all full)
  // is call-transient and comes from the per-thread staging arena.
  Arena* arena_ = nullptr;
  Arena::Slot mask_slot_ = 0;
  Arena::Slot out_slot_ = 0;
  Arena::Slot dx_slot_ = 0;
  /// Input of the last forward, held by pointer (see the class comment);
  /// backward rebuilds its im2col tiles from it and returns dx in its
  /// layout.
  const Tensor* x_ = nullptr;
  std::uint8_t* mask_ = nullptr;     ///< pre-activation < 0, when fused
};

/// [N, C, H, W] -> [N, C] channel means. Accepts input in either storage
/// layout (the plane base offset is the only thing the tag changes) and
/// emits a row-major [N, C] matrix — this is the conv trunk's natural
/// row-major seam into the fc head, so keeping activations channel-major
/// upstream costs no conversion here. Backward returns dx in the SAME
/// layout the forward input had.
class GlobalAvgPool {
 public:
  /// See Linear::bind_arena.
  void bind_arena(Arena& arena);

  Tensor& forward(const Tensor& x);
  Tensor& backward(const Tensor& dy);

 private:
  void ensure_arena();

  std::vector<int> x_shape_;
  Layout x_layout_ = Layout::kRowMajor;  ///< layout of the last forward's x
  // Arena slots: y and dx are both fully overwritten each call.
  Arena* arena_ = nullptr;
  Arena::Slot y_slot_ = 0;
  Arena::Slot dx_slot_ = 0;
};

/// The paper's FC ResNet block: y = x + f3(f2(f1(x))) with
/// f_i = LReLU(Linear_i(.)); all widths equal. The activations are fused
/// into the Linears.
class ResBlock {
 public:
  ResBlock(int width, util::Pcg32& rng, const std::string& name);

  /// Binds the three member Linears; see Linear::bind_arena.
  void bind_arena(Arena& arena);

  Tensor& forward(const Tensor& x);
  Tensor& forward(const Tensor&& x) = delete;  ///< fc1_ keeps x
  Tensor& backward(const Tensor& dy);
  void collect_params(std::vector<Param>& out);

  /// Weight sharing for replicas; same contract as
  /// Linear::share_weights_from.
  void share_weights_from(const ResBlock& master);

 private:
  Linear fc1_;
  Linear fc2_;
  Linear fc3_;
};

}  // namespace sma::nn
