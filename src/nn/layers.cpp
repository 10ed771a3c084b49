#include "nn/layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "obs/obs.hpp"

#ifdef SMA_NN_X86_DISPATCH
#include <immintrin.h>
#endif

namespace sma::nn {

namespace {

#ifdef SMA_NN_X86_DISPATCH
/// apply_leaky_mask over the whole 8-element groups of [0, n); returns
/// the count it covered. Each lane multiplies by slope or by 1.0f, picked
/// by whether its mask byte is zero.
__attribute__((target("avx2"))) std::size_t apply_leaky_mask_avx2(
    const float* dy, const std::uint8_t* mask, float slope, std::size_t n,
    float* out) {
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 leak = _mm256_set1_ps(slope);
  const __m256i zero = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i bytes = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(mask + i)));
    const __m256 pass = _mm256_castsi256_ps(_mm256_cmpeq_epi32(bytes, zero));
    const __m256 scale = _mm256_blendv_ps(leak, one, pass);
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(dy + i), scale));
  }
  return i;
}
#endif

/// Per-thread staging arena. Two tenants:
///  - Call-transient buffers (conv's per-tile im2col, masked dy^T and
///    dcols^T, the GEMM packing panels and the pack paths' tap table)
///    for ALL layers, bound or not. They hold no state across layer
///    calls (the tap table is a function of the conv geometry alone,
///    kept until that changes), so one copy per thread — rather than one
///    per network replica — keeps a lane/replica fleet's working set
///    small and cache-hot (with 8 serial gradient lanes, per-replica
///    staging alone would thrash the cache).
///  - The fallback persistent arena for layers used standalone (tests,
///    benches, ad-hoc code) that were never bound by an owning network;
///    such a layer must keep running on the thread that first called it.
/// Thread-local keeps pool workers race-free: a layer call runs entirely
/// on one thread, and the transient buffers never outlive the call.
struct ThreadStaging {
  Arena arena;
  Arena::Slot cols;
  Arena::Slot dy;
  Arena::Slot dcols;
  ThreadStaging()
      : cols(arena.add_floats()),
        dy(arena.add_floats()),
        dcols(arena.add_floats()) {}
};

ThreadStaging& thread_staging() {
  thread_local ThreadStaging staging;
  return staging;
}

Arena& fallback_arena() { return thread_staging().arena; }

/// The calling thread's GEMM packing scratch, tracked by its staging
/// arena (growth counts toward that arena's alloc stats).
GemmScratch& staging_scratch() { return thread_staging().arena.gemm_scratch(); }

}  // namespace

void apply_leaky_mask(const float* dy, const std::uint8_t* mask, float slope,
                      std::size_t n, float* out) {
  std::size_t i = 0;
#ifdef SMA_NN_X86_DISPATCH
  if (have_avx2()) i = apply_leaky_mask_avx2(dy, mask, slope, n, out);
#endif
  const float scale[2] = {1.0f, slope};
  for (; i < n; ++i) out[i] = dy[i] * scale[mask[i] != 0];
}

// --------------------------------------------------------------------
// Linear

Linear::Linear(int in, int out, util::Pcg32& rng, std::string name, Act act,
               float slope)
    : in_(in),
      out_(out),
      name_(std::move(name)),
      act_(act),
      slope_(slope),
      w_(Tensor::randn({out, in}, rng, std::sqrt(2.0 / in))),
      b_(Tensor({out})),
      dw_(Tensor({out, in})),
      db_(Tensor({out})) {}

void Linear::bind_arena(Arena& arena) {
  arena_ = &arena;
  y_slot_ = arena.add_tensor();
  dx_slot_ = arena.add_tensor();
  dmasked_slot_ = arena.add_tensor();
  mask_slot_ = arena.add_bytes();
}

void Linear::ensure_arena() {
  if (arena_ == nullptr) bind_arena(fallback_arena());
}

Tensor& Linear::forward(const Tensor& x) {
  if (x.shape().back() != in_) {
    throw std::invalid_argument(name_ + ": bad input width " +
                                x.shape_string());
  }
#ifndef NDEBUG
  // Layout contract: the fc head is a row-major seam — the conv trunk's
  // channel-major activations must have been reduced (GlobalAvgPool) or
  // converted before they reach a Linear.
  if (x.layout() != Layout::kRowMajor) {
    throw std::logic_error(name_ + ": Linear requires row-major input");
  }
#endif
  ensure_arena();
  // Cache the input for backward (dW = dy^T x) by POINTER: inside a
  // network the input is another layer's arena slot (stable and untouched
  // until that layer's next forward, which is after our backward), so the
  // seed's defensive copy was a full tensor of pure memcpy per call. The
  // contract this buys: forward's input must outlive the matching
  // backward unmodified.
  x_ = &x;

  SMA_TRACE_SPAN("nn", "linear_fwd");
  const int rows = static_cast<int>(x.size()) / in_;
  // y: full overwrite — the overwrite-form GEMM writes the whole
  // [rows, out] extent.
  Tensor& y = arena_->tensor(y_slot_, {rows, out_}, Arena::Fill::kNone);
  const bool fused = act_ == Act::kLeakyReLU;
  // mask: full overwrite — the epilogue writes one byte per output
  // element.
  if (fused) {
    mask_ = arena_->bytes(mask_slot_, static_cast<std::size_t>(rows) * out_);
  }
  // y = x * w^T + b (+ LeakyReLU), all in one kernel pass.
  gemm_forward_nt(rows, out_, in_, x.data(), weight().data(), bias().data(),
                  y.data(),
                  fused ? Epilogue::kBiasLeakyReLU : Epilogue::kBias, slope_,
                  fused ? mask_ : nullptr, staging_scratch());
  return y;
}

Tensor& Linear::backward(const Tensor& dy) {
  ensure_arena();
#ifndef NDEBUG
  if (dy.layout() != Layout::kRowMajor) {
    throw std::logic_error(name_ + ": Linear requires row-major dy");
  }
#endif
  SMA_TRACE_SPAN("nn", "linear_bwd");
  const int rows = static_cast<int>(dy.size()) / out_;
  const Tensor* dsrc = &dy;
  if (act_ == Act::kLeakyReLU) {
    // dmasked: full overwrite by the mask pass.
    Tensor& dmasked =
        arena_->tensor(dmasked_slot_, {rows, out_}, Arena::Fill::kNone);
    apply_leaky_mask(dy.data(), mask_, slope_, dy.size(), dmasked.data());
    dsrc = &dmasked;
  }
  // dw += dy^T * x ; stored [out, in]
  gemm_acc_tn(out_, in_, rows, dsrc->data(), x_->data(), dw_.data(),
              staging_scratch());
  for (int r = 0; r < rows; ++r) {
    const float* dyr = dsrc->data() + static_cast<std::size_t>(r) * out_;
    for (int o = 0; o < out_; ++o) db_[o] += dyr[o];
  }
  // dx: full overwrite (gemm_ovr_nn ignores the destination's contents).
  Tensor& dx = arena_->tensor(dx_slot_, {rows, in_}, Arena::Fill::kNone);
  // dx = dy * w
  gemm_ovr_nn(rows, in_, out_, dsrc->data(), weight().data(), dx.data(),
              staging_scratch());
  return dx;
}

void Linear::collect_params(std::vector<Param>& out) {
  out.push_back({name_ + ".w", &w_, &dw_});
  out.push_back({name_ + ".b", &b_, &db_});
}

void Linear::share_weights_from(const Linear& master) {
  // Resolve chains so a replica of a replica still reads the root master.
  shared_w_ = &master.weight();
  shared_b_ = &master.bias();
  // The private storage is dormant from here on; free it so a lane/
  // replica fleet carries one weight copy total instead of one per net.
  w_ = Tensor();
  b_ = Tensor();
}

// --------------------------------------------------------------------
// LeakyReLU

Tensor LeakyReLU::forward(const Tensor& x) {
  x_ = x;
  Tensor y = x;
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (y[i] < 0.0f) y[i] *= slope_;
  }
  return y;
}

Tensor LeakyReLU::backward(const Tensor& dy) {
  Tensor dx = dy;
  for (std::size_t i = 0; i < dx.size(); ++i) {
    if (x_[i] < 0.0f) dx[i] *= slope_;
  }
  return dx;
}

// --------------------------------------------------------------------
// Conv2d

Conv2d::Conv2d(int in_channels, int out_channels, int stride,
               util::Pcg32& rng, std::string name, Act act, float slope)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      stride_(stride),
      name_(std::move(name)),
      act_(act),
      slope_(slope),
      w_(Tensor::randn({out_channels, in_channels * 9}, rng,
                       std::sqrt(2.0 / (in_channels * 9)))),
      b_(Tensor({out_channels})),
      dw_(Tensor({out_channels, in_channels * 9})),
      db_(Tensor({out_channels})) {}

void Conv2d::bind_arena(Arena& arena) {
  arena_ = &arena;
  mask_slot_ = arena.add_bytes();
  out_slot_ = arena.add_tensor();
  dx_slot_ = arena.add_tensor();
  // Tile staging (im2col, masked dy^T and dcols^T, live only inside one
  // layer call) is NOT per-net: it comes from the per-thread staging
  // arena — see ThreadStaging above.
}

void Conv2d::ensure_arena() {
  if (arena_ == nullptr) bind_arena(fallback_arena());
}

int Conv2d::tile_images(int in_channels, int out_pixels) {
  const std::size_t image_bytes = static_cast<std::size_t>(in_channels) * 9 *
                                  out_pixels * sizeof(float);
  const std::size_t images = kTileBytes / image_bytes;
  return images > 0 ? static_cast<int>(images) : 1;
}

Tensor& Conv2d::forward(const Tensor& x) {
  const auto& shape = x.shape();
  if (shape.size() != 4 || shape[1] != in_channels_) {
    throw std::invalid_argument(name_ + ": bad conv input " +
                                x.shape_string());
  }
  ensure_arena();
  // Held by pointer for backward, which rebuilds its im2col tiles from it
  // (Linear's lifetime contract).
  x_ = &x;
  SMA_TRACE_SPAN("nn", "conv_fwd");
  const int n = shape[0];
  const int h = shape[2];
  const int w = shape[3];
  const int ho = out_size(h);
  const int wo = out_size(w);
  const int hwo = ho * wo;
  const int rows = n * hwo;
  const int patch = in_channels_ * 9;
  const int tile = tile_images(in_channels_, hwo);

  const bool fused = act_ == Act::kLeakyReLU;
  // mask: full overwrite — across the tiles the GEMM epilogue writes one
  // byte per element.
  if (fused) {
    mask_ = arena_->bytes(mask_slot_,
                          static_cast<std::size_t>(out_channels_) * rows);
  }
  // The GEMM's [out, rows] output with rows = (img, oy, ox) IS the
  // [n, out, ho, wo] output stored channel-major, so each tile's GEMM
  // writes its columns of the arena slot directly. Full overwrite across
  // the tiles.
  Tensor& out = arena_->tensor(out_slot_, {n, out_channels_, ho, wo},
                               Arena::Fill::kNone, Layout::kChannelMajor);
  ThreadStaging& staging = thread_staging();
  const std::size_t max_rows =
      static_cast<std::size_t>(std::min(n, tile)) * hwo;
  // cols: full overwrite — im2col writes every element of the tile.
  float* cols = staging.arena.floats(staging.cols, patch * max_rows,
                                     Arena::Fill::kNone);
  GemmScratch& scratch = staging.arena.gemm_scratch();
  for (int img0 = 0; img0 < n; img0 += tile) {
    const int img1 = std::min(n, img0 + tile);
    const std::size_t col0 = static_cast<std::size_t>(img0) * hwo;
    {
      SMA_TRACE_SPAN_V("nn", "im2col", (img1 - img0) * hwo);
      pack_cm_im2col(x.data(), x.layout(), n, img0, img1, in_channels_, h, w,
                     stride_, ho, wo, cols, scratch);
    }
    // y^T[out, tile] = W[out, patch] * cols^T[patch, tile] + bias (+ act).
    gemm_forward_nn_rowbias(
        out_channels_, (img1 - img0) * hwo, patch, weight().data(), cols,
        bias().data(), out.data() + col0, rows,
        fused ? Epilogue::kBiasLeakyReLU : Epilogue::kBias, slope_,
        fused ? mask_ + col0 : nullptr, scratch);
  }
  return out;
}

Tensor& Conv2d::backward(const Tensor& dy) {
  SMA_TRACE_SPAN("nn", "conv_bwd");
  const Tensor& x = *x_;
  const int n = x.dim(0);
  const int h = x.dim(2);
  const int w = x.dim(3);
  const int ho = out_size(h);
  const int wo = out_size(w);
  const int hwo = ho * wo;
  const int rows = n * hwo;
  const int patch = in_channels_ * 9;
  const int tile = tile_images(in_channels_, hwo);

#ifndef NDEBUG
  // Element-wise (no temporary vector): this runs on the alloc-free
  // steady-state path, which the arena tests police with a global
  // operator-new counter even in Debug.
  if (dy.shape().size() != 4 || dy.dim(0) != n || dy.dim(1) != out_channels_ ||
      dy.dim(2) != ho || dy.dim(3) != wo) {
    throw std::logic_error(name_ + ": conv backward got dy of shape " +
                           dy.shape_string());
  }
  // dy is the gradient of the channel-major output; row-major storage
  // here would be read as permuted planes.
  if (dy.layout() != Layout::kChannelMajor) {
    throw std::logic_error(name_ + ": conv backward requires channel-major dy");
  }
#endif

  // dx accumulates (col2im +=), so the slot is acquired zero-filled — the
  // same bytes a freshly constructed tensor starts from — in the SAME
  // storage layout the forward input had: a channel-major x gets a
  // channel-major dx, so the gradient flows upstream with no reorder.
  Tensor* dx = compute_input_grad_
                   ? &arena_->tensor(dx_slot_, x.shape(), Arena::Fill::kZero,
                                     x.layout())
                   : nullptr;
  ThreadStaging& staging = thread_staging();
  const std::size_t max_rows =
      static_cast<std::size_t>(std::min(n, tile)) * hwo;
  // All three staging buffers are fully overwritten per tile: cols by
  // im2col, dm by the mask pass, dcols by gemm_ovr_tn.
  float* cols = staging.arena.floats(staging.cols, patch * max_rows,
                                     Arena::Fill::kNone);
  float* dm = staging.arena.floats(staging.dy, out_channels_ * max_rows,
                                   Arena::Fill::kNone);
  float* dcols =
      compute_input_grad_
          ? staging.arena.floats(staging.dcols, patch * max_rows,
                                 Arena::Fill::kNone)
          : nullptr;
  GemmScratch& scratch = staging.arena.gemm_scratch();
  const bool fused = act_ == Act::kLeakyReLU;
  // Tiles run in ascending row order, and the dW and db chains of a tile
  // start from the values the previous tile stored, so every element is
  // still one ascending-row chain (K-blocking with C as the carry).
  for (int img0 = 0; img0 < n; img0 += tile) {
    const int img1 = std::min(n, img0 + tile);
    const int tile_rows = (img1 - img0) * hwo;
    const std::size_t col0 = static_cast<std::size_t>(img0) * hwo;
    {
      SMA_TRACE_SPAN_V("nn", "im2col", tile_rows);
      pack_cm_im2col(x.data(), x.layout(), n, img0, img1, in_channels_, h, w,
                     stride_, ho, wo, cols, scratch);
    }
    // Channel-major dy is dy^T [out, rows]: stage this tile's columns
    // contiguously, applying the activation mask on the way.
    for (int o = 0; o < out_channels_; ++o) {
      const std::size_t src = static_cast<std::size_t>(o) * rows + col0;
      const float* dyo = dy.data() + src;
      float* dmo = dm + static_cast<std::size_t>(o) * tile_rows;
      if (fused) {
        apply_leaky_mask(dyo, mask_ + src, slope_, tile_rows, dmo);
      } else {
        std::memcpy(dmo, dyo, sizeof(float) * tile_rows);
      }
    }

    // dw += dy^T * cols (k = this tile's rows, ascending).
    gemm_acc_nt(out_channels_, patch, tile_rows, dm, cols, dw_.data(),
                scratch);
    // db: one ascending-r chain per channel; four channels in flight to
    // hide the add latency the strict chain ordering imposes.
    for (int o0 = 0; o0 < out_channels_; o0 += 4) {
      const int ov = out_channels_ - o0 < 4 ? out_channels_ - o0 : 4;
      float acc[4];
      const float* drow[4];
      for (int j = 0; j < ov; ++j) {
        acc[j] = db_[o0 + j];
        drow[j] = dm + static_cast<std::size_t>(o0 + j) * tile_rows;
      }
      for (int r = 0; r < tile_rows; ++r) {
        for (int j = 0; j < ov; ++j) acc[j] += drow[j][r];
      }
      for (int j = 0; j < ov; ++j) db_[o0 + j] = acc[j];
    }

    if (dx == nullptr) continue;
    // dcols^T[patch, tile] = W^T * dy^T, scattered into this tile's
    // images of dx.
    gemm_ovr_tn(patch, tile_rows, out_channels_, weight().data(), dm, dcols,
                scratch);
    pack_cm_col2im(dcols, dx->layout(), n, img0, img1, in_channels_, h, w,
                   stride_, ho, wo, dx->data(), scratch);
  }
  return dx != nullptr ? *dx : empty_;
}

void Conv2d::collect_params(std::vector<Param>& out) {
  out.push_back({name_ + ".w", &w_, &dw_});
  out.push_back({name_ + ".b", &b_, &db_});
}

void Conv2d::share_weights_from(const Conv2d& master) {
  shared_w_ = &master.weight();
  shared_b_ = &master.bias();
  w_ = Tensor();
  b_ = Tensor();
}

// --------------------------------------------------------------------
// GlobalAvgPool

void GlobalAvgPool::bind_arena(Arena& arena) {
  arena_ = &arena;
  y_slot_ = arena.add_tensor();
  dx_slot_ = arena.add_tensor();
}

void GlobalAvgPool::ensure_arena() {
  if (arena_ == nullptr) bind_arena(fallback_arena());
}

Tensor& GlobalAvgPool::forward(const Tensor& x) {
  ensure_arena();
  x_shape_ = x.shape();
  x_layout_ = x.layout();
  const int n = x_shape_[0];
  const int c = x_shape_[1];
  const int hw = x_shape_[2] * x_shape_[3];
  const bool cm = x_layout_ == Layout::kChannelMajor;
  // y: full overwrite — one store per (img, ch). Each (img, ch) plane is
  // reduced independently in ascending-i order, so the per-element sum
  // chain — and therefore the result bits — is identical under either
  // input layout; only the plane base offset dispatches on the tag. The
  // output is a row-major [n, c] matrix: this is the conv trunk's
  // natural seam into the fc head, at zero conversion cost.
  Tensor& y = arena_->tensor(y_slot_, {n, c}, Arena::Fill::kNone);
  for (int img = 0; img < n; ++img) {
    for (int ch = 0; ch < c; ++ch) {
      const float* plane =
          x.data() + (cm ? (static_cast<std::size_t>(ch) * n + img)
                         : (static_cast<std::size_t>(img) * c + ch)) *
                         hw;
      float acc = 0.0f;
      for (int i = 0; i < hw; ++i) acc += plane[i];
      y.data()[static_cast<std::size_t>(img) * c + ch] = acc / hw;
    }
  }
  return y;
}

Tensor& GlobalAvgPool::backward(const Tensor& dy) {
  ensure_arena();
#ifndef NDEBUG
  if (dy.layout() != Layout::kRowMajor) {
    throw std::logic_error("GlobalAvgPool requires row-major dy");
  }
#endif
  const int n = x_shape_[0];
  const int c = x_shape_[1];
  const int hw = x_shape_[2] * x_shape_[3];
  const bool cm = x_layout_ == Layout::kChannelMajor;
  // dx: full overwrite — every plane element is assigned. Produced in the
  // SAME layout the forward input had, so the gradient re-enters the conv
  // trunk with no reorder.
  Tensor& dx =
      arena_->tensor(dx_slot_, x_shape_, Arena::Fill::kNone, x_layout_);
  for (int img = 0; img < n; ++img) {
    for (int ch = 0; ch < c; ++ch) {
      const float g =
          dy.data()[static_cast<std::size_t>(img) * c + ch] / hw;
      float* plane =
          dx.data() + (cm ? (static_cast<std::size_t>(ch) * n + img)
                          : (static_cast<std::size_t>(img) * c + ch)) *
                          hw;
      for (int i = 0; i < hw; ++i) plane[i] = g;
    }
  }
  return dx;
}

// --------------------------------------------------------------------
// ResBlock

ResBlock::ResBlock(int width, util::Pcg32& rng, const std::string& name)
    : fc1_(width, width, rng, name + ".fc1", Act::kLeakyReLU),
      fc2_(width, width, rng, name + ".fc2", Act::kLeakyReLU),
      fc3_(width, width, rng, name + ".fc3", Act::kLeakyReLU) {}

void ResBlock::bind_arena(Arena& arena) {
  fc1_.bind_arena(arena);
  fc2_.bind_arena(arena);
  fc3_.bind_arena(arena);
}

Tensor& ResBlock::forward(const Tensor& x) {
  Tensor& h1 = fc1_.forward(x);
  Tensor& h2 = fc2_.forward(h1);
  // The residual add mutates fc3_'s output slot in place — we own it, and
  // it is consumed by the caller before fc3_ runs again.
  Tensor& h = fc3_.forward(h2);
  for (std::size_t i = 0; i < h.size(); ++i) h[i] += x[i];
  return h;
}

Tensor& ResBlock::backward(const Tensor& dy) {
  Tensor& d3 = fc3_.backward(dy);
  Tensor& d2 = fc2_.backward(d3);
  Tensor& dh = fc1_.backward(d2);
  for (std::size_t i = 0; i < dh.size(); ++i) dh[i] += dy[i];
  return dh;
}

void ResBlock::collect_params(std::vector<Param>& out) {
  fc1_.collect_params(out);
  fc2_.collect_params(out);
  fc3_.collect_params(out);
}

void ResBlock::share_weights_from(const ResBlock& master) {
  fc1_.share_weights_from(master.fc1_);
  fc2_.share_weights_from(master.fc2_);
  fc3_.share_weights_from(master.fc3_);
}

}  // namespace sma::nn
