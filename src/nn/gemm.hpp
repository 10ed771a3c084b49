// Shared GEMM kernel core for the attack network.
//
// The conv and dense layers lower onto six GEMM entry points — exactly
// the forms they issue (see "Entry points" below). The kernels are
// cache-blocked and register-tiled. Each call chooses its MR x NR
// register tile once (4 x 8 portable, 4 x 16 AVX2, 8 x 32 AVX-512 for
// n >= 16), runs one pack stage (the `gemm.pack` trace span), then the
// compute loop, whose micro-kernel keeps the accumulators in registers.
//
// The pack stage copies operands into k-major panels, zero-filling the
// lanes past m or n: A into MR-wide row panels, B into NR-wide column
// panels. Row-major B is read in place; only its ragged tail panel is
// packed. A source whose lanes are rows contiguous in k — row-major A
// (the forward weights, dW's dy) and B^T (Linear's W, conv dW's im2col
// columns) — is transposed; on x86 with AVX2 that runs as 8 x 8
// in-register block transposes, one kernel for 8-, 16- and 32-wide
// panels. Only the k % 8 tail, the 4-row A panels and hosts without AVX2
// gather lane by lane. A^T and the row-major B tail are plain copies.
//
// Bit-identity contract: for every output element C[i][j], the kernels
// perform exactly the same sequence of float operations as a naive
// triple loop — products are added one at a time in ascending-k order
// onto a single accumulator chain (no split partial sums, no
// reassociation), starting from C's prior value for the += forms and
// from zero for the overwrite forms. Packing and register tiling only
// change *where* operands live, never the arithmetic order, so results
// are identical to the last bit on every ISA path, at any batch width,
// and the parallel runtime's serial == parallel determinism contract is
// untouched. `tests/test_kernels.cpp` enforces this on randomized shapes
// against a naive test-only oracle (`tests/nn_oracle.*`).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "nn/tensor.hpp"

namespace sma::nn {

/// Reusable packing buffers. Purely transient within one GEMM or pack
/// call (the tap table outlives its call, but it depends on nothing
/// except the geometry it records), so callers share one instance per
/// thread (the layers use their per-thread staging arena's scratch) — a
/// private scratch per layer (times 8 lane replicas) would balloon the
/// training working set and thrash the cache.
struct GemmScratch {
  std::vector<float> a_panel;
  std::vector<float> b_panel;
  /// The im2col/col2im tap table: 9 x (ho*wo) in-plane source offsets,
  /// built for the conv geometry {h, w, stride, ho, wo} in `taps_geometry`.
  std::vector<std::int32_t> taps;
  std::array<int, 5> taps_geometry{};
  /// col2im's saved edge column: h floats of one dx plane.
  std::vector<float> edge;
};

/// Defined where the compiler can build x86 vector kernels (GCC-style
/// `target` attributes and <immintrin.h>); the nn/ TUs compile their
/// AVX2/AVX-512 paths only then.
#if defined(__x86_64__) && defined(__GNUC__)
#define SMA_NN_X86_DISPATCH 1
#endif

/// The host ISA probe, evaluated once per process. Every vector kernel in
/// nn/ dispatches on these two answers (both false without
/// SMA_NN_X86_DISPATCH). AVX-512 here means AVX-512F and AVX2 both (the
/// AVX-512 GEMM tile packs with AVX2 transposes).
bool have_avx2();
bool have_avx512();

/// Widest SIMD path the blocked kernels can dispatch to on this host:
/// "avx512", "avx2" or "portable". Reported by RunReport so a bench JSON
/// records what the numbers were measured on.
const char* active_isa();

/// Optional epilogue of the fused forward form.
enum class Epilogue { kBias, kBiasLeakyReLU };

// --- Entry points ------------------------------------------------------
// Linear: forward gemm_forward_nt, dW gemm_acc_tn, dX gemm_ovr_nn.
// Conv2d: forward gemm_forward_nn_rowbias, dW gemm_acc_nt, dX gemm_ovr_tn.
// The += forms accumulate onto C's prior contents; the overwrite forms
// ignore the destination's prior contents, so reused buffers need no
// clearing.

/// C[M,N] += A^T[K,M] * B[K,N] — the dW accumulation form of backward.
void gemm_acc_tn(int m, int n, int k, const float* a, const float* b,
                 float* c, GemmScratch& scratch);

/// C[M,N] = A[M,K] * B[K,N] — overwrite form (dX / dCols of backward).
/// Bit-identical to accumulating into a zeroed C; the destination's prior
/// contents are ignored, so scratch buffers need no clearing.
void gemm_ovr_nn(int m, int n, int k, const float* a, const float* b,
                 float* c, GemmScratch& scratch);

/// Fused forward: C[M,N] = A[M,K] * B^T[N,K] + bias[N], optionally
/// followed by LeakyReLU. When `mask` is non-null it receives one byte
/// per output element: 1 where the pre-activation value was negative
/// (the backward mask), 0 otherwise. Bit-identical to a naive product
/// into a zeroed C followed by separate bias and activation passes.
void gemm_forward_nt(int m, int n, int k, const float* a, const float* b,
                     const float* bias, float* c, Epilogue epilogue,
                     float slope, std::uint8_t* mask, GemmScratch& scratch);

// --- transposed-activation forms (Conv2d) --------------------------------
// Conv2d stores its im2col matrix transposed ([patch, rows]) and its
// output channel-major ([out, rows]): the GEMMs then stream long-n full
// register panels, and the output needs no reorder at all. Conv2d issues
// them once per tile of whole images (see Conv2d in nn/layers.hpp).

/// C[M,N] = A[M,K] * B[K,N] + bias[M] (per-ROW bias), optional LeakyReLU,
/// optional mask. C and mask are row-major with leading dimension `ldc`
/// (>= N), so the product can land in a column block of a wider matrix.
/// Conv forward: A = weights [out, patch], B = one tile's im2col^T
/// [patch, tile rows], C = that tile's columns of the output [out, rows].
void gemm_forward_nn_rowbias(int m, int n, int k, const float* a,
                             const float* b, const float* bias, float* c,
                             int ldc, Epilogue epilogue, float slope,
                             std::uint8_t* mask, GemmScratch& scratch);

/// C[M,N] += A[M,K] * B^T[N,K] — conv dW with transposed layouts:
/// A = one tile's masked dy^T [out, tile rows], B = its im2col^T
/// [patch, tile rows]. Tiles in ascending row order continue each
/// element's chain through C.
void gemm_acc_nt(int m, int n, int k, const float* a, const float* b,
                 float* c, GemmScratch& scratch);

/// C[M,N] = A^T[K,M] * B[K,N] — conv dX with transposed layouts:
/// A = weights [out, patch], B = one tile's masked dy^T [out, tile rows],
/// C = its dcols^T [patch, tile rows].
void gemm_ovr_tn(int m, int n, int k, const float* a, const float* b,
                 float* c, GemmScratch& scratch);

// --- im2col/col2im pack paths (Conv2d) --------------------------------
// Both work on an image range [img0, img1) of a logical [n, c_in, h, w]
// tensor (the whole tensor is [0, n)) and its transposed im2col matrix
// ([patch, tile rows], patch = (c, ky, kx), rows = (img - img0, oy, ox)),
// so Conv2d can run them one cache-sized tile at a time. The tensor may
// be stored in EITHER layout: the plane base offset is the only thing
// the layout changes, so a channel-major input packs with zero preceding
// transpose.
//
// Per (channel, tap):
//  - a tap that lands nowhere (most taps of the 1x1 planes) is one
//    memset in im2col and is skipped in col2im;
//  - a stride-1 plane of 16 or more pixels moves as one shifted run per
//    image: im2col copies it and zeros its border; col2im adds it onto
//    the plane, around a save and restore of the one edge column the
//    run's row wrap-around reaches (see pack_cm_col2im);
//  - everything else goes through a tap table in `scratch.taps`: for
//    each of the 9 taps and each output pixel, the in-plane offset the
//    tap reads, or -1 where it reads padding. The table decides validity
//    per pixel, so no edge formula can admit an out-of-plane tap (a
//    1-wide stride-3 plane has kernel columns that land nowhere). It is
//    rebuilt only when the geometry changes, so the tiles of one layer
//    call share one build.
// Packing moves bytes and never touches arithmetic; col2im's adds keep
// the order the bit-identity contract needs (see pack_cm_col2im). Bytes
// moved are counted on the `nn.pack_bytes` obs counter.

/// cols[patch, (img1 - img0) * ho * wo] = im2col^T of images
/// [img0, img1) of x (logical [n, c_in, h, w], stored per `x_layout`);
/// 3x3 kernel, padding 1. Every element of cols is written.
void pack_cm_im2col(const float* x, Layout x_layout, int n, int img0,
                    int img1, int c_in, int h, int w, int stride, int ho,
                    int wo, float* cols, GemmScratch& scratch);

/// Images [img0, img1) of dx (logical [n, c_in, h, w], stored per
/// `dx_layout`) += scatter of dcols^T [patch, (img1 - img0) * ho * wo].
/// Taps run in (c asc, ky desc, kx desc) order, so each dx element
/// receives its contributions in ascending (oy, ox) order, as in the
/// direct col2im nest; a dx element belongs to exactly one image, so
/// splitting [0, n) into ranges leaves every element's chain unchanged.
/// A (c, tap, image) pass adds at most once to each element, so the
/// shifted runs keep every chain too.
void pack_cm_col2im(const float* dcols, Layout dx_layout, int n, int img0,
                    int img1, int c_in, int h, int w, int stride, int ho,
                    int wo, float* dx, GemmScratch& scratch);

}  // namespace sma::nn
