// Shared GEMM kernel core for the attack network.
//
// The conv and dense layers lower onto six GEMM entry points — exactly
// the forms they issue (see "Entry points" below). The kernels are
// cache-blocked and register-tiled: B is packed once per call into
// K x kNr column panels, A into kMr x K row panels, and a kMr x kNr
// micro-kernel keeps the accumulators in registers.
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

#include <cstdint>
#include <vector>

#include "nn/tensor.hpp"

namespace sma::nn {

/// Reusable packing buffers. Purely transient within one GEMM call, so
/// callers share one instance per thread (the layers use their
/// per-thread staging arena's scratch) — a private scratch per layer
/// (times 8 lane replicas) would balloon the training working set and
/// thrash the cache.
struct GemmScratch {
  std::vector<float> a_panel;
  std::vector<float> b_panel;
};

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
// output channel-major ([out, rows]): the GEMMs then stream huge-n full
// register panels, and the output needs no reorder at all.

/// C[M,N] = A[M,K] * B[K,N] + bias[M] (per-ROW bias), optional LeakyReLU,
/// optional mask (layout [M, N]). Conv forward: A = weights [out, patch],
/// B = im2col^T [patch, rows], C = output [out, rows].
void gemm_forward_nn_rowbias(int m, int n, int k, const float* a,
                             const float* b, const float* bias, float* c,
                             Epilogue epilogue, float slope,
                             std::uint8_t* mask, GemmScratch& scratch);

/// C[M,N] += A[M,K] * B^T[N,K] — conv dW with transposed layouts:
/// A = dy^T [out, rows], B = im2col^T [patch, rows].
void gemm_acc_nt(int m, int n, int k, const float* a, const float* b,
                 float* c, GemmScratch& scratch);

/// C[M,N] = A^T[K,M] * B[K,N] — conv dX with transposed layouts:
/// A = weights [out, patch], B = dy^T [out, rows], C = dcols^T.
void gemm_ovr_tn(int m, int n, int k, const float* a, const float* b,
                 float* c, GemmScratch& scratch);

// --- fused im2col/col2im pack paths (Conv2d) ----------------------------
// The residual im2col work folded into the GEMM pack step: one pass
// builds the transposed im2col matrix ([patch, rows], rows = (img, oy,
// ox)) straight from the input tensor in EITHER storage layout — the
// plane base offset is the only thing the layout changes, so a
// channel-major input packs with zero preceding transpose. Values and
// per-element visit order are identical for both layouts (bit-identity:
// packing moves bytes, never touches arithmetic). Bytes moved are
// counted on the `nn.pack_bytes` obs counter. The stride clamp for
// kernels wider than the input (`w < kx`) matches the im2col/col2im
// guard proven by test_kernels' one-pixel stride-3 cases.

/// cols[patch, rows] = im2col^T of x (logical [n, c_in, h, w], stored
/// per `x_layout`), patch = c_in*3*3, rows = n*ho*wo, 3x3 kernel.
void pack_cm_im2col(const float* x, Layout x_layout, int n, int c_in, int h,
                    int w, int stride, int ho, int wo, float* cols);

/// dx (logical [n, c_in, h, w], stored per `dx_layout`) += scatter of
/// dcols^T [patch, rows]; dx must be pre-zeroed. The per-element
/// accumulation order onto each dx element is independent of dx_layout
/// (same chain, different plane base), preserving bit-identity.
void pack_cm_col2im(const float* dcols, Layout dx_layout, int n, int c_in,
                    int h, int w, int stride, int ho, int wo, float* dx);

}  // namespace sma::nn
