#include "nn/gemm.hpp"

#include <cstddef>
#include <cstring>

#include "obs/obs.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define SMA_GEMM_X86_DISPATCH 1
#include <immintrin.h>
#endif

namespace sma::nn {

namespace {

// Register tiles. The portable micro-kernel uses 4 x 8 (the accumulator
// block plus one B panel row fit the 16 SSE registers of baseline
// x86-64); the AVX2 micro-kernel widens to 4 x 16 (8 ymm accumulators).
//
// The AVX2 path deliberately uses separate multiply and add instructions,
// never FMA: a fused multiply-add rounds once where mul+add rounds twice,
// so FMA would break bit-identity with the scalar chain. With mul+add the
// wide path performs the exact same rounding steps in the exact same
// ascending-k order — results are identical on every machine, with or
// without AVX2.
constexpr int kMr = 4;
constexpr int kNr = 8;
constexpr int kNrWide = 16;
// AVX-512 tile: 8 x 32 = sixteen zmm accumulators (+ two B vectors and a
// broadcast) out of the 32 architectural zmm registers.
constexpr int kMrZ = 8;
constexpr int kNrZ = 32;

enum class CMode {
  kLoad,       ///< acc starts from C (the += forms of backward)
  kOverwrite,  ///< acc starts at zero, stored over C (+ epilogue)
};

/// Bias flavor of the kOverwrite epilogue: per output column (Linear /
/// row-major conv output) or per output row (channel-major conv output).
enum class BiasKind { kNone, kCol, kRow };

/// A[i0..i0+MR) x [0..k) packed p-major, rows past m zero-filled. The
/// zero rows make the micro-kernel branch-free; they never reach C.
template <int MR>
void pack_a(int m, int k, int i0, const float* a, int lda, bool a_trans,
            float* out) {
  const int mr = m - i0 < MR ? m - i0 : MR;
  if (!a_trans && mr == MR) {
    // Row-major A: walk MR contiguous rows in lockstep.
    const float* rows[MR];
    for (int ii = 0; ii < MR; ++ii) {
      rows[ii] = a + static_cast<std::size_t>(i0 + ii) * lda;
    }
    for (int p = 0; p < k; ++p) {
      float* dst = out + static_cast<std::size_t>(p) * MR;
      for (int ii = 0; ii < MR; ++ii) dst[ii] = rows[ii][p];
    }
    return;
  }
  for (int p = 0; p < k; ++p) {
    float* dst = out + static_cast<std::size_t>(p) * MR;
    for (int ii = 0; ii < MR; ++ii) {
      const int i = i0 + ii;
      dst[ii] = i < m ? (a_trans ? a[static_cast<std::size_t>(p) * lda + i]
                                 : a[static_cast<std::size_t>(i) * lda + p])
                      : 0.0f;
    }
  }
}

/// All of B packed into ceil(n / NR) panels of K x NR, columns past n
/// zero-filled. B is packed once per GEMM (it is the operand every row
/// block of A streams through).
template <int NR>
void pack_b(int n, int k, const float* b, int ldb, bool b_trans, float* out) {
  const int panels = (n + NR - 1) / NR;
  for (int jp = 0; jp < panels; ++jp) {
    float* panel = out + static_cast<std::size_t>(jp) * k * NR;
    const int j0 = jp * NR;
    const int nv = n - j0 < NR ? n - j0 : NR;
    if (!b_trans && nv == NR) {
      // Row-major B: each packed row is a contiguous NR-float copy.
      for (int p = 0; p < k; ++p) {
        const float* src = b + static_cast<std::size_t>(p) * ldb + j0;
        float* dst = panel + static_cast<std::size_t>(p) * NR;
        for (int jj = 0; jj < NR; ++jj) dst[jj] = src[jj];
      }
      continue;
    }
    for (int p = 0; p < k; ++p) {
      float* dst = panel + static_cast<std::size_t>(p) * NR;
      for (int jj = 0; jj < NR; ++jj) {
        const int j = j0 + jj;
        dst[jj] = j < n ? (b_trans ? b[static_cast<std::size_t>(j) * ldb + p]
                                   : b[static_cast<std::size_t>(p) * ldb + j])
                        : 0.0f;
      }
    }
  }
}

/// The register tile: acc[ii][jj] += A[ii][p] * B[p][jj], p ascending.
/// One accumulator chain per output element — the bit-identity invariant.
/// Mode and epilogue are template parameters so each instantiation is a
/// tight branch-free loop nest (small-k shapes like conv dX run tens of
/// thousands of tiles per call; per-tile overhead must stay minimal).
template <int NR, CMode kMode, BiasKind kBias, bool kLrelu, bool kHasMask>
inline void micro_tile(int k, int n, const float* ap, const float* bp,
                       int b_stride, float* c, std::size_t c_off, int mr,
                       int nv, const float* bias, int i0, int j0, float slope,
                       std::uint8_t* mask) {
  float acc[kMr * NR];
  if (kMode == CMode::kLoad && mr == kMr && nv == NR) {
    for (int ii = 0; ii < kMr; ++ii) {
      const float* row = c + c_off + static_cast<std::size_t>(ii) * n;
      for (int jj = 0; jj < NR; ++jj) acc[ii * NR + jj] = row[jj];
    }
  } else if (kMode == CMode::kLoad) {
    for (int ii = 0; ii < kMr; ++ii) {
      for (int jj = 0; jj < NR; ++jj) acc[ii * NR + jj] = 0.0f;
    }
    for (int ii = 0; ii < mr; ++ii) {
      const float* row = c + c_off + static_cast<std::size_t>(ii) * n;
      for (int jj = 0; jj < nv; ++jj) acc[ii * NR + jj] = row[jj];
    }
  } else {
    for (int ii = 0; ii < kMr; ++ii) {
      for (int jj = 0; jj < NR; ++jj) acc[ii * NR + jj] = 0.0f;
    }
  }

  for (int p = 0; p < k; ++p) {
    const float* av = ap + static_cast<std::size_t>(p) * kMr;
    const float* bv = bp + static_cast<std::size_t>(p) * b_stride;
    for (int ii = 0; ii < kMr; ++ii) {
      const float a0 = av[ii];
      float* accr = acc + ii * NR;
      for (int jj = 0; jj < NR; ++jj) {
        accr[jj] += a0 * bv[jj];
      }
    }
  }

  for (int ii = 0; ii < mr; ++ii) {
    const std::size_t base = c_off + static_cast<std::size_t>(ii) * n;
    float* row = c + base;
    for (int jj = 0; jj < nv; ++jj) {
      float v = acc[ii * NR + jj];
      if (kMode == CMode::kOverwrite) {
        if (kBias == BiasKind::kCol) v += bias[j0 + jj];
        if (kBias == BiasKind::kRow) v += bias[i0 + ii];
        if (kHasMask) mask[base + jj] = v < 0.0f ? 1 : 0;
        if (kLrelu && v < 0.0f) v *= slope;
        row[jj] = v;
      } else {
        row[jj] = v;
      }
    }
  }
}

#ifdef SMA_GEMM_X86_DISPATCH

/// AVX2 tile (4 x 16): eight ymm accumulators, explicit mul + add (never
/// FMA — see the tile-size comment above). Bitwise equal to the portable
/// micro_tile on the same operands. Partial tiles (mr < 4 or nv < 16)
/// stage C through a local buffer so the k-loop always runs register-
/// resident at full width; the packed panels are zero-padded, so the
/// extra lanes compute harmless zeros that never reach C.
template <CMode kMode, BiasKind kBias, bool kLrelu, bool kHasMask>
__attribute__((target("avx2"))) inline void micro_tile_avx2(
    int k, int n, const float* ap, const float* bp, int b_stride, float* c,
    std::size_t c_off, int mr, int nv, const float* bias, int i0, int j0,
    float slope, std::uint8_t* mask) {
  const bool full = mr == kMr && nv == kNrWide;
  __m256 acc[kMr][2];
  if (kMode == CMode::kLoad) {
    if (full) {
      for (int ii = 0; ii < kMr; ++ii) {
        const float* row = c + c_off + static_cast<std::size_t>(ii) * n;
        acc[ii][0] = _mm256_loadu_ps(row);
        acc[ii][1] = _mm256_loadu_ps(row + 8);
      }
    } else {
      alignas(32) float tmp[kMr * kNrWide] = {};
      for (int ii = 0; ii < mr; ++ii) {
        const float* row = c + c_off + static_cast<std::size_t>(ii) * n;
        for (int jj = 0; jj < nv; ++jj) tmp[ii * kNrWide + jj] = row[jj];
      }
      for (int ii = 0; ii < kMr; ++ii) {
        acc[ii][0] = _mm256_load_ps(tmp + ii * kNrWide);
        acc[ii][1] = _mm256_load_ps(tmp + ii * kNrWide + 8);
      }
    }
  } else {
    for (int ii = 0; ii < kMr; ++ii) {
      acc[ii][0] = _mm256_setzero_ps();
      acc[ii][1] = _mm256_setzero_ps();
    }
  }

  for (int p = 0; p < k; ++p) {
    const float* av = ap + static_cast<std::size_t>(p) * kMr;
    const float* bv = bp + static_cast<std::size_t>(p) * b_stride;
    const __m256 b0 = _mm256_loadu_ps(bv);
    const __m256 b1 = _mm256_loadu_ps(bv + 8);
    for (int ii = 0; ii < kMr; ++ii) {
      const __m256 a0 = _mm256_broadcast_ss(av + ii);
      acc[ii][0] = _mm256_add_ps(acc[ii][0], _mm256_mul_ps(a0, b0));
      acc[ii][1] = _mm256_add_ps(acc[ii][1], _mm256_mul_ps(a0, b1));
    }
  }

  if (full) {
    const __m256 zero = _mm256_setzero_ps();
    const __m256 slope_v = _mm256_set1_ps(slope);
    for (int ii = 0; ii < kMr; ++ii) {
      const std::size_t base = c_off + static_cast<std::size_t>(ii) * n;
      float* row = c + base;
      const __m256 bias_row = kBias == BiasKind::kRow
                                  ? _mm256_set1_ps(bias[i0 + ii])
                                  : _mm256_setzero_ps();
      for (int half = 0; half < 2; ++half) {
        __m256 v = acc[ii][half];
        if (kMode == CMode::kOverwrite) {
          if (kBias == BiasKind::kCol) {
            v = _mm256_add_ps(v, _mm256_loadu_ps(bias + j0 + 8 * half));
          }
          if (kBias == BiasKind::kRow) {
            v = _mm256_add_ps(v, bias_row);
          }
          const __m256 neg = _mm256_cmp_ps(v, zero, _CMP_LT_OQ);
          if (kHasMask) {
            const int bits = _mm256_movemask_ps(neg);
            std::uint8_t* mrow = mask + base + 8 * half;
            for (int jj = 0; jj < 8; ++jj) mrow[jj] = (bits >> jj) & 1;
          }
          if (kLrelu) {
            v = _mm256_blendv_ps(v, _mm256_mul_ps(v, slope_v), neg);
          }
        }
        _mm256_storeu_ps(row + 8 * half, v);
      }
    }
    return;
  }

  // Partial tile: spill the accumulators and run the scalar epilogue on
  // the valid elements (identical operations to the portable writeback).
  alignas(32) float tmp[kMr * kNrWide];
  for (int ii = 0; ii < kMr; ++ii) {
    _mm256_store_ps(tmp + ii * kNrWide, acc[ii][0]);
    _mm256_store_ps(tmp + ii * kNrWide + 8, acc[ii][1]);
  }
  for (int ii = 0; ii < mr; ++ii) {
    const std::size_t base = c_off + static_cast<std::size_t>(ii) * n;
    float* row = c + base;
    for (int jj = 0; jj < nv; ++jj) {
      float v = tmp[ii * kNrWide + jj];
      if (kMode == CMode::kOverwrite) {
        if (kBias == BiasKind::kCol) v += bias[j0 + jj];
        if (kBias == BiasKind::kRow) v += bias[i0 + ii];
        if (kHasMask) mask[base + jj] = v < 0.0f ? 1 : 0;
        if (kLrelu && v < 0.0f) v *= slope;
        row[jj] = v;
      } else {
        row[jj] = v;
      }
    }
  }
}

template <CMode kMode, BiasKind kBias, bool kLrelu, bool kHasMask>
__attribute__((target("avx2"))) void blocked_loop_avx2(
    int m, int n, int k, const float* a, int lda, bool a_trans,
    const float* b, int ldb, bool b_trans, float* c, const float* bias,
    float slope, std::uint8_t* mask, GemmScratch& scratch) {
  const int panels = (n + kNrWide - 1) / kNrWide;
  const int mblocks = (m + kMr - 1) / kMr;
  // All of A packed once; the panel loop runs outermost so each B panel
  // is streamed through every row block while it is cache-hot (the
  // matrices with a large m here are activations whose packed form is
  // small next to the B operand).
  for (int ib = 0; ib < mblocks; ++ib) {
    pack_a<kMr>(m, k, ib * kMr, a, lda, a_trans,
           scratch.a_panel.data() + static_cast<std::size_t>(ib) * k * kMr);
  }
  for (int jp = 0; jp < panels; ++jp) {
    const int j0 = jp * kNrWide;
    const int nv = n - j0 < kNrWide ? n - j0 : kNrWide;
    // Row-major B is consumed in place (each panel row is already
    // contiguous); only transposed B and the ragged tail panel read
    // from the packed copy.
    const float* bp;
    int bs;
    if (b_trans) {
      bp = scratch.b_panel.data() + static_cast<std::size_t>(jp) * k * kNrWide;
      bs = kNrWide;
    } else if (nv == kNrWide) {
      bp = b + j0;
      bs = ldb;
    } else {
      bp = scratch.b_panel.data();
      bs = kNrWide;
    }
    for (int ib = 0; ib < mblocks; ++ib) {
      const int i0 = ib * kMr;
      const int mr = m - i0 < kMr ? m - i0 : kMr;
      micro_tile_avx2<kMode, kBias, kLrelu, kHasMask>(
          k, n,
          scratch.a_panel.data() + static_cast<std::size_t>(ib) * k * kMr,
          bp, bs, c, static_cast<std::size_t>(i0) * n + j0, mr, nv, bias, i0,
          j0, slope, mask);
    }
  }
}


/// AVX-512 tile (8 x 32): sixteen zmm accumulators, explicit mul + add
/// (never FMA). Bitwise equal to the portable micro_tile on the same
/// operands; partial tiles stage C through a local buffer.
template <CMode kMode, BiasKind kBias, bool kLrelu, bool kHasMask>
__attribute__((target("avx512f"))) inline void micro_tile_avx512(
    int k, int n, const float* ap, const float* bp, int b_stride, float* c,
    std::size_t c_off, int mr, int nv, const float* bias, int i0, int j0,
    float slope, std::uint8_t* mask) {
  const bool full = mr == kMrZ && nv == kNrZ;
  __m512 acc[kMrZ][2];
  if (kMode == CMode::kLoad) {
    if (full) {
      for (int ii = 0; ii < kMrZ; ++ii) {
        const float* row = c + c_off + static_cast<std::size_t>(ii) * n;
        acc[ii][0] = _mm512_loadu_ps(row);
        acc[ii][1] = _mm512_loadu_ps(row + 16);
      }
    } else {
      alignas(64) float tmp[kMrZ * kNrZ] = {};
      for (int ii = 0; ii < mr; ++ii) {
        const float* row = c + c_off + static_cast<std::size_t>(ii) * n;
        for (int jj = 0; jj < nv; ++jj) tmp[ii * kNrZ + jj] = row[jj];
      }
      for (int ii = 0; ii < kMrZ; ++ii) {
        acc[ii][0] = _mm512_load_ps(tmp + ii * kNrZ);
        acc[ii][1] = _mm512_load_ps(tmp + ii * kNrZ + 16);
      }
    }
  } else {
    for (int ii = 0; ii < kMrZ; ++ii) {
      acc[ii][0] = _mm512_setzero_ps();
      acc[ii][1] = _mm512_setzero_ps();
    }
  }

  for (int p = 0; p < k; ++p) {
    const float* av = ap + static_cast<std::size_t>(p) * kMrZ;
    const float* bv = bp + static_cast<std::size_t>(p) * b_stride;
    const __m512 b0 = _mm512_loadu_ps(bv);
    const __m512 b1 = _mm512_loadu_ps(bv + 16);
    for (int ii = 0; ii < kMrZ; ++ii) {
      const __m512 a0 = _mm512_set1_ps(av[ii]);
      acc[ii][0] = _mm512_add_ps(acc[ii][0], _mm512_mul_ps(a0, b0));
      acc[ii][1] = _mm512_add_ps(acc[ii][1], _mm512_mul_ps(a0, b1));
    }
  }

  if (full) {
    const __m512 zero = _mm512_setzero_ps();
    const __m512 slope_v = _mm512_set1_ps(slope);
    for (int ii = 0; ii < kMrZ; ++ii) {
      const std::size_t base = c_off + static_cast<std::size_t>(ii) * n;
      float* row = c + base;
      const __m512 bias_row = kBias == BiasKind::kRow
                                  ? _mm512_set1_ps(bias[i0 + ii])
                                  : _mm512_setzero_ps();
      for (int half = 0; half < 2; ++half) {
        __m512 v = acc[ii][half];
        if (kMode == CMode::kOverwrite) {
          if (kBias == BiasKind::kCol) {
            v = _mm512_add_ps(v, _mm512_loadu_ps(bias + j0 + 16 * half));
          }
          if (kBias == BiasKind::kRow) {
            v = _mm512_add_ps(v, bias_row);
          }
          const __mmask16 neg = _mm512_cmp_ps_mask(v, zero, _CMP_LT_OQ);
          if (kHasMask) {
            std::uint8_t* mrow = mask + base + 16 * half;
            for (int jj = 0; jj < 16; ++jj) mrow[jj] = (neg >> jj) & 1;
          }
          if (kLrelu) {
            v = _mm512_mask_mul_ps(v, neg, v, slope_v);
          }
        }
        _mm512_storeu_ps(row + 16 * half, v);
      }
    }
    return;
  }

  alignas(64) float tmp[kMrZ * kNrZ];
  for (int ii = 0; ii < kMrZ; ++ii) {
    _mm512_store_ps(tmp + ii * kNrZ, acc[ii][0]);
    _mm512_store_ps(tmp + ii * kNrZ + 16, acc[ii][1]);
  }
  for (int ii = 0; ii < mr; ++ii) {
    const std::size_t base = c_off + static_cast<std::size_t>(ii) * n;
    float* row = c + base;
    for (int jj = 0; jj < nv; ++jj) {
      float v = tmp[ii * kNrZ + jj];
      if (kMode == CMode::kOverwrite) {
        if (kBias == BiasKind::kCol) v += bias[j0 + jj];
        if (kBias == BiasKind::kRow) v += bias[i0 + ii];
        if (kHasMask) mask[base + jj] = v < 0.0f ? 1 : 0;
        if (kLrelu && v < 0.0f) v *= slope;
        row[jj] = v;
      } else {
        row[jj] = v;
      }
    }
  }
}

template <CMode kMode, BiasKind kBias, bool kLrelu, bool kHasMask>
__attribute__((target("avx512f"))) void blocked_loop_avx512(
    int m, int n, int k, const float* a, int lda, bool a_trans,
    const float* b, int ldb, bool b_trans, float* c, const float* bias,
    float slope, std::uint8_t* mask, GemmScratch& scratch) {
  const int panels = (n + kNrZ - 1) / kNrZ;
  const int mblocks = (m + kMrZ - 1) / kMrZ;
  for (int ib = 0; ib < mblocks; ++ib) {
    pack_a<kMrZ>(m, k, ib * kMrZ, a, lda, a_trans,
                 scratch.a_panel.data() +
                     static_cast<std::size_t>(ib) * k * kMrZ);
  }
  for (int jp = 0; jp < panels; ++jp) {
    const int j0 = jp * kNrZ;
    const int nv = n - j0 < kNrZ ? n - j0 : kNrZ;
    const float* bp;
    int bs;
    if (b_trans) {
      bp = scratch.b_panel.data() + static_cast<std::size_t>(jp) * k * kNrZ;
      bs = kNrZ;
    } else if (nv == kNrZ) {
      bp = b + j0;
      bs = ldb;
    } else {
      bp = scratch.b_panel.data();
      bs = kNrZ;
    }
    for (int ib = 0; ib < mblocks; ++ib) {
      const int i0 = ib * kMrZ;
      const int mr = m - i0 < kMrZ ? m - i0 : kMrZ;
      micro_tile_avx512<kMode, kBias, kLrelu, kHasMask>(
          k, n,
          scratch.a_panel.data() + static_cast<std::size_t>(ib) * k * kMrZ,
          bp, bs, c, static_cast<std::size_t>(i0) * n + j0, mr, nv, bias, i0,
          j0, slope, mask);
    }
  }
}

bool have_avx512() {
  static const bool value = __builtin_cpu_supports("avx512f");
  return value;
}

bool have_avx2() {
  static const bool value = __builtin_cpu_supports("avx2");
  return value;
}

#else

bool have_avx512() { return false; }
bool have_avx2() { return false; }

#endif  // SMA_GEMM_X86_DISPATCH

template <CMode kMode, BiasKind kBias, bool kLrelu, bool kHasMask>
void blocked_loop(int m, int n, int k, const float* a, int lda, bool a_trans,
                  const float* b, int ldb, bool b_trans, float* c,
                  const float* bias, float slope, std::uint8_t* mask,
                  GemmScratch& scratch) {
  const int panels = (n + kNr - 1) / kNr;
  const int mblocks = (m + kMr - 1) / kMr;
  for (int ib = 0; ib < mblocks; ++ib) {
    pack_a<kMr>(m, k, ib * kMr, a, lda, a_trans,
           scratch.a_panel.data() + static_cast<std::size_t>(ib) * k * kMr);
  }
  for (int jp = 0; jp < panels; ++jp) {
    const int j0 = jp * kNr;
    const int nv = n - j0 < kNr ? n - j0 : kNr;
    const float* bp;
    int bs;
    if (b_trans) {
      bp = scratch.b_panel.data() + static_cast<std::size_t>(jp) * k * kNr;
      bs = kNr;
    } else if (nv == kNr) {
      bp = b + j0;
      bs = ldb;
    } else {
      bp = scratch.b_panel.data();
      bs = kNr;
    }
    for (int ib = 0; ib < mblocks; ++ib) {
      const int i0 = ib * kMr;
      const int mr = m - i0 < kMr ? m - i0 : kMr;
      micro_tile<kNr, kMode, kBias, kLrelu, kHasMask>(
          k, n,
          scratch.a_panel.data() + static_cast<std::size_t>(ib) * k * kMr,
          bp, bs, c, static_cast<std::size_t>(i0) * n + j0, mr, nv, bias, i0,
          j0, slope, mask);
    }
  }
}

template <CMode kMode, BiasKind kBias, bool kLrelu, bool kHasMask>
void blocked_dispatch(int m, int n, int k, const float* a, int lda,
                      bool a_trans, const float* b, int ldb, bool b_trans,
                      float* c, const float* bias, float slope,
                      std::uint8_t* mask, GemmScratch& scratch) {
#ifdef SMA_GEMM_X86_DISPATCH
  if (have_avx512() && n >= kNrWide) {
    blocked_loop_avx512<kMode, kBias, kLrelu, kHasMask>(
        m, n, k, a, lda, a_trans, b, ldb, b_trans, c, bias, slope, mask,
        scratch);
    return;
  }
  if (have_avx2()) {
    blocked_loop_avx2<kMode, kBias, kLrelu, kHasMask>(
        m, n, k, a, lda, a_trans, b, ldb, b_trans, c, bias, slope, mask,
        scratch);
    return;
  }
#endif
  blocked_loop<kMode, kBias, kLrelu, kHasMask>(
      m, n, k, a, lda, a_trans, b, ldb, b_trans, c, bias, slope, mask,
      scratch);
}

/// Blocked driver shared by every optimized form. `c` is row-major with
/// leading dimension n; `bias`/`lrelu`/`mask` only apply to kOverwrite.
void blocked_gemm(int m, int n, int k, const float* a, int lda, bool a_trans,
                  const float* b, int ldb, bool b_trans, float* c, CMode mode,
                  BiasKind bias_kind, const float* bias, bool lrelu,
                  float slope, std::uint8_t* mask, GemmScratch& scratch) {
  if (m <= 0 || n <= 0) return;
  // Dispatch count only — never a clock read: this is the hottest entry
  // point in the repo, and one relaxed add per *call* (not per tile) is
  // noise next to the GEMM itself.
  SMA_COUNT("gemm.blocked_calls");
  const bool use_z = have_avx512() && n >= kNrWide;
  const int nr = use_z ? kNrZ : (have_avx2() ? kNrWide : kNr);
  const int mr_tile = use_z ? kMrZ : kMr;
  const int panels = (n + nr - 1) / nr;
  scratch.a_panel.resize(
      static_cast<std::size_t>((m + mr_tile - 1) / mr_tile) * k * mr_tile);
  if (b_trans) {
    // Transposed B: pack every panel (column gathers would otherwise
    // defeat the vector loads).
    scratch.b_panel.resize(static_cast<std::size_t>(panels) * k * nr);
    if (nr == kNrZ) {
      pack_b<kNrZ>(n, k, b, ldb, b_trans, scratch.b_panel.data());
    } else if (nr == kNrWide) {
      pack_b<kNrWide>(n, k, b, ldb, b_trans, scratch.b_panel.data());
    } else {
      pack_b<kNr>(n, k, b, ldb, b_trans, scratch.b_panel.data());
    }
  } else if (n % nr != 0) {
    // Row-major B is read in place; only the ragged tail panel is packed
    // (zero-padded so the micro-kernel can run full-width).
    scratch.b_panel.resize(static_cast<std::size_t>(k) * nr);
    const int tail_j0 = (panels - 1) * nr;
    if (nr == kNrZ) {
      pack_b<kNrZ>(n - tail_j0, k, b + tail_j0, ldb, false,
                   scratch.b_panel.data());
    } else if (nr == kNrWide) {
      pack_b<kNrWide>(n - tail_j0, k, b + tail_j0, ldb, false,
                      scratch.b_panel.data());
    } else {
      pack_b<kNr>(n - tail_j0, k, b + tail_j0, ldb, false,
                  scratch.b_panel.data());
    }
  }

  switch (mode) {
    case CMode::kLoad:
      blocked_dispatch<CMode::kLoad, BiasKind::kNone, false, false>(
          m, n, k, a, lda, a_trans, b, ldb, b_trans, c, nullptr, 0.0f,
          nullptr, scratch);
      break;
    case CMode::kOverwrite:
      if (bias_kind == BiasKind::kNone) {
        blocked_dispatch<CMode::kOverwrite, BiasKind::kNone, false, false>(
            m, n, k, a, lda, a_trans, b, ldb, b_trans, c, nullptr, 0.0f,
            nullptr, scratch);
      } else if (bias_kind == BiasKind::kCol) {
        if (lrelu && mask != nullptr) {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kCol, true, true>(
              m, n, k, a, lda, a_trans, b, ldb, b_trans, c, bias, slope, mask,
              scratch);
        } else if (lrelu) {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kCol, true, false>(
              m, n, k, a, lda, a_trans, b, ldb, b_trans, c, bias, slope,
              nullptr, scratch);
        } else if (mask != nullptr) {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kCol, false, true>(
              m, n, k, a, lda, a_trans, b, ldb, b_trans, c, bias, slope, mask,
              scratch);
        } else {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kCol, false, false>(
              m, n, k, a, lda, a_trans, b, ldb, b_trans, c, bias, slope,
              nullptr, scratch);
        }
      } else {
        if (lrelu && mask != nullptr) {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kRow, true, true>(
              m, n, k, a, lda, a_trans, b, ldb, b_trans, c, bias, slope, mask,
              scratch);
        } else if (lrelu) {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kRow, true, false>(
              m, n, k, a, lda, a_trans, b, ldb, b_trans, c, bias, slope,
              nullptr, scratch);
        } else if (mask != nullptr) {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kRow, false, true>(
              m, n, k, a, lda, a_trans, b, ldb, b_trans, c, bias, slope, mask,
              scratch);
        } else {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kRow, false, false>(
              m, n, k, a, lda, a_trans, b, ldb, b_trans, c, bias, slope,
              nullptr, scratch);
        }
      }
      break;
  }
}

}  // namespace

const char* active_isa() {
  if (have_avx512()) return "avx512";
  if (have_avx2()) return "avx2";
  return "portable";
}

// --------------------------------------------------------------------
// Fused im2col/col2im pack paths. The ONLY thing `Layout` changes is the
// base offset of each (img, c) input plane — row-major (img*c_in + c) vs
// channel-major (c*n + img). Same values, same element visit order, same
// clamp arithmetic: bit-identity is preserved by construction.

void pack_cm_im2col(const float* x, Layout x_layout, int n, int c_in, int h,
                    int w, int stride, int ho, int wo, float* cols) {
  const int rows = n * ho * wo;
  SMA_COUNT_N("nn.pack_bytes", static_cast<std::size_t>(c_in) * 9 * rows *
                                   sizeof(float));
  const bool cm = x_layout == Layout::kChannelMajor;
  for (int c = 0; c < c_in; ++c) {
    for (int ky = 0; ky < 3; ++ky) {
      for (int kx = 0; kx < 3; ++kx) {
        float* dst =
            cols + static_cast<std::size_t>((c * 3 + ky) * 3 + kx) * rows;
        for (int img = 0; img < n; ++img) {
          const float* plane =
              x + (cm ? (static_cast<std::size_t>(c) * n + img)
                      : (static_cast<std::size_t>(img) * c_in + c)) *
                      h * w;
          for (int oy = 0; oy < ho; ++oy) {
            float* out_row =
                dst + (static_cast<std::size_t>(img) * ho + oy) * wo;
            const int iy = oy * stride - 1 + ky;
            if (iy < 0 || iy >= h) {
              for (int ox = 0; ox < wo; ++ox) out_row[ox] = 0.0f;
              continue;
            }
            const float* src_row = plane + static_cast<std::size_t>(iy) * w;
            // ix = ox * stride - 1 + kx is in [0, w) exactly for ox in
            // [ox_lo, ox_hi); edges are padding zeros. The w < kx guard
            // matters: for a 1-wide row and kx = 2 the naive formula
            // (w - kx) / stride + 1 truncates -1/stride toward zero and
            // admitted ox = 0, reading one float past the row (heap
            // garbage on the last plane — nondeterministic models).
            const int ox_lo = kx == 0 ? 1 : 0;
            const int ox_hi_raw = w < kx ? 0 : (w - kx) / stride + 1;
            const int ox_hi = wo < ox_hi_raw ? wo : ox_hi_raw;
            for (int ox = 0; ox < ox_lo; ++ox) out_row[ox] = 0.0f;
            if (stride == 1) {
              std::memcpy(out_row + ox_lo, src_row + ox_lo - 1 + kx,
                          sizeof(float) * (ox_hi - ox_lo));
            } else {
              for (int ox = ox_lo; ox < ox_hi; ++ox) {
                out_row[ox] = src_row[ox * stride - 1 + kx];
              }
            }
            for (int ox = ox_hi; ox < wo; ++ox) out_row[ox] = 0.0f;
          }
        }
      }
    }
  }
}

void pack_cm_col2im(const float* dcols, Layout dx_layout, int n, int c_in,
                    int h, int w, int stride, int ho, int wo, float* dx) {
  const int rows = n * ho * wo;
  SMA_COUNT_N("nn.pack_bytes", static_cast<std::size_t>(c_in) * 9 * rows *
                                   sizeof(float));
  const bool cm = dx_layout == Layout::kChannelMajor;
  // Loop order (c asc, ky desc, kx desc, img, oy, ox) reproduces the
  // per-element accumulation order of the direct col2im nest (img, oy,
  // ox, c, ky, kx — the test oracle's loop): for a fixed dx element each
  // output position contributes at most one tap, and ky desc <=> oy asc
  // (resp. kx/ox), so contributions arrive in ascending (oy, ox). The
  // plane base offset does not participate in that ordering, so both
  // layouts accumulate identically.
  for (int c = 0; c < c_in; ++c) {
    for (int ky = 2; ky >= 0; --ky) {
      for (int kx = 2; kx >= 0; --kx) {
        const float* src =
            dcols + static_cast<std::size_t>((c * 3 + ky) * 3 + kx) * rows;
        for (int img = 0; img < n; ++img) {
          float* plane =
              dx + (cm ? (static_cast<std::size_t>(c) * n + img)
                       : (static_cast<std::size_t>(img) * c_in + c)) *
                       h * w;
          for (int oy = 0; oy < ho; ++oy) {
            const int iy = oy * stride - 1 + ky;
            if (iy < 0 || iy >= h) continue;
            const float* srow =
                src + (static_cast<std::size_t>(img) * ho + oy) * wo;
            float* drow = plane + static_cast<std::size_t>(iy) * w;
            // Same w < kx guard as im2col: without it this loop WROTE one
            // float past a 1-wide row (silent dx corruption).
            const int ox_lo = kx == 0 ? 1 : 0;
            const int ox_hi_raw = w < kx ? 0 : (w - kx) / stride + 1;
            const int ox_hi = wo < ox_hi_raw ? wo : ox_hi_raw;
            if (stride == 1) {
              float* base = drow + kx - 1;
              for (int ox = ox_lo; ox < ox_hi; ++ox) base[ox] += srow[ox];
            } else {
              for (int ox = ox_lo; ox < ox_hi; ++ox) {
                drow[ox * stride - 1 + kx] += srow[ox];
              }
            }
          }
        }
      }
    }
  }
}

// --------------------------------------------------------------------
// Public forms.

void gemm_acc_tn(int m, int n, int k, const float* a, const float* b,
                 float* c, GemmScratch& scratch) {
  blocked_gemm(m, n, k, a, m, true, b, n, false, c, CMode::kLoad,
               BiasKind::kNone, nullptr, false, 0.0f, nullptr, scratch);
}

void gemm_ovr_nn(int m, int n, int k, const float* a, const float* b,
                 float* c, GemmScratch& scratch) {
  blocked_gemm(m, n, k, a, k, false, b, n, false, c, CMode::kOverwrite,
               BiasKind::kNone, nullptr, false, 0.0f, nullptr, scratch);
}

void gemm_forward_nt(int m, int n, int k, const float* a, const float* b,
                     const float* bias, float* c, Epilogue epilogue,
                     float slope, std::uint8_t* mask, GemmScratch& scratch) {
  const bool lrelu = epilogue == Epilogue::kBiasLeakyReLU;
  blocked_gemm(m, n, k, a, k, false, b, k, true, c, CMode::kOverwrite,
               BiasKind::kCol, bias, lrelu, slope, mask, scratch);
}

void gemm_forward_nn_rowbias(int m, int n, int k, const float* a,
                             const float* b, const float* bias, float* c,
                             Epilogue epilogue, float slope,
                             std::uint8_t* mask, GemmScratch& scratch) {
  blocked_gemm(m, n, k, a, k, false, b, n, false, c, CMode::kOverwrite,
               BiasKind::kRow, bias, epilogue == Epilogue::kBiasLeakyReLU,
               slope, mask, scratch);
}

void gemm_acc_nt(int m, int n, int k, const float* a, const float* b,
                 float* c, GemmScratch& scratch) {
  blocked_gemm(m, n, k, a, k, false, b, k, true, c, CMode::kLoad,
               BiasKind::kNone, nullptr, false, 0.0f, nullptr, scratch);
}

void gemm_ovr_tn(int m, int n, int k, const float* a, const float* b,
                 float* c, GemmScratch& scratch) {
  blocked_gemm(m, n, k, a, m, true, b, n, false, c, CMode::kOverwrite,
               BiasKind::kNone, nullptr, false, 0.0f, nullptr, scratch);
}

}  // namespace sma::nn
