#include "nn/gemm.hpp"

#include <array>
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
inline void micro_tile(int k, int ldc, const float* ap, const float* bp,
                       int b_stride, float* c, std::size_t c_off, int mr,
                       int nv, const float* bias, int i0, int j0, float slope,
                       std::uint8_t* mask) {
  float acc[kMr * NR];
  if (kMode == CMode::kLoad && mr == kMr && nv == NR) {
    for (int ii = 0; ii < kMr; ++ii) {
      const float* row = c + c_off + static_cast<std::size_t>(ii) * ldc;
      for (int jj = 0; jj < NR; ++jj) acc[ii * NR + jj] = row[jj];
    }
  } else if (kMode == CMode::kLoad) {
    for (int ii = 0; ii < kMr; ++ii) {
      for (int jj = 0; jj < NR; ++jj) acc[ii * NR + jj] = 0.0f;
    }
    for (int ii = 0; ii < mr; ++ii) {
      const float* row = c + c_off + static_cast<std::size_t>(ii) * ldc;
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
    const std::size_t base = c_off + static_cast<std::size_t>(ii) * ldc;
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
    int k, int ldc, const float* ap, const float* bp, int b_stride, float* c,
    std::size_t c_off, int mr, int nv, const float* bias, int i0, int j0,
    float slope, std::uint8_t* mask) {
  const bool full = mr == kMr && nv == kNrWide;
  __m256 acc[kMr][2];
  if (kMode == CMode::kLoad) {
    if (full) {
      for (int ii = 0; ii < kMr; ++ii) {
        const float* row = c + c_off + static_cast<std::size_t>(ii) * ldc;
        acc[ii][0] = _mm256_loadu_ps(row);
        acc[ii][1] = _mm256_loadu_ps(row + 8);
      }
    } else {
      alignas(32) float tmp[kMr * kNrWide] = {};
      for (int ii = 0; ii < mr; ++ii) {
        const float* row = c + c_off + static_cast<std::size_t>(ii) * ldc;
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
      const std::size_t base = c_off + static_cast<std::size_t>(ii) * ldc;
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
    const std::size_t base = c_off + static_cast<std::size_t>(ii) * ldc;
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
    const float* b, int ldb, bool b_trans, float* c, int ldc,
    const float* bias, float slope, std::uint8_t* mask,
    GemmScratch& scratch) {
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
          k, ldc,
          scratch.a_panel.data() + static_cast<std::size_t>(ib) * k * kMr,
          bp, bs, c, static_cast<std::size_t>(i0) * ldc + j0, mr, nv, bias, i0,
          j0, slope, mask);
    }
  }
}


/// AVX-512 tile (8 x 32): sixteen zmm accumulators, explicit mul + add
/// (never FMA). Bitwise equal to the portable micro_tile on the same
/// operands; partial tiles stage C through a local buffer.
template <CMode kMode, BiasKind kBias, bool kLrelu, bool kHasMask>
__attribute__((target("avx512f"))) inline void micro_tile_avx512(
    int k, int ldc, const float* ap, const float* bp, int b_stride, float* c,
    std::size_t c_off, int mr, int nv, const float* bias, int i0, int j0,
    float slope, std::uint8_t* mask) {
  const bool full = mr == kMrZ && nv == kNrZ;
  __m512 acc[kMrZ][2];
  if (kMode == CMode::kLoad) {
    if (full) {
      for (int ii = 0; ii < kMrZ; ++ii) {
        const float* row = c + c_off + static_cast<std::size_t>(ii) * ldc;
        acc[ii][0] = _mm512_loadu_ps(row);
        acc[ii][1] = _mm512_loadu_ps(row + 16);
      }
    } else {
      alignas(64) float tmp[kMrZ * kNrZ] = {};
      for (int ii = 0; ii < mr; ++ii) {
        const float* row = c + c_off + static_cast<std::size_t>(ii) * ldc;
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
      const std::size_t base = c_off + static_cast<std::size_t>(ii) * ldc;
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
    const std::size_t base = c_off + static_cast<std::size_t>(ii) * ldc;
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
    const float* b, int ldb, bool b_trans, float* c, int ldc,
    const float* bias, float slope, std::uint8_t* mask,
    GemmScratch& scratch) {
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
          k, ldc,
          scratch.a_panel.data() + static_cast<std::size_t>(ib) * k * kMrZ,
          bp, bs, c, static_cast<std::size_t>(i0) * ldc + j0, mr, nv, bias, i0,
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
                  const float* b, int ldb, bool b_trans, float* c, int ldc,
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
          k, ldc,
          scratch.a_panel.data() + static_cast<std::size_t>(ib) * k * kMr,
          bp, bs, c, static_cast<std::size_t>(i0) * ldc + j0, mr, nv, bias, i0,
          j0, slope, mask);
    }
  }
}

template <CMode kMode, BiasKind kBias, bool kLrelu, bool kHasMask>
void blocked_dispatch(int m, int n, int k, const float* a, int lda,
                      bool a_trans, const float* b, int ldb, bool b_trans,
                      float* c, int ldc, const float* bias, float slope,
                      std::uint8_t* mask, GemmScratch& scratch) {
#ifdef SMA_GEMM_X86_DISPATCH
  if (have_avx512() && n >= kNrWide) {
    blocked_loop_avx512<kMode, kBias, kLrelu, kHasMask>(
        m, n, k, a, lda, a_trans, b, ldb, b_trans, c, ldc, bias, slope, mask,
        scratch);
    return;
  }
  if (have_avx2()) {
    blocked_loop_avx2<kMode, kBias, kLrelu, kHasMask>(
        m, n, k, a, lda, a_trans, b, ldb, b_trans, c, ldc, bias, slope, mask,
        scratch);
    return;
  }
#endif
  blocked_loop<kMode, kBias, kLrelu, kHasMask>(
      m, n, k, a, lda, a_trans, b, ldb, b_trans, c, ldc, bias, slope, mask,
      scratch);
}

/// Blocked driver shared by every optimized form. `c` (and `mask`) is
/// row-major with leading dimension ldc; `bias`/`lrelu`/`mask` only apply
/// to kOverwrite.
void blocked_gemm(int m, int n, int k, const float* a, int lda, bool a_trans,
                  const float* b, int ldb, bool b_trans, float* c, int ldc,
                  CMode mode, BiasKind bias_kind, const float* bias,
                  bool lrelu, float slope, std::uint8_t* mask,
                  GemmScratch& scratch) {
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
          m, n, k, a, lda, a_trans, b, ldb, b_trans, c, ldc, nullptr, 0.0f,
          nullptr, scratch);
      break;
    case CMode::kOverwrite:
      if (bias_kind == BiasKind::kNone) {
        blocked_dispatch<CMode::kOverwrite, BiasKind::kNone, false, false>(
            m, n, k, a, lda, a_trans, b, ldb, b_trans, c, ldc, nullptr, 0.0f,
            nullptr, scratch);
      } else if (bias_kind == BiasKind::kCol) {
        if (lrelu && mask != nullptr) {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kCol, true, true>(
              m, n, k, a, lda, a_trans, b, ldb, b_trans, c, ldc, bias, slope,
              mask, scratch);
        } else if (lrelu) {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kCol, true, false>(
              m, n, k, a, lda, a_trans, b, ldb, b_trans, c, ldc, bias, slope,
              nullptr, scratch);
        } else if (mask != nullptr) {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kCol, false, true>(
              m, n, k, a, lda, a_trans, b, ldb, b_trans, c, ldc, bias, slope,
              mask, scratch);
        } else {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kCol, false, false>(
              m, n, k, a, lda, a_trans, b, ldb, b_trans, c, ldc, bias, slope,
              nullptr, scratch);
        }
      } else {
        if (lrelu && mask != nullptr) {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kRow, true, true>(
              m, n, k, a, lda, a_trans, b, ldb, b_trans, c, ldc, bias, slope,
              mask, scratch);
        } else if (lrelu) {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kRow, true, false>(
              m, n, k, a, lda, a_trans, b, ldb, b_trans, c, ldc, bias, slope,
              nullptr, scratch);
        } else if (mask != nullptr) {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kRow, false, true>(
              m, n, k, a, lda, a_trans, b, ldb, b_trans, c, ldc, bias, slope,
              mask, scratch);
        } else {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kRow, false, false>(
              m, n, k, a, lda, a_trans, b, ldb, b_trans, c, ldc, bias, slope,
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
// Tap-table im2col/col2im pack paths (see gemm.hpp). The ONLY thing
// `Layout` changes is the base offset of each (img, c) plane — row-major
// (img*c_in + c) vs channel-major (c*n + img). Same values, same element
// visit order: bit-identity is preserved by construction.

namespace {

/// im2col packs stride-1 planes at least this large as one shifted run
/// per tap; smaller ones go through the tap table.
constexpr int kRunMinPixels = 16;

/// Sets live[t] when tap t = ky*3 + kx lands inside the plane at least
/// once. A tap lands where both its row and its column do, and the two
/// are independent.
void live_taps(int h, int w, int stride, int ho, int wo, bool live[9]) {
  const auto lands = [stride](int k, int in, int out) {
    for (int o = 0; o < out; ++o) {
      const int i = o * stride - 1 + k;
      if (i >= 0 && i < in) return true;
    }
    return false;
  };
  for (int t = 0; t < 9; ++t) {
    live[t] = lands(t / 3, h, ho) && lands(t % 3, w, wo);
  }
}

/// The 9 x (ho*wo) tap table in scratch.taps — entry
/// [t * ho*wo + oy*wo + ox] is the offset iy*w + ix that tap t = ky*3 + kx
/// reads at output pixel (oy, ox), or -1 where it reads padding. It is a
/// function of the geometry alone, so it is rebuilt only when the
/// geometry differs from the last build's: a layer's tiles share one.
const std::int32_t* tap_table(int h, int w, int stride, int ho, int wo,
                              GemmScratch& scratch) {
  const std::array<int, 5> geometry{h, w, stride, ho, wo};
  if (scratch.taps_geometry == geometry) return scratch.taps.data();
  const int hwo = ho * wo;
  scratch.taps.resize(static_cast<std::size_t>(9) * hwo);
  std::int32_t* table = scratch.taps.data();
  for (int t = 0; t < 9; ++t) {
    const int ky = t / 3;
    const int kx = t % 3;
    std::int32_t* row = table + static_cast<std::size_t>(t) * hwo;
    for (int oy = 0; oy < ho; ++oy) {
      const int iy = oy * stride - 1 + ky;
      for (int ox = 0; ox < wo; ++ox) {
        const int ix = ox * stride - 1 + kx;
        const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < w;
        row[oy * wo + ox] = inside ? iy * w + ix : -1;
      }
    }
  }
  scratch.taps_geometry = geometry;
  return table;
}

/// Base of plane (img, c) of a logical [n, c_in, hw] tensor.
inline std::size_t plane_base(bool channel_major, int n, int c_in, int img,
                              int c, int hw) {
  return (channel_major ? static_cast<std::size_t>(c) * n + img
                        : static_cast<std::size_t>(img) * c_in + c) *
         static_cast<std::size_t>(hw);
}

}  // namespace

void pack_cm_im2col(const float* x, Layout x_layout, int n, int img0,
                    int img1, int c_in, int h, int w, int stride, int ho,
                    int wo, float* cols, GemmScratch& scratch) {
  const int hw = h * w;
  const int hwo = ho * wo;
  const std::size_t tile_rows = static_cast<std::size_t>(img1 - img0) * hwo;
  SMA_COUNT_N("nn.pack_bytes",
              static_cast<std::size_t>(c_in) * 9 * tile_rows * sizeof(float));
  bool live[9];
  live_taps(h, w, stride, ho, wo, live);
  const bool cm = x_layout == Layout::kChannelMajor;
  // Stride 1 keeps the plane's shape (ho = h, wo = w), and output pixel p
  // reads input pixel p + shift wherever the tap lands.
  const bool runs = stride == 1 && hw >= kRunMinPixels;
  const std::int32_t* table =
      runs ? nullptr : tap_table(h, w, stride, ho, wo, scratch);
  for (int c = 0; c < c_in; ++c) {
    for (int t = 0; t < 9; ++t) {
      float* dst = cols + static_cast<std::size_t>(c * 9 + t) * tile_rows;
      if (!live[t]) {
        std::memset(dst, 0, tile_rows * sizeof(float));
        continue;
      }
      const int kx = t % 3;
      const int shift = (t / 3 - 1) * w + (kx - 1);
      const int lo = shift < 0 ? -shift : 0;
      const int hi = shift > 0 ? hw - shift : hw;
      for (int img = img0; img < img1; ++img) {
        const float* plane = x + plane_base(cm, n, c_in, img, c, hw);
        float* out = dst + static_cast<std::size_t>(img - img0) * hwo;
        if (runs) {
          // One shifted copy; pixels whose tap falls off the top or
          // bottom lie outside [lo, hi), and those whose tap falls off
          // the left or right edge (copied from the neighbouring row) are
          // zeroed afterwards.
          std::memset(out, 0, sizeof(float) * lo);
          std::memcpy(out + lo, plane + lo + shift, sizeof(float) * (hi - lo));
          std::memset(out + hi, 0, sizeof(float) * (hw - hi));
          if (kx != 1) {
            const int edge = kx == 0 ? 0 : w - 1;
            for (int oy = 0; oy < h; ++oy) out[oy * w + edge] = 0.0f;
          }
        } else {
          const std::int32_t* tap = table + static_cast<std::size_t>(t) * hwo;
          for (int p = 0; p < hwo; ++p) {
            out[p] = tap[p] >= 0 ? plane[tap[p]] : 0.0f;
          }
        }
      }
    }
  }
}

void pack_cm_col2im(const float* dcols, Layout dx_layout, int n, int img0,
                    int img1, int c_in, int h, int w, int stride, int ho,
                    int wo, float* dx, GemmScratch& scratch) {
  const int hw = h * w;
  const int hwo = ho * wo;
  const std::size_t tile_rows = static_cast<std::size_t>(img1 - img0) * hwo;
  SMA_COUNT_N("nn.pack_bytes",
              static_cast<std::size_t>(c_in) * 9 * tile_rows * sizeof(float));
  bool live[9];
  live_taps(h, w, stride, ho, wo, live);
  const std::int32_t* table = tap_table(h, w, stride, ho, wo, scratch);
  const bool cm = dx_layout == Layout::kChannelMajor;
  // Tap order (c asc, ky desc, kx desc) reproduces the per-element
  // accumulation order of the direct col2im nest (img, oy, ox, c, ky, kx
  // — the test oracle's loop): for a fixed dx element each output pixel
  // contributes through at most one tap, and ky desc <=> oy asc (resp.
  // kx/ox), so contributions arrive in ascending (oy, ox). Neither the
  // image range nor the plane base offset takes part in that order.
  for (int c = 0; c < c_in; ++c) {
    for (int t = 8; t >= 0; --t) {
      if (!live[t]) continue;
      const float* src =
          dcols + static_cast<std::size_t>(c * 9 + t) * tile_rows;
      const std::int32_t* tap = table + static_cast<std::size_t>(t) * hwo;
      for (int img = img0; img < img1; ++img) {
        float* plane = dx + plane_base(cm, n, c_in, img, c, hw);
        const float* in = src + static_cast<std::size_t>(img - img0) * hwo;
        for (int p = 0; p < hwo; ++p) {
          if (tap[p] >= 0) plane[tap[p]] += in[p];
        }
      }
    }
  }
}

// --------------------------------------------------------------------
// Public forms.

void gemm_acc_tn(int m, int n, int k, const float* a, const float* b,
                 float* c, GemmScratch& scratch) {
  blocked_gemm(m, n, k, a, m, true, b, n, false, c, n, CMode::kLoad,
               BiasKind::kNone, nullptr, false, 0.0f, nullptr, scratch);
}

void gemm_ovr_nn(int m, int n, int k, const float* a, const float* b,
                 float* c, GemmScratch& scratch) {
  blocked_gemm(m, n, k, a, k, false, b, n, false, c, n, CMode::kOverwrite,
               BiasKind::kNone, nullptr, false, 0.0f, nullptr, scratch);
}

void gemm_forward_nt(int m, int n, int k, const float* a, const float* b,
                     const float* bias, float* c, Epilogue epilogue,
                     float slope, std::uint8_t* mask, GemmScratch& scratch) {
  const bool lrelu = epilogue == Epilogue::kBiasLeakyReLU;
  blocked_gemm(m, n, k, a, k, false, b, k, true, c, n, CMode::kOverwrite,
               BiasKind::kCol, bias, lrelu, slope, mask, scratch);
}

void gemm_forward_nn_rowbias(int m, int n, int k, const float* a,
                             const float* b, const float* bias, float* c,
                             int ldc, Epilogue epilogue, float slope,
                             std::uint8_t* mask, GemmScratch& scratch) {
  blocked_gemm(m, n, k, a, k, false, b, n, false, c, ldc, CMode::kOverwrite,
               BiasKind::kRow, bias, epilogue == Epilogue::kBiasLeakyReLU,
               slope, mask, scratch);
}

void gemm_acc_nt(int m, int n, int k, const float* a, const float* b,
                 float* c, GemmScratch& scratch) {
  blocked_gemm(m, n, k, a, k, false, b, k, true, c, n, CMode::kLoad,
               BiasKind::kNone, nullptr, false, 0.0f, nullptr, scratch);
}

void gemm_ovr_tn(int m, int n, int k, const float* a, const float* b,
                 float* c, GemmScratch& scratch) {
  blocked_gemm(m, n, k, a, m, true, b, n, false, c, n, CMode::kOverwrite,
               BiasKind::kNone, nullptr, false, 0.0f, nullptr, scratch);
}

}  // namespace sma::nn
