#include "nn/gemm.hpp"

#include <array>
#include <cstddef>
#include <cstring>

#include "obs/obs.hpp"

#ifdef SMA_NN_X86_DISPATCH
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

// --- The pack stage ------------------------------------------------------
// Every operand the micro-kernels do not read in place is copied into
// R-wide, k-major panels: panel[p * R + r] is lane r at k = p, and lanes
// past the valid count are zero (the zero lanes make the micro-kernels
// branch-free; they never reach C). A's row panels are R = MR wide, B's
// column panels R = NR wide. A source holds its lanes one of two ways.

enum class PanelSource {
  /// Lane r is a source row, contiguous in k: src[r * ld + p]. Packing
  /// transposes (row-major A, B^T).
  kRows,
  /// The lanes of each k are contiguous: src[p * ld + r]. Packing copies
  /// (A^T, the ragged tail panel of row-major B).
  kLanes,
};

/// Panel row p of a kRows source, one lane at a time: the scalar
/// transposing gather.
template <int R>
inline void gather_row(const float* src, int ld, int valid, int p,
                       float* dst) {
  for (int r = 0; r < valid; ++r) {
    dst[r] = src[static_cast<std::size_t>(r) * ld + p];
  }
  for (int r = valid; r < R; ++r) dst[r] = 0.0f;
}

#ifdef SMA_NN_X86_DISPATCH

/// Transposes the 8 x 8 block v in registers: row i in, column i out.
/// Unpack, shuffle and lane permutes only, so every float's bit pattern
/// moves unchanged.
__attribute__((target("avx2"))) inline void transpose8x8(__m256 v[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(v[0], v[1]);
  const __m256 t1 = _mm256_unpackhi_ps(v[0], v[1]);
  const __m256 t2 = _mm256_unpacklo_ps(v[2], v[3]);
  const __m256 t3 = _mm256_unpackhi_ps(v[2], v[3]);
  const __m256 t4 = _mm256_unpacklo_ps(v[4], v[5]);
  const __m256 t5 = _mm256_unpackhi_ps(v[4], v[5]);
  const __m256 t6 = _mm256_unpacklo_ps(v[6], v[7]);
  const __m256 t7 = _mm256_unpackhi_ps(v[6], v[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  v[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  v[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  v[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  v[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  v[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  v[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  v[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  v[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

/// The kRows case for R a multiple of 8: each group of 8 lanes moves
/// through 8 x 8 in-register transposes, one 8-column block of k at a
/// time (all groups of a block before the next, so the block's stores
/// fill whole panel rows). A ragged group loads zero vectors for its
/// missing rows, an all-padding group is stored as vector zeros, and only
/// the k % 8 tail is copied lane by lane.
template <int R>
__attribute__((target("avx2"))) void pack_rows_avx2(const float* src, int ld,
                                                    int valid, int k,
                                                    float* out) {
  static_assert(R % 8 == 0, "8 x 8 blocks tile the panel width");
  const __m256 zero = _mm256_setzero_ps();
  const int k8 = k - k % 8;
  for (int p0 = 0; p0 < k8; p0 += 8) {
    float* dst = out + static_cast<std::size_t>(p0) * R;
    for (int g = 0; g < R; g += 8) {
      const int rows = valid - g;
      __m256 v[8];
      if (rows >= 8) {
        for (int i = 0; i < 8; ++i) {
          v[i] = _mm256_loadu_ps(src + static_cast<std::size_t>(g + i) * ld +
                                 p0);
        }
      } else if (rows > 0) {
        for (int i = 0; i < 8; ++i) {
          v[i] = i < rows ? _mm256_loadu_ps(
                                src + static_cast<std::size_t>(g + i) * ld + p0)
                          : zero;
        }
      } else {
        for (int c = 0; c < 8; ++c) _mm256_storeu_ps(dst + c * R + g, zero);
        continue;
      }
      transpose8x8(v);
      for (int c = 0; c < 8; ++c) _mm256_storeu_ps(dst + c * R + g, v[c]);
    }
  }
  for (int p = k8; p < k; ++p) {
    gather_row<R>(src, ld, valid, p, out + static_cast<std::size_t>(p) * R);
  }
}

#endif  // SMA_NN_X86_DISPATCH

/// Packs one R-wide panel of `valid` lanes from `src` (see PanelSource).
/// `vector` selects the AVX2 block transposes for the kRows case (x86
/// only, R a multiple of 8); otherwise kRows is a scalar gather — the
/// 4-row A panels and the only path without AVX2. Moves bytes only:
/// every path writes the same panel.
template <int R>
void pack_panel(PanelSource source, const float* src, int ld, int valid,
                int k, [[maybe_unused]] bool vector, float* out) {
  if (source == PanelSource::kLanes) {
    for (int p = 0; p < k; ++p) {
      const float* s = src + static_cast<std::size_t>(p) * ld;
      float* dst = out + static_cast<std::size_t>(p) * R;
      if (valid == R) {
        for (int r = 0; r < R; ++r) dst[r] = s[r];
      } else {
        for (int r = 0; r < valid; ++r) dst[r] = s[r];
        for (int r = valid; r < R; ++r) dst[r] = 0.0f;
      }
    }
    return;
  }
#ifdef SMA_NN_X86_DISPATCH
  if constexpr (R % 8 == 0) {
    if (vector) {
      pack_rows_avx2<R>(src, ld, valid, k, out);
      return;
    }
  }
#endif
  if (valid == R) {
    // Walk the R rows in lockstep.
    const float* rows[R];
    for (int r = 0; r < R; ++r) {
      rows[r] = src + static_cast<std::size_t>(r) * ld;
    }
    for (int p = 0; p < k; ++p) {
      float* dst = out + static_cast<std::size_t>(p) * R;
      for (int r = 0; r < R; ++r) dst[r] = rows[r][p];
    }
    return;
  }
  for (int p = 0; p < k; ++p) {
    gather_row<R>(src, ld, valid, p, out + static_cast<std::size_t>(p) * R);
  }
}

/// pack_panel at a run-time panel width, one of the tile widths.
void pack_panel(int width, PanelSource source, const float* src, int ld,
                int valid, int k, bool vector, float* out) {
  static_assert(kMr == 4 && kNr == 8 && kMrZ == 8 && kNrWide == 16 &&
                    kNrZ == 32,
                "one case per tile width");
  switch (width) {
    case 4: pack_panel<4>(source, src, ld, valid, k, vector, out); return;
    case 8: pack_panel<8>(source, src, ld, valid, k, vector, out); return;
    case 16: pack_panel<16>(source, src, ld, valid, k, vector, out); return;
    default: pack_panel<32>(source, src, ld, valid, k, vector, out); return;
  }
}

/// What a compute loop reads: A's packed row panels, and B either in
/// place (row-major, full panels) or from its packed column panels.
struct Operands {
  const float* a_panels;  ///< ceil(m / MR) panels of k x MR
  const float* b;         ///< row-major B read in place; null for B^T
  int ldb;
  const float* b_panels;  ///< every panel when b is null, else the tail

  /// Column panel jp of an NR-wide tile (nv valid lanes) and its row
  /// stride.
  template <int NR>
  const float* b_panel(int jp, int k, int nv, int* stride) const {
    if (b == nullptr) {
      *stride = NR;
      return b_panels + static_cast<std::size_t>(jp) * k * NR;
    }
    if (nv == NR) {
      *stride = ldb;
      return b + jp * NR;
    }
    *stride = NR;
    return b_panels;
  }
};

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

#ifdef SMA_NN_X86_DISPATCH

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
    int m, int n, int k, const Operands& ops, float* c, int ldc,
    const float* bias, float slope, std::uint8_t* mask) {
  const int panels = (n + kNrWide - 1) / kNrWide;
  const int mblocks = (m + kMr - 1) / kMr;
  // The panel loop runs outermost so each B panel is streamed through
  // every row block while it is cache-hot (the matrices with a large m
  // here are activations whose packed form is small next to the B
  // operand).
  for (int jp = 0; jp < panels; ++jp) {
    const int j0 = jp * kNrWide;
    const int nv = n - j0 < kNrWide ? n - j0 : kNrWide;
    int bs = 0;
    const float* bp = ops.b_panel<kNrWide>(jp, k, nv, &bs);
    for (int ib = 0; ib < mblocks; ++ib) {
      const int i0 = ib * kMr;
      const int mr = m - i0 < kMr ? m - i0 : kMr;
      micro_tile_avx2<kMode, kBias, kLrelu, kHasMask>(
          k, ldc, ops.a_panels + static_cast<std::size_t>(ib) * k * kMr, bp,
          bs, c, static_cast<std::size_t>(i0) * ldc + j0, mr, nv, bias, i0, j0,
          slope, mask);
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
    int m, int n, int k, const Operands& ops, float* c, int ldc,
    const float* bias, float slope, std::uint8_t* mask) {
  const int panels = (n + kNrZ - 1) / kNrZ;
  const int mblocks = (m + kMrZ - 1) / kMrZ;
  for (int jp = 0; jp < panels; ++jp) {
    const int j0 = jp * kNrZ;
    const int nv = n - j0 < kNrZ ? n - j0 : kNrZ;
    int bs = 0;
    const float* bp = ops.b_panel<kNrZ>(jp, k, nv, &bs);
    for (int ib = 0; ib < mblocks; ++ib) {
      const int i0 = ib * kMrZ;
      const int mr = m - i0 < kMrZ ? m - i0 : kMrZ;
      micro_tile_avx512<kMode, kBias, kLrelu, kHasMask>(
          k, ldc, ops.a_panels + static_cast<std::size_t>(ib) * k * kMrZ, bp,
          bs, c, static_cast<std::size_t>(i0) * ldc + j0, mr, nv, bias, i0, j0,
          slope, mask);
    }
  }
}

#endif  // SMA_NN_X86_DISPATCH

template <CMode kMode, BiasKind kBias, bool kLrelu, bool kHasMask>
void blocked_loop(int m, int n, int k, const Operands& ops, float* c, int ldc,
                  const float* bias, float slope, std::uint8_t* mask) {
  const int panels = (n + kNr - 1) / kNr;
  const int mblocks = (m + kMr - 1) / kMr;
  for (int jp = 0; jp < panels; ++jp) {
    const int j0 = jp * kNr;
    const int nv = n - j0 < kNr ? n - j0 : kNr;
    int bs = 0;
    const float* bp = ops.b_panel<kNr>(jp, k, nv, &bs);
    for (int ib = 0; ib < mblocks; ++ib) {
      const int i0 = ib * kMr;
      const int mr = m - i0 < kMr ? m - i0 : kMr;
      micro_tile<kNr, kMode, kBias, kLrelu, kHasMask>(
          k, ldc, ops.a_panels + static_cast<std::size_t>(ib) * k * kMr, bp,
          bs, c, static_cast<std::size_t>(i0) * ldc + j0, mr, nv, bias, i0, j0,
          slope, mask);
    }
  }
}

/// The register tile of one call, chosen once in blocked_gemm: the pack
/// stage packs panels of its widths and the compute loop of its ISA runs.
/// The AVX-512 tile covers n >= 16 (a narrower product would run mostly
/// padding lanes); below that the 4 x 16 AVX2 tile runs.
struct Tile {
  enum class Isa { kPortable, kAvx2, kAvx512 } isa;
  int mr;
  int nr;
};

Tile choose_tile(int n) {
  if (have_avx512() && n >= kNrWide) return {Tile::Isa::kAvx512, kMrZ, kNrZ};
  if (have_avx2()) return {Tile::Isa::kAvx2, kMr, kNrWide};
  return {Tile::Isa::kPortable, kMr, kNr};
}

/// The pack stage of one call: every row panel of A, then B's column
/// panels where B is not read in place — all of them for B^T, only the
/// ragged tail panel for row-major B (full row-major panels are already
/// contiguous rows). The wide tiles transpose with AVX2 blocks; the
/// AVX-512 tile implies AVX2 (see have_avx512).
Operands pack_operands(const Tile& tile, int m, int n, int k, const float* a,
                       int lda, bool a_trans, const float* b, int ldb,
                       bool b_trans, GemmScratch& scratch) {
  SMA_TRACE_SPAN("nn", "gemm.pack");
  const bool vector = tile.isa != Tile::Isa::kPortable;
  const int mblocks = (m + tile.mr - 1) / tile.mr;
  scratch.a_panel.resize(static_cast<std::size_t>(mblocks) * k * tile.mr);
  for (int ib = 0; ib < mblocks; ++ib) {
    const int i0 = ib * tile.mr;
    pack_panel(tile.mr, a_trans ? PanelSource::kLanes : PanelSource::kRows,
               a_trans ? a + i0 : a + static_cast<std::size_t>(i0) * lda, lda,
               m - i0 < tile.mr ? m - i0 : tile.mr, k, vector,
               scratch.a_panel.data() +
                   static_cast<std::size_t>(ib) * k * tile.mr);
  }
  const int panels = (n + tile.nr - 1) / tile.nr;
  if (b_trans) {
    scratch.b_panel.resize(static_cast<std::size_t>(panels) * k * tile.nr);
    for (int jp = 0; jp < panels; ++jp) {
      const int j0 = jp * tile.nr;
      pack_panel(tile.nr, PanelSource::kRows,
                 b + static_cast<std::size_t>(j0) * ldb, ldb,
                 n - j0 < tile.nr ? n - j0 : tile.nr, k, vector,
                 scratch.b_panel.data() +
                     static_cast<std::size_t>(jp) * k * tile.nr);
    }
  } else if (n % tile.nr != 0) {
    scratch.b_panel.resize(static_cast<std::size_t>(k) * tile.nr);
    const int tail_j0 = (panels - 1) * tile.nr;
    pack_panel(tile.nr, PanelSource::kLanes, b + tail_j0, ldb, n - tail_j0, k,
               vector, scratch.b_panel.data());
  }
  return {scratch.a_panel.data(), b_trans ? nullptr : b, ldb,
          scratch.b_panel.data()};
}

template <CMode kMode, BiasKind kBias, bool kLrelu, bool kHasMask>
void blocked_dispatch(Tile::Isa isa, int m, int n, int k, const Operands& ops,
                      float* c, int ldc, const float* bias, float slope,
                      std::uint8_t* mask) {
  switch (isa) {
#ifdef SMA_NN_X86_DISPATCH
    case Tile::Isa::kAvx512:
      blocked_loop_avx512<kMode, kBias, kLrelu, kHasMask>(m, n, k, ops, c, ldc,
                                                         bias, slope, mask);
      return;
    case Tile::Isa::kAvx2:
      blocked_loop_avx2<kMode, kBias, kLrelu, kHasMask>(m, n, k, ops, c, ldc,
                                                       bias, slope, mask);
      return;
#endif
    default:
      blocked_loop<kMode, kBias, kLrelu, kHasMask>(m, n, k, ops, c, ldc, bias,
                                                  slope, mask);
      return;
  }
}

/// Blocked driver shared by every optimized form: choose the tile, run the
/// pack stage, then the compute loop. `c` (and `mask`) is row-major with
/// leading dimension ldc; `bias`/`lrelu`/`mask` only apply to kOverwrite.
void blocked_gemm(int m, int n, int k, const float* a, int lda, bool a_trans,
                  const float* b, int ldb, bool b_trans, float* c, int ldc,
                  CMode mode, BiasKind bias_kind, const float* bias,
                  bool lrelu, float slope, std::uint8_t* mask,
                  GemmScratch& scratch) {
  if (m <= 0 || n <= 0) return;
  // Per call, never per tile: one relaxed add for the dispatch count, and
  // the gemm.pack span, which costs one relaxed load unless tracing is on.
  // This is the hottest entry point in the repo.
  SMA_COUNT("gemm.blocked_calls");
  const Tile tile = choose_tile(n);
  const Operands ops = pack_operands(tile, m, n, k, a, lda, a_trans, b, ldb,
                                     b_trans, scratch);

  switch (mode) {
    case CMode::kLoad:
      blocked_dispatch<CMode::kLoad, BiasKind::kNone, false, false>(
          tile.isa, m, n, k, ops, c, ldc, nullptr, 0.0f, nullptr);
      break;
    case CMode::kOverwrite:
      if (bias_kind == BiasKind::kNone) {
        blocked_dispatch<CMode::kOverwrite, BiasKind::kNone, false, false>(
            tile.isa, m, n, k, ops, c, ldc, nullptr, 0.0f, nullptr);
      } else if (bias_kind == BiasKind::kCol) {
        if (lrelu && mask != nullptr) {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kCol, true, true>(
              tile.isa, m, n, k, ops, c, ldc, bias, slope, mask);
        } else if (lrelu) {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kCol, true, false>(
              tile.isa, m, n, k, ops, c, ldc, bias, slope, nullptr);
        } else if (mask != nullptr) {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kCol, false, true>(
              tile.isa, m, n, k, ops, c, ldc, bias, slope, mask);
        } else {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kCol, false, false>(
              tile.isa, m, n, k, ops, c, ldc, bias, slope, nullptr);
        }
      } else {
        if (lrelu && mask != nullptr) {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kRow, true, true>(
              tile.isa, m, n, k, ops, c, ldc, bias, slope, mask);
        } else if (lrelu) {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kRow, true, false>(
              tile.isa, m, n, k, ops, c, ldc, bias, slope, nullptr);
        } else if (mask != nullptr) {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kRow, false, true>(
              tile.isa, m, n, k, ops, c, ldc, bias, slope, mask);
        } else {
          blocked_dispatch<CMode::kOverwrite, BiasKind::kRow, false, false>(
              tile.isa, m, n, k, ops, c, ldc, bias, slope, nullptr);
        }
      }
      break;
  }
}

}  // namespace

#ifdef SMA_NN_X86_DISPATCH

/// The AVX-512 tile packs with AVX2 block transposes, so it requires
/// both (every AVX-512F host has AVX2).
bool have_avx512() {
  static const bool value =
      __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx2");
  return value;
}

bool have_avx2() {
  static const bool value = __builtin_cpu_supports("avx2");
  return value;
}

#else

bool have_avx512() { return false; }
bool have_avx2() { return false; }

#endif  // SMA_NN_X86_DISPATCH

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

/// im2col and col2im move stride-1 planes at least this large as one
/// shifted run per tap; smaller ones go through the tap table.
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
  const bool cm = dx_layout == Layout::kChannelMajor;
  // Stride 1: output pixel p adds onto input pixel p + shift wherever the
  // tap lands (the im2col runs, read backwards).
  const bool runs = stride == 1 && hw >= kRunMinPixels;
  const std::int32_t* table =
      runs ? nullptr : tap_table(h, w, stride, ho, wo, scratch);
  if (runs && scratch.edge.size() < static_cast<std::size_t>(h)) {
    scratch.edge.resize(h);
  }
  float* saved = scratch.edge.data();
  // Tap order (c asc, ky desc, kx desc) reproduces the per-element
  // accumulation order of the direct col2im nest (img, oy, ox, c, ky, kx
  // — the test oracle's loop): for a fixed dx element each output pixel
  // contributes through at most one tap, and ky desc <=> oy asc (resp.
  // kx/ox), so contributions arrive in ascending (oy, ox). Neither the
  // image range nor the plane base offset takes part in that order, and
  // neither does the order of the adds within one (c, tap, image) pass,
  // which reaches each element at most once.
  for (int c = 0; c < c_in; ++c) {
    for (int t = 8; t >= 0; --t) {
      if (!live[t]) continue;
      const float* src =
          dcols + static_cast<std::size_t>(c * 9 + t) * tile_rows;
      const int kx = t % 3;
      const int shift = (t / 3 - 1) * w + (kx - 1);
      const int lo = shift < 0 ? -shift : 0;
      const int hi = shift > 0 ? hw - shift : hw;
      // Pixels whose tap falls off the top or bottom lie outside
      // [lo, hi). Those whose tap falls off the left (right) edge wrap
      // onto the last (first) column of the neighbouring row: a column
      // this tap never reaches otherwise, so it is saved before the run
      // and restored after it.
      const int edge = kx == 0 ? w - 1 : 0;
      const std::int32_t* tap =
          runs ? nullptr : table + static_cast<std::size_t>(t) * hwo;
      for (int img = img0; img < img1; ++img) {
        float* plane = dx + plane_base(cm, n, c_in, img, c, hw);
        const float* in = src + static_cast<std::size_t>(img - img0) * hwo;
        if (runs) {
          if (kx != 1) {
            for (int y = 0; y < h; ++y) saved[y] = plane[y * w + edge];
          }
          float* __restrict out = plane + (lo + shift);
          const float* __restrict add = in + lo;
          for (int p = 0; p < hi - lo; ++p) out[p] += add[p];
          if (kx != 1) {
            for (int y = 0; y < h; ++y) plane[y * w + edge] = saved[y];
          }
        } else {
          for (int p = 0; p < hwo; ++p) {
            if (tap[p] >= 0) plane[tap[p]] += in[p];
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
