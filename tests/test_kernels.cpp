// Bit-identity of the blocked GEMM core, and of the Linear and Conv2d
// layers built on it, against the naive test-only oracle (nn_oracle.hpp)
// — the contract that lets the optimized kernels stand in for naive loops
// without perturbing a single downstream number (trained models, CCRs,
// the parallel runtime's serial == parallel checks).
//
// Every comparison here is exact to the bit (memcmp, not EXPECT_NEAR):
// the kernels keep each output element's accumulation a single
// ascending-k chain, so any reassociation bug shows up as a hard failure
// on the randomized shapes below, which include sizes well off every
// register tile.
#include "nn/gemm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "nn/layers.hpp"
#include "nn/tensor.hpp"
#include "nn_oracle.hpp"
#include "util/rng.hpp"

namespace sma::nn {
namespace {

using test::oracle::Op;

std::vector<float> random_vec(std::size_t n, util::Pcg32& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.next_gaussian());
  return v;
}

bool bit_equal(const float* a, const float* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() && bit_equal(a.data(), b.data(), a.size());
}

bool bit_equal(const Tensor& a, const std::vector<float>& b) {
  return a.size() == b.size() && bit_equal(a.data(), b.data(), a.size());
}

// Shapes straddling the register tiles (4x8 portable, 4x16 AVX2, 8x32
// AVX-512): exact multiples, off-by-one tails, single rows/columns, k = 1.
// The last six sit on the pack stage's block boundaries: n of 24, 32,
// 48 and 64 (whole, part-padded and all-padding 8-lane groups of 32-wide
// panels), k of 8, 9, 16 and 24 (whole 8 x 8 blocks, a 1-column tail),
// m of 8, 9 and 16 (a full and a ragged 8-row A panel).
struct Shape {
  int m, n, k;
};
const Shape kShapes[] = {
    {1, 1, 1},   {1, 8, 4},    {4, 8, 16},   {5, 9, 7},    {3, 17, 1},
    {8, 16, 32}, {13, 31, 29}, {17, 5, 64},  {33, 40, 13}, {6, 128, 130},
    {40, 33, 57},
    {8, 24, 9},  {9, 32, 8},   {16, 48, 24}, {9, 64, 16},  {16, 24, 8},
    {8, 48, 9},
};

std::string shape_name(const Shape& s) {
  return std::to_string(s.m) + "x" + std::to_string(s.n) + "x" +
         std::to_string(s.k);
}

using GemmFn = void (*)(int, int, int, const float*, const float*, float*,
                        GemmScratch&);

/// One production form against the oracle on every shape. The += forms
/// start from a random nonzero C (association with the prior contents
/// matters); the overwrite forms start from a garbage-filled destination
/// they must ignore (layers reuse buffers without clearing), which the
/// oracle replaces with a zeroed C. One scratch serves every shape, so its
/// grow/shrink reuse is exercised too.
void expect_form_matches_oracle(GemmFn fn, Op op_a, Op op_b,
                                bool overwrite) {
  GemmScratch scratch;
  for (const Shape& s : kShapes) {
    util::Pcg32 rng(1000u + s.m * 131 + s.n * 17 + s.k);
    const std::size_t c_size = static_cast<std::size_t>(s.m) * s.n;
    const std::vector<float> a =
        random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
    const std::vector<float> b =
        random_vec(static_cast<std::size_t>(s.k) * s.n, rng);
    std::vector<float> want =
        overwrite ? std::vector<float>(c_size, 0.0f) : random_vec(c_size, rng);
    std::vector<float> got =
        overwrite ? std::vector<float>(c_size, 123.0f) : want;
    test::oracle::gemm(op_a, op_b, s.m, s.n, s.k, a.data(), b.data(),
                       want.data());
    fn(s.m, s.n, s.k, a.data(), b.data(), got.data(), scratch);
    EXPECT_TRUE(bit_equal(want.data(), got.data(), c_size))
        << "shape " << shape_name(s);
  }
}

TEST(Kernels, AccTnMatchesOracle) {
  expect_form_matches_oracle(&gemm_acc_tn, Op::kT, Op::kN,
                             /*overwrite=*/false);
}

TEST(Kernels, AccNtMatchesOracle) {
  expect_form_matches_oracle(&gemm_acc_nt, Op::kN, Op::kT,
                             /*overwrite=*/false);
}

TEST(Kernels, OvrNnMatchesOracle) {
  expect_form_matches_oracle(&gemm_ovr_nn, Op::kN, Op::kN,
                             /*overwrite=*/true);
}

TEST(Kernels, OvrTnMatchesOracle) {
  expect_form_matches_oracle(&gemm_ovr_tn, Op::kT, Op::kN,
                             /*overwrite=*/true);
}

TEST(Kernels, ForwardEpiloguesMatchOracle) {
  // gemm_forward_nt (Linear: per-column bias, B stored [N, K]) and
  // gemm_forward_nn_rowbias (Conv2d: per-row bias) against the product
  // followed by separate bias, mask and LeakyReLU passes. Destinations
  // and masks start as garbage.
  GemmScratch scratch;
  for (const Shape& s : kShapes) {
    util::Pcg32 rng(400u + s.m * 7 + s.n * 3 + s.k);
    const std::size_t c_size = static_cast<std::size_t>(s.m) * s.n;
    const std::vector<float> a =
        random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
    const std::vector<float> b =
        random_vec(static_cast<std::size_t>(s.k) * s.n, rng);
    const std::vector<float> bias_col = random_vec(s.n, rng);
    const std::vector<float> bias_row = random_vec(s.m, rng);
    for (bool row_bias : {false, true}) {
      for (Epilogue epilogue : {Epilogue::kBias, Epilogue::kBiasLeakyReLU}) {
        const bool lrelu = epilogue == Epilogue::kBiasLeakyReLU;
        const float* bias = row_bias ? bias_row.data() : bias_col.data();
        std::vector<float> want(c_size, 0.0f);
        std::vector<std::uint8_t> want_mask(c_size);
        test::oracle::gemm(Op::kN, row_bias ? Op::kN : Op::kT, s.m, s.n, s.k,
                           a.data(), b.data(), want.data());
        test::oracle::bias_act(s.m, s.n, bias, row_bias, lrelu, 0.01f,
                               want.data(), want_mask.data());

        std::vector<float> got(c_size, -77.0f);
        std::vector<std::uint8_t> got_mask(c_size, 3);
        if (row_bias) {
          // The row-bias form writes a column block of a wider C (Conv2d
          // tiles): run it at ldc = n + 3 and leave the pad columns alone.
          const int ldc = s.n + 3;
          std::vector<float> wide(static_cast<std::size_t>(s.m) * ldc, -77.0f);
          std::vector<std::uint8_t> wide_mask(wide.size(), 3);
          gemm_forward_nn_rowbias(s.m, s.n, s.k, a.data(), b.data(), bias,
                                  wide.data(), ldc, epilogue, 0.01f,
                                  wide_mask.data(), scratch);
          for (int i = 0; i < s.m; ++i) {
            const std::size_t row = static_cast<std::size_t>(i) * ldc;
            std::copy(wide.begin() + row, wide.begin() + row + s.n,
                      got.begin() + static_cast<std::size_t>(i) * s.n);
            std::copy(wide_mask.begin() + row, wide_mask.begin() + row + s.n,
                      got_mask.begin() + static_cast<std::size_t>(i) * s.n);
            for (int j = s.n; j < ldc; ++j) {
              EXPECT_EQ(wide[row + j], -77.0f) << shape_name(s);
              EXPECT_EQ(wide_mask[row + j], 3) << shape_name(s);
            }
          }
        } else {
          gemm_forward_nt(s.m, s.n, s.k, a.data(), b.data(), bias, got.data(),
                          epilogue, 0.01f, got_mask.data(), scratch);
        }
        const std::string what = shape_name(s) +
                                 (row_bias ? " rowbias" : " nt") +
                                 (lrelu ? " lrelu" : "");
        EXPECT_TRUE(bit_equal(want.data(), got.data(), c_size)) << what;
        EXPECT_EQ(want_mask, got_mask) << what;
      }
    }
  }
}

/// The pack stage's panels, read back from the caller's GemmScratch: every
/// valid lane holds its operand value and every padding lane is +0.0,
/// whatever the buffers held before. Padding never reaches C, so the form
/// tests cannot see it. `lanes` is the operand as the pack reads it
/// (lane r at k = p is lanes(r, p)); `count` lanes are valid.
template <typename Lanes>
void expect_panels(const std::vector<float>& panels, int width, int count,
                   int k, Lanes lanes, const std::string& what) {
  const int blocks = (count + width - 1) / width;
  ASSERT_EQ(panels.size(), static_cast<std::size_t>(blocks) * k * width)
      << what;
  int wrong = 0;
  for (int blk = 0; blk < blocks; ++blk) {
    for (int p = 0; p < k; ++p) {
      for (int r = 0; r < width; ++r) {
        const int lane = blk * width + r;
        const float want = lane < count ? lanes(lane, p) : 0.0f;
        const float got =
            panels[(static_cast<std::size_t>(blk) * k + p) * width + r];
        if (!bit_equal(&want, &got, 1)) ++wrong;
      }
    }
  }
  EXPECT_EQ(wrong, 0) << what;
}

TEST(Kernels, PackedPanelsHoldOperandsAndZeroPadding) {
  const std::string isa = active_isa();
  GemmScratch scratch;
  for (const Shape& s : kShapes) {
    // The register tile blocked_gemm runs (see nn/gemm.hpp).
    const int nr = isa == "avx512" && s.n >= 16 ? 32
                   : isa == "portable"          ? 8
                                                : 16;
    const int mr = nr == 32 ? 8 : 4;
    util::Pcg32 rng(9000u + s.m * 31 + s.n * 7 + s.k);
    const std::vector<float> a =
        random_vec(static_cast<std::size_t>(s.m) * s.k, rng);
    const std::vector<float> b =
        random_vec(static_cast<std::size_t>(s.k) * s.n, rng);
    std::vector<float> c(static_cast<std::size_t>(s.m) * s.n);
    const std::size_t stale = 4 * (a.size() + b.size()) + 4096;

    // Transposing sources: row-major A [m, k], B^T [n, k].
    scratch.a_panel.assign(stale, 777.0f);
    scratch.b_panel.assign(stale, -777.0f);
    gemm_acc_nt(s.m, s.n, s.k, a.data(), b.data(), c.data(), scratch);
    expect_panels(
        scratch.a_panel, mr, s.m, s.k,
        [&](int i, int p) { return a[static_cast<std::size_t>(i) * s.k + p]; },
        shape_name(s) + " A rows");
    expect_panels(
        scratch.b_panel, nr, s.n, s.k,
        [&](int j, int p) { return b[static_cast<std::size_t>(j) * s.k + p]; },
        shape_name(s) + " B^T rows");

    // Copying sources: A^T [k, m], and the ragged tail panel of row-major
    // B [k, n].
    scratch.a_panel.assign(stale, 777.0f);
    scratch.b_panel.assign(stale, -777.0f);
    gemm_ovr_tn(s.m, s.n, s.k, a.data(), b.data(), c.data(), scratch);
    expect_panels(
        scratch.a_panel, mr, s.m, s.k,
        [&](int i, int p) { return a[static_cast<std::size_t>(p) * s.m + i]; },
        shape_name(s) + " A^T lanes");
    if (s.n % nr != 0) {
      const int tail = s.n - s.n % nr;
      expect_panels(
          scratch.b_panel, nr, s.n - tail, s.k,
          [&](int j, int p) {
            return b[static_cast<std::size_t>(p) * s.n + tail + j];
          },
          shape_name(s) + " B tail lanes");
    }
  }
}

// ---- layer-level identity ----------------------------------------------

/// A layer's weight and bias gradients must equal the oracle's.
template <typename Layer, typename Oracle>
void expect_grads_match(Layer& layer, const Oracle& oracle) {
  std::vector<Param> params;
  layer.collect_params(params);
  ASSERT_EQ(params.size(), 2u);
  EXPECT_TRUE(bit_equal(*params[0].grad, oracle.dw)) << params[0].name;
  EXPECT_TRUE(bit_equal(*params[1].grad, oracle.db)) << params[1].name;
}

TEST(Kernels, LinearMatchesOracle) {
  for (Act act : {Act::kNone, Act::kLeakyReLU}) {
    for (const auto& [rows, in, out] :
         {std::tuple{1, 1, 1}, std::tuple{5, 9, 13}, std::tuple{16, 128, 32},
          std::tuple{3, 27, 128}, std::tuple{15, 128, 128},
          std::tuple{16, 256, 128}}) {
      util::Pcg32 data_rng(17u + rows + in + out);
      const Tensor x = Tensor::randn({rows, in}, data_rng, 1.0);
      const Tensor dy = Tensor::randn({rows, out}, data_rng, 1.0);
      util::Pcg32 rng(55);
      Linear layer(in, out, rng, "t", act);
      test::oracle::Dense oracle(layer.weight(), layer.bias(),
                                 act == Act::kLeakyReLU);
      SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(in) + "->" +
                   std::to_string(out));
      EXPECT_TRUE(bit_equal(oracle.forward(x), layer.forward(x)));
      EXPECT_TRUE(bit_equal(oracle.backward(dy), layer.backward(dy)));
      expect_grads_match(layer, oracle);
    }
  }
}

/// One Conv2d forward + backward against the oracle on [n, in_ch, h, w]
/// inputs. The oracle runs row-major NCHW; the layer takes x stored in
/// `x_layout` (row-major like the dataset input, or channel-major like
/// every conv after the first) and dy channel-major, as its contract
/// requires. Output, input gradient and both parameter gradients must
/// match bit for bit. With `input_grad` off the layer must return an
/// empty dx and still match dW and db.
void expect_conv_matches_oracle(int n, int in_ch, int out_ch, int stride,
                                int h, int w, Act act, Layout x_layout,
                                std::uint64_t seed, bool input_grad = true) {
  util::Pcg32 data_rng(seed);
  const Tensor x = Tensor::randn({n, in_ch, h, w}, data_rng, 1.0);
  const Tensor x_in = to_layout(x, x_layout);
  util::Pcg32 rng(66);
  Conv2d conv(in_ch, out_ch, stride, rng, "t", act);
  conv.set_compute_input_grad(input_grad);
  test::oracle::Conv oracle(conv.weight(), conv.bias(), stride,
                            act == Act::kLeakyReLU);

  const Tensor y = conv.forward(x_in);
  EXPECT_EQ(y.layout(), Layout::kChannelMajor);
  const Tensor y_want = oracle.forward(x);
  Tensor dy(y_want.shape());
  util::Pcg32 grad_rng(37);
  for (std::size_t i = 0; i < dy.size(); ++i) {
    dy[i] = static_cast<float>(grad_rng.next_gaussian());
  }
  const Tensor dx = conv.backward(to_layout(dy, Layout::kChannelMajor));

  SCOPED_TRACE("conv " + std::to_string(in_ch) + "->" +
               std::to_string(out_ch) + " s" + std::to_string(stride) + " [" +
               std::to_string(n) + "x" + std::to_string(h) + "x" +
               std::to_string(w) + "]" +
               (x_layout == Layout::kChannelMajor ? " cm" : " rm") +
               (act == Act::kLeakyReLU ? " lrelu" : "") +
               (input_grad ? "" : " no-dx"));
  EXPECT_TRUE(bit_equal(y_want, to_row_major(y)));
  const Tensor dx_want = oracle.backward(dy);
  if (input_grad) {
    EXPECT_EQ(dx.layout(), x_layout);
    EXPECT_TRUE(bit_equal(dx_want, to_row_major(dx)));
  } else {
    EXPECT_TRUE(dx.empty());
  }
  expect_grads_match(conv, oracle);
}

TEST(Kernels, Conv2dMatchesOracle) {
  struct Case {
    int n, in_ch, out_ch, stride, h, w;
  };
  for (Act act : {Act::kNone, Act::kLeakyReLU}) {
    for (Layout layout : {Layout::kRowMajor, Layout::kChannelMajor}) {
      // Non-multiple-of-tile channel counts and odd image sizes included,
      // and large planes: 70x70 at stride 1 (one image per tile) and the
      // paper profile's 99x99 at stride 3 and at stride 1 (its conv1). The
      // 15x15 plane runs at stride 1 and then at stride 3: the pack paths
      // keep their tap table across calls, and it must follow the whole
      // geometry, not just the plane size. Stride-1 planes of 16+ pixels
      // scatter col2im as shifted runs around a saved edge column: 4x4 is
      // exactly 16 pixels, 5x5 is the fast profile's conv2, 1x16 and 16x1
      // keep the taps of one kernel row or column, and 3x7 puts every
      // pixel within one row or column of an edge.
      for (const Case& c :
           {Case{1, 1, 1, 1, 3, 3}, Case{2, 3, 5, 1, 7, 7},
            Case{2, 3, 8, 1, 15, 15}, Case{2, 3, 8, 3, 15, 15},
            Case{1, 5, 13, 3, 11, 11}, Case{3, 2, 3, 1, 70, 70},
            Case{2, 2, 3, 3, 99, 99}, Case{3, 2, 3, 1, 4, 4},
            Case{4, 3, 5, 1, 5, 5}, Case{2, 3, 4, 1, 1, 16},
            Case{2, 3, 4, 1, 16, 1}, Case{3, 2, 5, 1, 3, 7},
            Case{1, 2, 3, 1, 99, 99}}) {
        expect_conv_matches_oracle(c.n, c.in_ch, c.out_ch, c.stride, c.h, c.w,
                                   act, layout, 29u + c.in_ch * c.out_ch);
      }
    }
  }
}

TEST(Kernels, Conv2dMultiTileMatchesOracle) {
  // Batches of at least three tiles with a ragged last one. Tiling must
  // not move a bit: forward writes each tile's columns of the output and
  // mask, dW and db carry their chains from tile to tile, and col2im
  // scatters each tile's images of dx.
  struct Case {
    int n, in_ch, out_ch, stride, size;
  };
  const Case cases[] = {
      {11, 8, 6, 1, 15},   // stride 1, shifted runs: 4 + 4 + 3
      {11, 64, 5, 1, 5},   // the fast profile's 5x5 planes: 4 + 4 + 3
      {21, 32, 5, 3, 15},  // stride 3, table gathers: 9 + 9 + 3
      {31, 512, 3, 3, 1},  // 1x1 planes, the w < kx edge: 14 + 14 + 3
  };
  for (const Case& c : cases) {
    const int out = (c.size + 2 - 3) / c.stride + 1;
    const int tile = Conv2d::tile_images(c.in_ch, out * out);
    ASSERT_GE((c.n + tile - 1) / tile, 3) << "n " << c.n;
    ASSERT_NE(c.n % tile, 0) << "n " << c.n;
    for (Act act : {Act::kNone, Act::kLeakyReLU}) {
      for (Layout layout : {Layout::kRowMajor, Layout::kChannelMajor}) {
        expect_conv_matches_oracle(c.n, c.in_ch, c.out_ch, c.stride, c.size,
                                   c.size, act, layout, 71u + c.n);
      }
    }
  }
  // A network's first conv skips its input gradient: dW and db only.
  expect_conv_matches_oracle(11, 8, 6, 1, 15, 15, Act::kLeakyReLU,
                             Layout::kRowMajor, 5u, /*input_grad=*/false);
}

TEST(Kernels, Conv2dStridedOnOnePixelInputIsDeterministic) {
  // Regression: for a 1-wide feature map and kernel column kx = 2 the
  // pack paths' edge formula (w - kx) / stride + 1 truncated -1/stride
  // toward zero, admitting an out-of-bounds tap: im2col read one float
  // past the row (heap garbage on the last plane — trained models became
  // nondeterministic) and col2im WROTE one float past it. Only stride-3
  // convs see it (stride 1 divides -1 exactly), and only once the trunk
  // shrinks to 1x1 maps — tiny test nets, not the paper profiles.
  struct Case {
    int n, in_ch, out_ch, size;
  };
  for (const Case& c :
       {Case{7, 8, 10, 1}, Case{3, 2, 5, 1}, Case{1, 1, 1, 1}}) {
    // Pollute the allocator's free lists so stale-memory taps cannot
    // masquerade as zeros.
    {
      std::vector<float> junk(1 << 18, 1e9f);
      volatile float sink = junk[0];
      (void)sink;
    }
    for (Layout layout : {Layout::kRowMajor, Layout::kChannelMajor}) {
      expect_conv_matches_oracle(c.n, c.in_ch, c.out_ch, /*stride=*/3, c.size,
                                 c.size, Act::kLeakyReLU, layout, 11u + c.n);
    }

    // And the pipeline must be repeatable against itself under a dirtied
    // heap (the original failure mode).
    util::Pcg32 data_rng(11u + c.n);
    const Tensor x = Tensor::randn({c.n, c.in_ch, c.size, c.size}, data_rng,
                                   1.0);
    Tensor y_first;
    Tensor dx_first;
    for (int round = 0; round < 2; ++round) {
      std::vector<float> junk(1 << 16, -1e9f);
      volatile float sink = junk[0];
      (void)sink;
      util::Pcg32 rng(44);
      Conv2d conv(c.in_ch, c.out_ch, 3, rng, "t", Act::kLeakyReLU);
      Tensor y = conv.forward(x);
      Tensor dy(y.shape());
      dy.set_layout(y.layout());
      util::Pcg32 grng(13);
      for (std::size_t i = 0; i < dy.size(); ++i) {
        dy[i] = static_cast<float>(grng.next_gaussian());
      }
      Tensor dx = conv.backward(dy);
      if (round == 0) {
        y_first = y;
        dx_first = dx;
      } else {
        EXPECT_TRUE(bit_equal(y_first, y));
        EXPECT_TRUE(bit_equal(dx_first, dx));
      }
    }
  }
}

// ---- backward masks ------------------------------------------------------

/// A LeakyReLU dy shaped like the forward output `y` (row-major): its
/// first `head` elements carry +inf, -inf and NaN once under each mask
/// value (the mask is y < 0, the sign a LeakyReLU output keeps); every
/// element cycles through signed zeros, subnormals and ordinary values.
/// The NaN is the one an invalid operation makes on this host, so every
/// NaN in the gradient chains has one bit pattern and no result depends
/// on which NaN operand an add keeps. Keeping the non-finite values to
/// the head leaves the gradients of every later row finite, where a
/// wrongly scaled subnormal or zero still shows.
Tensor mask_test_dy(const Tensor& y, std::size_t head) {
  volatile float zero = 0.0f;
  const float inf = 1.0f / zero;
  const float nan = inf * zero;
  const float nonfinite[] = {inf, -inf, nan};
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float finite[] = {0.0f,    -0.0f,   1e-40f, -3e-42f, denorm,
                          -denorm, 1.5f,    -0.75f, 3.0f};
  constexpr std::size_t kFinite = std::size(finite);
  Tensor dy(y.shape());
  bool placed[3][2] = {};
  bool seen[kFinite][2] = {};
  for (std::size_t i = 0; i < dy.size(); ++i) {
    const int masked = y[i] < 0.0f ? 1 : 0;
    dy[i] = finite[i % kFinite];
    seen[i % kFinite][masked] = true;
    for (int k = 0; i < head && k < 3; ++k) {
      if (!placed[k][masked]) {
        placed[k][masked] = true;
        dy[i] = nonfinite[k];
        break;
      }
    }
  }
  for (int masked = 0; masked < 2; ++masked) {
    for (int k = 0; k < 3; ++k) {
      EXPECT_TRUE(placed[k][masked]) << "non-finite " << k << " mask " << masked;
    }
    for (std::size_t f = 0; f < kFinite; ++f) {
      EXPECT_TRUE(seen[f][masked]) << "finite " << f << " mask " << masked;
    }
  }
  return dy;
}

TEST(Kernels, LeakyMaskMatchesBranchOnEveryTail) {
  // apply_leaky_mask against the branch it replaced, at every length up
  // to 40 (each vector tail), on special values under random 0/1 masks.
  volatile float zero = 0.0f;
  const float inf = 1.0f / zero;
  const float values[] = {0.0f,   -0.0f, inf,  -inf, inf * zero,
                          1e-40f, -3e-42f, 1.5f, -0.75f};
  util::Pcg32 rng(5);
  for (std::size_t n = 0; n <= 40; ++n) {
    std::vector<float> dy(n);
    std::vector<std::uint8_t> mask(n);
    std::vector<float> want(n);
    for (std::size_t i = 0; i < n; ++i) {
      dy[i] = values[rng.next_below(std::size(values))];
      mask[i] = static_cast<std::uint8_t>(rng.next_below(2));
      want[i] = mask[i] ? dy[i] * 0.01f : dy[i];
    }
    std::vector<float> got(n, 7.0f);
    apply_leaky_mask(dy.data(), mask.data(), 0.01f, n, got.data());
    EXPECT_TRUE(bit_equal(want.data(), got.data(), n)) << "n " << n;
  }
}

TEST(Kernels, LinearBackwardMaskMatchesOracleOnSpecialValues) {
  // 37 outputs: rows end off every vector width.
  constexpr int kRows = 16;
  constexpr int kIn = 24;
  constexpr int kOut = 37;
  util::Pcg32 data_rng(21);
  const Tensor x = Tensor::randn({kRows, kIn}, data_rng, 1.0);
  util::Pcg32 rng(8);
  Linear layer(kIn, kOut, rng, "t", Act::kLeakyReLU);
  test::oracle::Dense oracle(layer.weight(), layer.bias(), /*lrelu=*/true);
  const Tensor y = layer.forward(x);
  ASSERT_TRUE(bit_equal(oracle.forward(x), y));
  const Tensor dy = mask_test_dy(y, /*head=*/kOut);
  EXPECT_TRUE(bit_equal(oracle.backward(dy), layer.backward(dy)));
  expect_grads_match(layer, oracle);
}

TEST(Kernels, Conv2dBackwardMaskMatchesOracleOnSpecialValues) {
  // 7x7 planes at stride 1 run col2im as shifted runs, so the non-finite
  // gradients also cross the saved and restored edge columns.
  constexpr int kN = 3;
  constexpr int kIn = 3;
  constexpr int kOut = 5;
  constexpr int kSize = 7;
  for (Layout layout : {Layout::kRowMajor, Layout::kChannelMajor}) {
    SCOPED_TRACE(layout == Layout::kChannelMajor ? "cm" : "rm");
    util::Pcg32 data_rng(23);
    const Tensor x = Tensor::randn({kN, kIn, kSize, kSize}, data_rng, 1.0);
    util::Pcg32 rng(9);
    Conv2d conv(kIn, kOut, /*stride=*/1, rng, "t", Act::kLeakyReLU);
    test::oracle::Conv oracle(conv.weight(), conv.bias(), /*stride=*/1,
                              /*lrelu=*/true);
    // The layer holds its forward input by pointer until backward.
    const Tensor x_in = to_layout(x, layout);
    const Tensor y = to_row_major(conv.forward(x_in));
    ASSERT_TRUE(bit_equal(oracle.forward(x), y));
    // The head is image 0's channel-0 plane.
    const Tensor dy = mask_test_dy(y, /*head=*/kSize * kSize);
    const Tensor dx = conv.backward(to_layout(dy, Layout::kChannelMajor));
    EXPECT_TRUE(bit_equal(oracle.backward(dy), to_row_major(dx)));
    expect_grads_match(conv, oracle);
  }
}

TEST(Kernels, FusedActivationMatchesSeparateLayer) {
  // Linear(Act::kLeakyReLU) must equal Linear(no act) + LeakyReLU exactly,
  // forward and backward — the epilogue fusion is pure plumbing.
  util::Pcg32 data_rng(3);
  Tensor x = Tensor::randn({7, 19}, data_rng, 1.0);
  Tensor dy = Tensor::randn({7, 11}, data_rng, 1.0);

  util::Pcg32 rng_a(9);
  Linear fused(19, 11, rng_a, "t", Act::kLeakyReLU);
  Tensor y_fused = fused.forward(x);
  Tensor dx_fused = fused.backward(dy);

  util::Pcg32 rng_b(9);
  Linear plain(19, 11, rng_b, "t");
  LeakyReLU act;
  Tensor y_plain = act.forward(plain.forward(x));
  Tensor dx_plain = plain.backward(act.backward(dy));

  EXPECT_TRUE(bit_equal(y_fused, y_plain));
  EXPECT_TRUE(bit_equal(dx_fused, dx_plain));
}

TEST(Kernels, ScratchSurvivesShapeChanges) {
  // One layer instance driven through growing and shrinking batches: the
  // reusable scratch must resize correctly and stale contents must never
  // leak into results (compare against a fresh layer per shape).
  util::Pcg32 rng_a(111);
  Linear reused(23, 31, rng_a, "reused", Act::kLeakyReLU);
  for (int rows : {16, 3, 40, 1, 7}) {
    util::Pcg32 data_rng(rows);
    Tensor x = Tensor::randn({rows, 23}, data_rng, 1.0);

    Tensor y_reused = reused.forward(x);

    util::Pcg32 rng_b(111);
    Linear fresh(23, 31, rng_b, "fresh", Act::kLeakyReLU);
    Tensor y_fresh = fresh.forward(x);

    EXPECT_TRUE(bit_equal(y_reused, y_fresh)) << "rows " << rows;
  }
}

}  // namespace
}  // namespace sma::nn
