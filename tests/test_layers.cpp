// Layer tests, including numerical gradient checks — the ground truth for
// every hand-written backward pass.
#include "nn/layers.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/attack_net.hpp"
#include "nn_oracle.hpp"

namespace sma::nn {
namespace {

using test::oracle::LeakyReLU;

// Linear, Conv2d and ResBlock keep a pointer to forward's input until
// backward, so a temporary input must not compile. LeakyReLU copies its
// input and shows the rvalue probe can succeed.
template <typename Layer>
constexpr bool kForwardTakesLvalue =
    requires(Layer& layer, Tensor& x) { layer.forward(x); };
template <typename Layer>
constexpr bool kForwardTakesRvalue =
    requires(Layer& layer) { layer.forward(Tensor()); };
static_assert(kForwardTakesLvalue<Linear> && !kForwardTakesRvalue<Linear>);
static_assert(kForwardTakesLvalue<Conv2d> && !kForwardTakesRvalue<Conv2d>);
static_assert(kForwardTakesLvalue<ResBlock> &&
              !kForwardTakesRvalue<ResBlock>);
static_assert(kForwardTakesRvalue<LeakyReLU>);

/// Numerical vs analytic input gradient for a layer functor.
/// `forward` must be pure given the same layer state.
template <typename Layer>
void check_input_gradient(Layer& layer, Tensor x, double tolerance = 2e-2) {
  Tensor y = layer.forward(x);
  // Loss = sum(y * c) with fixed pseudo-random coefficients.
  Tensor coeff(y.shape());
  util::Pcg32 rng(99);
  for (std::size_t i = 0; i < coeff.size(); ++i) {
    coeff[i] = static_cast<float>(rng.next_double() - 0.5);
  }
  // The loss pairs coeff[j] with y's storage element j, so dy must carry
  // y's layout tag — for a channel-major conv output the gradient of
  // that loss IS coeff laid out channel-major.
  Tensor dy = coeff;
  dy.set_layout(y.layout());
  Tensor dx = layer.backward(dy);

  const float eps = 1e-2f;
  util::Pcg32 pick(123);
  for (int trial = 0; trial < 12; ++trial) {
    std::size_t i = pick.next_below(static_cast<std::uint32_t>(x.size()));
    Tensor xp = x;
    xp[i] += eps;
    Tensor xm = x;
    xm[i] -= eps;
    Tensor yp = layer.forward(xp);
    Tensor ym = layer.forward(xm);
    double lp = 0.0;
    double lm = 0.0;
    for (std::size_t j = 0; j < yp.size(); ++j) {
      lp += static_cast<double>(yp[j]) * coeff[j];
      lm += static_cast<double>(ym[j]) * coeff[j];
    }
    double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(dx[i], numeric, tolerance)
        << "input gradient mismatch at " << i;
  }
}

TEST(Gemm, OvrNnMatchesManual) {
  // A = [[1,2],[3,4]], B = [[5,6],[7,8]]; the overwrite form ignores C.
  float a[] = {1, 2, 3, 4};
  float b[] = {5, 6, 7, 8};
  float c[4] = {-1, -1, -1, -1};
  GemmScratch scratch;
  gemm_ovr_nn(2, 2, 2, a, b, c, scratch);
  EXPECT_FLOAT_EQ(c[0], 19);
  EXPECT_FLOAT_EQ(c[1], 22);
  EXPECT_FLOAT_EQ(c[2], 43);
  EXPECT_FLOAT_EQ(c[3], 50);
}

TEST(Gemm, AccTnAddsTransposedProduct) {
  // A^T stored [K=2, M=3]: effective A [3,2]; C starts at 1.
  float at[] = {1, 2, 3, 4, 5, 6};  // A = [[1,4],[2,5],[3,6]]
  float b[] = {1, 0, 0, 1};         // identity
  float c[6] = {1, 1, 1, 1, 1, 1};
  GemmScratch scratch;
  gemm_acc_tn(3, 2, 2, at, b, c, scratch);
  EXPECT_FLOAT_EQ(c[0], 2);
  EXPECT_FLOAT_EQ(c[1], 5);
  EXPECT_FLOAT_EQ(c[2], 3);
  EXPECT_FLOAT_EQ(c[3], 6);
  EXPECT_FLOAT_EQ(c[4], 4);
  EXPECT_FLOAT_EQ(c[5], 7);
}

TEST(Gemm, ForwardNtAddsBiasAndActivates) {
  // B^T stored [N=2, K=2]; B = [[5,7],[6,8]], so A B = [[17,23],[39,53]].
  float a[] = {1, 2, 3, 4};
  float bt[] = {5, 6, 7, 8};
  float bias[] = {-20, 0};
  float c[4] = {};
  std::uint8_t mask[4] = {};
  GemmScratch scratch;
  gemm_forward_nt(2, 2, 2, a, bt, bias, c, Epilogue::kBiasLeakyReLU, 0.01f,
                  mask, scratch);
  EXPECT_FLOAT_EQ(c[0], -0.03f);  // 17 - 20 = -3, then LeakyReLU
  EXPECT_FLOAT_EQ(c[1], 23);
  EXPECT_FLOAT_EQ(c[2], 19);
  EXPECT_FLOAT_EQ(c[3], 53);
  EXPECT_EQ(mask[0], 1);
  EXPECT_EQ(mask[1] + mask[2] + mask[3], 0);
}

TEST(Linear, ForwardShapeAndBias) {
  util::Pcg32 rng(1);
  Linear layer(4, 3, rng, "t");
  Tensor x({2, 4});
  x.fill(0.0f);
  Tensor y = layer.forward(x);
  ASSERT_EQ(y.shape(), (std::vector<int>{2, 3}));
  // Zero input -> output equals bias (zero-initialized).
  for (std::size_t i = 0; i < y.size(); ++i) EXPECT_FLOAT_EQ(y[i], 0.0f);
}

TEST(Linear, GradientCheck) {
  util::Pcg32 rng(2);
  Linear layer(5, 4, rng, "t");
  Tensor x = Tensor::randn({3, 5}, rng, 1.0);
  check_input_gradient(layer, x);
}

TEST(Linear, WeightGradientCheck) {
  util::Pcg32 rng(3);
  Linear layer(3, 2, rng, "t");
  Tensor x = Tensor::randn({2, 3}, rng, 1.0);

  std::vector<Param> params;
  layer.collect_params(params);
  ASSERT_EQ(params.size(), 2u);
  Tensor& w = *params[0].value;
  Tensor& dw = *params[0].grad;

  Tensor y = layer.forward(x);
  Tensor dy(y.shape());
  dy.fill(1.0f);
  layer.backward(dy);

  const float eps = 1e-2f;
  for (std::size_t i = 0; i < w.size(); ++i) {
    float saved = w[i];
    w[i] = saved + eps;
    Tensor yp = layer.forward(x);
    w[i] = saved - eps;
    Tensor ym = layer.forward(x);
    w[i] = saved;
    double lp = 0.0;
    double lm = 0.0;
    for (std::size_t j = 0; j < yp.size(); ++j) {
      lp += yp[j];
      lm += ym[j];
    }
    EXPECT_NEAR(dw[i], (lp - lm) / (2 * eps), 2e-2);
  }
}

TEST(LeakyReLU, ForwardSemantics) {
  LeakyReLU act;
  Tensor x({4});
  x[0] = 2.0f;
  x[1] = -2.0f;
  x[2] = 0.0f;
  x[3] = -100.0f;
  Tensor y = act.forward(x);
  EXPECT_FLOAT_EQ(y[0], 2.0f);
  EXPECT_FLOAT_EQ(y[1], -0.02f);
  EXPECT_FLOAT_EQ(y[2], 0.0f);
  EXPECT_FLOAT_EQ(y[3], -1.0f);
}

TEST(LeakyReLU, BackwardMask) {
  LeakyReLU act;
  Tensor x({2});
  x[0] = 3.0f;
  x[1] = -3.0f;
  act.forward(x);
  Tensor dy({2});
  dy.fill(1.0f);
  Tensor dx = act.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 1.0f);
  EXPECT_FLOAT_EQ(dx[1], 0.01f);
}

TEST(Conv2d, OutputSizes) {
  util::Pcg32 rng(4);
  Conv2d stride1(3, 8, 1, rng, "c1");
  Conv2d stride3(3, 8, 3, rng, "c3");
  EXPECT_EQ(stride1.out_size(99), 99);
  EXPECT_EQ(stride3.out_size(99), 33);
  EXPECT_EQ(stride3.out_size(33), 11);
  EXPECT_EQ(stride3.out_size(11), 4);
  EXPECT_EQ(stride3.out_size(15), 5);
}

TEST(Conv2d, IdentityKernelReproducesInput) {
  util::Pcg32 rng(5);
  Conv2d conv(1, 1, 1, rng, "id");
  std::vector<Param> params;
  conv.collect_params(params);
  Tensor& w = *params[0].value;
  w.fill(0.0f);
  w[4] = 1.0f;  // center tap of the 3x3 kernel
  Tensor x = Tensor::randn({1, 1, 5, 5}, rng, 1.0);
  Tensor y = conv.forward(x);
  ASSERT_EQ(y.shape(), x.shape());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i], x[i], 1e-5);
  }
}

TEST(Conv2d, GradientCheck) {
  util::Pcg32 rng(6);
  Conv2d conv(2, 3, 1, rng, "g");
  Tensor x = Tensor::randn({2, 2, 4, 4}, rng, 1.0);
  check_input_gradient(conv, x);
}

TEST(Conv2d, StridedGradientCheck) {
  util::Pcg32 rng(7);
  Conv2d conv(1, 2, 3, rng, "gs");
  Tensor x = Tensor::randn({1, 1, 7, 7}, rng, 1.0);
  check_input_gradient(conv, x);
}

TEST(Conv2d, FastTrunkLayersAreWidthInvariant) {
  // DlAttack::attack embeds a dataset's images in 64-image chunks while
  // the per-query path runs a query's n + 1 images, so an image's conv
  // output must not depend on how many images share the call. Every conv
  // layer of NetConfig::fast(), at the plane size it sees in the trunk
  // (15 px in the first group, then 15 -> 5, 5 -> 2 and 2 -> 1 at the
  // stride-3 layers), runs over 1 to 70 images; each image's output bytes
  // must equal its solo run's. On a 1 px plane the GEMM's n is the image
  // count, so the width picks the register tile: the AVX-512 8x32 tile
  // from n = 16 on hosts that have it, the AVX2 4x16 tile below.
  constexpr int kMaxImages = 70;
  const NetConfig fast = NetConfig::fast();
  util::Pcg32 rng(2019);
  int in_ch = 3;
  int size = 15;
  for (int group = 0; group < 4; ++group) {
    for (int layer = 0; layer < 3; ++layer) {
      const int out_ch = fast.conv_channels[group];
      const int stride = (group > 0 && layer == 0) ? 3 : 1;
      const std::string name =
          "conv" + std::to_string(group + 1) + "_" + std::to_string(layer);
      SCOPED_TRACE(name + " at " + std::to_string(size) + " px");
      Conv2d conv(in_ch, out_ch, stride, rng, name, Act::kLeakyReLU);
      // The trunk's first conv reads the row-major dataset images; every
      // later one reads its predecessor's channel-major output.
      const Layout layout = group == 0 && layer == 0 ? Layout::kRowMajor
                                                     : Layout::kChannelMajor;
      const Tensor x = Tensor::randn({kMaxImages, in_ch, size, size}, rng, 1.0);
      const std::size_t in_per = static_cast<std::size_t>(in_ch) * size * size;
      const int out = conv.out_size(size);
      const std::size_t out_per = static_cast<std::size_t>(out_ch) * out * out;
      const auto run = [&](int first, int count) {
        Tensor batch({count, in_ch, size, size});
        std::memcpy(batch.data(), x.data() + first * in_per,
                    sizeof(float) * count * in_per);
        const Tensor input = to_layout(batch, layout);
        return to_row_major(conv.forward(input));
      };
      std::vector<Tensor> solo;
      for (int i = 0; i < kMaxImages; ++i) solo.push_back(run(i, 1));
      for (int count = 1; count <= kMaxImages; ++count) {
        const Tensor y = run(0, count);
        for (int i = 0; i < count; ++i) {
          ASSERT_EQ(std::memcmp(y.data() + i * out_per, solo[i].data(),
                                sizeof(float) * out_per),
                    0)
              << "image " << i << " of " << count;
        }
      }
      in_ch = out_ch;
      size = out;
    }
  }
  EXPECT_EQ(size, 1);
}

TEST(GlobalAvgPool, ForwardAndBackward) {
  GlobalAvgPool pool;
  Tensor x({1, 2, 2, 2});
  for (int i = 0; i < 8; ++i) x[i] = static_cast<float>(i);
  Tensor y = pool.forward(x);
  ASSERT_EQ(y.shape(), (std::vector<int>{1, 2}));
  EXPECT_FLOAT_EQ(y[0], 1.5f);  // mean of 0..3
  EXPECT_FLOAT_EQ(y[1], 5.5f);  // mean of 4..7
  Tensor dy({1, 2});
  dy[0] = 4.0f;
  dy[1] = 8.0f;
  Tensor dx = pool.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 1.0f);
  EXPECT_FLOAT_EQ(dx[7], 2.0f);
}

TEST(LayoutContract, ConvTrunkBoundariesCarryChannelMajor) {
  // The AttackNet activation contract checked at every layer-pair
  // boundary of the conv trunk, forward and backward: the dataset input
  // and the pool->fc seam are row-major; everything between convs stays
  // channel-major, and each backward hands dx back in the layout its
  // forward consumed.
  util::Pcg32 rng(42);
  Conv2d conv1(3, 6, 3, rng, "c1", Act::kLeakyReLU);
  Conv2d conv2(6, 8, 3, rng, "c2", Act::kLeakyReLU);
  GlobalAvgPool pool;
  Linear fc(8, 4, rng, "fc");

  Tensor x = Tensor::randn({2, 3, 15, 15}, rng, 1.0);
  ASSERT_EQ(x.layout(), Layout::kRowMajor);

  Tensor y1 = conv1.forward(x);
  EXPECT_EQ(y1.layout(), Layout::kChannelMajor);  // conv -> conv boundary
  Tensor y2 = conv2.forward(y1);
  EXPECT_EQ(y2.layout(), Layout::kChannelMajor);  // conv -> pool boundary
  Tensor p = pool.forward(y2);
  EXPECT_EQ(p.layout(), Layout::kRowMajor);  // pool -> fc seam
  Tensor out = fc.forward(p);
  EXPECT_EQ(out.layout(), Layout::kRowMajor);

  Tensor dout(out.shape());
  dout.fill(1.0f);
  Tensor dp = fc.backward(dout);
  EXPECT_EQ(dp.layout(), Layout::kRowMajor);  // fc seam, backward
  Tensor dy2 = pool.backward(dp);
  EXPECT_EQ(dy2.layout(), Layout::kChannelMajor);  // dx in x's own layout
  Tensor dy1 = conv2.backward(dy2);
  EXPECT_EQ(dy1.layout(), Layout::kChannelMajor);
  Tensor dx = conv1.backward(dy1);
  EXPECT_EQ(dx.layout(), Layout::kRowMajor);  // dataset seam, backward
  EXPECT_EQ(dx.shape(), x.shape());
}

TEST(LayoutContract, ConvBackwardRejectsRowMajorDy) {
  // dy is the gradient of the conv's channel-major output, so it must
  // arrive channel-major too: row-major storage would be read as permuted
  // planes. Debug builds enforce that single-layout contract.
  if (!layout_checks_enabled()) {
    GTEST_SKIP() << "layout contract checks are compiled into Debug only";
  }
  util::Pcg32 rng(42);
  Conv2d conv(3, 6, 3, rng, "c1", Act::kLeakyReLU);
  Tensor x = Tensor::randn({2, 3, 15, 15}, rng, 1.0);
  Tensor y = conv.forward(x);
  ASSERT_EQ(y.layout(), Layout::kChannelMajor);
  Tensor dy_rm(y.shape());
  dy_rm.fill(1.0f);
  EXPECT_THROW(conv.backward(dy_rm), std::logic_error);
  EXPECT_NO_THROW(conv.backward(to_layout(dy_rm, Layout::kChannelMajor)));
}

TEST(ResBlock, IdentitySkipPath) {
  util::Pcg32 rng(8);
  ResBlock block(8, rng, "r");
  // Zero all weights: output must equal input (plus lrelu(0) = 0).
  std::vector<Param> params;
  block.collect_params(params);
  for (Param& p : params) p.value->fill(0.0f);
  Tensor x = Tensor::randn({3, 8}, rng, 1.0);
  Tensor y = block.forward(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_FLOAT_EQ(y[i], x[i]);
  }
}

TEST(ResBlock, GradientCheck) {
  util::Pcg32 rng(9);
  ResBlock block(6, rng, "r");
  Tensor x = Tensor::randn({2, 6}, rng, 1.0);
  check_input_gradient(block, x);
}

}  // namespace
}  // namespace sma::nn
