// Test-only oracle for the NN kernels and layers: naive GEMM loops and the
// direct conv pipeline (row-major im2col / col2im over NCHW buffers). The
// blocked GEMM entry points (nn/gemm.hpp) and the channel-major Conv2d and
// Linear layers (nn/layers.hpp) must reproduce these results to the last
// bit. Every output element here is one accumulation chain in ascending-k
// order, starting from C's prior value, with separate multiply and add —
// this TU is compiled with -ffp-contract=off (CMakeLists.txt), so the
// compiler cannot fuse them into an FMA that rounds once. The scalar
// Adam below is the optimizer's oracle in the same sense.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/optimizer.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace sma::test::oracle {

/// Storage of a GEMM operand: kN as written (A [M,K], B [K,N]), kT
/// transposed (A stored [K,M], B stored [N,K]).
enum class Op { kN, kT };

/// C[M,N] += op(A) * op(B). The overwrite forms are this over a zeroed C.
void gemm(Op op_a, Op op_b, int m, int n, int k, const float* a,
          const float* b, float* c);

/// The fused forward epilogue as separate passes over a finished product
/// C[M,N]: add the bias (bias[j] per column, or bias[i] per row when
/// `row_bias`), record mask = (pre-activation < 0), then apply LeakyReLU
/// when `lrelu`.
void bias_act(int m, int n, const float* bias, bool row_bias, bool lrelu,
              float slope, float* c, std::uint8_t* mask);

/// y = x W^T + b (+ LeakyReLU) over [rows, in] -> [rows, out], and its
/// backward. Starts from copies of a layer's weight [out, in] and bias;
/// gradients accumulate into dw/db the way the layer's do.
class Dense {
 public:
  Dense(const nn::Tensor& weight, const nn::Tensor& bias, bool lrelu,
        float slope = 0.01f);
  nn::Tensor forward(const nn::Tensor& x);
  nn::Tensor backward(const nn::Tensor& dy);

  std::vector<float> dw;
  std::vector<float> db;

 private:
  int in_;
  int out_;
  bool lrelu_;
  float slope_;
  std::vector<float> w_;
  std::vector<float> b_;
  nn::Tensor x_;
  std::vector<std::uint8_t> mask_;
};

/// 3x3 / pad-1 conv over row-major NCHW tensors: im2col into [rows, patch]
/// with rows = (img, oy, ox), y = cols W^T + b (+ LeakyReLU), reordered to
/// NCHW. Backward transposes the masked dy to [rows, out], accumulates
/// dW += dy^T cols and db, computes dcols = dy W and scatters it back in
/// (img, oy, ox, c, ky, kx) order. Starts from copies of a layer's weight
/// [out, in * 9] and bias.
class Conv {
 public:
  Conv(const nn::Tensor& weight, const nn::Tensor& bias, int stride,
       bool lrelu, float slope = 0.01f);
  nn::Tensor forward(const nn::Tensor& x);
  nn::Tensor backward(const nn::Tensor& dy);

  std::vector<float> dw;
  std::vector<float> db;

 private:
  int in_;
  int out_;
  int stride_;
  bool lrelu_;
  float slope_;
  std::vector<float> w_;
  std::vector<float> b_;
  std::vector<int> x_shape_;
  std::vector<float> cols_;
  std::vector<std::uint8_t> mask_;
};

/// Adam as one scalar loop per parameter, the form nn::Adam ran before
/// its element blocks and vector update: per element, m and v in double
/// narrowed to float, the bias-corrected step in double narrowed to
/// float, one float subtract, then the gradient zeroed. `serialize`
/// writes nn::Adam::serialize's layout, so tests compare weights,
/// gradients and state bytes.
class Adam {
 public:
  Adam(std::vector<nn::Param> params, const nn::AdamConfig& config);
  void step();
  void decay_lr() { lr_ *= config_.decay; }
  std::string serialize() const;

 private:
  std::vector<nn::Param> params_;
  nn::AdamConfig config_;
  double lr_;
  long t_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

/// Parameter shapes for the Adam bit-identity tests: every size from 1
/// to 17 elements (each vector tail of the update), then one tensor that
/// spans four nn::Adam blocks, the last one ragged.
std::vector<std::vector<int>> adam_identity_shapes();

/// A gradient for the Adam bit-identity tests. `tiny` draws only +-0,
/// subnormals and 1e-25 (whose square underflows), so that parameter's m
/// and v underflow to zero; otherwise ordinary values are mixed with +-0,
/// subnormals and +-1e30 (whose v overflows to infinity).
float adam_identity_grad(util::Pcg32& rng, bool tiny);

/// y = max(0.01 x, x) elementwise (the paper's LReLU activation), as a
/// standalone layer: the reference the layers' fused `Act::kLeakyReLU`
/// epilogue is tested against. It keeps the seed's fresh-tensor-per-call
/// behavior and takes no arena.
class LeakyReLU {
 public:
  explicit LeakyReLU(float slope = 0.01f) : slope_(slope) {}
  nn::Tensor forward(const nn::Tensor& x);
  nn::Tensor backward(const nn::Tensor& dy);

 private:
  float slope_;
  nn::Tensor x_;
};

}  // namespace sma::test::oracle
