#include "nn_oracle.hpp"

#include <cmath>
#include <cstddef>
#include <limits>

#include "util/durable_io.hpp"

namespace sma::test::oracle {

namespace {

std::vector<float> copy_of(const nn::Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.size());
}

}  // namespace

void gemm(Op op_a, Op op_b, int m, int n, int k, const float* a,
          const float* b, float* c) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float& acc = c[static_cast<std::size_t>(i) * n + j];
      for (int p = 0; p < k; ++p) {
        const float av = op_a == Op::kN
                             ? a[static_cast<std::size_t>(i) * k + p]
                             : a[static_cast<std::size_t>(p) * m + i];
        const float bv = op_b == Op::kN
                             ? b[static_cast<std::size_t>(p) * n + j]
                             : b[static_cast<std::size_t>(j) * k + p];
        acc += av * bv;
      }
    }
  }
}

void bias_act(int m, int n, const float* bias, bool row_bias, bool lrelu,
              float slope, float* c, std::uint8_t* mask) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      const std::size_t e = static_cast<std::size_t>(i) * n + j;
      float v = c[e] + (row_bias ? bias[i] : bias[j]);
      mask[e] = v < 0.0f ? 1 : 0;
      if (lrelu && v < 0.0f) v *= slope;
      c[e] = v;
    }
  }
}

// --------------------------------------------------------------------
// Dense

Dense::Dense(const nn::Tensor& weight, const nn::Tensor& bias, bool lrelu,
             float slope)
    : dw(weight.size(), 0.0f),
      db(bias.size(), 0.0f),
      in_(weight.dim(1)),
      out_(weight.dim(0)),
      lrelu_(lrelu),
      slope_(slope),
      w_(copy_of(weight)),
      b_(copy_of(bias)) {}

nn::Tensor Dense::forward(const nn::Tensor& x) {
  x_ = x;
  const int rows = static_cast<int>(x.size()) / in_;
  nn::Tensor y({rows, out_});
  gemm(Op::kN, Op::kT, rows, out_, in_, x.data(), w_.data(), y.data());
  mask_.assign(y.size(), 0);
  bias_act(rows, out_, b_.data(), /*row_bias=*/false, lrelu_, slope_,
           y.data(), mask_.data());
  return y;
}

nn::Tensor Dense::backward(const nn::Tensor& dy) {
  const int rows = static_cast<int>(dy.size()) / out_;
  nn::Tensor dm = dy;
  if (lrelu_) {
    for (std::size_t i = 0; i < dm.size(); ++i) {
      if (mask_[i]) dm[i] *= slope_;
    }
  }
  gemm(Op::kT, Op::kN, out_, in_, rows, dm.data(), x_.data(), dw.data());
  for (int r = 0; r < rows; ++r) {
    for (int o = 0; o < out_; ++o) {
      db[o] += dm[static_cast<std::size_t>(r) * out_ + o];
    }
  }
  nn::Tensor dx({rows, in_});
  gemm(Op::kN, Op::kN, rows, in_, out_, dm.data(), w_.data(), dx.data());
  return dx;
}

// --------------------------------------------------------------------
// Conv

Conv::Conv(const nn::Tensor& weight, const nn::Tensor& bias, int stride,
           bool lrelu, float slope)
    : dw(weight.size(), 0.0f),
      db(bias.size(), 0.0f),
      in_(weight.dim(1) / 9),
      out_(weight.dim(0)),
      stride_(stride),
      lrelu_(lrelu),
      slope_(slope),
      w_(copy_of(weight)),
      b_(copy_of(bias)) {}

nn::Tensor Conv::forward(const nn::Tensor& x) {
  x_shape_ = x.shape();
  const int n = x.dim(0);
  const int h = x.dim(2);
  const int w = x.dim(3);
  const int ho = (h + 2 - 3) / stride_ + 1;
  const int wo = (w + 2 - 3) / stride_ + 1;
  const int how = ho * wo;
  const int rows = n * how;
  const int patch = in_ * 9;

  cols_.assign(static_cast<std::size_t>(rows) * patch, 0.0f);
  float* col = cols_.data();
  for (int img = 0; img < n; ++img) {
    for (int oy = 0; oy < ho; ++oy) {
      for (int ox = 0; ox < wo; ++ox) {
        for (int c = 0; c < in_; ++c) {
          const float* plane =
              x.data() + (static_cast<std::size_t>(img) * in_ + c) * h * w;
          for (int ky = 0; ky < 3; ++ky) {
            const int iy = oy * stride_ - 1 + ky;
            for (int kx = 0; kx < 3; ++kx) {
              const int ix = ox * stride_ - 1 + kx;
              *col++ = (iy >= 0 && iy < h && ix >= 0 && ix < w)
                           ? plane[static_cast<std::size_t>(iy) * w + ix]
                           : 0.0f;
            }
          }
        }
      }
    }
  }

  std::vector<float> y_rows(static_cast<std::size_t>(rows) * out_, 0.0f);
  gemm(Op::kN, Op::kT, rows, out_, patch, cols_.data(), w_.data(),
       y_rows.data());
  mask_.assign(y_rows.size(), 0);
  bias_act(rows, out_, b_.data(), /*row_bias=*/false, lrelu_, slope_,
           y_rows.data(), mask_.data());

  nn::Tensor y({n, out_, ho, wo});
  for (int r = 0; r < rows; ++r) {
    const int img = r / how;
    const int t = r % how;
    for (int o = 0; o < out_; ++o) {
      y.data()[(static_cast<std::size_t>(img) * out_ + o) * how + t] =
          y_rows[static_cast<std::size_t>(r) * out_ + o];
    }
  }
  return y;
}

nn::Tensor Conv::backward(const nn::Tensor& dy) {
  const int n = x_shape_[0];
  const int h = x_shape_[2];
  const int w = x_shape_[3];
  const int ho = dy.dim(2);
  const int wo = dy.dim(3);
  const int how = ho * wo;
  const int rows = n * how;
  const int patch = in_ * 9;

  // Masked dy, transposed to [rows, out].
  std::vector<float> dy_rows(static_cast<std::size_t>(rows) * out_);
  for (int r = 0; r < rows; ++r) {
    const int img = r / how;
    const int t = r % how;
    for (int o = 0; o < out_; ++o) {
      const std::size_t e = static_cast<std::size_t>(r) * out_ + o;
      float v = dy.data()[(static_cast<std::size_t>(img) * out_ + o) * how + t];
      if (lrelu_ && mask_[e]) v *= slope_;
      dy_rows[e] = v;
    }
  }

  gemm(Op::kT, Op::kN, out_, patch, rows, dy_rows.data(), cols_.data(),
       dw.data());
  for (int r = 0; r < rows; ++r) {
    for (int o = 0; o < out_; ++o) {
      db[o] += dy_rows[static_cast<std::size_t>(r) * out_ + o];
    }
  }

  std::vector<float> dcols(static_cast<std::size_t>(rows) * patch, 0.0f);
  gemm(Op::kN, Op::kN, rows, patch, out_, dy_rows.data(), w_.data(),
       dcols.data());
  nn::Tensor dx(x_shape_);
  const float* col = dcols.data();
  for (int img = 0; img < n; ++img) {
    for (int oy = 0; oy < ho; ++oy) {
      for (int ox = 0; ox < wo; ++ox) {
        for (int c = 0; c < in_; ++c) {
          float* plane =
              dx.data() + (static_cast<std::size_t>(img) * in_ + c) * h * w;
          for (int ky = 0; ky < 3; ++ky) {
            const int iy = oy * stride_ - 1 + ky;
            for (int kx = 0; kx < 3; ++kx) {
              const int ix = ox * stride_ - 1 + kx;
              const float v = *col++;
              if (iy >= 0 && iy < h && ix >= 0 && ix < w) {
                plane[static_cast<std::size_t>(iy) * w + ix] += v;
              }
            }
          }
        }
      }
    }
  }
  return dx;
}

// --------------------------------------------------------------------
// Adam

Adam::Adam(std::vector<nn::Param> params, const nn::AdamConfig& config)
    : params_(std::move(params)), config_(config), lr_(config.lr) {
  for (const nn::Param& p : params_) {
    m_.emplace_back(p.value->size(), 0.0f);
    v_.emplace_back(p.value->size(), 0.0f);
  }
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(config_.beta1, t_);
  const double bc2 = 1.0 - std::pow(config_.beta2, t_);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    nn::Tensor& value = *params_[i].value;
    nn::Tensor& grad = *params_[i].grad;
    std::vector<float>& m = m_[i];
    std::vector<float>& v = v_[i];
    for (std::size_t j = 0; j < value.size(); ++j) {
      const float g = grad[j];
      m[j] = static_cast<float>(config_.beta1 * m[j] +
                                (1.0 - config_.beta1) * g);
      v[j] = static_cast<float>(config_.beta2 * v[j] +
                                (1.0 - config_.beta2) * g * g);
      const double mh = m[j] / bc1;
      const double vh = v[j] / bc2;
      value[j] -=
          static_cast<float>(lr_ * mh / (std::sqrt(vh) + config_.eps));
      grad[j] = 0.0f;
    }
  }
}

std::string Adam::serialize() const {
  util::ByteWriter out;
  out.f64(lr_)
      .u64(static_cast<std::uint64_t>(static_cast<std::int64_t>(t_)))
      .u64(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    out.u64(m_[i].size())
        .bytes(m_[i].data(), m_[i].size() * sizeof(float))
        .bytes(v_[i].data(), v_[i].size() * sizeof(float));
  }
  return out.take();
}

std::vector<std::vector<int>> adam_identity_shapes() {
  std::vector<std::vector<int>> shapes;
  for (int n = 1; n <= 17; ++n) shapes.push_back({n});
  shapes.push_back({3, static_cast<int>(nn::Adam::kBlockElems) + 7});
  return shapes;
}

float adam_identity_grad(util::Pcg32& rng, bool tiny) {
  const float denorm = std::numeric_limits<float>::denorm_min();
  if (tiny) {
    const float values[] = {0.0f, -0.0f, denorm, -denorm, 1e-40f, 1e-25f};
    return values[rng.next_below(6)];
  }
  switch (rng.next_below(8)) {
    case 0: return 0.0f;
    case 1: return -0.0f;
    case 2: return -3e-42f;
    case 3: return 1e30f;
    case 4: return -1e30f;
    default: return static_cast<float>(rng.next_gaussian());
  }
}

}  // namespace sma::test::oracle
