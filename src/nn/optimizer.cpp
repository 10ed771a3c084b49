#include "nn/optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "nn/gemm.hpp"
#include "runtime/parallel.hpp"
#include "util/durable_io.hpp"

#ifdef SMA_NN_X86_DISPATCH
#include <immintrin.h>
#endif

namespace sma::nn {

namespace {

/// One step's constants of the element update.
struct Coeffs {
  double beta1;
  double one_minus_beta1;
  double beta2;
  double one_minus_beta2;
  double bc1;
  double bc2;
  double lr;
  double eps;
};

/// The Adam update of elements [0, n) of one block: the scalar reference
/// of the contract in optimizer.hpp.
void update_scalar(const Coeffs& k, float* value, float* grad, float* m,
                   float* v, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    const float g = grad[j];
    m[j] = static_cast<float>(k.beta1 * m[j] + k.one_minus_beta1 * g);
    v[j] = static_cast<float>(k.beta2 * v[j] + k.one_minus_beta2 * g * g);
    const double mh = m[j] / k.bc1;
    const double vh = v[j] / k.bc2;
    value[j] -= static_cast<float>(k.lr * mh / (std::sqrt(vh) + k.eps));
    grad[j] = 0.0f;
  }
}

#ifdef SMA_NN_X86_DISPATCH
/// update_scalar over the whole 4-element groups of [0, n), four doubles
/// per ymm register; returns the count it covered. Each line below is the
/// scalar line above it, operation for operation.
__attribute__((target("avx2"))) std::size_t update_avx2(const Coeffs& k,
                                                        float* value,
                                                        float* grad, float* m,
                                                        float* v,
                                                        std::size_t n) {
  const __m256d beta1 = _mm256_set1_pd(k.beta1);
  const __m256d one_minus_beta1 = _mm256_set1_pd(k.one_minus_beta1);
  const __m256d beta2 = _mm256_set1_pd(k.beta2);
  const __m256d one_minus_beta2 = _mm256_set1_pd(k.one_minus_beta2);
  const __m256d bc1 = _mm256_set1_pd(k.bc1);
  const __m256d bc2 = _mm256_set1_pd(k.bc2);
  const __m256d lr = _mm256_set1_pd(k.lr);
  const __m256d eps = _mm256_set1_pd(k.eps);
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256d g = _mm256_cvtps_pd(_mm_loadu_ps(grad + j));
    const __m128 m_new = _mm256_cvtpd_ps(_mm256_add_pd(
        _mm256_mul_pd(beta1, _mm256_cvtps_pd(_mm_loadu_ps(m + j))),
        _mm256_mul_pd(one_minus_beta1, g)));
    const __m128 v_new = _mm256_cvtpd_ps(_mm256_add_pd(
        _mm256_mul_pd(beta2, _mm256_cvtps_pd(_mm_loadu_ps(v + j))),
        _mm256_mul_pd(_mm256_mul_pd(one_minus_beta2, g), g)));
    _mm_storeu_ps(m + j, m_new);
    _mm_storeu_ps(v + j, v_new);
    const __m256d mh = _mm256_div_pd(_mm256_cvtps_pd(m_new), bc1);
    const __m256d vh = _mm256_div_pd(_mm256_cvtps_pd(v_new), bc2);
    const __m256d delta = _mm256_div_pd(
        _mm256_mul_pd(lr, mh), _mm256_add_pd(_mm256_sqrt_pd(vh), eps));
    _mm_storeu_ps(value + j, _mm_sub_ps(_mm_loadu_ps(value + j),
                                        _mm256_cvtpd_ps(delta)));
    _mm_storeu_ps(grad + j, _mm_setzero_ps());
  }
  return j;
}
#endif

}  // namespace

Adam::Adam(std::vector<Param> params, const AdamConfig& config)
    : params_(std::move(params)), config_(config), lr_(config.lr) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const std::size_t size = params_[i].value->size();
    m_.emplace_back(size, 0.0f);
    v_.emplace_back(size, 0.0f);
    for (std::size_t begin = 0; begin < size; begin += kBlockElems) {
      blocks_.push_back({i, begin, std::min(size, begin + kBlockElems)});
    }
  }
}

Adam::StepScales Adam::begin_step() {
  ++t_;
  return StepScales{1.0 - std::pow(config_.beta1, t_),
                    1.0 - std::pow(config_.beta2, t_)};
}

void Adam::update_block(const Block& block, const StepScales& scales) {
  const Coeffs k{config_.beta1, 1.0 - config_.beta1,
                 config_.beta2, 1.0 - config_.beta2,
                 scales.bc1,    scales.bc2,
                 lr_,           config_.eps};
  const std::size_t n = block.end - block.begin;
  float* value = params_[block.param].value->data() + block.begin;
  float* grad = params_[block.param].grad->data() + block.begin;
  float* m = m_[block.param].data() + block.begin;
  float* v = v_[block.param].data() + block.begin;
  std::size_t done = 0;
#ifdef SMA_NN_X86_DISPATCH
  if (have_avx2()) done = update_avx2(k, value, grad, m, v, n);
#endif
  update_scalar(k, value + done, grad + done, m + done, v + done, n - done);
}

void Adam::step(runtime::ThreadPool* pool) {
  const StepScales scales = begin_step();
  runtime::parallel_for(pool, 0, blocks_.size(), /*grain=*/1,
                        [&](std::size_t b) { update_block(blocks_[b], scales); });
}

void Adam::zero_grad() {
  for (Param& p : params_) p.grad->fill(0.0f);
}

void Adam::decay_lr() { lr_ *= config_.decay; }

std::size_t Adam::num_parameters() const {
  std::size_t total = 0;
  for (const Param& p : params_) total += p.value->size();
  return total;
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

Adam::State Adam::decode(std::string_view state) const {
  util::ByteReader in(state, "Adam state");
  State out;
  out.lr = in.f64("learning rate");
  out.t = static_cast<long>(in.u64("step counter"));
  const std::uint64_t count = in.u64("parameter count");
  if (count != params_.size()) {
    in.fail("parameter count mismatch: state has " + std::to_string(count) +
            ", optimizer has " + std::to_string(params_.size()));
  }
  out.m.resize(params_.size());
  out.v.resize(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const char* name = params_[i].name.c_str();
    const std::uint64_t size = in.u64(name);
    if (size != m_[i].size()) {
      in.fail("size mismatch for " + params_[i].name + ": state has " +
              std::to_string(size) + ", expected " +
              std::to_string(m_[i].size()));
    }
    out.m[i].resize(m_[i].size());
    out.v[i].resize(m_[i].size());
    in.read(out.m[i].data(), out.m[i].size() * sizeof(float), name);
    in.read(out.v[i].data(), out.v[i].size() * sizeof(float), name);
  }
  in.expect_end();
  return out;
}

void Adam::restore(State state) {
  lr_ = state.lr;
  t_ = state.t;
  m_ = std::move(state.m);
  v_ = std::move(state.v);
}

}  // namespace sma::nn
