#include "nn/optimizer.hpp"

#include <cmath>
#include <cstdint>
#include <string>

#include "runtime/parallel.hpp"
#include "util/durable_io.hpp"

namespace sma::nn {

Adam::Adam(std::vector<Param> params, const AdamConfig& config)
    : params_(std::move(params)), config_(config), lr_(config.lr) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Param& p : params_) {
    m_.emplace_back(p.value->size(), 0.0f);
    v_.emplace_back(p.value->size(), 0.0f);
  }
}

Adam::StepScales Adam::begin_step() {
  ++t_;
  return StepScales{1.0 - std::pow(config_.beta1, t_),
                    1.0 - std::pow(config_.beta2, t_)};
}

void Adam::update_param(std::size_t i, const StepScales& scales) {
  Tensor& value = *params_[i].value;
  Tensor& grad = *params_[i].grad;
  std::vector<float>& m = m_[i];
  std::vector<float>& v = v_[i];
  for (std::size_t j = 0; j < value.size(); ++j) {
    const float g = grad[j];
    m[j] = static_cast<float>(config_.beta1 * m[j] +
                              (1.0 - config_.beta1) * g);
    v[j] = static_cast<float>(config_.beta2 * v[j] +
                              (1.0 - config_.beta2) * g * g);
    const double mh = m[j] / scales.bc1;
    const double vh = v[j] / scales.bc2;
    value[j] -=
        static_cast<float>(lr_ * mh / (std::sqrt(vh) + config_.eps));
    grad[j] = 0.0f;
  }
}

void Adam::step(runtime::ThreadPool* pool) {
  const StepScales scales = begin_step();
  runtime::parallel_for(pool, 0, params_.size(), /*grain=*/4,
                        [&](std::size_t i) { update_param(i, scales); });
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

void Adam::deserialize(std::string_view state) {
  util::ByteReader in(state, "Adam state");
  const double lr = in.f64("learning rate");
  const auto t = static_cast<long>(in.u64("step counter"));
  const std::uint64_t count = in.u64("parameter count");
  if (count != params_.size()) {
    in.fail("parameter count mismatch: state has " + std::to_string(count) +
            ", optimizer has " + std::to_string(params_.size()));
  }
  // Stage into scratch so a failed decode leaves this optimizer intact.
  std::vector<std::vector<float>> m(params_.size());
  std::vector<std::vector<float>> v(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const char* name = params_[i].name.c_str();
    const std::uint64_t size = in.u64(name);
    if (size != m_[i].size()) {
      in.fail("size mismatch for " + params_[i].name + ": state has " +
              std::to_string(size) + ", expected " +
              std::to_string(m_[i].size()));
    }
    m[i].resize(m_[i].size());
    v[i].resize(m_[i].size());
    in.read(m[i].data(), m[i].size() * sizeof(float), name);
    in.read(v[i].data(), v[i].size() * sizeof(float), name);
  }
  in.expect_end();
  lr_ = lr;
  t_ = t;
  m_ = std::move(m);
  v_ = std::move(v);
}

}  // namespace sma::nn
