// Adam optimizer with the paper's step-decay learning-rate schedule
// (initial 0.001, multiplied by 0.6 every 20 epochs).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "nn/layers.hpp"
#include "runtime/thread_pool.hpp"

namespace sma::nn {

struct AdamConfig {
  double lr = 0.001;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  /// Learning-rate decay factor applied via `decay_lr()`.
  double decay = 0.6;
};

class Adam {
 public:
  Adam(std::vector<Param> params, const AdamConfig& config = {});

  /// Apply one update from the accumulated gradients, then zero them.
  /// Parameters update independently, so a pool parallelizes over them
  /// without changing the result.
  ///
  /// Gradient lifecycle contract: `step` both consumes and zeroes every
  /// gradient — training loops must NOT follow it with `zero_grad()` (a
  /// redundant full-tensor fill per parameter). `zero_grad` exists solely
  /// to discard the gradients of a sample that is skipped *without* an
  /// update.
  void step(runtime::ThreadPool* pool = nullptr);

  /// Per-step bias-correction factors; see `begin_step`.
  struct StepScales {
    double bc1 = 1.0;
    double bc2 = 1.0;
  };

  /// Building blocks for fused training-step engines (nn/train_step.hpp):
  /// `begin_step` advances the step counter and returns this step's bias
  /// corrections; `update_param` applies the update to parameter `i` and
  /// zeroes its gradient — exactly the arithmetic `step` performs, so a
  /// caller that invokes `update_param` once per parameter per
  /// `begin_step` produces bit-identical weights to `step`.
  StepScales begin_step();
  void update_param(std::size_t i, const StepScales& scales);

  /// Zero gradients without updating (e.g. after a skipped sample).
  /// Never needed after `step`, which zeroes as it consumes.
  void zero_grad();

  /// Multiply the learning rate by the configured decay factor.
  void decay_lr();

  double learning_rate() const { return lr_; }
  std::size_t num_parameters() const;

  /// Checkpoint the full optimizer state: learning rate (decays applied
  /// so far), step counter, and both moment vectors per parameter. The
  /// config itself is not serialized — it comes from the TrainConfig the
  /// resuming run was constructed with.
  std::string serialize() const;

  /// Restore state written by `serialize` into this optimizer. The
  /// parameter count and every moment-vector size must match this
  /// optimizer's parameters, and nothing may follow the last moment
  /// vector; otherwise throws util::FrameError (naming the mismatch),
  /// leaving the state untouched.
  void deserialize(std::string_view state);

 private:
  std::vector<Param> params_;
  AdamConfig config_;
  double lr_;
  long t_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace sma::nn
