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

/// Update contract: every element of every parameter is updated on its
/// own — m and v in double, narrowed to float, the bias-corrected step in
/// double, narrowed, then one float subtract from the weight — and the
/// gradient is zeroed. The work is cut into fixed element blocks (see
/// `blocks`), and blocks run in any order on any thread. The update runs
/// four elements at a time on AVX2 hosts. The packed conversions, mul,
/// add, div and sqrt are the same correctly rounded IEEE operations as
/// the scalar ones, issued in the same order (the TU is built with
/// -ffp-contract=off, so no FMA), so the weights and moments are
/// byte-identical on every ISA, at any block split and thread count.
class Adam {
 public:
  /// Elements per update block. A parameter no larger than this is one
  /// block; a larger one is cut into blocks of this size, the last one
  /// ragged.
  static constexpr std::size_t kBlockElems = 4096;

  /// Elements [begin, end) of parameter `param`.
  struct Block {
    std::size_t param = 0;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  Adam(std::vector<Param> params, const AdamConfig& config = {});

  /// Apply one update from the accumulated gradients, then zero them:
  /// one parallel_for over `blocks()`, serial without a pool.
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
  /// corrections; `update_block` applies the update to one block's
  /// elements and zeroes their gradient — exactly the arithmetic `step`
  /// performs, so a caller that invokes `update_block` once per block per
  /// `begin_step` produces bit-identical weights to `step`.
  StepScales begin_step();
  void update_block(const Block& block, const StepScales& scales);

  /// The fixed element blocks, in parameter order and ascending element
  /// order; together they cover every element once.
  const std::vector<Block>& blocks() const { return blocks_; }

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
  std::vector<Block> blocks_;
};

}  // namespace sma::nn
