#include "nn/train_step.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "nn/gemm.hpp"
#include "obs/obs.hpp"
#include "runtime/parallel.hpp"

#ifdef SMA_NN_X86_DISPATCH
#include <immintrin.h>
#endif

namespace sma::nn {

namespace {

/// Lanes reduced in one pass over a block.
constexpr std::size_t kLaneGroup = 8;

/// master[j] += lanes[0][j] + ... + lanes[count - 1][j] for j in
/// [begin, end), one float add at a time in lane order, zeroing each lane
/// element it reads: the same chain as adding whole lanes one after
/// another, with master read and written once.
void reduce_scalar(float* master, float* const* lanes, std::size_t count,
                   std::size_t begin, std::size_t end) {
  for (std::size_t j = begin; j < end; ++j) {
    float acc = master[j];
    for (std::size_t l = 0; l < count; ++l) {
      acc += lanes[l][j];
      lanes[l][j] = 0.0f;
    }
    master[j] = acc;
  }
}

#ifdef SMA_NN_X86_DISPATCH
/// reduce_scalar eight elements at a time; returns where it stopped.
__attribute__((target("avx2"))) std::size_t reduce_avx2(
    float* master, float* const* lanes, std::size_t count, std::size_t begin,
    std::size_t end) {
  const __m256 zero = _mm256_setzero_ps();
  std::size_t j = begin;
  for (; j + 8 <= end; j += 8) {
    __m256 acc = _mm256_loadu_ps(master + j);
    for (std::size_t l = 0; l < count; ++l) {
      acc = _mm256_add_ps(acc, _mm256_loadu_ps(lanes[l] + j));
      _mm256_storeu_ps(lanes[l] + j, zero);
    }
    _mm256_storeu_ps(master + j, acc);
  }
  return j;
}
#endif

/// reduce_scalar through the widest path the host has.
void reduce_lanes(float* master, float* const* lanes, std::size_t count,
                  std::size_t begin, std::size_t end) {
#ifdef SMA_NN_X86_DISPATCH
  if (have_avx2()) begin = reduce_avx2(master, lanes, count, begin, end);
#endif
  reduce_scalar(master, lanes, count, begin, end);
}

}  // namespace

TrainStep::TrainStep(std::vector<Param> master, const AdamConfig& config)
    : master_(std::move(master)), adam_(master_, config) {}

void TrainStep::attach_lanes(std::vector<std::vector<Param>> lanes) {
  for (const std::vector<Param>& lane : lanes) {
    if (lane.size() != master_.size()) {
      throw std::invalid_argument(
          "TrainStep: lane params not aligned with master params");
    }
  }
  lanes_ = std::move(lanes);
}

void TrainStep::accumulate(const std::vector<Param>& lane) {
  if (lane.size() != master_.size()) {
    throw std::invalid_argument(
        "TrainStep: lane params not aligned with master params");
  }
  for (std::size_t k = 0; k < master_.size(); ++k) {
    float* lane_grad = lane[k].grad->data();
    reduce_lanes(master_[k].grad->data(), &lane_grad, 1, 0,
                 master_[k].grad->size());
  }
}

void TrainStep::step(int active_lanes, runtime::ThreadPool* pool) {
  if (active_lanes < 0) {
    // A negative count is always a caller bug (a miscomputed partial
    // batch); silently clamping it to 0 would run a spurious Adam step on
    // zero gradients. Throw, matching the alignment checks above.
    throw std::invalid_argument("TrainStep::step: negative active_lanes " +
                                std::to_string(active_lanes));
  }
  SMA_TRACE_SPAN_V("nn", "train_step", active_lanes);
  SMA_COUNT("nn.train_steps");
  if (lanes_.empty()) {
    adam_.step(pool);
    return;
  }
  const std::size_t active =
      static_cast<std::size_t>(active_lanes) < lanes_.size()
          ? static_cast<std::size_t>(active_lanes)
          : lanes_.size();
  const Adam::StepScales scales = adam_.begin_step();
  const std::vector<Adam::Block>& blocks = adam_.blocks();
  runtime::parallel_for(
      pool, 0, blocks.size(), /*grain=*/1, [&](std::size_t b) {
        const Adam::Block& block = blocks[b];
        // (1) Reduce: add lane gradients in lane order — the order (hence
        // the float sum) depends only on the lane count, never on
        // scheduling.
        float* master_grad = master_[block.param].grad->data();
        for (std::size_t l0 = 0; l0 < active; l0 += kLaneGroup) {
          const std::size_t count = std::min(kLaneGroup, active - l0);
          float* group[kLaneGroup];
          for (std::size_t l = 0; l < count; ++l) {
            group[l] = lanes_[l0 + l][block.param].grad->data();
          }
          reduce_lanes(master_grad, group, count, block.begin, block.end);
        }
        // (2) Adam update of this block, while it is hot in cache. Lanes
        // read the master's weight tensors, so they see it at once.
        adam_.update_block(block, scales);
      });
}

}  // namespace sma::nn
