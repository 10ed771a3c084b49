#include "nn/train_step.hpp"

#include <stdexcept>
#include <string>

#include "obs/obs.hpp"
#include "runtime/parallel.hpp"

namespace sma::nn {

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
    float* master_grad = master_[k].grad->data();
    float* lane_grad = lane[k].grad->data();
    const std::size_t size = master_[k].grad->size();
    for (std::size_t j = 0; j < size; ++j) {
      master_grad[j] += lane_grad[j];
      lane_grad[j] = 0.0f;
    }
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
  runtime::parallel_for(
      pool, 0, master_.size(), /*grain=*/4, [&](std::size_t k) {
        // (1) Reduce: add lane gradients in lane order — the order (hence
        // the float sum) depends only on the lane count, never on
        // scheduling.
        float* master_grad = master_[k].grad->data();
        const std::size_t size = master_[k].grad->size();
        for (std::size_t l = 0; l < active; ++l) {
          float* lane = lanes_[l][k].grad->data();
          for (std::size_t j = 0; j < size; ++j) {
            master_grad[j] += lane[j];
            lane[j] = 0.0f;
          }
        }
        // (2) Adam update for this parameter, while its state is hot.
        // Lanes read the master's weight tensors, so they see it at once.
        adam_.update_param(k, scales);
      });
}

}  // namespace sma::nn
