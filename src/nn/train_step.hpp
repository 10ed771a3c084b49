// Fused training-step engine.
//
// Each optimizer step's tail touches every parameter twice over: the
// lane-gradient reduce and the Adam update. `TrainStep` fuses both into
// ONE `parallel_for` pass over Adam's fixed element blocks
// (`Adam::blocks`, a few thousand elements each): for each block it (1)
// adds the active lanes' gradients onto the master gradient in ascending
// lane order, zeroing each lane gradient — up to eight lanes per pass,
// eight elements at a time on AVX2 hosts, so the master block is read
// and written once per eight lanes — then (2) applies the vector Adam
// update via `Adam::update_block`. Each element's state is touched
// exactly once per step while it is hot in cache, and the threads share
// the work in equal-sized pieces whatever the tensor sizes.
//
// Lanes share the master's weight tensors (AttackNet::clone_shared): the
// Adam update lands directly in the storage every lane reads, so no
// weight broadcast is needed and the lanes carry one weight copy in
// total.
//
// Determinism: elements are independent, and for each element the fused
// pass performs the identical float operations in the identical order
// (fixed lane order, then the Adam arithmetic of optimizer.hpp's update
// contract) as a separate reduce followed by `Adam::step`, so models are
// byte-identical at any lane count and any thread count —
// tests/test_train_step.cpp asserts this. Gradients arrive here as
// parameter tensors (always row-major), so the conv trunk's channel-major
// activations never change what this pass sums or in what order.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/layers.hpp"
#include "nn/optimizer.hpp"
#include "runtime/thread_pool.hpp"

namespace sma::nn {

class TrainStep {
 public:
  /// `master` holds the authoritative weights and the reduction target
  /// gradients; `config` the Adam schedule.
  TrainStep(std::vector<Param> master, const AdamConfig& config);

  /// Attach per-lane parameter views; `lanes[l]` must be index-aligned
  /// with the master params, and each lane must read the master's weight
  /// tensors (AttackNet::clone_shared) — `step` updates only the master.
  void attach_lanes(std::vector<std::vector<Param>> lanes);

  /// One fused reduce + Adam pass over all parameter blocks, using
  /// the gradients of the first `active_lanes` lanes (a trailing partial
  /// batch activates fewer lanes than are attached). With no lanes
  /// attached this degrades to a plain `Adam::step`. A negative
  /// `active_lanes` is a caller bug and throws std::invalid_argument.
  void step(int active_lanes, runtime::ThreadPool* pool);

  /// Serial-lane mode: add `lane`'s gradients onto the master gradients
  /// (ascending parameter and element order) and zero them. A pool-less
  /// training loop pins ONE shared-weight replica and calls this after
  /// every query of the batch, then steps the optimizer — the adds reach
  /// each master element in the same batch order as the multi-lane
  /// reduce, so the sum (hence the model) is byte-identical while the
  /// per-step working set shrinks from `lanes` replicas to one. The
  /// gradients are still hot from the backward pass that produced them,
  /// making this far cheaper than a deferred reduce.
  void accumulate(const std::vector<Param>& lane);

  void decay_lr() { adam_.decay_lr(); }
  double learning_rate() const { return adam_.learning_rate(); }

  /// The underlying optimizer — the serial training loop steps it
  /// directly after `accumulate`, and checkpointing serializes it.
  Adam& optimizer() { return adam_; }

 private:
  std::vector<Param> master_;
  Adam adam_;
  std::vector<std::vector<Param>> lanes_;
};

}  // namespace sma::nn
