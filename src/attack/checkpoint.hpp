// Crash-safe training checkpoints for DlAttack::train.
//
// A checkpoint captures everything the training loop needs to continue a
// run as if it had never stopped: the model weights, the full Adam state
// (moment vectors, step counter, decayed learning rate), the training
// RNG, the epoch counter, and the per-epoch stats history. Resume is
// byte-exact — tests/test_durability.cpp gates that a killed-and-resumed
// run produces a model byte-identical to an uninterrupted one, at any
// thread count and lane count.
//
// A `compat_digest` (hyperparameters + dataset shape + parameter sizes,
// computed by the training loop) is stored in the checkpoint and checked
// on load, so a checkpoint from a different run configuration is
// discarded instead of silently resumed into the wrong optimization.
//
// Files go through util/durable_io's one load and save policy: atomic
// replace means a crash during save leaves the *previous* checkpoint
// intact, a failed save is logged and training goes on, and a damaged file
// is deleted and training starts fresh.
//
// Saves, resumes and discards are counted in the global metrics registry
// (`checkpoint.saves`, `checkpoint.resumes`,
// `checkpoint.corrupt_discards`), which the run report's `durability`
// section reads. A resume counts only once the checkpoint's weights and
// optimizer state are applied; a checkpoint whose weight or optimizer
// blob does not decode is a damaged file, deleted and counted as one
// discard.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nn/layers.hpp"
#include "util/rng.hpp"

namespace sma::nn {
class Adam;
}

namespace sma::attack {

/// Everything needed to continue training exactly where it stopped.
struct TrainCheckpoint {
  std::uint64_t compat_digest = 0;  ///< run-configuration fingerprint
  int epochs_done = 0;              ///< completed epochs
  long queries_seen = 0;
  std::vector<double> epoch_loss;       ///< stats history so far
  std::vector<double> validation_ccr;   ///< stats history so far
  util::Pcg32::State rng;               ///< training RNG after epoch `epochs_done`
  std::string model_blob;               ///< weights (encode_params format)
  std::string adam_blob;                ///< optimizer state (Adam::serialize)
};

/// Serialize parameter *values* into a blob: u64 count, then the weight
/// section model files share (nn::write_param_values).
std::string encode_params(const std::vector<nn::Param>& params);

/// Restore a blob produced by `encode_params` into `params` in place
/// (shared-weight replicas referencing these tensors stay valid). Throws
/// util::FrameError on count/size mismatch, leaving values untouched.
void decode_params(const std::string& blob, std::vector<nn::Param>& params);

/// Flat binary payload encoding (framed and checksummed by save/load).
std::string encode_checkpoint(const TrainCheckpoint& ckpt);
/// Throws util::FrameError on truncation, an out-of-range counter or
/// length, or trailing bytes.
TrainCheckpoint decode_checkpoint(const std::string& payload);

/// Write `ckpt` to `path` via util::save_frame_file (best effort). Fault
/// injection points: `checkpoint.save` (before any IO — a crash here must
/// leave the previous checkpoint untouched) and `checkpoint.saved` (after
/// the rename — a crash here must leave the NEW checkpoint valid).
void save_checkpoint(const std::string& path, const TrainCheckpoint& ckpt);

/// Resume from `path` if it holds a valid checkpoint of this run: its
/// digest equals `expect_digest` and it has 1 to `max_epochs` epochs
/// done. Then restores its weights into `params` (in place) and its
/// optimizer state into `adam`, fills `out` with the rest, counts
/// `checkpoint.resumes` and returns true. Otherwise returns false with
/// nothing applied: a missing file silently; another run's checkpoint
/// logged and counted in `checkpoint.corrupt_discards`, and left on disk;
/// a damaged one — unreadable, a bad frame or payload, or a weight or
/// optimizer blob that does not decode (both are decoded before either is
/// applied) — logged, deleted and counted there once. Fault injection
/// point: `checkpoint.load`. Injected crashes
/// (util::fault::FaultInjected) are NOT swallowed.
bool try_load_checkpoint(const std::string& path, std::uint64_t expect_digest,
                         int max_epochs, std::vector<nn::Param>& params,
                         nn::Adam& adam, TrainCheckpoint* out);

}  // namespace sma::attack
