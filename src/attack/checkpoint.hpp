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
// Files go through util/durable_io: atomic replace means a crash during
// save leaves the *previous* checkpoint intact, and the checksummed frame
// means a damaged file is detected and discarded, falling back to a fresh
// start.
//
// Saves, resumes and discards are counted in the global metrics registry
// (`checkpoint.saves`, `checkpoint.resumes`,
// `checkpoint.corrupt_discards`), which the run report's `durability`
// section reads.
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

/// Serialize parameter *values* (in `params` order) into a blob:
/// u64 count, then per parameter u64 float-count + raw floats.
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

/// Write `ckpt` to `path` via durable_io's atomic replace. Throws
/// util::DurableIoError on failure. Fault injection points:
/// `checkpoint.save` (before any IO — a crash here must leave the
/// previous checkpoint untouched) and `checkpoint.saved` (after the
/// rename — a crash here must leave the NEW checkpoint valid).
void save_checkpoint(const std::string& path, const TrainCheckpoint& ckpt);

/// Load `path` if it exists and holds a valid checkpoint whose digest
/// matches `expect_digest`. Returns true and fills `out` on success.
/// Missing file, damaged frame, undecodable payload, or digest mismatch
/// all return false (damage and mismatch are logged and counted in
/// `checkpoint.corrupt_discards`) — the caller starts fresh. Injected crashes
/// (util::fault::FaultInjected) are NOT swallowed.
bool try_load_checkpoint(const std::string& path, std::uint64_t expect_digest,
                         TrainCheckpoint* out);

}  // namespace sma::attack
