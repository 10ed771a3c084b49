#include "attack/checkpoint.hpp"

#include <limits>
#include <string>
#include <utility>

#include "nn/attack_net.hpp"
#include "nn/optimizer.hpp"
#include "obs/obs.hpp"
#include "util/durable_io.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"

namespace sma::attack {

namespace {

constexpr const char* kFrameKind = "sma-train-ckpt";
constexpr std::uint32_t kSchemaVersion = 1;

}  // namespace

std::string encode_params(const std::vector<nn::Param>& params) {
  util::ByteWriter out;
  out.u64(params.size());
  nn::write_param_values(out, params);
  return out.take();
}

void decode_params(const std::string& blob, std::vector<nn::Param>& params) {
  util::ByteReader in(blob, "checkpoint model weights");
  const std::uint64_t count = in.u64("parameter count");
  if (count != params.size()) {
    in.fail("parameter count mismatch: blob has " + std::to_string(count) +
            ", model has " + std::to_string(params.size()));
  }
  nn::read_param_values(in, params);
}

std::string encode_checkpoint(const TrainCheckpoint& ckpt) {
  util::ByteWriter out;
  const auto write_doubles = [&out](const std::vector<double>& v) {
    out.u64(v.size()).bytes(v.data(), v.size() * sizeof(double));
  };
  out.u64(ckpt.compat_digest)
      .u64(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(ckpt.epochs_done)))
      .u64(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(ckpt.queries_seen)))
      .u64(ckpt.rng.state)
      .u64(ckpt.rng.inc);
  write_doubles(ckpt.epoch_loss);
  write_doubles(ckpt.validation_ccr);
  out.blob(ckpt.model_blob).blob(ckpt.adam_blob);
  return out.take();
}

TrainCheckpoint decode_checkpoint(const std::string& payload) {
  util::ByteReader in(payload, "checkpoint payload");
  // Doubles round-trip as raw bit patterns, so histories compare bit-equal
  // across save/load.
  const auto read_doubles = [&in](const char* field) {
    std::vector<double> v(in.count(sizeof(double), field));
    in.read(v.data(), v.size() * sizeof(double), field);
    return v;
  };
  TrainCheckpoint ckpt;
  ckpt.compat_digest = in.u64("compat digest");
  ckpt.epochs_done = static_cast<int>(in.u64_at_most(
      static_cast<std::uint64_t>(std::numeric_limits<int>::max()),
      "epoch counter"));
  ckpt.queries_seen = static_cast<long>(in.u64_at_most(
      static_cast<std::uint64_t>(std::numeric_limits<long>::max()),
      "query count"));
  ckpt.rng.state = in.u64("rng state");
  ckpt.rng.inc = in.u64("rng stream");
  ckpt.epoch_loss = read_doubles("epoch losses");
  ckpt.validation_ccr = read_doubles("validation history");
  ckpt.model_blob = in.blob("model weights");
  ckpt.adam_blob = in.blob("optimizer state");
  in.expect_end();
  return ckpt;
}

void save_checkpoint(const std::string& path, const TrainCheckpoint& ckpt) {
  if (util::save_frame_file(path, kFrameKind, kSchemaVersion,
                            "checkpoint.save", encode_checkpoint(ckpt))) {
    SMA_COUNT("checkpoint.saves");
    // A crash here must leave the NEW checkpoint valid (rename completed).
    util::fault::point("checkpoint.saved");
  }
}

bool try_load_checkpoint(const std::string& path, std::uint64_t expect_digest,
                         int max_epochs, std::vector<nn::Param>& params,
                         nn::Adam& adam, TrainCheckpoint* out) {
  TrainCheckpoint ckpt;
  bool this_run = false;
  const util::FrameLoad got = util::load_frame_file(
      path, kFrameKind, kSchemaVersion, "checkpoint.load",
      [&](const std::string& payload) {
        ckpt = decode_checkpoint(payload);
        this_run = ckpt.compat_digest == expect_digest &&
                   ckpt.epochs_done >= 1 && ckpt.epochs_done <= max_epochs;
        if (!this_run) return;
        // Both blobs decode before either is applied (decode_params checks
        // the whole blob before it writes), so a blob that does not decode
        // is a damaged file like any other.
        nn::Adam::State state = adam.decode(ckpt.adam_blob);
        decode_params(ckpt.model_blob, params);
        adam.restore(std::move(state));
      });
  if (got == util::FrameLoad::kDiscarded) {
    SMA_COUNT("checkpoint.corrupt_discards");
  }
  if (got != util::FrameLoad::kLoaded) return false;
  if (!this_run) {
    SMA_COUNT("checkpoint.corrupt_discards");
    util::log_warn() << "discarding checkpoint " << path << ": "
                     << (ckpt.compat_digest != expect_digest
                             ? "run configuration changed (digest mismatch)"
                             : "its epoch count is outside this run's");
    return false;
  }
  *out = std::move(ckpt);
  SMA_COUNT("checkpoint.resumes");
  return true;
}

}  // namespace sma::attack
