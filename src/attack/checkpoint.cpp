#include "attack/checkpoint.hpp"

#include <cstring>
#include <limits>
#include <string>
#include <string_view>

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
  for (const nn::Param& p : params) {
    out.u64(p.value->size())
        .bytes(p.value->data(), p.value->size() * sizeof(float));
  }
  return out.take();
}

void decode_params(const std::string& blob, std::vector<nn::Param>& params) {
  util::ByteReader in(blob, "checkpoint model weights");
  const std::uint64_t count = in.u64("parameter count");
  if (count != params.size()) {
    throw util::FrameError("checkpoint parameter count mismatch: blob has " +
                           std::to_string(count) + ", model has " +
                           std::to_string(params.size()));
  }
  // Validate the whole blob — every size, and that nothing follows the
  // last tensor — before touching any tensor, so a bad blob leaves the
  // model unchanged.
  std::vector<std::string_view> values(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const std::uint64_t size = in.u64(params[i].name.c_str());
    if (size != params[i].value->size()) {
      throw util::FrameError(
          "checkpoint size mismatch for " + params[i].name + ": blob has " +
          std::to_string(size) + " floats, model expects " +
          std::to_string(params[i].value->size()));
    }
    values[i] = in.bytes(params[i].value->size() * sizeof(float),
                         params[i].name.c_str());
  }
  in.expect_end();
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!values[i].empty()) {
      std::memcpy(params[i].value->data(), values[i].data(), values[i].size());
    }
  }
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
  // A crash here must leave the previous checkpoint file untouched.
  util::fault::point("checkpoint.save");
  util::write_frame_file(path, kFrameKind, kSchemaVersion,
                         encode_checkpoint(ckpt));
  SMA_COUNT("checkpoint.saves");
  // A crash here must leave the NEW checkpoint valid (rename completed).
  util::fault::point("checkpoint.saved");
}

bool try_load_checkpoint(const std::string& path, std::uint64_t expect_digest,
                         TrainCheckpoint* out) {
  if (!util::file_exists(path)) return false;
  TrainCheckpoint ckpt;
  try {
    const std::string payload =
        util::read_frame_file(path, kFrameKind, kSchemaVersion);
    ckpt = decode_checkpoint(payload);
  } catch (const util::DurableIoError& e) {
    // Damaged or unreadable: discard and start fresh. FaultInjected is not
    // a DurableIoError, so simulated crashes propagate to the test harness.
    SMA_COUNT("checkpoint.corrupt_discards");
    util::log_warn() << "discarding damaged checkpoint " << path << ": "
                     << e.what();
    return false;
  }
  if (ckpt.compat_digest != expect_digest) {
    SMA_COUNT("checkpoint.corrupt_discards");
    util::log_warn() << "discarding checkpoint " << path
                     << ": run configuration changed (digest mismatch)";
    return false;
  }
  *out = std::move(ckpt);
  SMA_COUNT("checkpoint.resumes");
  return true;
}

}  // namespace sma::attack
