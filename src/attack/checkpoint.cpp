#include "attack/checkpoint.hpp"

#include <atomic>
#include <cstring>
#include <string>

#include "util/durable_io.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"

namespace sma::attack {

namespace {

constexpr const char* kFrameKind = "sma-train-ckpt";
constexpr std::uint32_t kSchemaVersion = 1;

std::atomic<long> g_saves{0};
std::atomic<long> g_resumes{0};
std::atomic<long> g_corrupt_discards{0};

void append_pod(std::string& out, const void* data, std::size_t size) {
  // data may be an empty vector's null data(); append requires a valid range.
  if (size > 0) out.append(static_cast<const char*>(data), size);
}

void append_u64(std::string& out, std::uint64_t v) {
  append_pod(out, &v, sizeof(v));
}

void append_doubles(std::string& out, const std::vector<double>& v) {
  append_u64(out, v.size());
  append_pod(out, v.data(), v.size() * sizeof(double));
}

/// Bounds-checked sequential reader over a payload. Doubles round-trip as
/// raw bit patterns, so histories compare bit-equal across save/load.
class Cursor {
 public:
  explicit Cursor(const std::string& bytes) : bytes_(bytes) {}

  void read(void* into, std::size_t size, const char* what) {
    require(size, what);
    // An empty vector's data() may be null, and memcpy's pointer args are
    // declared nonnull even for size 0.
    if (size > 0) std::memcpy(into, bytes_.data() + pos_, size);
    pos_ += size;
  }

  /// Advances past `size` bytes, bounds-checked like read(), without
  /// copying them.
  void skip(std::size_t size, const char* what) {
    require(size, what);
    pos_ += size;
  }

  std::uint64_t read_u64(const char* what) {
    std::uint64_t v = 0;
    read(&v, sizeof(v), what);
    return v;
  }

  std::vector<double> read_doubles(const char* what) {
    const std::uint64_t count = read_u64(what);
    if (count > (bytes_.size() - pos_) / sizeof(double)) {
      throw util::FrameError(std::string("checkpoint payload truncated in ") +
                             what);
    }
    std::vector<double> v(static_cast<std::size_t>(count));
    read(v.data(), v.size() * sizeof(double), what);
    return v;
  }

  std::string read_blob(const char* what) {
    const std::uint64_t size = read_u64(what);
    if (size > bytes_.size() - pos_) {
      throw util::FrameError(std::string("checkpoint payload truncated in ") +
                             what);
    }
    std::string blob(bytes_.data() + pos_, static_cast<std::size_t>(size));
    pos_ += static_cast<std::size_t>(size);
    return blob;
  }

  bool done() const { return pos_ == bytes_.size(); }
  std::size_t position() const { return pos_; }

 private:
  void require(std::size_t size, const char* what) const {
    if (bytes_.size() - pos_ < size) {
      throw util::FrameError(std::string("checkpoint payload truncated in ") +
                             what);
    }
  }

  const std::string& bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string encode_params(const std::vector<nn::Param>& params) {
  std::string out;
  append_u64(out, params.size());
  for (const nn::Param& p : params) {
    append_u64(out, p.value->size());
    append_pod(out, p.value->data(), p.value->size() * sizeof(float));
  }
  return out;
}

void decode_params(const std::string& blob, std::vector<nn::Param>& params) {
  Cursor cur(blob);
  const std::uint64_t count = cur.read_u64("parameter count");
  if (count != params.size()) {
    throw util::FrameError("checkpoint parameter count mismatch: blob has " +
                           std::to_string(count) + ", model has " +
                           std::to_string(params.size()));
  }
  // Validate the whole blob — every size, and that nothing follows the
  // last tensor — before touching any tensor, so a bad blob leaves the
  // model unchanged.
  std::vector<std::size_t> offsets(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const std::uint64_t size = cur.read_u64(params[i].name.c_str());
    if (size != params[i].value->size()) {
      throw util::FrameError(
          "checkpoint size mismatch for " + params[i].name + ": blob has " +
          std::to_string(size) + " floats, model expects " +
          std::to_string(params[i].value->size()));
    }
    offsets[i] = cur.position();
    cur.skip(params[i].value->size() * sizeof(float), params[i].name.c_str());
  }
  if (!cur.done()) {
    throw util::FrameError("checkpoint model weights have trailing bytes");
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::memcpy(params[i].value->data(), blob.data() + offsets[i],
                params[i].value->size() * sizeof(float));
  }
}

std::string encode_checkpoint(const TrainCheckpoint& ckpt) {
  std::string out;
  append_u64(out, ckpt.compat_digest);
  append_u64(out, static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(ckpt.epochs_done)));
  append_u64(out, static_cast<std::uint64_t>(
                      static_cast<std::int64_t>(ckpt.queries_seen)));
  append_u64(out, ckpt.rng.state);
  append_u64(out, ckpt.rng.inc);
  append_doubles(out, ckpt.epoch_loss);
  append_doubles(out, ckpt.validation_ccr);
  append_u64(out, ckpt.model_blob.size());
  out.append(ckpt.model_blob);
  append_u64(out, ckpt.adam_blob.size());
  out.append(ckpt.adam_blob);
  return out;
}

TrainCheckpoint decode_checkpoint(const std::string& payload) {
  Cursor cur(payload);
  TrainCheckpoint ckpt;
  ckpt.compat_digest = cur.read_u64("compat digest");
  ckpt.epochs_done = static_cast<int>(
      static_cast<std::int64_t>(cur.read_u64("epoch counter")));
  ckpt.queries_seen =
      static_cast<long>(static_cast<std::int64_t>(cur.read_u64("query count")));
  if (ckpt.epochs_done < 0 || ckpt.queries_seen < 0) {
    throw util::FrameError("checkpoint payload has negative counters");
  }
  ckpt.rng.state = cur.read_u64("rng state");
  ckpt.rng.inc = cur.read_u64("rng stream");
  ckpt.epoch_loss = cur.read_doubles("epoch losses");
  ckpt.validation_ccr = cur.read_doubles("validation history");
  ckpt.model_blob = cur.read_blob("model weights");
  ckpt.adam_blob = cur.read_blob("optimizer state");
  if (!cur.done()) {
    throw util::FrameError("checkpoint payload has trailing bytes");
  }
  return ckpt;
}

void save_checkpoint(const std::string& path, const TrainCheckpoint& ckpt) {
  // A crash here must leave the previous checkpoint file untouched.
  util::fault::point("checkpoint.save");
  util::write_frame_file(path, kFrameKind, kSchemaVersion,
                         encode_checkpoint(ckpt));
  g_saves.fetch_add(1, std::memory_order_relaxed);
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
    g_corrupt_discards.fetch_add(1, std::memory_order_relaxed);
    util::log_warn() << "discarding damaged checkpoint " << path << ": "
                     << e.what();
    return false;
  }
  if (ckpt.compat_digest != expect_digest) {
    g_corrupt_discards.fetch_add(1, std::memory_order_relaxed);
    util::log_warn() << "discarding checkpoint " << path
                     << ": run configuration changed (digest mismatch)";
    return false;
  }
  *out = std::move(ckpt);
  g_resumes.fetch_add(1, std::memory_order_relaxed);
  return true;
}

CheckpointStats checkpoint_stats() {
  CheckpointStats stats;
  stats.saves = g_saves.load(std::memory_order_relaxed);
  stats.resumes = g_resumes.load(std::memory_order_relaxed);
  stats.corrupt_discards = g_corrupt_discards.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace sma::attack
