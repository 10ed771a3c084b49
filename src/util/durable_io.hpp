// Crash-safe file persistence: atomic replace + a checksummed frame.
//
// Every frame file the repo persists across process lifetimes (training
// checkpoints, the on-disk split cache, experiment work units) goes
// through this layer, which gives two guarantees:
//
//  1. Atomic visibility. `atomic_write_file` writes to a temp file in the
//     target directory, flushes it to stable storage (fsync), renames it
//     over the destination, and fsyncs the directory. A crash at any
//     instant leaves either the complete old file or the complete new
//     file — never a torn one — so "the previous checkpoint stays valid"
//     holds at every injection point of the fault harness (util/fault.hpp).
//
//  2. Detection at load. Payloads are wrapped in a framed container —
//     magic, kind tag, schema version, payload length, FNV-1a checksum —
//     so a file that was torn or corrupted anyway (non-atomic filesystem,
//     bit rot, a fault-injected short_write/corrupt) is rejected with a
//     typed error at `frame_decode` time, never silently consumed.
//
// One policy holds for every frame file (`load_frame_file`,
// `save_frame_file`): a damaged file is logged, deleted and recomputed, a
// failed save is logged and the run goes on, and a simulated crash
// (fault::FaultInjected) always propagates.
//
// Every payload inside a frame (checkpoints and their weight and Adam
// blobs, split-cache entries, experiment work units) and the frame itself
// are written by one ByteWriter and read back by one ByteReader: host-order
// fixed-width fields and u64-length-prefixed blobs, with every read checked
// against the bytes left. Model files (nn::AttackNet::save/load) use the
// same codec but no frame: they are written to the caller's stream.
//
// Errors are typed so callers can distinguish "this file is damaged,
// recompute it" (FrameError) from "the storage itself is failing"
// (IoError); both derive from DurableIoError.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace sma::util {

/// Base of every durable-IO failure.
class DurableIoError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The bytes are not a valid frame or payload: bad magic, wrong kind,
/// unsupported version, truncation, an out-of-range count, trailing bytes,
/// or checksum mismatch. The file is damaged or foreign — discard or
/// recompute it.
class FrameError : public DurableIoError {
 public:
  using DurableIoError::DurableIoError;
};

/// The operating system refused an IO operation (open, write, fsync,
/// rename, read). The message carries the path and errno text.
class IoError : public DurableIoError {
 public:
  using DurableIoError::DurableIoError;
};

/// Appends fields in host byte order. Doubles are stored as their bit
/// pattern, so they round-trip bit-equal.
class ByteWriter {
 public:
  ByteWriter& u32(std::uint32_t v) { return bytes(&v, sizeof(v)); }
  ByteWriter& u64(std::uint64_t v) { return bytes(&v, sizeof(v)); }
  ByteWriter& f64(double v);
  /// Raw bytes, no length prefix. `data` may be null when `size` is 0.
  ByteWriter& bytes(const void* data, std::size_t size);
  /// u64 length, then the bytes.
  ByteWriter& blob(std::string_view s) {
    return u64(s.size()).bytes(s.data(), s.size());
  }

  void reserve(std::size_t size) { out_.reserve(size); }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

/// Reads what ByteWriter wrote. Every read is checked against the bytes
/// left before it touches them; a failed check throws FrameError naming
/// the payload and the field ("<payload> truncated in <field>").
class ByteReader {
 public:
  /// `payload` names the bytes in error messages; it must outlive the
  /// reader, as must `bytes`.
  ByteReader(std::string_view bytes, const char* payload)
      : bytes_(bytes), payload_(payload) {}

  std::uint32_t u32(const char* field);
  std::uint64_t u64(const char* field);
  double f64(const char* field);
  /// A u64 that must not exceed `max` (a count or counter stored in a
  /// narrower or signed type).
  std::uint64_t u64_at_most(std::uint64_t max, const char* field);
  /// A u64 element count whose `elem_size`-byte elements fit in the bytes
  /// left, checked before the caller multiplies or allocates with it.
  std::size_t count(std::size_t elem_size, const char* field);

  /// The next `size` bytes, as a view into the input.
  std::string_view bytes(std::size_t size, const char* field);
  /// Copies the next `size` bytes to `into` (may be null when `size` is 0).
  void read(void* into, std::size_t size, const char* field);
  /// A blob written by ByteWriter::blob, as a view into the input.
  std::string_view blob(const char* field) {
    return bytes(count(1, field), field);
  }

  /// Throws FrameError unless every byte has been read: trailing bytes
  /// mean another encoder wrote the payload.
  void expect_end() const;
  /// Throws FrameError("<payload> <what>").
  [[noreturn]] void fail(const std::string& what) const;

 private:
  std::size_t remaining() const { return bytes_.size() - pos_; }

  std::string_view bytes_;
  const char* payload_;
  std::size_t pos_ = 0;
};

/// Wrap `payload` in a framed container:
///   u32 magic "SMAF" | u32 container version | u32 kind length |
///   kind bytes | u32 schema version | u64 payload length |
///   payload bytes | u64 FNV-1a(kind, schema version, payload)
std::string frame_encode(std::string_view kind, std::uint32_t version,
                         std::string_view payload);

/// Validate a frame and return its payload. Throws FrameError naming the
/// violated rule (magic, kind, version, truncation, trailing bytes,
/// checksum).
std::string frame_decode(std::string_view bytes, std::string_view kind,
                         std::uint32_t version);

/// Atomically replace `path` with `bytes` (temp file + fsync + rename +
/// directory fsync). Throws IoError on OS failure. Fault injection
/// points: `durable.open_temp`, `durable.write` (honors short_write /
/// corrupt), `durable.fsync`, `durable.rename`.
void atomic_write_file(const std::string& path, std::string_view bytes);

/// Read a whole file. Throws IoError when it does not exist or cannot be
/// read. Fault injection point: `durable.read`.
std::string read_file(const std::string& path);

bool file_exists(const std::string& path);

/// Create `dir` (and parents) if missing. Throws IoError on failure.
void ensure_dir(const std::string& dir);

/// frame_encode + atomic_write_file.
void write_frame_file(const std::string& path, std::string_view kind,
                      std::uint32_t version, std::string_view payload);

/// read_file + frame_decode.
std::string read_frame_file(const std::string& path, std::string_view kind,
                            std::uint32_t version);

enum class FrameLoad { kLoaded, kAbsent, kDiscarded };

/// Loads a frame file, or reports it absent. When `path` exists: fires
/// `fault_point`, reads and checks the frame, and hands the payload to
/// `decode`. A file that cannot be read, fails its frame, or whose payload
/// `decode` rejects with FrameError is logged, deleted and reported as
/// kDiscarded. Other exceptions, fault::FaultInjected included, propagate.
FrameLoad load_frame_file(
    const std::string& path, std::string_view kind, std::uint32_t version,
    const char* fault_point,
    const std::function<void(const std::string& payload)>& decode);

/// Best-effort save: fires `fault_point`, then write_frame_file, and
/// returns true. An IoError is logged and returns false, leaving the
/// previous file, if any, intact. Other exceptions, fault::FaultInjected
/// included, propagate.
bool save_frame_file(const std::string& path, std::string_view kind,
                     std::uint32_t version, const char* fault_point,
                     std::string_view payload);

}  // namespace sma::util
