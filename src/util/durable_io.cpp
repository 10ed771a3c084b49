#include "util/durable_io.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/fault.hpp"
#include "util/hash.hpp"

namespace sma::util {

namespace {

constexpr std::uint32_t kMagic = 0x464d5341;  // "SMAF" little-endian
constexpr std::uint32_t kContainerVersion = 1;

std::uint64_t frame_checksum(std::string_view kind, std::uint32_t version,
                             std::string_view payload) {
  // FNV-1a over the pieces the checksum covers, in frame order.
  return ContentHash()
      .add_bytes(kind.data(), kind.size())
      .add_bytes(&version, sizeof(version))
      .add_bytes(payload.data(), payload.size())
      .digest();
}

[[noreturn]] void throw_errno(const std::string& op, const std::string& path) {
  throw IoError(op + " '" + path + "' failed: " + std::strerror(errno));
}

}  // namespace

ByteWriter& ByteWriter::f64(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return u64(bits);
}

ByteWriter& ByteWriter::bytes(const void* data, std::size_t size) {
  // An empty vector's data() may be null; append needs a valid range.
  if (size > 0) out_.append(static_cast<const char*>(data), size);
  return *this;
}

std::uint32_t ByteReader::u32(const char* field) {
  std::uint32_t v = 0;
  read(&v, sizeof(v), field);
  return v;
}

std::uint64_t ByteReader::u64(const char* field) {
  std::uint64_t v = 0;
  read(&v, sizeof(v), field);
  return v;
}

double ByteReader::f64(const char* field) {
  const std::uint64_t bits = u64(field);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint64_t ByteReader::u64_at_most(std::uint64_t max, const char* field) {
  const std::uint64_t v = u64(field);
  if (v > max) fail(std::string(field) + " out of range");
  return v;
}

std::size_t ByteReader::count(std::size_t elem_size, const char* field) {
  const std::uint64_t n = u64(field);
  if (n > remaining() / elem_size) fail(std::string("truncated in ") + field);
  return static_cast<std::size_t>(n);
}

std::string_view ByteReader::bytes(std::size_t size, const char* field) {
  if (size > remaining()) fail(std::string("truncated in ") + field);
  const std::string_view v = bytes_.substr(pos_, size);
  pos_ += size;
  return v;
}

void ByteReader::read(void* into, std::size_t size, const char* field) {
  const std::string_view v = bytes(size, field);
  // memcpy's pointer arguments must be valid even for size 0.
  if (size > 0) std::memcpy(into, v.data(), size);
}

void ByteReader::expect_end() const {
  if (remaining() != 0) {
    fail("has " + std::to_string(remaining()) + " trailing bytes");
  }
}

void ByteReader::fail(const std::string& what) const {
  throw FrameError(std::string(payload_) + " " + what);
}

std::string frame_encode(std::string_view kind, std::uint32_t version,
                         std::string_view payload) {
  ByteWriter out;
  out.reserve(4 * sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t) +
              kind.size() + payload.size());
  out.u32(kMagic)
      .u32(kContainerVersion)
      .u32(static_cast<std::uint32_t>(kind.size()))
      .bytes(kind.data(), kind.size())
      .u32(version)
      .blob(payload)
      .u64(frame_checksum(kind, version, payload));
  return out.take();
}

std::string frame_decode(std::string_view bytes, std::string_view kind,
                         std::uint32_t version) {
  ByteReader in(bytes, "frame");
  if (in.u32("magic") != kMagic) {
    throw FrameError("not a durable frame (bad magic)");
  }
  const auto container = in.u32("container version");
  if (container != kContainerVersion) {
    throw FrameError("unsupported container version " +
                     std::to_string(container));
  }
  const auto kind_len = in.u32("kind length");
  if (kind_len > 256) {
    throw FrameError("implausible kind length " + std::to_string(kind_len));
  }
  const std::string_view got_kind = in.bytes(kind_len, "kind");
  if (got_kind != kind) {
    throw FrameError("frame kind mismatch: expected '" + std::string(kind) +
                     "', got '" + std::string(got_kind) + "'");
  }
  const auto got_version = in.u32("schema version");
  if (got_version != version) {
    throw FrameError("frame schema version mismatch: expected " +
                     std::to_string(version) + ", got " +
                     std::to_string(got_version));
  }
  const std::string_view payload = in.blob("payload");
  const auto checksum = in.u64("checksum");
  in.expect_end();
  if (checksum != frame_checksum(kind, version, payload)) {
    throw FrameError("frame checksum mismatch (torn write or corruption)");
  }
  return std::string(payload);
}

void atomic_write_file(const std::string& path, std::string_view bytes) {
  // Temp file in the destination directory (rename must not cross
  // filesystems); pid-suffixed so concurrent processes sharing a cache
  // directory never scribble on each other's temp file.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());

  fault::point("durable.open_temp");
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("open", tmp);

  std::string_view to_write = bytes;
  std::string mutated;
  bool tear_after_prefix = false;
  switch (fault::io_point("durable.write")) {
    case fault::Action::kShortWrite:
      // Torn write: emit only a prefix, then crash. The temp file is the
      // torn one; atomic replace means the destination stays whole. To
      // model a filesystem that reordered data vs. the rename, tests
      // instead truncate the destination bytes directly.
      to_write = bytes.substr(0, bytes.size() / 2);
      tear_after_prefix = true;
      break;
    case fault::Action::kCorrupt:
      // Silent corruption: flip one byte mid-payload but complete the
      // write — the checksum catches it at load time.
      mutated.assign(bytes);
      if (!mutated.empty()) mutated[mutated.size() / 2] ^= 0x40;
      to_write = mutated;
      break;
    default:
      break;
  }

  std::size_t written = 0;
  while (written < to_write.size()) {
    const ::ssize_t n =
        ::write(fd, to_write.data() + written, to_write.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      ::unlink(tmp.c_str());
      throw_errno("write", tmp);
    }
    written += static_cast<std::size_t>(n);
  }
  if (tear_after_prefix) {
    ::close(fd);
    throw fault::FaultInjected("durable.write");
  }

  fault::point("durable.fsync");
  if (::fsync(fd) != 0) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw_errno("fsync", tmp);
  }
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw_errno("close", tmp);
  }

  fault::point("durable.rename");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw_errno("rename", tmp + " -> " + path);
  }

  // Durability of the rename itself: fsync the containing directory.
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);  // best effort — some filesystems reject directory fsync
    ::close(dfd);
  }
}

std::string read_file(const std::string& path) {
  fault::point("durable.read");
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open '" + path + "' for reading");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) throw IoError("read of '" + path + "' failed");
  return buffer.str();
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

void ensure_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw IoError("cannot create directory '" + dir + "': " + ec.message());
  }
}

void write_frame_file(const std::string& path, std::string_view kind,
                      std::uint32_t version, std::string_view payload) {
  atomic_write_file(path, frame_encode(kind, version, payload));
}

std::string read_frame_file(const std::string& path, std::string_view kind,
                            std::uint32_t version) {
  return frame_decode(read_file(path), kind, version);
}

}  // namespace sma::util
