// Crash-safety gates (PR 7): durable_io framing, the fault-injection
// harness, checkpoint/resume byte-identity, the split cache's disk tier,
// and durable experiment work units.
//
// The central contract under test: a run killed at ANY fault-injection
// point can be rerun and produces results byte-identical to a run that
// was never interrupted — and a damaged file on disk is always detected
// and recomputed, never silently consumed.
#include <gtest/gtest.h>
#include <stdlib.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <typeinfo>
#include <vector>

#include "attack/checkpoint.hpp"
#include "attack/dl_attack.hpp"
#include "eval/experiment.hpp"
#include "eval/split_cache.hpp"
#include "eval/work_unit.hpp"
#include "layout/def_io.hpp"
#include "nn/attack_net.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "test_support.hpp"
#include "util/durable_io.hpp"
#include "util/fault.hpp"
#include "util/hash.hpp"

namespace sma {
namespace {

namespace fault = util::fault;

/// This process's own scratch root under the gtest temp root, made once
/// by mkdtemp and removed at exit: two test processes running at once
/// (say, two sanitizer builds on one machine) never share a directory.
const std::string& process_dir() {
  struct Root {
    std::string path;
    Root() {
      std::string pattern = ::testing::TempDir() + "sma_durability_XXXXXX";
      if (::mkdtemp(pattern.data()) == nullptr) {
        throw std::runtime_error("mkdtemp failed for " + pattern);
      }
      path = pattern;
    }
    ~Root() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  };
  static const Root root;
  return root.path;
}

/// Fresh per-test scratch directory inside this process's root.
std::string test_dir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = process_dir() + "/" + info->test_suite_name() +
                          "_" + info->name();
  std::filesystem::remove_all(dir);
  util::ensure_dir(dir);
  return dir;
}

/// Flip one byte of `path` in place (simulated bit rot).
void corrupt_file_byte(const std::string& path, std::size_t offset) {
  std::string bytes = util::read_file(path);
  ASSERT_LT(offset, bytes.size());
  bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.write(bytes.data(),
                        static_cast<std::streamsize>(bytes.size())));
}

/// Armed faults must never leak across tests.
class DurabilityTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm_all(); }
  void TearDown() override { fault::disarm_all(); }
};

// ---------------------------------------------------------------------
// Frame container
// ---------------------------------------------------------------------

TEST_F(DurabilityTest, FrameRoundTripsArbitraryPayloads) {
  const std::string payload("ab\0\xff\n\x01zz", 8);
  const std::string frame = util::frame_encode("unit-test", 3, payload);
  EXPECT_EQ(util::frame_decode(frame, "unit-test", 3), payload);

  // Empty payloads are legal (an empty work unit is still a valid frame).
  const std::string empty = util::frame_encode("unit-test", 3, "");
  EXPECT_EQ(util::frame_decode(empty, "unit-test", 3), "");
}

TEST_F(DurabilityTest, FrameRejectsEveryTruncation) {
  // The torn-write case: a frame cut at EVERY byte boundary must be
  // rejected — there is no prefix length at which a truncated frame still
  // decodes.
  const std::string frame = util::frame_encode("unit-test", 1, "payload!");
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_THROW(util::frame_decode(frame.substr(0, cut), "unit-test", 1),
                 util::FrameError)
        << "cut at byte " << cut << " of " << frame.size();
  }
}

TEST_F(DurabilityTest, FrameRejectsEverySingleByteCorruption) {
  // Bit rot anywhere — header, kind, length fields, payload, checksum —
  // must be caught (by a field check or ultimately the checksum).
  const std::string frame =
      util::frame_encode("unit-test", 1, "sixteen payload b");
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::string damaged = frame;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x04);
    EXPECT_THROW(util::frame_decode(damaged, "unit-test", 1),
                 util::FrameError)
        << "flipped byte " << i << " of " << frame.size();
  }
}

TEST_F(DurabilityTest, FrameRejectsWrongKindAndVersion) {
  const std::string frame = util::frame_encode("kind-a", 2, "data");
  EXPECT_THROW(util::frame_decode(frame, "kind-b", 2), util::FrameError);
  EXPECT_THROW(util::frame_decode(frame, "kind-a", 3), util::FrameError);
  EXPECT_EQ(util::frame_decode(frame, "kind-a", 2), "data");
}

// ---------------------------------------------------------------------
// Atomic file replacement
// ---------------------------------------------------------------------

TEST_F(DurabilityTest, AtomicWriteReadRoundTripAndReplace) {
  const std::string dir = test_dir();
  const std::string path = dir + "/file.bin";
  EXPECT_FALSE(util::file_exists(path));
  EXPECT_THROW(util::read_file(path), util::IoError);

  util::atomic_write_file(path, "first");
  EXPECT_TRUE(util::file_exists(path));
  EXPECT_EQ(util::read_file(path), "first");

  util::atomic_write_file(path, "second, longer contents");
  EXPECT_EQ(util::read_file(path), "second, longer contents");
}

TEST_F(DurabilityTest, EnsureDirCreatesNestedDirectories) {
  const std::string dir = test_dir() + "/a/b/c";
  util::ensure_dir(dir);
  util::ensure_dir(dir);  // idempotent
  util::atomic_write_file(dir + "/f", "x");
  EXPECT_EQ(util::read_file(dir + "/f"), "x");
}

// ---------------------------------------------------------------------
// Fault harness
// ---------------------------------------------------------------------

TEST_F(DurabilityTest, FaultFiresOnNthHitAndIsOneShot) {
  const std::string dir = test_dir();
  const std::string path = dir + "/f.bin";
  util::atomic_write_file(path, "ok");

  fault::arm("durable.read", fault::Action::kFail, /*nth=*/2);
  EXPECT_EQ(util::read_file(path), "ok");                    // hit 1: inert
  EXPECT_THROW(util::read_file(path), fault::FaultInjected);  // hit 2: fires
  EXPECT_EQ(util::read_file(path), "ok");  // one-shot: disarmed after firing
  EXPECT_EQ(fault::hits("durable.read"), 3);

  fault::disarm_all();
  EXPECT_EQ(fault::hits("durable.read"), 0);
}

TEST_F(DurabilityTest, ArmFromEnvParsesSpecsAndRejectsMalformedOnes) {
  const std::string dir = test_dir();
  const std::string path = dir + "/f.bin";
  util::atomic_write_file(path, "ok");

  ::setenv("SMA_FAULT", "durable.read:fail:1", /*overwrite=*/1);
  EXPECT_EQ(fault::arm_from_env(), 1);
  ::unsetenv("SMA_FAULT");
  EXPECT_THROW(util::read_file(path), fault::FaultInjected);
  EXPECT_EQ(util::read_file(path), "ok");

  // A misspelled spec must fail loudly, not silently test nothing.
  ::setenv("SMA_FAULT", "durable.read:bogus_mode:1", 1);
  EXPECT_THROW(fault::arm_from_env(), std::invalid_argument);
  ::unsetenv("SMA_FAULT");
}

TEST_F(DurabilityTest, AtomicReplaceSurvivesKillAtEveryIoPoint) {
  const std::string dir = test_dir();
  const std::string path = dir + "/frame.sma";
  util::write_frame_file(path, "kill-test", 1, "OLD");

  struct Point {
    const char* name;
    fault::Action mode;
  };
  const Point points[] = {
      {"durable.open_temp", fault::Action::kFail},
      {"durable.write", fault::Action::kFail},
      {"durable.write", fault::Action::kShortWrite},
      {"durable.fsync", fault::Action::kFail},
      {"durable.rename", fault::Action::kFail},
  };
  for (const Point& p : points) {
    fault::disarm_all();
    fault::arm(p.name, p.mode);
    EXPECT_THROW(util::write_frame_file(path, "kill-test", 1, "NEW"),
                 fault::FaultInjected)
        << p.name;
    // The crash left either no trace or a doomed temp file — never a torn
    // destination. The previous frame must still load, intact.
    EXPECT_EQ(util::read_frame_file(path, "kill-test", 1), "OLD") << p.name;
  }

  fault::disarm_all();
  util::write_frame_file(path, "kill-test", 1, "NEW");
  EXPECT_EQ(util::read_frame_file(path, "kill-test", 1), "NEW");
}

TEST_F(DurabilityTest, SilentCorruptionIsDetectedAtLoad) {
  const std::string dir = test_dir();
  const std::string path = dir + "/frame.sma";

  // corrupt mode completes the write normally (no crash to observe) but
  // flips a byte — the non-atomic-filesystem / bit-rot case. The frame
  // checksum must catch it at load.
  fault::arm("durable.write", fault::Action::kCorrupt);
  util::write_frame_file(path, "kill-test", 1, "payload bytes");
  EXPECT_THROW(util::read_frame_file(path, "kill-test", 1), util::FrameError);
}

// ---------------------------------------------------------------------
// The one load and save policy for frame files
// ---------------------------------------------------------------------

/// load_frame_file over `path` with kind "policy-test" version 1; the
/// decoder stores the payload in `*got` and rejects "reject me" with
/// FrameError.
util::FrameLoad load_policy_file(const std::string& path, std::string* got) {
  return util::load_frame_file(
      path, "policy-test", 1, "policy.load", [got](const std::string& p) {
        if (p == "reject me") throw util::FrameError("decoder rejects it");
        *got = p;
      });
}

TEST_F(DurabilityTest, LoadFrameFileLeavesMissingFileAlone) {
  const std::string dir = test_dir();
  const std::string path = dir + "/missing.sma";
  std::string got = "untouched";
  EXPECT_EQ(load_policy_file(path, &got), util::FrameLoad::kAbsent);
  EXPECT_EQ(got, "untouched");
  EXPECT_FALSE(util::file_exists(path));
  // The fault point fires only for a file that exists.
  EXPECT_EQ(fault::hits("policy.load"), 0);

  util::write_frame_file(path, "policy-test", 1, "payload");
  EXPECT_EQ(load_policy_file(path, &got), util::FrameLoad::kLoaded);
  EXPECT_EQ(got, "payload");
  EXPECT_TRUE(util::file_exists(path));
}

TEST_F(DurabilityTest, LoadFrameFileDeletesEveryDamagedFile) {
  const std::string dir = test_dir();
  const std::string frame = util::frame_encode("policy-test", 1, "payload");
  struct Case {
    const char* what;
    std::string bytes;
  };
  std::string flipped = frame;
  flipped[frame.size() / 2] = static_cast<char>(flipped[frame.size() / 2] ^ 1);
  const Case cases[] = {
      {"torn", frame.substr(0, frame.size() / 2)},
      {"byte-flipped", flipped},
      {"foreign kind", util::frame_encode("other-kind", 1, "payload")},
      {"rejected payload", util::frame_encode("policy-test", 1, "reject me")},
  };
  for (const Case& c : cases) {
    const std::string path = dir + "/damaged.sma";
    util::atomic_write_file(path, c.bytes);
    std::string got = "untouched";
    EXPECT_EQ(load_policy_file(path, &got), util::FrameLoad::kDiscarded)
        << c.what;
    EXPECT_EQ(got, "untouched") << c.what;
    EXPECT_FALSE(util::file_exists(path)) << c.what << " file was kept";
  }

  // Any other decoder exception is not damage: it propagates, and the
  // file stays.
  const std::string path = dir + "/kept.sma";
  util::write_frame_file(path, "policy-test", 1, "payload");
  EXPECT_THROW(util::load_frame_file(path, "policy-test", 1, "policy.load",
                                     [](const std::string&) {
                                       throw std::logic_error("a bug");
                                     }),
               std::logic_error);
  EXPECT_TRUE(util::file_exists(path));
}

TEST_F(DurabilityTest, LoadAndSaveFrameFilePropagateInjectedCrashes) {
  const std::string dir = test_dir();
  const std::string path = dir + "/f.sma";
  util::write_frame_file(path, "policy-test", 1, "OLD");

  // A crash at the load point neither decodes nor deletes the file.
  fault::arm("policy.load", fault::Action::kFail);
  std::string got = "untouched";
  EXPECT_THROW(load_policy_file(path, &got), fault::FaultInjected);
  EXPECT_EQ(got, "untouched");
  EXPECT_EQ(util::read_frame_file(path, "policy-test", 1), "OLD");

  // A crash at the save point, or inside the write, is not an IO failure
  // to log: it propagates and the previous file stays whole.
  fault::arm("policy.save", fault::Action::kFail);
  EXPECT_THROW(
      util::save_frame_file(path, "policy-test", 1, "policy.save", "NEW"),
      fault::FaultInjected);
  fault::arm("durable.rename", fault::Action::kFail);
  EXPECT_THROW(
      util::save_frame_file(path, "policy-test", 1, "policy.save", "NEW"),
      fault::FaultInjected);
  EXPECT_EQ(util::read_frame_file(path, "policy-test", 1), "OLD");

  EXPECT_TRUE(
      util::save_frame_file(path, "policy-test", 1, "policy.save", "NEW"));
  EXPECT_EQ(util::read_frame_file(path, "policy-test", 1), "NEW");
}

TEST_F(DurabilityTest, SaveFrameFileReturnsFalseOnIoFailure) {
  // A path under a regular file: the temp file's open fails with ENOTDIR,
  // a genuine IoError (root ignores permission bits, so this is the
  // failure every user can provoke).
  const std::string dir = test_dir();
  util::atomic_write_file(dir + "/plain", "not a directory");
  const std::string path = dir + "/plain/f.sma";
  bool saved = true;
  EXPECT_NO_THROW(saved = util::save_frame_file(path, "policy-test", 1,
                                                "policy.save", "payload"));
  EXPECT_FALSE(saved);
  EXPECT_FALSE(util::file_exists(path));
}

// ---------------------------------------------------------------------
// Training checkpoints
// ---------------------------------------------------------------------

/// A checkpoint with every field set: three epoch losses, one validation
/// entry, an 11-byte model blob and a 10-byte optimizer blob.
attack::TrainCheckpoint fixed_checkpoint() {
  attack::TrainCheckpoint ckpt;
  ckpt.compat_digest = 0xfeedbeefcafe1234ULL;
  ckpt.epochs_done = 7;
  ckpt.queries_seen = 4200;
  ckpt.epoch_loss = {1.5, 0.75, 0.5};
  ckpt.validation_ccr = {0.25};
  ckpt.rng = util::Pcg32(123).save_state();
  ckpt.model_blob = "model-bytes";
  ckpt.adam_blob = "adam-bytes";
  return ckpt;
}

/// A vector-only net small enough to fuzz its weight blob byte by byte.
nn::NetConfig tiny_net_config() {
  nn::NetConfig config;
  config.hidden = 16;
  config.vector_res_blocks = 1;
  config.merged_res_blocks = 1;
  config.use_images = false;
  return config;
}

/// Two small parameters and their optimizer. `train` takes three Adam
/// steps on fixed gradients.
struct AdamFixture {
  nn::Tensor a{std::vector<int>{3}};
  nn::Tensor ga{std::vector<int>{3}};
  nn::Tensor b{std::vector<int>{2, 2}};
  nn::Tensor gb{std::vector<int>{2, 2}};
  nn::Adam adam{std::vector<nn::Param>{{"a", &a, &ga}, {"b", &b, &gb}}};

  AdamFixture() {
    set(a, {1.0f, -2.0f, 0.5f});
    set(b, {0.25f, -0.75f, 1.5f, -1.25f});
  }
  AdamFixture(const AdamFixture&) = delete;
  AdamFixture& operator=(const AdamFixture&) = delete;

  std::vector<nn::Param> params() { return {{"a", &a, &ga}, {"b", &b, &gb}}; }

  void train() {
    for (int step = 0; step < 3; ++step) {
      set(ga, {0.1f, -0.3f, 0.2f});
      set(gb, {-0.05f, 0.4f, 0.0f, 0.25f});
      adam.step();
    }
  }

  static void set(nn::Tensor& t, std::initializer_list<float> values) {
    std::size_t i = 0;
    for (float v : values) t[i++] = v;
  }
};

TEST_F(DurabilityTest, CheckpointSaveLoadRoundTrip) {
  const std::string dir = test_dir();
  const std::string path = dir + "/ckpt.sma";
  // The lifecycle counters the run report's durability section reads.
  obs::Registry& registry = obs::Registry::global();
  const obs::Counter& saves = registry.counter("checkpoint.saves");
  const obs::Counter& resumes = registry.counter("checkpoint.resumes");
  const obs::Counter& discards =
      registry.counter("checkpoint.corrupt_discards");
  const std::uint64_t saves_before = saves.value();
  const std::uint64_t resumes_before = resumes.value();
  const std::uint64_t discards_before = discards.value();

  // The fixed checkpoint, carrying a trained fixture's weights and
  // optimizer state.
  AdamFixture trained;
  trained.train();
  attack::TrainCheckpoint ckpt = fixed_checkpoint();
  ckpt.model_blob = attack::encode_params(trained.params());
  ckpt.adam_blob = trained.adam.serialize();
  attack::save_checkpoint(path, ckpt);
  EXPECT_EQ(saves.value(), saves_before + 1);

  // Missing file, configuration mismatch and an epoch count past this
  // run's all mean "start fresh", with nothing applied; another run's
  // checkpoint stays on disk.
  AdamFixture fresh;
  std::vector<nn::Param> params = fresh.params();
  const std::string fresh_weights = attack::encode_params(params);
  const std::string fresh_adam = fresh.adam.serialize();
  attack::TrainCheckpoint out;
  EXPECT_FALSE(attack::try_load_checkpoint(dir + "/nope.sma",
                                           ckpt.compat_digest, 7, params,
                                           fresh.adam, &out));
  EXPECT_EQ(discards.value(), discards_before);
  EXPECT_FALSE(attack::try_load_checkpoint(path, /*expect_digest=*/1, 7,
                                           params, fresh.adam, &out));
  EXPECT_EQ(discards.value(), discards_before + 1);
  EXPECT_FALSE(attack::try_load_checkpoint(path, ckpt.compat_digest,
                                           /*max_epochs=*/6, params,
                                           fresh.adam, &out));
  EXPECT_EQ(discards.value(), discards_before + 2);
  EXPECT_TRUE(util::file_exists(path));
  EXPECT_EQ(attack::encode_params(params), fresh_weights);
  EXPECT_EQ(fresh.adam.serialize(), fresh_adam);
  EXPECT_EQ(resumes.value(), resumes_before);

  attack::TrainCheckpoint loaded;
  ASSERT_TRUE(attack::try_load_checkpoint(path, ckpt.compat_digest, 7,
                                          params, fresh.adam, &loaded));
  EXPECT_EQ(resumes.value(), resumes_before + 1);
  EXPECT_EQ(loaded.compat_digest, ckpt.compat_digest);
  EXPECT_EQ(loaded.epochs_done, 7);
  EXPECT_EQ(loaded.queries_seen, 4200);
  EXPECT_EQ(loaded.epoch_loss, ckpt.epoch_loss);
  EXPECT_EQ(loaded.validation_ccr, ckpt.validation_ccr);
  EXPECT_EQ(loaded.rng.state, ckpt.rng.state);
  EXPECT_EQ(loaded.rng.inc, ckpt.rng.inc);
  EXPECT_EQ(attack::encode_params(params), ckpt.model_blob);
  EXPECT_EQ(fresh.adam.serialize(), ckpt.adam_blob);

  // A damaged checkpoint is deleted and discarded, not resumed.
  corrupt_file_byte(path, 40);
  EXPECT_FALSE(attack::try_load_checkpoint(path, ckpt.compat_digest, 7,
                                           params, fresh.adam, &out));
  EXPECT_EQ(discards.value(), discards_before + 3);
  EXPECT_FALSE(util::file_exists(path));
  EXPECT_EQ(resumes.value(), resumes_before + 1);
}

TEST_F(DurabilityTest, EncodeDecodeParamsTransplantsWeightsExactly) {
  const nn::NetConfig config = tiny_net_config();
  nn::AttackNet a(config);
  nn::NetConfig other = config;
  other.seed ^= 0x9e3779b9u;  // different random init
  nn::AttackNet b(other);

  std::vector<nn::Param> a_params = a.params();
  std::vector<nn::Param> b_params = b.params();
  const std::string blob = attack::encode_params(a_params);
  attack::decode_params(blob, b_params);

  std::ostringstream sa, sb;
  a.save(sa);
  b.save(sb);
  // Weight sections must now match byte for byte (headers differ in the
  // stored seed, so compare past them).
  EXPECT_EQ(sa.str().substr(64), sb.str().substr(64));

  // A truncated blob must be rejected BEFORE any tensor is written.
  EXPECT_THROW(
      attack::decode_params(blob.substr(0, blob.size() / 2), b_params),
      util::FrameError);
  std::ostringstream sb2;
  b.save(sb2);
  EXPECT_EQ(sb.str(), sb2.str()) << "failed decode mutated the weights";

  // So must a blob with trailing bytes: c (a third init) keeps its own
  // weights through a decode of a's blob plus 4 bytes.
  nn::NetConfig third = config;
  third.seed ^= 0x85ebca6bu;
  nn::AttackNet c(third);
  std::vector<nn::Param> c_params = c.params();
  std::ostringstream sc;
  c.save(sc);
  EXPECT_THROW(attack::decode_params(blob + std::string(4, '\0'), c_params),
               util::FrameError);
  std::ostringstream sc2;
  c.save(sc2);
  EXPECT_EQ(sc.str(), sc2.str()) << "trailing-bytes decode mutated the weights";
}

std::uint64_t digest_of(const std::string& bytes) {
  return util::ContentHash().add_bytes(bytes.data(), bytes.size()).digest();
}

std::string cache_entry_path(const std::string& dir, std::uint64_t key) {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.sma",
                static_cast<unsigned long long>(key));
  return dir + "/" + name;
}

TEST_F(DurabilityTest, PersistedBytesMatchPinnedDigests) {
  // FNV-1a digests of each persisted payload, recorded before the frame,
  // checkpoint, weight, optimizer and cache-entry encoders shared one
  // codec: files written by older builds must stay readable, so their
  // bytes may not move.
  const std::string frame_payload("ab\0\xff\n\x01zz", 8);
  EXPECT_EQ(digest_of(util::frame_encode("unit-test", 3, frame_payload)),
            0xb4c5e9b5e2dc5019ull);
  EXPECT_EQ(digest_of(attack::encode_checkpoint(fixed_checkpoint())),
            0x72877309c618d1cfull);

  nn::AttackNet net(tiny_net_config());
  EXPECT_EQ(digest_of(attack::encode_params(net.params())),
            0xc56dbe47472a1b36ull);

  AdamFixture fixture;
  fixture.train();
  EXPECT_EQ(digest_of(fixture.adam.serialize()), 0xb7200d74156928faull);

  const std::string dir = test_dir();
  constexpr std::uint64_t kKey = 0x51a1ca5e00001234ULL;
  eval::SplitCache cache(4);
  cache.set_disk_dir(dir, &test::library());
  cache.get_or_build(kKey, [] {
    return std::make_shared<const layout::Design>(
        test::small_routed_design(60, 3));
  });
  EXPECT_EQ(digest_of(util::read_file(cache_entry_path(dir, kKey))),
            0xe80b186fb0780e68ull);
}

/// Calls `visit(bytes, what)` with every hostile variant of `payload`:
/// every cut, every single-byte flip, and, for each u64 length or count
/// field at an offset in `u64_fields`, the field set to 2^64 - 1 and to
/// one more than the bytes that follow it.
template <typename Visit>
void for_each_hostile_variant(const std::string& payload,
                              const std::vector<std::size_t>& u64_fields,
                              Visit&& visit) {
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    visit(payload.substr(0, cut), "cut at " + std::to_string(cut));
  }
  std::string flipped = payload;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    flipped[i] = static_cast<char>(flipped[i] ^ 0x5a);
    visit(flipped, "flip at " + std::to_string(i));
    flipped[i] = payload[i];
  }
  for (std::size_t offset : u64_fields) {
    const std::size_t after = offset + sizeof(std::uint64_t);
    ASSERT_LE(after, payload.size());
    const std::uint64_t values[] = {~std::uint64_t{0},
                                    payload.size() - after + 1};
    for (std::uint64_t value : values) {
      std::string edited = payload;
      std::memcpy(edited.data() + offset, &value, sizeof(value));
      visit(edited, "field at " + std::to_string(offset) + " = " +
                        std::to_string(value));
    }
  }
}

/// Runs `decode()`: true when it threw util::FrameError, false when it
/// decoded. Any other exception fails the test.
template <typename Decode>
bool throws_frame_error(Decode&& decode, const std::string& what) {
  try {
    decode();
    return false;
  } catch (const util::FrameError&) {
    return true;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": escaped as " << typeid(e).name() << ": "
                  << e.what();
    return true;
  }
}

/// The u64 value at `offset` of `bytes`.
std::uint64_t u64_at(const std::string& bytes, std::size_t offset) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

TEST_F(DurabilityTest, HostilePayloadsDecodeOrThrowFrameError) {
  // Checkpoint payload: compat digest, epoch and query counters, the RNG,
  // two double histories, then the weight and optimizer blobs.
  const std::string ckpt = attack::encode_checkpoint(fixed_checkpoint());
  const std::vector<std::size_t> ckpt_fields = {8, 16, 40, 72, 88, 107};
  ASSERT_EQ(u64_at(ckpt, 40), 3u);    // epoch losses
  ASSERT_EQ(u64_at(ckpt, 72), 1u);    // validation history
  ASSERT_EQ(u64_at(ckpt, 88), 11u);   // model blob
  ASSERT_EQ(u64_at(ckpt, 107), 10u);  // optimizer blob
  for_each_hostile_variant(
      ckpt, ckpt_fields,
      [](const std::string& bytes, const std::string& what) {
        throws_frame_error([&] { attack::decode_checkpoint(bytes); },
                           "checkpoint " + what);
      });

  // Weight blob: parameter count, then each parameter's float count and
  // floats. A failed decode leaves the target's weights untouched.
  nn::AttackNet source(tiny_net_config());
  nn::NetConfig other = tiny_net_config();
  other.seed ^= 0x9e3779b9u;
  nn::AttackNet target(other);
  std::vector<nn::Param> target_params = target.params();
  const std::string params = attack::encode_params(source.params());
  std::vector<std::size_t> param_fields = {0};
  std::size_t offset = sizeof(std::uint64_t);
  for (const nn::Param& p : target_params) {
    ASSERT_EQ(u64_at(params, offset), p.value->size()) << p.name;
    param_fields.push_back(offset);
    offset += sizeof(std::uint64_t) + p.value->size() * sizeof(float);
  }
  ASSERT_EQ(offset, params.size());
  const std::string target_bytes = attack::encode_params(target_params);
  for_each_hostile_variant(
      params, param_fields,
      [&](const std::string& bytes, const std::string& what) {
        if (throws_frame_error(
                [&] { attack::decode_params(bytes, target_params); },
                "weights " + what)) {
          if (attack::encode_params(target_params) != target_bytes) {
            ADD_FAILURE() << "weights " << what << ": failed decode wrote";
          }
        } else {
          attack::decode_params(target_bytes, target_params);
        }
      });

  // Optimizer state: learning rate, step counter, parameter count, then
  // each parameter's size and both moment vectors. A failed decode leaves
  // the target optimizer untouched.
  AdamFixture trained;
  trained.train();
  const std::string adam = trained.adam.serialize();
  const std::vector<std::size_t> adam_fields = {16, 24, 56};
  ASSERT_EQ(u64_at(adam, 16), 2u);
  ASSERT_EQ(u64_at(adam, 24), 3u);
  ASSERT_EQ(u64_at(adam, 56), 4u);
  AdamFixture fresh;
  const std::string fresh_state = fresh.adam.serialize();
  for_each_hostile_variant(
      adam, adam_fields,
      [&](const std::string& bytes, const std::string& what) {
        if (throws_frame_error([&] { fresh.adam.deserialize(bytes); },
                               "Adam state " + what)) {
          if (fresh.adam.serialize() != fresh_state) {
            ADD_FAILURE() << "Adam state " << what << ": failed decode wrote";
          }
        } else {
          fresh.adam.deserialize(fresh_state);
        }
      });
  // The intact blobs still decode.
  attack::decode_params(params, target_params);
  fresh.adam.deserialize(adam);
  EXPECT_EQ(fresh.adam.serialize(), adam);

  // A split-cache entry whose payload was cut, then re-framed with a valid
  // checksum: key, overflow, fallback count, DEF length, then the DEF
  // text. At every field boundary and 64 cuts spread over the DEF text,
  // the entry is discarded, deleted and rebuilt, never served.
  const std::string dir = test_dir();
  constexpr std::uint64_t kKey = 0xcafe0000c0ffee00ULL;
  const auto built = std::make_shared<const layout::Design>(
      test::small_routed_design(60, 3));
  {
    eval::SplitCache cache(4);
    cache.set_disk_dir(dir, &test::library());
    cache.get_or_build(kKey, [&] { return built; });
  }
  const std::string path = cache_entry_path(dir, kKey);
  const std::string entry = util::read_file(path);
  const std::string payload =
      util::frame_decode(entry, "sma-design-cache", /*version=*/1);
  constexpr std::size_t kDefStart = 4 * sizeof(std::uint64_t);
  ASSERT_EQ(u64_at(payload, 3 * sizeof(std::uint64_t)),
            payload.size() - kDefStart);

  std::vector<std::size_t> cuts = {0, 8, 16, 24, kDefStart};
  for (std::size_t k = 1; k <= 64; ++k) {
    cuts.push_back(kDefStart + (payload.size() - kDefStart) * k / 65);
  }
  for (std::size_t cut : cuts) {
    util::write_frame_file(path, "sma-design-cache", 1, payload.substr(0, cut));
    eval::SplitCache cache(4);
    cache.set_disk_dir(dir, &test::library());
    bool rebuilt = false;
    cache.get_or_build(kKey, [&] {
      rebuilt = true;
      return built;
    });
    EXPECT_TRUE(rebuilt) << "cut at " << cut << " was served";
    EXPECT_EQ(cache.stats().disk_corrupt, 1u) << "cut at " << cut;
    EXPECT_EQ(cache.stats().disk_hits, 0u) << "cut at " << cut;
    // The damaged file was deleted and the rebuild's spill replaced it.
    EXPECT_EQ(cache.stats().disk_spills, 1u) << "cut at " << cut;
    EXPECT_EQ(util::read_file(path), entry) << "cut at " << cut;
  }
}

TEST_F(DurabilityTest, HostileWorkUnitsDecodeOrThrowFrameError) {
  // Work-unit payloads (eval/work_unit.hpp): run digest, slot and name
  // blob, then a Table-3 row's two fragment counts, flags and five
  // doubles, or a Figure-5 row's two doubles. Every variant decodes or
  // throws FrameError; the intact payloads round-trip.
  constexpr std::uint64_t kDigest = 0x0123456789abcdefULL;
  constexpr std::size_t kSlot = 3;
  eval::Table3Row row;
  row.design = "c880";
  row.num_sink_fragments = 41;
  row.num_source_fragments = 97;
  row.flow_timed_out = true;
  row.flow_ccr = 0.25;
  row.flow_seconds = 1.5;
  row.dl_ccr = 0.375;
  row.dl_seconds = 0.125;
  row.hit_rate = 0.5;
  const std::string t3 = eval::encode_t3_row(kDigest, kSlot, row);
  const std::size_t name = row.design.size();
  const std::vector<std::size_t> t3_fields = {16, 24 + name, 32 + name};
  ASSERT_EQ(u64_at(t3, 16), name);
  ASSERT_EQ(u64_at(t3, 24 + name), 41u);
  ASSERT_EQ(u64_at(t3, 32 + name), 97u);
  for_each_hostile_variant(
      t3, t3_fields, [&](const std::string& bytes, const std::string& what) {
        throws_frame_error(
            [&] { eval::decode_t3_row(bytes, kDigest, kSlot); },
            "Table-3 work unit " + what);
      });
  EXPECT_EQ(eval::encode_t3_row(kDigest, kSlot,
                                eval::decode_t3_row(t3, kDigest, kSlot)),
            t3);

  eval::AblationRow setting;
  setting.setting = "vec+img";
  setting.avg_ccr = 0.3125;
  setting.avg_inference_seconds = 0.0625;
  const std::string f5 = eval::encode_f5_row(kDigest, kSlot, setting);
  ASSERT_EQ(u64_at(f5, 16), setting.setting.size());
  for_each_hostile_variant(
      f5, {16}, [&](const std::string& bytes, const std::string& what) {
        throws_frame_error(
            [&] { eval::decode_f5_row(bytes, kDigest, kSlot); },
            "Figure-5 work unit " + what);
      });
  EXPECT_EQ(eval::encode_f5_row(kDigest, kSlot,
                                eval::decode_f5_row(f5, kDigest, kSlot)),
            f5);
}

/// Shared training fixture for the resume tests: one small vector-only
/// dataset (pattern borrowed from test_attacks.cpp), kept tiny because
/// the kill matrix trains it many times.
class CheckpointTrainTest : public DurabilityTest {
 protected:
  static nn::NetConfig net_config() {
    nn::NetConfig config;
    config.hidden = 24;
    config.vector_res_blocks = 1;
    config.merged_res_blocks = 1;
    config.use_images = false;
    return config;
  }

  static std::vector<attack::QueryDataset> make_training() {
    attack::DatasetConfig config;
    config.candidates.max_candidates = 8;
    config.build_images = false;
    std::vector<attack::QueryDataset> training;
    training.emplace_back(test::shared_split(3, 400, 13).split.get(), config);
    return training;
  }

  /// One full train() call; returns the saved model bytes.
  static std::string train_model(int epochs, int batch_size, int threads,
                                 const std::string& checkpoint_path,
                                 int checkpoint_every,
                                 attack::TrainStats* out_stats = nullptr,
                                 const nn::NetConfig& net = net_config()) {
    runtime::Config runtime_config;
    runtime_config.threads = threads;
    std::unique_ptr<runtime::ThreadPool> pool = runtime_config.make_pool();

    std::vector<attack::QueryDataset> training = make_training();
    std::vector<attack::QueryDataset> validation;
    attack::TrainConfig config;
    config.epochs = epochs;
    config.batch_size = batch_size;
    config.max_queries_per_design = 60;
    config.decay_every = 3;
    config.checkpoint_path = checkpoint_path;
    config.checkpoint_every = checkpoint_every;

    attack::DlAttack dl(net);
    attack::TrainStats stats =
        dl.train(training, validation, config, pool.get());
    if (out_stats != nullptr) *out_stats = stats;
    std::ostringstream bytes;
    dl.net().save(bytes);
    return bytes.str();
  }
};

TEST_F(CheckpointTrainTest, ResumeIsByteIdenticalAcrossThreadsAndLanes) {
  const std::string dir = test_dir();
  for (int batch_size : {1, 8}) {
    // The reference: an uninterrupted run (the model depends on the lane
    // count but never on the thread count).
    attack::TrainStats ref_stats;
    const std::string ref =
        train_model(4, batch_size, /*threads=*/1, "", 0, &ref_stats);

    for (int threads : {1, 4}) {
      const std::string path = dir + "/ckpt_b" + std::to_string(batch_size) +
                               "_t" + std::to_string(threads) + ".sma";
      // "Crash" after epoch 2 (simply stop), then resume to epoch 4.
      train_model(2, batch_size, threads, path, /*checkpoint_every=*/1);
      const obs::Counter& saves =
          obs::Registry::global().counter("checkpoint.saves");
      const std::uint64_t saves_before = saves.value();
      attack::TrainStats stats;
      const std::string resumed =
          train_model(4, batch_size, threads, path, 1, &stats);

      EXPECT_EQ(stats.resumed_from_epoch, 2)
          << "batch " << batch_size << ", threads " << threads;
      EXPECT_EQ(resumed, ref)
          << "resumed model differs from uninterrupted run (batch "
          << batch_size << ", threads " << threads << ")";
      // The stats histories must also cover the full run, bitwise.
      EXPECT_EQ(stats.epoch_loss, ref_stats.epoch_loss);
      ASSERT_EQ(stats.arena_allocs_per_epoch.size(),
                ref_stats.arena_allocs_per_epoch.size());
      EXPECT_GE(saves.value(), saves_before + 1);
    }
  }
}

TEST_F(CheckpointTrainTest, KillDuringSaveLeavesPreviousCheckpointValid) {
  const std::string dir = test_dir();
  const std::string ref = train_model(6, 2, 1, "", 0);

  struct Kill {
    const char* point;
    fault::Action mode;
    long nth;
    int resume_epoch;  ///< the checkpoint that must survive the crash
  };
  // With checkpoint_every = 2, saves happen after epochs 2, 4 and 6. Each
  // entry crashes the SECOND save (epoch 4) at a different instant of the
  // write path — except checkpoint.saved, which crashes right AFTER the
  // first save commits, so the new checkpoint must be the survivor.
  const Kill kills[] = {
      {"checkpoint.save", fault::Action::kFail, 2, 2},
      {"durable.open_temp", fault::Action::kFail, 2, 2},
      {"durable.write", fault::Action::kFail, 2, 2},
      {"durable.write", fault::Action::kShortWrite, 2, 2},
      {"durable.fsync", fault::Action::kFail, 2, 2},
      {"durable.rename", fault::Action::kFail, 2, 2},
      {"checkpoint.saved", fault::Action::kFail, 1, 2},
  };
  int i = 0;
  for (const Kill& kill : kills) {
    const std::string path = dir + "/ckpt_" + std::to_string(i++) + ".sma";
    fault::disarm_all();
    fault::arm(kill.point, kill.mode, kill.nth);
    EXPECT_THROW(train_model(6, 2, 1, path, /*checkpoint_every=*/2),
                 fault::FaultInjected)
        << kill.point;
    fault::disarm_all();

    // Rerun after the "crash": it must resume from the checkpoint the
    // crash could not damage and converge to the uninterrupted model.
    attack::TrainStats stats;
    const std::string resumed = train_model(6, 2, 1, path, 2, &stats);
    EXPECT_EQ(stats.resumed_from_epoch, kill.resume_epoch) << kill.point;
    EXPECT_EQ(resumed, ref)
        << "model after crash at " << kill.point
        << " differs from uninterrupted run";
  }
}

TEST_F(CheckpointTrainTest, OtherNetConfigCheckpointStartsFresh) {
  // Same training config, datasets and parameter sizes; only the net's
  // seed (its initial weights) differs. The seed-1 checkpoint must not be
  // resumed into the seed-2 run.
  nn::NetConfig seed1 = net_config();
  seed1.seed = 1;
  nn::NetConfig seed2 = net_config();
  seed2.seed = 2;
  const std::string path = test_dir() + "/ckpt_seed.sma";
  const std::string ref = train_model(4, 1, 1, "", 0, nullptr, seed2);

  train_model(2, 1, 1, path, /*checkpoint_every=*/1, nullptr, seed1);
  attack::TrainStats stats;
  const std::string got = train_model(4, 1, 1, path, 1, &stats, seed2);
  EXPECT_EQ(stats.resumed_from_epoch, 0)
      << "a checkpoint of another net configuration must not be resumed";
  EXPECT_EQ(got, ref);
}

TEST_F(CheckpointTrainTest, CorruptCheckpointFallsBackToFreshStart) {
  const std::string dir = test_dir();
  const std::string path = dir + "/ckpt.sma";
  const std::string ref = train_model(4, 2, 1, "", 0);

  train_model(4, 2, 1, path, /*checkpoint_every=*/2);
  ASSERT_TRUE(util::file_exists(path));
  corrupt_file_byte(path, 100);

  const obs::Counter& discards =
      obs::Registry::global().counter("checkpoint.corrupt_discards");
  const std::uint64_t discards_before = discards.value();
  attack::TrainStats stats;
  const std::string retrained = train_model(4, 2, 1, path, 2, &stats);
  EXPECT_EQ(stats.resumed_from_epoch, 0)
      << "a damaged checkpoint must not be resumed";
  EXPECT_EQ(retrained, ref);
  EXPECT_GT(discards.value(), discards_before);
}

TEST_F(CheckpointTrainTest, UndecodableBlobIsDiscardedLikeAnyDamage) {
  // A checkpoint whose frame and digest are valid but whose optimizer or
  // weight blob is one byte short: it is deleted, counted as one discard
  // and no resume, and the run trains from scratch with nothing of it
  // applied.
  const std::string path = test_dir() + "/ckpt.sma";
  const std::string ref = train_model(3, 2, 1, "", 0);
  obs::Registry& registry = obs::Registry::global();
  const obs::Counter& discards =
      registry.counter("checkpoint.corrupt_discards");
  const obs::Counter& resumes = registry.counter("checkpoint.resumes");

  for (std::string attack::TrainCheckpoint::*blob :
       {&attack::TrainCheckpoint::adam_blob,
        &attack::TrainCheckpoint::model_blob}) {
    train_model(2, 2, 1, path, /*checkpoint_every=*/2);
    attack::TrainCheckpoint ckpt = attack::decode_checkpoint(
        util::read_frame_file(path, "sma-train-ckpt", 1));
    ASSERT_EQ(ckpt.epochs_done, 2);
    (ckpt.*blob).pop_back();
    attack::save_checkpoint(path, ckpt);

    const std::uint64_t discards_before = discards.value();
    const std::uint64_t resumes_before = resumes.value();
    attack::TrainStats stats;
    // Three epochs with a save every 4: the run writes no new checkpoint.
    const std::string retrained = train_model(3, 2, 1, path, 4, &stats);
    EXPECT_EQ(stats.resumed_from_epoch, 0);
    EXPECT_EQ(retrained, ref);
    EXPECT_FALSE(util::file_exists(path));
    EXPECT_EQ(discards.value(), discards_before + 1);
    EXPECT_EQ(resumes.value(), resumes_before);
  }
}

// ---------------------------------------------------------------------
// Split-cache disk tier
// ---------------------------------------------------------------------

TEST_F(DurabilityTest, DiskCacheServesSecondProcessByteIdenticalDesign) {
  const std::string dir = test_dir();
  constexpr std::uint64_t kKey = 0x51a1ca5e00001234ULL;

  // "Process" 1: a miss builds through the flow and spills to disk.
  eval::SplitCache first(4);
  first.set_disk_dir(dir, &test::library());
  std::shared_ptr<const layout::Design> built = first.get_or_build(kKey, [] {
    return std::make_shared<const layout::Design>(
        test::small_routed_design(60, 3));
  });
  EXPECT_EQ(first.stats().misses, 1u);
  EXPECT_EQ(first.stats().disk_hits, 0u);
  EXPECT_EQ(first.stats().disk_spills, 1u);
  ASSERT_TRUE(util::file_exists(cache_entry_path(dir, kKey)));

  // "Process" 2 (a fresh cache over the same directory): the entry must
  // come from disk — the build closure must never run — and the design
  // must round-trip byte-identically.
  eval::SplitCache second(4);
  second.set_disk_dir(dir, &test::library());
  std::shared_ptr<const layout::Design> loaded =
      second.get_or_build(kKey, []() -> std::shared_ptr<const layout::Design> {
        ADD_FAILURE() << "build ran despite a valid disk entry";
        return std::make_shared<const layout::Design>(
            test::small_routed_design(60, 3));
      });
  EXPECT_EQ(second.stats().disk_hits, 1u);
  EXPECT_EQ(layout::to_def_string(*loaded), layout::to_def_string(*built));
  EXPECT_EQ(loaded->routing.final_overflow, built->routing.final_overflow);
  EXPECT_EQ(loaded->routing.fallback_routes, built->routing.fallback_routes);
  EXPECT_EQ(loaded->routing.total_wirelength, built->routing.total_wirelength);
  EXPECT_EQ(loaded->routing.total_vias, built->routing.total_vias);

  // Memory tier now holds it: a second lookup never touches disk again.
  second.get_or_build(kKey, []() -> std::shared_ptr<const layout::Design> {
    ADD_FAILURE() << "memory tier missed";
    return nullptr;
  });
  EXPECT_EQ(second.stats().hits, 1u);
  EXPECT_EQ(second.stats().disk_hits, 1u);
}

TEST_F(DurabilityTest, CorruptDiskCacheEntryIsRebuiltNeverServed) {
  const std::string dir = test_dir();
  constexpr std::uint64_t kKey = 0xabcdef0123456789ULL;

  eval::SplitCache first(4);
  first.set_disk_dir(dir, &test::library());
  std::shared_ptr<const layout::Design> built = first.get_or_build(kKey, [] {
    return std::make_shared<const layout::Design>(
        test::small_routed_design(60, 3));
  });
  const std::string path = cache_entry_path(dir, kKey);
  ASSERT_TRUE(util::file_exists(path));
  corrupt_file_byte(path, util::read_file(path).size() / 2);

  // The damaged entry must be detected, deleted, and rebuilt — and the
  // rebuild's spill repairs the file for the next process.
  eval::SplitCache second(4);
  second.set_disk_dir(dir, &test::library());
  bool rebuilt = false;
  std::shared_ptr<const layout::Design> repaired =
      second.get_or_build(kKey, [&rebuilt] {
        rebuilt = true;
        return std::make_shared<const layout::Design>(
            test::small_routed_design(60, 3));
      });
  EXPECT_TRUE(rebuilt) << "a corrupt entry was served as a layout";
  EXPECT_EQ(second.stats().disk_corrupt, 1u);
  EXPECT_EQ(second.stats().disk_hits, 0u);
  EXPECT_EQ(second.stats().disk_spills, 1u);
  EXPECT_EQ(layout::to_def_string(*repaired), layout::to_def_string(*built));

  eval::SplitCache third(4);
  third.set_disk_dir(dir, &test::library());
  third.get_or_build(kKey, []() -> std::shared_ptr<const layout::Design> {
    ADD_FAILURE() << "repaired entry did not load";
    return nullptr;
  });
  EXPECT_EQ(third.stats().disk_hits, 1u);
}

TEST_F(DurabilityTest, DiskCacheEntryUnderWrongNameIsRejected) {
  const std::string dir = test_dir();
  eval::SplitCache cache(4);
  cache.set_disk_dir(dir, &test::library());
  cache.get_or_build(0x1111ULL, [] {
    return std::make_shared<const layout::Design>(
        test::small_routed_design(60, 3));
  });
  // Rename the entry to a different key: the embedded key echo must catch
  // the mismatch and rebuild instead of serving the wrong layout.
  std::filesystem::rename(cache_entry_path(dir, 0x1111ULL),
                          cache_entry_path(dir, 0x2222ULL));
  eval::SplitCache other(4);
  other.set_disk_dir(dir, &test::library());
  bool rebuilt = false;
  other.get_or_build(0x2222ULL, [&rebuilt] {
    rebuilt = true;
    return std::make_shared<const layout::Design>(
        test::small_routed_design(60, 5));
  });
  EXPECT_TRUE(rebuilt);
  EXPECT_EQ(other.stats().disk_corrupt, 1u);
}

TEST_F(DurabilityTest, SpillFailureDegradesToMemoryOnly) {
  const std::string tier = test_dir() + "/tier";
  eval::SplitCache cache(4);
  cache.set_disk_dir(tier, &test::library());
  // Break the storage AFTER attach: the tier path is now a plain file, so
  // every spill fails with a genuine IoError (the full-disk case). That
  // must not fail the build — the run continues with the in-memory
  // design.
  std::filesystem::remove_all(tier);
  util::atomic_write_file(tier, "not a directory");
  std::shared_ptr<const layout::Design> design =
      cache.get_or_build(0x3333ULL, [] {
        return std::make_shared<const layout::Design>(
            test::small_routed_design(60, 3));
      });
  ASSERT_NE(design, nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().disk_spills, 0u);

  // A simulated crash AT the spill point is a different story: it must
  // crash the caller, never degrade to "continue without spilling".
  fault::arm("cache.spill", fault::Action::kFail);
  EXPECT_THROW(cache.get_or_build(0x4444ULL,
                                  [] {
                                    return std::make_shared<
                                        const layout::Design>(
                                        test::small_routed_design(60, 3));
                                  }),
               fault::FaultInjected);
}

// ---------------------------------------------------------------------
// Durable experiment work units
// ---------------------------------------------------------------------

TEST_F(DurabilityTest, Figure5RerunLoadsWorkUnitsBitIdenticallyAndSkips) {
  const std::string dir = test_dir();
  // The tiny profile from test_experiment.cpp, plus a work dir.
  eval::ExperimentProfile profile = eval::ExperimentProfile::fast();
  profile.dataset.candidates.max_candidates = 6;
  profile.dataset.images.size = 9;
  profile.dataset.images.pixel_sizes = {200, 400};
  profile.net.hidden = 16;
  profile.net.vector_res_blocks = 1;
  profile.net.merged_res_blocks = 1;
  profile.net.conv_channels = {4, 6, 8, 10};
  profile.net.image_fc = 16;
  profile.train.epochs = 2;
  profile.train.max_queries_per_design = 40;
  profile.work_dir = dir;

  netlist::DesignProfile victim;
  victim.name = "tiny_a";
  victim.num_inputs = 8;
  victim.num_outputs = 4;
  victim.num_gates = 300;
  const std::vector<netlist::DesignProfile> victims = {victim};

  layout::FlowConfig flow;
  const std::vector<eval::AblationRow> first =
      eval::run_figure5(profile, flow, victims, 2019);
  ASSERT_EQ(first.size(), 3u);

  std::size_t units = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".sma") ++units;
  }
  EXPECT_EQ(units, 3u) << "one work unit per Figure-5 setting";

  // The rerun must load every row from its unit. The proof that nothing
  // was recomputed: avg_inference_seconds is a wall-clock measurement,
  // bit-equal only if it came from the file.
  const std::vector<eval::AblationRow> second =
      eval::run_figure5(profile, flow, victims, 2019);
  ASSERT_EQ(second.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(second[i].setting, first[i].setting);
    EXPECT_EQ(second[i].avg_ccr, first[i].avg_ccr);
    EXPECT_EQ(second[i].avg_inference_seconds,
              first[i].avg_inference_seconds);
  }

  // A damaged unit is recomputed (and only that one retrains); the rerun
  // still converges to the identical row because training is
  // deterministic.
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".sma") {
      corrupt_file_byte(entry.path().string(), 30);
      break;
    }
  }
  const std::vector<eval::AblationRow> third =
      eval::run_figure5(profile, flow, victims, 2019);
  ASSERT_EQ(third.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(third[i].setting, first[i].setting);
    EXPECT_EQ(third[i].avg_ccr, first[i].avg_ccr)
        << "recomputed row diverged for " << first[i].setting;
  }
}

/// The work-unit file of `slot` in `dir` (one unit per slot is written).
std::string unit_for_slot(const std::string& dir, std::size_t slot) {
  char suffix[16];
  std::snprintf(suffix, sizeof(suffix), "_%03zu.sma", slot);
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().ends_with(suffix)) {
      return entry.path().string();
    }
  }
  ADD_FAILURE() << "no work unit for slot " << slot << " in " << dir;
  return "";
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

TEST_F(DurabilityTest, Table3ResumeRecomputesOnlyTheMissingVictim) {
  const std::string dir = test_dir();
  eval::ExperimentProfile profile = eval::ExperimentProfile::fast();
  profile.dataset.candidates.max_candidates = 6;
  profile.dataset.images.size = 9;
  profile.dataset.images.pixel_sizes = {200, 400};
  profile.net.hidden = 16;
  profile.net.vector_res_blocks = 1;
  profile.net.merged_res_blocks = 1;
  profile.net.conv_channels = {4, 6, 8, 10};
  profile.net.image_fc = 16;
  profile.train.epochs = 1;
  profile.train.max_queries_per_design = 20;
  profile.flow_attack.timeout_seconds = 1e6;  // no time-dependent rows
  profile.work_dir = dir;

  netlist::DesignProfile a;
  a.name = "tiny_a";
  a.num_inputs = 8;
  a.num_outputs = 4;
  a.num_gates = 300;
  netlist::DesignProfile b = a;
  b.name = "tiny_b";
  b.num_gates = 260;
  const std::vector<netlist::DesignProfile> victims = {a, b};
  const std::size_t corpus = netlist::training_profiles().size();
  layout::FlowConfig flow;

  eval::SplitCache::global().clear();
  const eval::Table3Result first =
      eval::run_table3(3, profile, flow, victims, 2019);
  ASSERT_EQ(first.rows.size(), 2u);

  // Rerun on a cleared split cache with the same pass configuration;
  // returns the split-cache misses of that rerun.
  const auto rerun = [&](eval::Table3Result& out) {
    eval::SplitCache::global().clear();
    out = eval::run_table3(3, profile, flow, victims, 2019);
    return eval::SplitCache::global().stats().misses;
  };
  // The row's counts, CCRs and hit rate equal the first run's.
  const auto expect_row_matches = [&](const eval::Table3Result& r,
                                      std::size_t slot) {
    ASSERT_EQ(r.rows.size(), 2u);
    const eval::Table3Row& want = first.rows[slot];
    const eval::Table3Row& got = r.rows[slot];
    EXPECT_EQ(got.design, want.design);
    EXPECT_EQ(got.num_sink_fragments, want.num_sink_fragments);
    EXPECT_EQ(got.num_source_fragments, want.num_source_fragments);
    EXPECT_EQ(got.flow_timed_out, want.flow_timed_out);
    EXPECT_TRUE(same_bits(got.dl_ccr, want.dl_ccr)) << want.design;
    EXPECT_TRUE(same_bits(got.flow_ccr, want.flow_ccr)) << want.design;
    EXPECT_TRUE(same_bits(got.hit_rate, want.hit_rate)) << want.design;
  };

  // Slot 1's unit is lost: only victim 1 is laid out again (plus the
  // training corpus, which the model needs), and row 0 comes from its file
  // — its wall-clock fields are bit-equal only if they were loaded.
  ASSERT_EQ(std::remove(unit_for_slot(dir, 1).c_str()), 0);
  eval::Table3Result resumed;
  EXPECT_EQ(rerun(resumed), corpus + 1);
  ASSERT_EQ(resumed.rows.size(), 2u);
  expect_row_matches(resumed, 0);
  EXPECT_TRUE(same_bits(resumed.rows[0].dl_seconds, first.rows[0].dl_seconds));
  EXPECT_TRUE(
      same_bits(resumed.rows[0].flow_seconds, first.rows[0].flow_seconds));
  expect_row_matches(resumed, 1);

  // A unit whose frame is intact but whose payload another encoder wrote
  // is rejected and recomputed: first one trailing byte, then a sink count
  // that does not fit an int.
  const auto reframe = [](const std::string& path, auto&& edit) {
    std::string payload =
        util::read_frame_file(path, "sma-work-unit", /*version=*/1);
    edit(payload);
    util::write_frame_file(path, "sma-work-unit", /*version=*/1, payload);
  };
  reframe(unit_for_slot(dir, 0), [](std::string& p) { p.push_back('\0'); });
  eval::Table3Result trailing;
  EXPECT_EQ(rerun(trailing), corpus + 1);
  expect_row_matches(trailing, 0);
  expect_row_matches(trailing, 1);

  reframe(unit_for_slot(dir, 1), [&](std::string& p) {
    // digest, slot, name length, name, then the sink count.
    const std::size_t offset = 3 * sizeof(std::uint64_t) + b.name.size();
    ASSERT_LE(offset + sizeof(std::uint64_t), p.size());
    const std::uint64_t huge = std::uint64_t{1} << 32;
    std::memcpy(p.data() + offset, &huge, sizeof(huge));
  });
  eval::Table3Result oversized;
  EXPECT_EQ(rerun(oversized), corpus + 1);
  expect_row_matches(oversized, 0);
  expect_row_matches(oversized, 1);

  // Both repaired units load: nothing is laid out and training is skipped.
  eval::Table3Result loaded;
  EXPECT_EQ(rerun(loaded), 0u);
  expect_row_matches(loaded, 0);
  expect_row_matches(loaded, 1);

  // The flow attack builds its list from every candidate field, so a run
  // with another direction criterion loads no unit: every design is laid
  // out again.
  profile.flow_attack.candidates.use_direction_criterion = false;
  eval::Table3Result other_list;
  EXPECT_EQ(rerun(other_list), corpus + 2);
}

}  // namespace
}  // namespace sma
