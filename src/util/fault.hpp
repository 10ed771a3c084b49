// Deterministic fault injection for the durability layer.
//
// Persistence code is exactly the code that normal test runs never see
// failing: the open that hits a full disk, the write that is torn by a
// power cut, the rename a crash races. Named injection points let tests
// (and CI) force those failures on demand:
//
//   SMA_FAULT=checkpoint.save:fail:2,durable.write:short_write:1
//
// arms the 2nd hit of `checkpoint.save` to throw FaultInjected (a
// simulated crash) and the 1st hit of `durable.write` to tear the write.
// Entries are one-shot: each fires on its configured hit and then
// disarms. Tests arm programmatically via `arm()` instead of the
// environment.
//
// Modes:
//   fail         throw FaultInjected at the point (crash *before* the op)
//   short_write  IO points only: write a truncated prefix, then throw —
//                the torn-file case durable_io's framing must detect
//   corrupt      IO points only: flip one payload byte but complete the
//                write normally — silent corruption, detected at load
//   delay        sleep ~2ms, then continue (widens race windows)
//
// The points are always compiled in. An unarmed point costs a hit count
// and a map lookup under one mutex, and points sit only on file I/O
// paths (durable_io, checkpoints, the split cache's disk tier and work
// units), never in a compute loop.
#pragma once

#include <stdexcept>
#include <string>

namespace sma::util::fault {

/// A simulated crash. Deliberately NOT derived from DurableIoError: the
/// durability layer's graceful-degradation paths (e.g. "cache spill
/// failed, continue without spilling") must never swallow an injected
/// crash, or the kill-matrix tests would silently test nothing.
class FaultInjected : public std::runtime_error {
 public:
  explicit FaultInjected(const std::string& point)
      : std::runtime_error("injected fault at " + point), point_(point) {}
  const std::string& point() const { return point_; }

 private:
  std::string point_;
};

enum class Action {
  kNone,
  kFail,
  kShortWrite,
  kCorrupt,
  kDelay,
};

/// Arm `point` to fire `mode` on its `nth` future hit (1-based). One-shot:
/// the entry disarms after firing. Thread-safe.
void arm(const std::string& point, Action mode, long nth = 1);

/// Drop every armed entry and reset hit counters (tests call this in
/// SetUp/TearDown so armed faults never leak across tests).
void disarm_all();

/// Times `point` has been evaluated since the last disarm_all().
long hits(const std::string& point);

/// Faults fired process-wide (never reset; feeds the run report).
long injected_count();

/// Parse SMA_FAULT from the environment and arm its entries. Called
/// automatically on the first point hit; exposed for tests. Returns the
/// number of entries armed. Malformed entries throw std::invalid_argument
/// naming the entry — a misspelled fault spec must not silently test
/// nothing.
int arm_from_env();

/// Evaluate an IO injection point: count the hit and return the action
/// the caller must implement (durable_io implements short_write/corrupt
/// on its own buffers). kFail throws FaultInjected here; kDelay sleeps
/// here; both return kNone-like control to simpler callers.
Action io_point(const char* name);

/// Evaluate a plain crash point: kFail/kShortWrite/kCorrupt all throw
/// FaultInjected (a non-IO point cannot tear bytes — treat any armed
/// destructive mode as a crash), kDelay sleeps.
void point(const char* name);

}  // namespace sma::util::fault
