// Content-addressed cache of implemented layouts.
//
// `prepare_split` runs the full generate -> place -> route flow, which
// dominates Table-3/Figure-5 wall time outside of training. The flow is a
// pure function of (design profile, flow config, seed), so its output can
// be content-addressed: the cache key is a digest of every field that
// feeds the generator and the flow, and a hit returns the previously
// built `layout::Design` — byte-identical to a fresh run, because the
// whole pipeline is deterministic. Splitting a cached design at a new
// layer is cheap (purely geometric), so the split layer is *not* part of
// the key: one cached layout serves M1..M5 experiments and all three
// Figure-5 settings.
//
// Designs are handed out as shared_ptr<const Design>: consumers
// (`SplitDesign`, feature extraction, the attacks) only read, so one
// cached layout may back many concurrent experiments. An LRU bound keeps
// memory in check; eviction order depends only on the call sequence, so
// cold and warm runs stay deterministic either way.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "layout/design.hpp"
#include "netlist/profiles.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace sma::tech {
class CellLibrary;
}

namespace sma::eval {

/// Digest of everything that determines a flow's output layout.
std::uint64_t design_cache_key(const netlist::DesignProfile& profile,
                               const layout::FlowConfig& flow,
                               std::uint64_t seed);

class SplitCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;    ///< memory-tier hits
    std::uint64_t misses = 0;  ///< memory-tier misses (before the disk tier)
    /// Disk tier (set_disk_dir): a disk hit is also a memory miss — the
    /// entry was loaded from a file instead of rebuilt through the flow.
    std::uint64_t disk_hits = 0;
    std::uint64_t disk_spills = 0;  ///< entries written to the cache dir
    /// Damaged/foreign cache files detected at load, deleted, and rebuilt
    /// through the flow — a corrupt entry never poisons a layout.
    std::uint64_t disk_corrupt = 0;
  };

  /// Process-wide instance used by `prepare_split`. On first use, honors
  /// SMA_CACHE_DIR: when set (non-empty), the directory becomes this
  /// instance's durable disk tier with the standard cell library.
  static SplitCache& global();

  explicit SplitCache(std::size_t capacity = 32) : capacity_(capacity) {}

  /// Look up `key`, building (and storing) via `build` on a miss.
  std::shared_ptr<const layout::Design> get_or_build(
      std::uint64_t key,
      const std::function<std::shared_ptr<const layout::Design>()>& build)
      SMA_EXCLUDES(mutex_);

  /// Max resident designs; shrinking evicts immediately (LRU order).
  void set_capacity(std::size_t capacity) SMA_EXCLUDES(mutex_);

  /// Attach a durable disk tier: memory misses probe
  /// `<dir>/<key as 016x>.sma` (a checksummed durable_io frame holding the
  /// design's DEF text + routing metadata) before rebuilding, and fresh
  /// builds spill there — so layouts survive process restarts and are
  /// shared across processes. `library` resolves cell masters when
  /// re-importing DEF and must outlive this cache. A damaged or torn file
  /// is detected by the frame checksum, deleted, counted in
  /// Stats::disk_corrupt, and rebuilt through the flow; spill failures
  /// degrade to warnings (the run continues memory-only). An empty `dir`
  /// detaches the tier. The directory is created if missing; throws
  /// util::IoError when that fails.
  void set_disk_dir(const std::string& dir, const tech::CellLibrary* library)
      SMA_EXCLUDES(mutex_);
  std::string disk_dir() const SMA_EXCLUDES(mutex_);

  void clear() SMA_EXCLUDES(mutex_);
  Stats stats() const SMA_EXCLUDES(mutex_);
  std::size_t size() const SMA_EXCLUDES(mutex_);

 private:
  void evict_to_capacity_locked() SMA_REQUIRES(mutex_);
  /// Disk probe for `key` (runs outside the entry lock; IO is slow).
  /// Returns nullptr on any miss, deleting damaged files along the way.
  std::shared_ptr<const layout::Design> load_from_disk(
      const std::string& dir, const tech::CellLibrary* library,
      std::uint64_t key) SMA_EXCLUDES(mutex_);
  void spill_to_disk(const std::string& dir, std::uint64_t key,
                     const layout::Design& design) SMA_EXCLUDES(mutex_);

  mutable util::Mutex mutex_;
  std::size_t capacity_ SMA_GUARDED_BY(mutex_);
  std::string disk_dir_ SMA_GUARDED_BY(mutex_);
  const tech::CellLibrary* library_ SMA_GUARDED_BY(mutex_) = nullptr;
  Stats stats_ SMA_GUARDED_BY(mutex_);
  /// MRU-first key list; entries carry an iterator into it for O(1) touch.
  std::list<std::uint64_t> lru_ SMA_GUARDED_BY(mutex_);
  struct Entry {
    std::shared_ptr<const layout::Design> design;
    std::list<std::uint64_t>::iterator lru_pos;
  };
  std::unordered_map<std::uint64_t, Entry> entries_ SMA_GUARDED_BY(mutex_);
};

}  // namespace sma::eval
