#include "eval/split_cache.hpp"

#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "layout/def_io.hpp"
#include "tech/cell_library.hpp"
#include "util/durable_io.hpp"
#include "util/hash.hpp"

namespace sma::eval {

namespace {

constexpr const char* kCacheFrameKind = "sma-design-cache";
constexpr std::uint32_t kCacheSchemaVersion = 1;

std::string cache_file_path(const std::string& dir, std::uint64_t key) {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.sma",
                static_cast<unsigned long long>(key));
  return dir + "/" + name;
}

/// Cache-entry payload: the key (echoed; guards against a renamed file
/// serving the wrong layout) and the routing summary fields that DEF
/// re-import cannot reconstruct (read_def recomputes wirelength and via
/// counts from geometry, but overflow and fallback counts are router
/// history), followed by the DEF text itself.
std::string encode_entry(std::uint64_t key, const layout::Design& design) {
  util::ByteWriter out;
  out.u64(key)
      .u64(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(design.routing.final_overflow)))
      .u64(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(design.routing.fallback_routes)))
      .blob(layout::to_def_string(design));
  return out.take();
}

layout::Design decode_entry(const std::string& payload, std::uint64_t key,
                            const tech::CellLibrary* library) {
  util::ByteReader in(payload, "cache entry");
  if (in.u64("key") != key) {
    throw util::FrameError("cache entry key mismatch (file renamed?)");
  }
  const auto overflow = static_cast<std::int64_t>(in.u64("overflow"));
  const auto fallback = static_cast<std::int64_t>(in.u64("fallback count"));
  const std::string def(in.blob("DEF text"));
  in.expect_end();
  layout::Design design;
  try {
    design = layout::read_def_string(def, library);
  } catch (const std::runtime_error& e) {
    // A DEF the parser rejects is a damaged entry like any other.
    in.fail(std::string("DEF rejected: ") + e.what());
  }
  design.routing.final_overflow = static_cast<int>(overflow);
  design.routing.fallback_routes = static_cast<int>(fallback);
  return design;
}

}  // namespace

std::uint64_t design_cache_key(const netlist::DesignProfile& profile,
                               const layout::FlowConfig& flow,
                               std::uint64_t seed) {
  util::ContentHash h;
  h.add("sma-design-v1");

  h.add(profile.name)
      .add(profile.num_inputs)
      .add(profile.num_outputs)
      .add(profile.num_gates)
      .add(profile.seq_fraction)
      .add(profile.scaled_down)
      .add(profile.paper_gates);

  h.add(flow.utilization).add(flow.seed).add(seed);

  const place::GlobalPlacerConfig& gp = flow.global_placer;
  h.add(gp.rounds)
      .add(gp.iterations_per_round)
      .add(gp.pull)
      .add(gp.refine_iterations)
      .add(gp.refine_pull)
      .add(gp.seed);

  const place::DetailedPlacerConfig& dp = flow.detailed_placer;
  h.add(dp.passes)
      .add(dp.candidates)
      .add(dp.max_row_distance)
      .add(dp.max_x_distance)
      .add(dp.seed);

  const route::RoutingGrid::Config& grid = flow.grid;
  h.add(grid.gcell_size)
      .add(grid.wrongway_capacity)
      .add(grid.via_capacity)
      .add(grid.m1_capacity)
      .add(grid.m2_capacity)
      .add(grid.track_utilization);

  const route::RouterConfig& rt = flow.router;
  h.add(rt.via_cost)
      .add(rt.wrongway_mult)
      .add(rt.m1_cost_mult)
      .add(rt.present_weight)
      .add(rt.history_weight)
      .add(rt.overflow_penalty)
      .add(rt.max_iterations)
      .add(static_cast<std::uint64_t>(rt.max_expansions))
      .add(rt.layer_height_cost)
      // Wave width decides which nets share a usage snapshot, so it
      // shapes the routes; the thread count does not and is absent.
      .add(rt.wave_size);

  return h.digest();
}

SplitCache& SplitCache::global() {
  static SplitCache& instance = []() -> SplitCache& {
    static SplitCache cache;
    const char* dir = std::getenv("SMA_CACHE_DIR");
    if (dir != nullptr && dir[0] != '\0') {
      static const tech::CellLibrary kLibrary =
          tech::CellLibrary::nangate45_like();
      cache.set_disk_dir(dir, &kLibrary);
    }
    return cache;
  }();
  return instance;
}

void SplitCache::set_disk_dir(const std::string& dir,
                              const tech::CellLibrary* library) {
  if (!dir.empty()) util::ensure_dir(dir);
  util::MutexLock lock(mutex_);
  disk_dir_ = dir;
  library_ = dir.empty() ? nullptr : library;
}

std::string SplitCache::disk_dir() const {
  util::MutexLock lock(mutex_);
  return disk_dir_;
}

std::shared_ptr<const layout::Design> SplitCache::get_or_build(
    std::uint64_t key,
    const std::function<std::shared_ptr<const layout::Design>()>& build) {
  std::string dir;
  const tech::CellLibrary* library = nullptr;
  {
    util::MutexLock lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      ++stats_.hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      return it->second.design;
    }
    dir = disk_dir_;
    library = library_;
    ++stats_.misses;
  }

  // Disk tier, probed outside the lock (file IO + DEF re-import are slow):
  // a durable entry from an earlier process is byte-identical to a fresh
  // build, so promoting it into the memory tier is just a faster build().
  // A damaged frame, a foreign file or an unparseable DEF is deleted and
  // rebuilt: a corrupt entry never poisons a layout, and the rebuild's
  // spill repairs the cache.
  std::shared_ptr<const layout::Design> design;
  const bool use_disk = !dir.empty() && library != nullptr;
  const std::string path = use_disk ? cache_file_path(dir, key) : "";
  if (use_disk) {
    const util::FrameLoad got = util::load_frame_file(
        path, kCacheFrameKind, kCacheSchemaVersion, "cache.load",
        [&](const std::string& payload) {
          design = std::make_shared<layout::Design>(
              decode_entry(payload, key, library));
        });
    util::MutexLock lock(mutex_);
    if (got == util::FrameLoad::kLoaded) ++stats_.disk_hits;
    if (got == util::FrameLoad::kDiscarded) ++stats_.disk_corrupt;
  }

  // Build outside the lock: flows are expensive and independent builds may
  // proceed concurrently. If two threads race on the same key, both build
  // identical designs (the flow is deterministic) and the second insert is
  // a no-op — results never depend on the race. A failed spill (full disk)
  // leaves the entry memory-only.
  const bool built = design == nullptr;
  if (built) design = build();
  if (built && use_disk &&
      util::save_frame_file(path, kCacheFrameKind, kCacheSchemaVersion,
                            "cache.spill", encode_entry(key, *design))) {
    util::MutexLock lock(mutex_);
    ++stats_.disk_spills;
  }

  util::MutexLock lock(mutex_);
  auto it = entries_.find(key);
  if (it != entries_.end()) return it->second.design;
  lru_.push_front(key);
  entries_.emplace(key, Entry{design, lru_.begin()});
  evict_to_capacity_locked();
  return design;
}

void SplitCache::set_capacity(std::size_t capacity) {
  util::MutexLock lock(mutex_);
  capacity_ = capacity;
  evict_to_capacity_locked();
}

void SplitCache::clear() {
  util::MutexLock lock(mutex_);
  entries_.clear();
  lru_.clear();
  stats_ = Stats{};
}

SplitCache::Stats SplitCache::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

std::size_t SplitCache::size() const {
  util::MutexLock lock(mutex_);
  return entries_.size();
}

void SplitCache::evict_to_capacity_locked() {
  while (entries_.size() > capacity_ && !lru_.empty()) {
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
}

}  // namespace sma::eval
