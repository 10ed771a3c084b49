#include "util/fault.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/logging.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace sma::util::fault {

namespace {

std::atomic<long> g_injected{0};

struct Armed {
  Action mode = Action::kNone;
  long nth = 1;  ///< fire when the point's hit counter reaches this
};

struct Registry {
  util::Mutex mutex;
  /// Lookup-only maps (find / operator[] / clear); their iteration order
  /// is never observed, so unordered storage cannot leak into outputs.
  std::unordered_map<std::string, std::vector<Armed>> armed
      SMA_GUARDED_BY(mutex);
  std::unordered_map<std::string, long> hits SMA_GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry instance;
  return instance;
}

std::once_flag g_env_once;

void ensure_env_parsed() {
  std::call_once(g_env_once, [] { arm_from_env(); });
}

Action mode_from_name(const std::string& name, const std::string& entry) {
  if (name == "fail") return Action::kFail;
  if (name == "short_write") return Action::kShortWrite;
  if (name == "corrupt") return Action::kCorrupt;
  if (name == "delay") return Action::kDelay;
  throw std::invalid_argument("SMA_FAULT: unknown mode '" + name + "' in '" +
                              entry + "' (fail|short_write|corrupt|delay)");
}

/// Count a hit and consume a matching one-shot entry, if any.
Action consume(const char* name) {
  ensure_env_parsed();
  Registry& reg = registry();
  util::MutexLock lock(reg.mutex);
  const long hit = ++reg.hits[name];
  auto it = reg.armed.find(name);
  if (it == reg.armed.end()) return Action::kNone;
  for (std::size_t i = 0; i < it->second.size(); ++i) {
    if (it->second[i].nth == hit) {
      const Action mode = it->second[i].mode;
      it->second.erase(it->second.begin() + static_cast<std::ptrdiff_t>(i));
      ++g_injected;
      return mode;
    }
  }
  return Action::kNone;
}

}  // namespace

long injected_count() { return g_injected.load(); }

void arm(const std::string& point, Action mode, long nth) {
  Registry& reg = registry();
  util::MutexLock lock(reg.mutex);
  reg.armed[point].push_back(Armed{mode, reg.hits[point] + nth});
}

void disarm_all() {
  Registry& reg = registry();
  util::MutexLock lock(reg.mutex);
  reg.armed.clear();
  reg.hits.clear();
}

long hits(const std::string& point) {
  ensure_env_parsed();
  Registry& reg = registry();
  util::MutexLock lock(reg.mutex);
  auto it = reg.hits.find(point);
  return it == reg.hits.end() ? 0 : it->second;
}

int arm_from_env() {
  const char* spec = std::getenv("SMA_FAULT");
  if (spec == nullptr || *spec == '\0') return 0;
  int armed = 0;
  std::string s(spec);
  std::size_t start = 0;
  while (start <= s.size()) {
    std::size_t end = s.find(',', start);
    if (end == std::string::npos) end = s.size();
    const std::string entry = s.substr(start, end - start);
    start = end + 1;
    if (entry.empty()) continue;
    const std::size_t c1 = entry.find(':');
    if (c1 == std::string::npos || c1 == 0) {
      throw std::invalid_argument("SMA_FAULT: malformed entry '" + entry +
                                  "' (expected point:mode[:count])");
    }
    const std::size_t c2 = entry.find(':', c1 + 1);
    const std::string point_name = entry.substr(0, c1);
    const std::string mode_name =
        entry.substr(c1 + 1, c2 == std::string::npos ? std::string::npos
                                                     : c2 - c1 - 1);
    long nth = 1;
    if (c2 != std::string::npos) {
      try {
        nth = std::stol(entry.substr(c2 + 1));
      } catch (const std::exception&) {
        nth = 0;
      }
      if (nth < 1) {
        throw std::invalid_argument("SMA_FAULT: bad count in '" + entry +
                                    "' (need a positive integer)");
      }
    }
    arm(point_name, mode_from_name(mode_name, entry), nth);
    util::log_warn() << "fault armed: " << point_name << ":" << mode_name
                     << ":" << nth;
    ++armed;
  }
  return armed;
}

Action io_point(const char* name) {
  const Action mode = consume(name);
  switch (mode) {
    case Action::kFail:
      util::log_warn() << "fault fired: " << name << " (fail)";
      throw FaultInjected(name);
    case Action::kDelay:
      util::log_warn() << "fault fired: " << name << " (delay)";
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      return Action::kNone;
    case Action::kShortWrite:
    case Action::kCorrupt:
      util::log_warn() << "fault fired: " << name
                       << (mode == Action::kShortWrite ? " (short_write)"
                                                       : " (corrupt)");
      return mode;
    case Action::kNone:
      return Action::kNone;
  }
  return Action::kNone;
}

void point(const char* name) {
  switch (io_point(name)) {
    case Action::kShortWrite:
    case Action::kCorrupt:
      // A non-IO point has no bytes to tear; the closest honest
      // interpretation of a destructive mode here is a crash.
      throw FaultInjected(name);
    default:
      break;
  }
}

}  // namespace sma::util::fault
