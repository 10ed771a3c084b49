// Small helpers shared by the bench main()s.
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace sma::benchutil {

/// Standard bench bring-up: honor SMA_LOG_LEVEL, and enable tracing when
/// SMA_TRACE is set (its value names the Chrome-trace output file, which
/// `flush_trace` writes at exit). Call first thing in main().
inline void init_observability() {
  util::set_log_level_from_env();
  const char* trace_path = std::getenv("SMA_TRACE");
  if (trace_path != nullptr && *trace_path != '\0') {
    obs::set_tracing_enabled(true);
  }
}

/// Write the trace started by `init_observability`, if any. Call after
/// all pool work has joined (end of main()).
inline void flush_trace() {
  const char* trace_path = std::getenv("SMA_TRACE");
  if (trace_path == nullptr || *trace_path == '\0') return;
  std::ofstream out(trace_path);
  if (!out) {
    std::cerr << "cannot write SMA_TRACE file '" << trace_path << "'\n";
    return;
  }
  obs::write_chrome_trace(out);
}

/// The unified report fragment every bench embeds in its JSON object:
/// `, "report": {...}` — appended just before the closing brace.
inline std::string report_fragment(const obs::RunReport& report) {
  return ", \"report\": " + report.to_json();
}

/// For benches whose stdout is a human-readable table rather than JSON:
/// write the run report to the file named by SMA_REPORT (no-op unset).
inline void flush_report(const obs::RunReport& report) {
  const char* path = std::getenv("SMA_REPORT");
  if (path == nullptr || *path == '\0') return;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write SMA_REPORT file '" << path << "'\n";
    return;
  }
  out << report.to_json() << "\n";
}

/// Parse an integer flag value; exits(2) with a message naming the flag
/// on malformed input or a value below `min_value`.
inline int parse_int(const std::string& value, const std::string& flag,
                     int min_value) {
  int parsed = 0;
  try {
    std::size_t used = 0;
    parsed = std::stoi(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
  } catch (const std::exception&) {
    std::cerr << "invalid integer for " << flag << ": '" << value << "'\n";
    std::exit(2);
  }
  if (parsed < min_value) {
    std::cerr << flag << " must be >= " << min_value << " (got " << parsed
              << ")\n";
    std::exit(2);
  }
  return parsed;
}

/// `parse_int`'s floating-point sibling.
inline double parse_double(const std::string& value, const std::string& flag,
                           double min_value) {
  double parsed = 0.0;
  try {
    std::size_t used = 0;
    parsed = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
  } catch (const std::exception&) {
    std::cerr << "invalid number for " << flag << ": '" << value << "'\n";
    std::exit(2);
  }
  if (parsed < min_value) {
    std::cerr << flag << " must be >= " << min_value << " (got " << parsed
              << ")\n";
    std::exit(2);
  }
  return parsed;
}

/// "a,b,c" -> {"a", "b", "c"}; empty tokens are dropped.
inline std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > start) out.push_back(csv.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

}  // namespace sma::benchutil
