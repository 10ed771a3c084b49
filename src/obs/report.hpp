// Unified run report — one JSON schema for every experiment and bench.
//
// Before this existed, per-phase flow seconds lived in Design::timings,
// arena stats in TrainStats, cache hit rates in SplitCache, and every
// bench hand-rolled its own JSON around a different subset. RunReport
// unifies them: callers add the sections they have (flow rows, training
// stats, replica-serving stats) and `to_json()` appends the globally
// available ones (split-cache stats, GEMM kernel dispatch counts, the
// full metrics snapshot) under the stable `sma-run-report-v1` schema that
// scripts/check_report.py validates in CI.
//
// This is the top of the obs layer: report.cpp may include any sma
// header, nothing in src/ includes report.hpp except entry points
// (experiments, examples, benches via bench/bench_util.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sma::layout {
struct Design;
}
namespace sma::attack {
struct TrainStats;
class DlAttack;
}  // namespace sma::attack
namespace sma::serve {
struct ServeStats;
}

namespace sma::obs {

class RunReport {
 public:
  static constexpr const char* kSchema = "sma-run-report-v1";

  explicit RunReport(std::string name, int threads = 1)
      : name_(std::move(name)), threads_(threads) {}

  /// One implemented design: per-phase flow seconds (fed by the obs
  /// TimedSpans in run_flow) plus the routing aggregates.
  void add_flow(const std::string& design_name, const layout::Design& design);

  /// Training-run stats (s/epoch, arena allocs/bytes, final loss).
  void add_train(const attack::TrainStats& stats);

  /// Inference-serving stats of one DlAttack: replica-lease lifecycle
  /// (leases, wait, occupancy) and the pinned replicas' arena stats.
  void add_replicas(const attack::DlAttack& attack);

  /// Request-coalescing stats of one ServeLoop (src/serve/): submit and
  /// batch lifecycle counters. The width/latency distributions travel in
  /// the metrics section's histograms (serve.batch_width,
  /// serve.queue_depth, serve.queue_wait_us).
  void add_serve(const serve::ServeStats& stats);

  /// Serialize. Split-cache stats, kernel dispatch counts and the metrics
  /// registry snapshot are read at call time, in fixed (name) order, so
  /// two identical runs emit identical key sequences.
  std::string to_json() const;

 private:
  struct FlowRow {
    std::string design;
    double global_place_seconds = 0.0;
    double legalize_seconds = 0.0;
    double detailed_place_seconds = 0.0;
    double route_seconds = 0.0;
    double negotiation_seconds = 0.0;
    std::int64_t wirelength = 0;
    int vias = 0;
    int overflow = 0;
    int fallback_routes = 0;
  };
  struct Train {
    bool present = false;
    double seconds = 0.0;
    double seconds_per_epoch = 0.0;
    int epochs = 0;
    long queries_seen = 0;
    double final_loss = 0.0;
    long arena_allocs_total = 0;
    std::uint64_t arena_bytes_pinned = 0;
  };
  struct Replicas {
    bool present = false;
    long clones_created = 0;
    long leases = 0;
    std::int64_t max_on_loan = 0;
    double wait_seconds = 0.0;
    double occupancy_seconds = 0.0;
    long arena_allocs = 0;
    std::uint64_t arena_bytes_pinned = 0;
  };
  struct Serve {
    bool present = false;
    long submitted = 0;
    long answered = 0;
    long failed = 0;
    long empty = 0;
    long batches = 0;
    std::int64_t max_batch_seen = 0;
    std::int64_t max_queue_depth = 0;
  };

  std::string name_;
  int threads_ = 1;
  std::vector<FlowRow> flow_;
  Train train_;
  Replicas replicas_;
  Serve serve_;
};

}  // namespace sma::obs
