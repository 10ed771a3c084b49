#include "obs/report.hpp"

#include <cstdio>
#include <sstream>

#include "attack/dl_attack.hpp"
#include "eval/split_cache.hpp"
#include "layout/design.hpp"
#include "nn/gemm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/serve_loop.hpp"
#include "util/fault.hpp"

namespace sma::obs {

namespace {

/// Shortest round-trippable decimal — keeps the JSON compact and stable.
void append_number(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  os << buf;
}

}  // namespace

void RunReport::add_flow(const std::string& design_name,
                         const layout::Design& design) {
  FlowRow row;
  row.design = design_name;
  row.global_place_seconds = design.timings.global_place_seconds;
  row.legalize_seconds = design.timings.legalize_seconds;
  row.detailed_place_seconds = design.timings.detailed_place_seconds;
  row.route_seconds = design.timings.route_seconds;
  row.negotiation_seconds = design.routing.negotiation_seconds;
  row.wirelength = design.routing.total_wirelength;
  row.vias = design.routing.total_vias;
  row.overflow = design.routing.final_overflow;
  row.fallback_routes = design.routing.fallback_routes;
  flow_.push_back(std::move(row));
}

void RunReport::add_train(const attack::TrainStats& stats) {
  train_.present = true;
  train_.seconds = stats.seconds;
  train_.epochs = static_cast<int>(stats.epoch_loss.size());
  train_.seconds_per_epoch =
      train_.epochs > 0 ? stats.seconds / train_.epochs : 0.0;
  train_.queries_seen = stats.queries_seen;
  train_.final_loss = stats.epoch_loss.empty() ? 0.0 : stats.epoch_loss.back();
  train_.arena_allocs_total = 0;
  for (long a : stats.arena_allocs_per_epoch) train_.arena_allocs_total += a;
  train_.arena_bytes_pinned = stats.arena_bytes_pinned;
}

void RunReport::add_replicas(const attack::DlAttack& attack) {
  const attack::ReplicaSet::LeaseStats lease = attack.replica_lease_stats();
  const nn::ArenaStats arena = attack.inference_arena_stats();
  replicas_.present = true;
  replicas_.clones_created = lease.clones_created;
  replicas_.leases = lease.leases;
  replicas_.max_on_loan = static_cast<std::int64_t>(lease.max_on_loan);
  replicas_.wait_seconds = lease.wait_seconds;
  replicas_.occupancy_seconds = lease.occupancy_seconds;
  replicas_.arena_allocs = arena.allocs;
  replicas_.arena_bytes_pinned = arena.bytes_pinned;
}

void RunReport::add_serve(const serve::ServeStats& stats) {
  serve_.present = true;
  serve_.submitted = stats.submitted;
  serve_.answered = stats.answered;
  serve_.failed = stats.failed;
  serve_.empty = stats.empty;
  serve_.batches = stats.batches;
  serve_.max_batch_seen = static_cast<std::int64_t>(stats.max_batch_seen);
  serve_.max_queue_depth = static_cast<std::int64_t>(stats.max_queue_depth);
}

std::string RunReport::to_json() const {
  std::ostringstream os;
  os << "{\"schema\": \"" << kSchema << "\"";

  os << ", \"run\": {\"name\": ";
  write_json_string(os, name_);
  os << ", \"threads\": " << threads_
     << ", \"tracing\": " << (tracing_enabled() ? "true" : "false") << "}";

  os << ", \"flow\": [";
  for (std::size_t i = 0; i < flow_.size(); ++i) {
    const FlowRow& row = flow_[i];
    if (i > 0) os << ", ";
    os << "{\"design\": ";
    write_json_string(os, row.design);
    os << ", \"global_place_seconds\": ";
    append_number(os, row.global_place_seconds);
    os << ", \"legalize_seconds\": ";
    append_number(os, row.legalize_seconds);
    os << ", \"detailed_place_seconds\": ";
    append_number(os, row.detailed_place_seconds);
    os << ", \"route_seconds\": ";
    append_number(os, row.route_seconds);
    os << ", \"negotiation_seconds\": ";
    append_number(os, row.negotiation_seconds);
    os << ", \"wirelength\": " << row.wirelength << ", \"vias\": " << row.vias
       << ", \"overflow\": " << row.overflow
       << ", \"fallback_routes\": " << row.fallback_routes << "}";
  }
  os << "]";

  if (train_.present) {
    os << ", \"train\": {\"seconds\": ";
    append_number(os, train_.seconds);
    os << ", \"seconds_per_epoch\": ";
    append_number(os, train_.seconds_per_epoch);
    os << ", \"epochs\": " << train_.epochs
       << ", \"queries_seen\": " << train_.queries_seen
       << ", \"final_loss\": ";
    append_number(os, train_.final_loss);
    os << ", \"arena_allocs_total\": " << train_.arena_allocs_total
       << ", \"arena_bytes_pinned\": " << train_.arena_bytes_pinned << "}";
  } else {
    os << ", \"train\": null";
  }

  if (replicas_.present) {
    os << ", \"replicas\": {\"clones_created\": " << replicas_.clones_created
       << ", \"leases\": " << replicas_.leases
       << ", \"max_on_loan\": " << replicas_.max_on_loan
       << ", \"wait_seconds\": ";
    append_number(os, replicas_.wait_seconds);
    os << ", \"occupancy_seconds\": ";
    append_number(os, replicas_.occupancy_seconds);
    os << ", \"arena_allocs\": " << replicas_.arena_allocs
       << ", \"arena_bytes_pinned\": " << replicas_.arena_bytes_pinned << "}";
  } else {
    os << ", \"replicas\": null";
  }

  if (serve_.present) {
    os << ", \"serve\": {\"submitted\": " << serve_.submitted
       << ", \"answered\": " << serve_.answered
       << ", \"failed\": " << serve_.failed
       << ", \"empty\": " << serve_.empty
       << ", \"batches\": " << serve_.batches
       << ", \"max_batch_seen\": " << serve_.max_batch_seen
       << ", \"max_queue_depth\": " << serve_.max_queue_depth << "}";
  } else {
    os << ", \"serve\": null";
  }

  const eval::SplitCache::Stats cache = eval::SplitCache::global().stats();
  os << ", \"split_cache\": {\"hits\": " << cache.hits
     << ", \"misses\": " << cache.misses
     << ", \"disk_hits\": " << cache.disk_hits
     << ", \"disk_spills\": " << cache.disk_spills
     << ", \"disk_corrupt\": " << cache.disk_corrupt << ", \"disk_dir\": ";
  write_json_string(os, eval::SplitCache::global().disk_dir());
  os << "}";

  // Durability: how often fault injection fired, plus the checkpoint
  // lifecycle counters save_checkpoint and try_load_checkpoint keep in
  // the registry.
  Registry& reg = Registry::global();
  os << ", \"durability\": {\"faults_injected\": "
     << util::fault::injected_count() << ", \"checkpoint_saves\": "
     << reg.counter("checkpoint.saves").value()
     << ", \"checkpoint_resumes\": "
     << reg.counter("checkpoint.resumes").value()
     << ", \"checkpoint_corrupt_discards\": "
     << reg.counter("checkpoint.corrupt_discards").value() << "}";

  // pack_bytes is the im2col/col2im traffic the conv pipeline moves by
  // design; no other activation copy remains on the NN hot path.
  os << ", \"kernels\": {\"isa\": \"" << nn::active_isa()
     << "\", \"blocked_calls\": " << reg.counter("gemm.blocked_calls").value()
     << ", \"pack_bytes\": " << reg.counter("nn.pack_bytes").value() << "}";

  const Registry::Snapshot snap = reg.snapshot();
  os << ", \"metrics\": {\"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    if (i > 0) os << ", ";
    write_json_string(os, snap.counters[i].first);
    os << ": " << snap.counters[i].second;
  }
  os << "}, \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const Registry::HistogramSnapshot& h = snap.histograms[i];
    if (i > 0) os << ", ";
    write_json_string(os, h.name);
    os << ": {\"count\": " << h.count << ", \"sum\": " << h.sum
       << ", \"buckets\": [";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b > 0) os << ", ";
      os << h.buckets[b];
    }
    os << "]}";
  }
  os << "}}";

  os << "}";
  return os.str();
}

}  // namespace sma::obs
