// Query dataset: per-sink-fragment candidate lists materialized as neural
// network inputs, with cached virtual-pin images.
//
// One dataset wraps one split design. Vector features are computed eagerly
// (in parallel when the config carries a pool); images are rendered lazily
// per virtual pin and cached, since the same pin appears in many queries.
// With a pool, construction instead prebuilds every image the dataset can
// ever need — after `prebuild_images()` the cache is immutable, making
// `assemble_batch` safe to call from concurrent attack/training workers.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "features/image_features.hpp"
#include "features/vector_features.hpp"
#include "nn/attack_net.hpp"
#include "runtime/thread_pool.hpp"
#include "split/candidates.hpp"

namespace sma::attack {

struct DatasetConfig {
  split::CandidateConfig candidates;
  features::ImageConfig images;
  /// Skip all image work (vector-only attacks / ablation).
  bool build_images = true;
  /// Non-owning pool for parallel feature extraction; null = serial. The
  /// pool must outlive every dataset operation that uses it.
  runtime::ThreadPool* pool = nullptr;
};

class QueryDataset;

/// Whether two datasets' queries can share one stacked image tensor:
/// both vector-only, or both with equal channel count and image size.
bool same_image_geometry(const DatasetConfig& a, const DatasetConfig& b);

/// One query of one dataset: the unit a batch is assembled from.
struct QueryRef {
  QueryDataset* dataset = nullptr;
  std::size_t query = 0;
};

/// Assemble `refs[0..count)` into one stacked network input, in slot
/// order (`out.query_rows[k]` is refs[k]'s candidate count; empty queries
/// contribute no rows or planes). A batch of one is a training or batch-1
/// input. One batch may mix datasets that share an image geometry;
/// throws std::invalid_argument otherwise. Reuses `out`'s tensors in place
/// (`Tensor::resize_reuse`: grow-only capacity, every element fully
/// overwritten), so a caller that holds one QueryInput across batches
/// assembles without heap traffic once its buffers have seen the widest
/// batch. Renders and caches images on first use: safe to call
/// concurrently only after every referenced dataset's `prebuild_images()`
/// (or construction with a pool, which prebuilds).
void assemble_batch(const QueryRef* refs, std::size_t count,
                    nn::QueryInput& out);

class QueryDataset {
 public:
  QueryDataset(const split::SplitDesign* split, const DatasetConfig& config);

  const split::SplitDesign& split() const { return *split_; }
  const DatasetConfig& config() const { return config_; }

  std::size_t num_queries() const { return queries_.size(); }
  const split::SinkQuery& query(std::size_t i) const { return queries_.at(i); }

  /// Index of the positive candidate (-1 if not in the list).
  int target(std::size_t i) const { return queries_.at(i).positive_index; }
  int num_sinks(std::size_t i) const { return queries_.at(i).num_sinks; }

  /// Vector rows query `i` contributes to a batched input; its images add
  /// `batch_rows(i) + 1` planes when nonzero and images are built.
  int batch_rows(std::size_t i) const {
    return static_cast<int>(queries_.at(i).candidates.size());
  }

  /// Render every image any query references into the cache, in parallel
  /// over `pool` (falling back to the config's pool, then serial).
  /// Idempotent; a no-op for vector-only datasets.
  void prebuild_images(runtime::ThreadPool* pool = nullptr);

  /// Weighted fraction of queries whose candidate list holds the truth.
  double candidate_hit_rate() const {
    return split::candidate_hit_rate(queries_);
  }

  /// Total image cache entries (for tests/diagnostics).
  std::size_t cached_images() const { return image_cache_.size(); }

 private:
  friend void assemble_batch(const QueryRef* refs, std::size_t count,
                             nn::QueryInput& out);

  const std::vector<float>& image_of(int virtual_pin);
  /// All virtual pins whose image some query needs, deduplicated, in a
  /// deterministic order.
  std::vector<int> referenced_pins() const;

  const split::SplitDesign* split_;
  DatasetConfig config_;
  std::vector<split::SinkQuery> queries_;
  std::vector<std::vector<features::VectorFeatures>> vector_features_;
  std::unique_ptr<features::ImageRenderer> renderer_;
  std::unordered_map<int, std::vector<float>> image_cache_;
};

}  // namespace sma::attack
