// Query dataset: per-sink-fragment candidate lists materialized as neural
// network inputs, with one rendered image per virtual pin.
//
// One dataset wraps one split design. Construction computes every vector
// feature and renders every image any query references, once per virtual
// pin (the same pin appears in many queries), in parallel when the config
// carries a pool. The candidates of all queries form one sequence of
// candidate rows (queries in order, each its candidates in order): the
// vector features are one [rows, 27] tensor in that order, the images one
// [pins, channels, size, size] tensor in ascending pin order, and each
// candidate row records the image row of its source pin and of its
// query's sink pin. `DlAttack::attack` embeds the image tensor once and
// scores candidate rows against it by those rows; `assemble_batch` gathers
// batches for serving and training from the same storage. After
// construction a dataset is immutable, so any number of attack, training
// and serving threads may read one dataset at once.
#pragma once

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
  /// Non-owning pool for parallel feature extraction and image rendering
  /// during construction; null = serial. A constructed dataset does not
  /// keep it: its `config().pool` is always null.
  runtime::ThreadPool* pool = nullptr;
};

class QueryDataset;

/// Whether two datasets' queries can share one stacked image tensor:
/// both vector-only, or both with equal channel count and image size.
bool same_image_geometry(const DatasetConfig& a, const DatasetConfig& b);

/// One query of one dataset: the unit a batch is assembled from.
struct QueryRef {
  const QueryDataset* dataset = nullptr;
  std::size_t query = 0;
};

/// Gather `refs[0..count)` into one network input, in slot order: their
/// candidate rows and, for image datasets, each query's n source-pin
/// images then its sink-pin image, with each row's two planes in
/// `out.source_rows` / `out.sink_rows`. The one place that stacks queries
/// into planes; a batch of one is a `forward` training input. Empty
/// queries contribute no rows or planes. One batch may mix datasets that
/// share an image geometry; throws std::invalid_argument otherwise.
/// Reuses `out`'s buffers in place (grow-only capacity, every element
/// fully overwritten), so a caller that holds one QueryInput across
/// batches assembles without heap traffic once its buffers have seen the
/// widest batch. Reads the datasets only, so concurrent calls are safe.
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

  /// Candidate rows query `i` contributes to a batch: its candidate count.
  int batch_rows(std::size_t i) const {
    return static_cast<int>(queries_.at(i).candidates.size());
  }

  /// Weighted fraction of queries whose candidate list holds the truth.
  double candidate_hit_rate() const {
    return split::candidate_hit_rate(queries_);
  }

  /// Rendered images: one per distinct virtual pin the queries reference,
  /// 0 for vector-only datasets.
  std::size_t cached_images() const {
    return images_.empty() ? 0 : static_cast<std::size_t>(images_.dim(0));
  }

  /// [cached_images(), channels, size, size], row i the image of the i-th
  /// smallest referenced pin id; empty for vector-only datasets.
  const nn::Tensor& images() const { return images_; }

  /// Candidate row of query i's first candidate; query i owns rows
  /// [first_row(i), first_row(i + 1)), and first_row(num_queries()) is the
  /// total row count.
  int first_row(std::size_t i) const { return first_row_.at(i); }

  /// [total rows, kNumVectorFeatures]: each candidate row's features.
  const nn::Tensor& vector_rows() const { return vector_rows_; }

  /// Per candidate row, the `images()` row of its source pin and of its
  /// query's sink pin (the sink fragment's first virtual pin). Empty for
  /// vector-only datasets.
  const std::vector<int>& source_rows() const { return source_rows_; }
  const std::vector<int>& sink_rows() const { return sink_rows_; }

 private:
  const split::SplitDesign* split_;
  DatasetConfig config_;
  std::vector<split::SinkQuery> queries_;
  std::vector<int> first_row_;
  nn::Tensor vector_rows_;
  nn::Tensor images_;
  std::vector<int> source_rows_;
  std::vector<int> sink_rows_;
};

}  // namespace sma::attack
