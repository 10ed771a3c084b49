#include "attack/dataset.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "obs/obs.hpp"
#include "runtime/parallel.hpp"

namespace sma::attack {

QueryDataset::QueryDataset(const split::SplitDesign* split,
                           const DatasetConfig& config)
    : split_(split), config_(config) {
  SMA_TRACE_SPAN("dataset", "build");
  SMA_COUNT("dataset.builds");
  runtime::ThreadPool* pool = config_.pool;
  config_.pool = nullptr;  // construction is the pool's only use
  queries_ = split::build_queries(*split_, config_.candidates);
  vector_features_.resize(queries_.size());
  runtime::parallel_for(
      pool, 0, queries_.size(), /*grain=*/8, [this](std::size_t i) {
        vector_features_[i].reserve(queries_[i].candidates.size());
        for (const split::Vpp& vpp : queries_[i].candidates) {
          vector_features_[i].push_back(
              features::compute_vector_features(*split_, vpp));
        }
      });
  if (!config_.build_images) return;

  const features::ImageRenderer renderer(split_, config_.images);
  const std::vector<int> pins = referenced_pins();
  if (pins.empty()) return;
  SMA_TRACE_SPAN_V("dataset", "render_images", pins.size());
  SMA_COUNT_N("dataset.images_rendered", pins.size());
  // Rendering is pure per pin; the cache fill stays on this thread.
  std::vector<std::vector<float>> images = runtime::parallel_map(
      pool, pins.size(), /*grain=*/1,
      [&renderer, &pins](std::size_t i) { return renderer.render(pins[i]); });
  for (std::size_t i = 0; i < pins.size(); ++i) {
    image_cache_.emplace(pins[i], std::move(images[i]));
  }
}

std::vector<int> QueryDataset::referenced_pins() const {
  std::vector<int> pins;
  for (const split::SinkQuery& query : queries_) {
    for (const split::Vpp& vpp : query.candidates) {
      pins.push_back(vpp.source_vp);
    }
    if (!query.candidates.empty()) {
      const split::Fragment& sink = split_->fragment(query.sink_fragment);
      pins.push_back(sink.virtual_pins.front());
    }
  }
  std::sort(pins.begin(), pins.end());
  pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
  return pins;
}

bool same_image_geometry(const DatasetConfig& a, const DatasetConfig& b) {
  return a.build_images == b.build_images &&
         (!a.build_images || (a.images.channels() == b.images.channels() &&
                              a.images.size == b.images.size));
}

void assemble_batch(const QueryRef* refs, std::size_t count,
                    nn::QueryInput& out) {
  out.query_rows.clear();
  int rows = 0;
  int planes = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const QueryDataset& dataset = *refs[k].dataset;
    if (!same_image_geometry(dataset.config(), refs[0].dataset->config())) {
      throw std::invalid_argument(
          "assemble_batch: batch mixes datasets of different image geometry");
    }
    const int n = dataset.batch_rows(refs[k].query);
    out.query_rows.push_back(n);
    if (n > 0) {
      rows += n;
      planes += n + 1;
    }
  }

  // Both tensors are fully overwritten below (one memcpy per row/plane
  // covers every element), so plain resize_reuse needs no zeroing and a
  // reused QueryInput assembles without touching the heap once warm.
  out.vec.resize_reuse({rows, features::kNumVectorFeatures});
  float* img_dst = nullptr;
  std::size_t per_image = 0;
  if (planes > 0 && refs[0].dataset->config_.build_images) {
    const features::ImageConfig& img = refs[0].dataset->config_.images;
    out.images.resize_reuse({planes, img.channels(), img.size, img.size});
    img_dst = out.images.data();
    per_image = img.pixels_per_image();
  } else {
    out.images = nn::Tensor();
  }

  float* vec_dst = out.vec.data();
  for (std::size_t k = 0; k < count; ++k) {
    const QueryDataset& dataset = *refs[k].dataset;
    const std::size_t i = refs[k].query;
    const split::SinkQuery& query = dataset.queries_.at(i);
    for (const features::VectorFeatures& row : dataset.vector_features_[i]) {
      std::memcpy(vec_dst, row.data(),
                  sizeof(float) * features::kNumVectorFeatures);
      vec_dst += features::kNumVectorFeatures;
    }
    if (img_dst == nullptr || query.candidates.empty()) continue;
    for (const split::Vpp& vpp : query.candidates) {
      std::memcpy(img_dst, dataset.image_of(vpp.source_vp).data(),
                  sizeof(float) * per_image);
      img_dst += per_image;
    }
    // Sink image: the sink fragment's first virtual pin represents it.
    const split::Fragment& sink =
        dataset.split_->fragment(query.sink_fragment);
    std::memcpy(img_dst, dataset.image_of(sink.virtual_pins.front()).data(),
                sizeof(float) * per_image);
    img_dst += per_image;
  }
}

}  // namespace sma::attack
