#include "attack/dataset.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "obs/obs.hpp"
#include "runtime/parallel.hpp"

namespace sma::attack {

namespace {

/// The virtual pin whose image stands for a query's sink fragment: the
/// fragment's first.
int sink_pin(const split::SplitDesign& split, const split::SinkQuery& query) {
  return split.fragment(query.sink_fragment).virtual_pins.front();
}

/// All virtual pins whose image some query needs, deduplicated and sorted.
std::vector<int> referenced_pins(const split::SplitDesign& split,
                                 const std::vector<split::SinkQuery>& queries) {
  std::vector<int> pins;
  for (const split::SinkQuery& query : queries) {
    for (const split::Vpp& vpp : query.candidates) {
      pins.push_back(vpp.source_vp);
    }
    if (!query.candidates.empty()) pins.push_back(sink_pin(split, query));
  }
  std::sort(pins.begin(), pins.end());
  pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
  return pins;
}

/// Row of `pin` in the sorted, deduplicated `pins`.
int pin_row(const std::vector<int>& pins, int pin) {
  return static_cast<int>(std::lower_bound(pins.begin(), pins.end(), pin) -
                          pins.begin());
}

}  // namespace

QueryDataset::QueryDataset(const split::SplitDesign* split,
                           const DatasetConfig& config)
    : split_(split), config_(config) {
  SMA_TRACE_SPAN("dataset", "build");
  SMA_COUNT("dataset.builds");
  runtime::ThreadPool* pool = config_.pool;
  config_.pool = nullptr;  // construction is the pool's only use
  queries_ = split::build_queries(*split_, config_.candidates);
  first_row_.assign(queries_.size() + 1, 0);
  for (std::size_t i = 0; i < queries_.size(); ++i) {
    first_row_[i + 1] =
        first_row_[i] + static_cast<int>(queries_[i].candidates.size());
  }
  const int rows = first_row_.back();
  vector_rows_ = nn::Tensor({rows, features::kNumVectorFeatures});
  runtime::parallel_for(
      pool, 0, queries_.size(), /*grain=*/8, [this](std::size_t i) {
        float* dst = vector_rows_.data() +
                     static_cast<std::size_t>(first_row_[i]) *
                         features::kNumVectorFeatures;
        for (const split::Vpp& vpp : queries_[i].candidates) {
          const features::VectorFeatures row =
              features::compute_vector_features(*split_, vpp);
          std::memcpy(dst, row.data(),
                      sizeof(float) * features::kNumVectorFeatures);
          dst += features::kNumVectorFeatures;
        }
      });
  if (!config_.build_images) return;

  const std::vector<int> pins = referenced_pins(*split_, queries_);
  if (pins.empty()) return;
  source_rows_.reserve(static_cast<std::size_t>(rows));
  sink_rows_.reserve(static_cast<std::size_t>(rows));
  for (const split::SinkQuery& query : queries_) {
    if (query.candidates.empty()) continue;
    const int sink = pin_row(pins, sink_pin(*split_, query));
    for (const split::Vpp& vpp : query.candidates) {
      source_rows_.push_back(pin_row(pins, vpp.source_vp));
      sink_rows_.push_back(sink);
    }
  }

  SMA_TRACE_SPAN_V("dataset", "render_images", pins.size());
  SMA_COUNT_N("dataset.images_rendered", pins.size());
  const features::ImageRenderer renderer(split_, config_.images);
  const features::ImageConfig& img = config_.images;
  images_ = nn::Tensor(
      {static_cast<int>(pins.size()), img.channels(), img.size, img.size});
  // Rendering is pure per pin, and each pin owns its row.
  const std::size_t per_image = img.pixels_per_image();
  runtime::parallel_for(
      pool, 0, pins.size(), /*grain=*/1,
      [this, &renderer, &pins, per_image](std::size_t i) {
        const std::vector<float> image = renderer.render(pins[i]);
        std::memcpy(images_.data() + i * per_image, image.data(),
                    sizeof(float) * per_image);
      });
}

bool same_image_geometry(const DatasetConfig& a, const DatasetConfig& b) {
  return a.build_images == b.build_images &&
         (!a.build_images || (a.images.channels() == b.images.channels() &&
                              a.images.size == b.images.size));
}

void assemble_batch(const QueryRef* refs, std::size_t count,
                    nn::QueryInput& out) {
  int rows = 0;
  int planes = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const QueryDataset& dataset = *refs[k].dataset;
    if (!same_image_geometry(dataset.config(), refs[0].dataset->config())) {
      throw std::invalid_argument(
          "assemble_batch: batch mixes datasets of different image geometry");
    }
    const int n = dataset.batch_rows(refs[k].query);
    if (n > 0) {
      rows += n;
      planes += n + 1;
    }
  }

  // The tensors and row vectors are fully overwritten below (one memcpy
  // per query's vector rows and per plane, one entry per candidate row),
  // so plain resize_reuse needs no zeroing and a reused QueryInput
  // assembles without touching the heap once warm.
  constexpr std::size_t kVec = features::kNumVectorFeatures;
  out.vec.resize_reuse({rows, features::kNumVectorFeatures});
  std::size_t per_image = 0;
  if (planes > 0 && refs[0].dataset->config().build_images) {
    const features::ImageConfig& img = refs[0].dataset->config().images;
    out.images.resize_reuse({planes, img.channels(), img.size, img.size});
    out.source_rows.resize(static_cast<std::size_t>(rows));
    out.sink_rows.resize(static_cast<std::size_t>(rows));
    per_image = img.pixels_per_image();
  } else {
    out.images = nn::Tensor();
    out.source_rows.clear();
    out.sink_rows.clear();
  }

  std::size_t row = 0;
  int plane = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const QueryDataset& dataset = *refs[k].dataset;
    const std::size_t first =
        static_cast<std::size_t>(dataset.first_row(refs[k].query));
    const int n = dataset.batch_rows(refs[k].query);
    if (n == 0) continue;
    std::memcpy(out.vec.data() + row * kVec,
                dataset.vector_rows().data() + first * kVec,
                sizeof(float) * static_cast<std::size_t>(n) * kVec);
    if (per_image > 0) {
      // The query's source images at planes [plane, plane + n), in
      // candidate order, then its sink image at plane + n.
      const float* images = dataset.images().data();
      const auto copy_plane = [&](int to, int from) {
        std::memcpy(out.images.data() + to * per_image,
                    images + from * per_image, sizeof(float) * per_image);
      };
      for (int j = 0; j < n; ++j) {
        out.source_rows[row + j] = plane + j;
        out.sink_rows[row + j] = plane + n;
        copy_plane(plane + j, dataset.source_rows()[first + j]);
      }
      copy_plane(plane + n, dataset.sink_rows()[first]);
      plane += n + 1;
    }
    row += static_cast<std::size_t>(n);
  }
}

}  // namespace sma::attack
