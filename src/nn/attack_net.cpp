#include "nn/attack_net.hpp"

#include <cstring>
#include <istream>
#include <optional>
#include <ostream>
#include <stdexcept>

namespace sma::nn {

NetConfig NetConfig::paper() { return NetConfig{}; }

NetConfig NetConfig::fast() {
  NetConfig config;
  config.conv_channels = {8, 16, 32, 64};
  return config;
}

AttackNet::AttackNet(const NetConfig& config) : config_(config) {
  util::Pcg32 rng(config_.seed, 0xa77ac);

  fc1_ = std::make_unique<Linear>(config_.vector_dim, config_.hidden, rng,
                                  "fc1", Act::kLeakyReLU);
  for (int i = 0; i < config_.vector_res_blocks; ++i) {
    vec_blocks_.emplace_back(config_.hidden, rng,
                             "vec_res" + std::to_string(i));
  }

  if (config_.use_images) {
    int in_ch = config_.image_channels;
    for (int group = 0; group < 4; ++group) {
      const int out_ch = config_.conv_channels[group];
      for (int layer = 0; layer < 3; ++layer) {
        // Groups 2..4 downsample (stride 3) in their first conv; the first
        // group keeps full resolution (Table 2: conv1 output 99x99).
        const int stride = (group > 0 && layer == 0) ? 3 : 1;
        convs_.emplace_back(in_ch, out_ch, stride, rng,
                            "conv" + std::to_string(group + 1) + "_" +
                                std::to_string(layer),
                            Act::kLeakyReLU);
        in_ch = out_ch;
      }
    }
    // Nothing consumes the gradient w.r.t. the input images; the first
    // conv can skip its dX (dcols + col2im) entirely.
    convs_.front().set_compute_input_grad(false);
    fc3_ = std::make_unique<Linear>(config_.conv_channels[3],
                                    config_.image_fc, rng, "fc3",
                                    Act::kLeakyReLU);
    fc4_ = std::make_unique<Linear>(config_.image_fc, config_.hidden, rng,
                                    "fc4", Act::kLeakyReLU);
    fc5_img_ = std::make_unique<Linear>(2 * config_.hidden, config_.hidden,
                                        rng, "fc5_img", Act::kLeakyReLU);
  }

  const int merged_in =
      config_.use_images ? 2 * config_.hidden : config_.hidden;
  fc5_merged_ = std::make_unique<Linear>(merged_in, config_.hidden, rng,
                                         "fc5_merged", Act::kLeakyReLU);
  for (int i = 0; i < config_.merged_res_blocks; ++i) {
    merged_blocks_.emplace_back(config_.hidden, rng,
                                "merged_res" + std::to_string(i));
  }
  fc6_ = std::make_unique<Linear>(config_.hidden, config_.fc6_width, rng,
                                  "fc6", Act::kLeakyReLU);
  fc7_ = std::make_unique<Linear>(config_.fc6_width,
                                  config_.two_class ? 2 : 1, rng, "fc7");

  // Bind every layer to this network's activation arena — strictly after
  // all layer containers are fully built, since binding caches layer
  // addresses into the arena-backed hot path and vector growth would
  // relocate them. The arena lives behind a unique_ptr, so moving the
  // AttackNet moves the pointer and invalidates nothing.
  arena_ = std::make_unique<Arena>();
  fc1_->bind_arena(*arena_);
  for (ResBlock& block : vec_blocks_) block.bind_arena(*arena_);
  if (config_.use_images) {
    for (Conv2d& conv : convs_) conv.bind_arena(*arena_);
    pool_.bind_arena(*arena_);
    fc3_->bind_arena(*arena_);
    fc4_->bind_arena(*arena_);
    fc5_img_->bind_arena(*arena_);
  }
  fc5_merged_->bind_arena(*arena_);
  for (ResBlock& block : merged_blocks_) block.bind_arena(*arena_);
  fc6_->bind_arena(*arena_);
  fc7_->bind_arena(*arena_);
  fused_slot_ = arena_->add_tensor();
  merged_slot_ = arena_->add_tensor();
  embed_in_slot_ = arena_->add_tensor();
  table_slot_ = arena_->add_tensor();
  dv_slot_ = arena_->add_tensor();
  dimg_slot_ = arena_->add_tensor();
  demb_slot_ = arena_->add_tensor();
}

const Tensor& AttackNet::forward(const QueryInput& input) {
  const Tensor& vec = input.vec;
  const Tensor& images = input.images;
  if (vec.shape().size() != 2 || vec.dim(1) != config_.vector_dim) {
    throw std::invalid_argument("bad vector input " + vec.shape_string());
  }
  // An empty query_rows is one query over every row of vec.
  const int whole = vec.dim(0);
  const int* query_rows =
      input.query_rows.empty() ? &whole : input.query_rows.data();
  const int num_queries =
      input.query_rows.empty() ? 1
                               : static_cast<int>(input.query_rows.size());
  // Row/plane accounting. A query with no candidates contributes neither
  // vector rows nor image planes (its caller answers it without the net).
  int rows = 0;
  int planes = 0;
  for (int q = 0; q < num_queries; ++q) {
    const int nq = query_rows[q];
    if (nq < 0) {
      throw std::invalid_argument("negative candidate count in batch");
    }
    rows += nq;
    if (nq > 0) planes += nq + 1;
  }
  if (rows == 0) {
    throw std::invalid_argument("forward: batch has no candidate rows");
  }
  if (vec.dim(0) != rows) {
    throw std::invalid_argument(
        "bad vector input " + vec.shape_string() + ": batch promises " +
        std::to_string(rows) + " candidate rows");
  }

  // The vector branch, the image trunk, then the head: the layer order
  // backward unwinds.
  const Tensor& v = vector_branch(vec);
  const Tensor* embeddings = nullptr;
  if (config_.use_images) {
    if (images.shape().size() != 4 || images.dim(0) != planes ||
        images.dim(1) != config_.image_channels) {
      throw std::invalid_argument("bad image input " +
                                  images.shape_string());
    }
    embeddings = &embed(images, 0, planes);  // [planes, h]
    // The planes are stacked per query: query q's n_q source images, then
    // its sink image. Its candidates read embedding rows [m, m + n_q) and
    // share row m + n_q.
    source_rows_.resize(static_cast<std::size_t>(rows));
    sink_rows_.resize(static_cast<std::size_t>(rows));
    int r = 0;
    int m = 0;
    for (int q = 0; q < num_queries; ++q) {
      const int nq = query_rows[q];
      if (nq == 0) continue;
      for (int j = 0; j < nq; ++j) {
        source_rows_[static_cast<std::size_t>(r + j)] = m + j;
        sink_rows_[static_cast<std::size_t>(r + j)] = m + nq;
      }
      r += nq;
      m += nq + 1;
    }
  }
  const Tensor& scores =
      head(v, embeddings, source_rows_.data(), sink_rows_.data());
  trainable_ = num_queries == 1;
  return scores;
}

const Tensor& AttackNet::embed(const Tensor& images, int lo, int hi) {
  if (!config_.use_images) {
    throw std::logic_error("AttackNet::embed on a vector-only net");
  }
  if (images.shape().size() != 4 || images.dim(1) != config_.image_channels ||
      lo < 0 || hi <= lo || hi > images.dim(0)) {
    throw std::invalid_argument("bad embed range [" + std::to_string(lo) +
                                ", " + std::to_string(hi) + ") of images " +
                                images.shape_string());
  }
  trainable_ = false;
  // A strict sub-range is staged (full overwrite: one memcpy covers it).
  const Tensor* x = &images;
  if (lo != 0 || hi != images.dim(0)) {
    Tensor& staged = arena_->tensor(
        embed_in_slot_, {hi - lo, images.dim(1), images.dim(2), images.dim(3)},
        Arena::Fill::kNone);
    const std::size_t per_image = images.size() / images.dim(0);
    std::memcpy(staged.data(), images.data() + lo * per_image,
                sizeof(float) * (hi - lo) * per_image);
    x = &staged;
  }
  // --- shared conv trunk over the stacked images. One layout contract
  // binds the trunk: the input is the first row-major seam (conv1's pack
  // path reads NCHW natively), the trunk's activations then stay in the
  // layout the conv pipeline produces (channel-major — each layer's tag
  // travels with its slot), and GlobalAvgPool is the second and last
  // seam, reducing to a row-major [images, channels] matrix for the fc
  // head at zero conversion cost. Nothing between the seams may assume
  // row-major storage.
  for (Conv2d& conv : convs_) x = &conv.forward(*x);
  x = &pool_.forward(*x);
#ifndef NDEBUG
  if (x->layout() != Layout::kRowMajor) {
    throw std::logic_error("pool output must be the row-major fc seam");
  }
#endif
  x = &fc3_->forward(*x);
  return fc4_->forward(*x);  // [images, h]
}

const Tensor& AttackNet::score(const Tensor& vec, const Tensor* embeddings,
                               const int* source_rows, const int* sink_rows) {
  if (vec.shape().size() != 2 || vec.dim(1) != config_.vector_dim ||
      vec.dim(0) == 0) {
    throw std::invalid_argument("bad vector input " + vec.shape_string());
  }
  const int rows = vec.dim(0);
  const int h = config_.hidden;
  if (config_.use_images) {
    if (embeddings == nullptr || embeddings->shape().size() != 2 ||
        embeddings->dim(1) != h || source_rows == nullptr ||
        sink_rows == nullptr) {
      throw std::invalid_argument("score: image net needs a [*, " +
                                  std::to_string(h) + "] embedding table");
    }
    const int table_rows = embeddings->dim(0);
    for (int r = 0; r < rows; ++r) {
      if (source_rows[r] < 0 || source_rows[r] >= table_rows ||
          sink_rows[r] < 0 || sink_rows[r] >= table_rows) {
        throw std::invalid_argument(
            "score: candidate row " + std::to_string(r) +
            " names an embedding outside the table's " +
            std::to_string(table_rows) + " rows");
      }
    }
  }
  trainable_ = false;
  return head(vector_branch(vec), embeddings, source_rows, sink_rows);
}

// Layer outputs are arena slots: the chains below thread references
// through them without copying (each layer's slot stays valid until that
// layer's next call).

const Tensor& AttackNet::vector_branch(const Tensor& vec) {
  const Tensor* v = &fc1_->forward(vec);
  for (ResBlock& block : vec_blocks_) v = &block.forward(*v);
  return *v;
}

const Tensor& AttackNet::head(const Tensor& v, const Tensor* embeddings,
                              const int* source_rows, const int* sink_rows) {
  const int rows = v.dim(0);
  const int h = config_.hidden;
  n_ = rows;
  const Tensor* merged_in = nullptr;
  if (config_.use_images) {
    // --- fuse each candidate's source embedding with its sink embedding,
    // both read by row index (full overwrite: two memcpys cover each row).
    Tensor& fused =
        arena_->tensor(fused_slot_, {rows, 2 * h}, Arena::Fill::kNone);
    const float* table = embeddings->data();
    for (int r = 0; r < rows; ++r) {
      float* dst = fused.data() + static_cast<std::size_t>(r) * 2 * h;
      std::memcpy(dst, table + static_cast<std::size_t>(source_rows[r]) * h,
                  sizeof(float) * h);
      std::memcpy(dst + h, table + static_cast<std::size_t>(sink_rows[r]) * h,
                  sizeof(float) * h);
    }
    const Tensor& img_out = fc5_img_->forward(fused);  // [rows, h]

    // --- concat vector and image embeddings (full overwrite; both sides
    // are in candidate-row order, so the seam is query-agnostic)
    Tensor& merged =
        arena_->tensor(merged_slot_, {rows, 2 * h}, Arena::Fill::kNone);
    for (int j = 0; j < rows; ++j) {
      std::memcpy(merged.data() + static_cast<std::size_t>(j) * 2 * h,
                  v.data() + static_cast<std::size_t>(j) * h,
                  sizeof(float) * h);
      std::memcpy(merged.data() + static_cast<std::size_t>(j) * 2 * h + h,
                  img_out.data() + static_cast<std::size_t>(j) * h,
                  sizeof(float) * h);
    }
    merged_in = &merged;
  } else {
    merged_in = &v;
  }

  const Tensor* m = &fc5_merged_->forward(*merged_in);
  for (ResBlock& block : merged_blocks_) m = &block.forward(*m);
  m = &fc6_->forward(*m);
  Tensor& scores = fc7_->forward(*m);  // [rows, 1] or [rows, 2]
  if (!config_.two_class) {
    scores.reshape({rows});
  }
  return scores;
}

Tensor& AttackNet::embedding_table(int rows) {
  return arena_->tensor(table_slot_, {rows, config_.hidden},
                        Arena::Fill::kNone);
}

void AttackNet::backward(const Tensor& dscores) {
  if (!trainable_) {
    throw std::logic_error(
        "AttackNet::backward needs a one-query forward just before it: "
        "wider batches and bare embed/score passes are inference-only");
  }
  const int h = config_.hidden;
  // The seed copied dscores only to flatten [n] into [n, 1]; Linear's
  // backward derives its row count from size()/out and never reads the
  // shape, so dscores feeds fc7 directly — same bytes, no copy.
  const Tensor* d = &fc7_->backward(dscores);
  d = &fc6_->backward(*d);
  for (auto it = merged_blocks_.rbegin(); it != merged_blocks_.rend(); ++it) {
    d = &it->backward(*d);
  }
  const Tensor& dmerged_in = fc5_merged_->backward(*d);

  const Tensor* dv = nullptr;
  if (config_.use_images) {
    // Split the merged gradient into vector and image halves (both full
    // overwrite). dv lives on this net's own slot so it survives the
    // whole image-branch backward below.
    Tensor& dv_half = arena_->tensor(dv_slot_, {n_, h}, Arena::Fill::kNone);
    Tensor& dimg = arena_->tensor(dimg_slot_, {n_, h}, Arena::Fill::kNone);
    for (int j = 0; j < n_; ++j) {
      std::memcpy(dv_half.data() + static_cast<std::size_t>(j) * h,
                  dmerged_in.data() + static_cast<std::size_t>(j) * 2 * h,
                  sizeof(float) * h);
      std::memcpy(dimg.data() + static_cast<std::size_t>(j) * h,
                  dmerged_in.data() + static_cast<std::size_t>(j) * 2 * h + h,
                  sizeof(float) * h);
    }

    const Tensor& dfused = fc5_img_->backward(dimg);  // [n, 2h]
    // Reassemble per-image embedding gradients; the sink row accumulates
    // (+=) the second half of every fused row, so the slot is acquired
    // zero-filled — the bytes of the seed's fresh tensor.
    Tensor& demb =
        arena_->tensor(demb_slot_, {n_ + 1, h}, Arena::Fill::kZero);
    float* sink_grad = demb.data() + static_cast<std::size_t>(n_) * h;
    for (int j = 0; j < n_; ++j) {
      std::memcpy(demb.data() + static_cast<std::size_t>(j) * h,
                  dfused.data() + static_cast<std::size_t>(j) * 2 * h,
                  sizeof(float) * h);
      const float* second =
          dfused.data() + static_cast<std::size_t>(j) * 2 * h + h;
      for (int k = 0; k < h; ++k) sink_grad[k] += second[k];
    }

    // Backward mirrors the forward layout contract: the fc gradients are
    // row-major down to the pool seam, pool re-enters the trunk in the
    // layout its forward input had, and each conv hands its predecessor
    // a dx in that predecessor's own output layout — no reorder anywhere.
    const Tensor* dx = &fc4_->backward(demb);
    dx = &fc3_->backward(*dx);
    dx = &pool_.backward(*dx);
    for (std::size_t i = convs_.size(); i-- > 0;) {
      dx = &convs_[i].backward(*dx);
    }
    dv = &dv_half;
  } else {
    dv = &dmerged_in;
  }

  for (auto it = vec_blocks_.rbegin(); it != vec_blocks_.rend(); ++it) {
    dv = &it->backward(*dv);
  }
  fc1_->backward(*dv);
}

std::vector<Param> AttackNet::params() {
  std::vector<Param> out;
  fc1_->collect_params(out);
  for (ResBlock& block : vec_blocks_) block.collect_params(out);
  if (config_.use_images) {
    for (Conv2d& conv : convs_) conv.collect_params(out);
    fc3_->collect_params(out);
    fc4_->collect_params(out);
    fc5_img_->collect_params(out);
  }
  fc5_merged_->collect_params(out);
  for (ResBlock& block : merged_blocks_) block.collect_params(out);
  fc6_->collect_params(out);
  fc7_->collect_params(out);
  return out;
}

std::size_t AttackNet::num_parameters() {
  std::size_t total = 0;
  for (const Param& p : params()) total += p.value->size();
  return total;
}

namespace {

constexpr std::uint32_t kMagic = 0x534d4131;  // "SMA1"

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value;
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw ModelLoadError("model file truncated");
  return value;
}

/// Header field validation: a load must reject hostile or garbage header
/// values *before* they reach tensor allocation (a multi-gigabyte
/// "hidden width" would otherwise surface as bad_alloc — or worse,
/// succeed and materialize garbage tensors).
int checked_field(int value, const char* name, int lo, int hi) {
  if (value < lo || value > hi) {
    throw ModelLoadError("model header field " + std::string(name) + " = " +
                         std::to_string(value) + " outside sane range [" +
                         std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return value;
}

bool checked_flag(int value, const char* name) {
  if (value != 0 && value != 1) {
    throw ModelLoadError("model header flag " + std::string(name) + " = " +
                         std::to_string(value) + " is not a boolean");
  }
  return value != 0;
}

/// Bytes left on a seekable stream; nullopt for pipes and the like.
std::optional<std::uint64_t> remaining_bytes(std::istream& in) {
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return std::nullopt;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  if (end == std::istream::pos_type(-1) || end < here) return std::nullopt;
  return static_cast<std::uint64_t>(end - here);
}

}  // namespace

void AttackNet::save(std::ostream& out) {
  write_pod(out, kMagic);
  write_pod(out, config_.vector_dim);
  write_pod(out, config_.hidden);
  write_pod(out, config_.vector_res_blocks);
  write_pod(out, config_.merged_res_blocks);
  write_pod(out, static_cast<int>(config_.use_images));
  write_pod(out, config_.image_channels);
  for (int ch : config_.conv_channels) write_pod(out, ch);
  write_pod(out, config_.image_fc);
  write_pod(out, config_.fc6_width);
  write_pod(out, static_cast<int>(config_.two_class));
  write_pod(out, config_.seed);
  if (!out) {
    throw std::runtime_error("AttackNet::save: writing model header failed");
  }

  for (const Param& p : params()) {
    write_pod(out, static_cast<std::uint64_t>(p.value->size()));
    out.write(reinterpret_cast<const char*>(p.value->data()),
              static_cast<std::streamsize>(p.value->size() * sizeof(float)));
    // A full disk or closed stream would otherwise return silently here,
    // leaving a truncated file that only load() can diagnose — much later.
    if (!out) {
      throw std::runtime_error("AttackNet::save: writing " + p.name +
                               " failed (stream error or disk full)");
    }
  }
}

AttackNet AttackNet::clone_shared() {
  // The plain constructor random-initializes weights that
  // share_weights_from immediately frees — wasted work, but it keeps one
  // construction path for every layer (no uninitialized-weight ctor
  // variants to drift), and it runs once per pinned replica, not per
  // step or per attack() call. Revisit if replica churn ever shows up in
  // a profile.
  AttackNet copy(config_);
  copy.fc1_->share_weights_from(*fc1_);
  for (std::size_t i = 0; i < vec_blocks_.size(); ++i) {
    copy.vec_blocks_[i].share_weights_from(vec_blocks_[i]);
  }
  if (config_.use_images) {
    for (std::size_t i = 0; i < convs_.size(); ++i) {
      copy.convs_[i].share_weights_from(convs_[i]);
    }
    copy.fc3_->share_weights_from(*fc3_);
    copy.fc4_->share_weights_from(*fc4_);
    copy.fc5_img_->share_weights_from(*fc5_img_);
  }
  copy.fc5_merged_->share_weights_from(*fc5_merged_);
  for (std::size_t i = 0; i < merged_blocks_.size(); ++i) {
    copy.merged_blocks_[i].share_weights_from(merged_blocks_[i]);
  }
  copy.fc6_->share_weights_from(*fc6_);
  copy.fc7_->share_weights_from(*fc7_);
  return copy;
}

AttackNet AttackNet::load(std::istream& in) {
  if (read_pod<std::uint32_t>(in) != kMagic) {
    throw ModelLoadError("not an AttackNet model file");
  }
  // Bounds: generous enough for any configuration this repo can train
  // (paper config: hidden 128, channels ≤ 128), tight enough that a
  // corrupt or hostile header can never request pathological allocations.
  constexpr int kMaxWidth = 1 << 20;
  constexpr int kMaxBlocks = 4096;
  NetConfig config;
  config.vector_dim = checked_field(read_pod<int>(in), "vector_dim", 1,
                                    kMaxWidth);
  config.hidden = checked_field(read_pod<int>(in), "hidden", 1, kMaxWidth);
  config.vector_res_blocks = checked_field(
      read_pod<int>(in), "vector_res_blocks", 0, kMaxBlocks);
  config.merged_res_blocks = checked_field(
      read_pod<int>(in), "merged_res_blocks", 0, kMaxBlocks);
  config.use_images = checked_flag(read_pod<int>(in), "use_images");
  config.image_channels = checked_field(read_pod<int>(in), "image_channels",
                                        1, 1024);
  for (int& ch : config.conv_channels) {
    ch = checked_field(read_pod<int>(in), "conv_channels", 1, kMaxWidth);
  }
  config.image_fc = checked_field(read_pod<int>(in), "image_fc", 1,
                                  kMaxWidth);
  config.fc6_width = checked_field(read_pod<int>(in), "fc6_width", 1,
                                   kMaxWidth);
  config.two_class = checked_flag(read_pod<int>(in), "two_class");
  config.seed = read_pod<std::uint64_t>(in);

  // On seekable streams, reject a stream that cannot possibly hold the
  // weight section before constructing the network — construction
  // allocates every weight tensor up front. The cheap pre-construction
  // bound is the first layer (fc1: vector_dim x hidden floats plus its
  // bias); the exact per-parameter sizes are re-checked against the
  // stream as they are read.
  const std::optional<std::uint64_t> remaining = remaining_bytes(in);
  if (remaining.has_value()) {
    const std::uint64_t fc1_bytes =
        (static_cast<std::uint64_t>(config.vector_dim) * config.hidden +
         config.hidden) *
        sizeof(float);
    if (*remaining < fc1_bytes) {
      throw ModelLoadError("model file truncated: header promises at least " +
                           std::to_string(fc1_bytes) + " weight bytes, " +
                           std::to_string(*remaining) + " present");
    }
  }

  AttackNet net(config);
  std::uint64_t consumed = 0;
  for (const Param& p : net.params()) {
    auto count = read_pod<std::uint64_t>(in);
    consumed += sizeof(count);
    if (count != p.value->size()) {
      throw ModelLoadError("model shape mismatch for " + p.name +
                           ": file has " + std::to_string(count) +
                           " floats, expected " +
                           std::to_string(p.value->size()));
    }
    consumed += count * sizeof(float);
    if (remaining.has_value() && consumed > *remaining) {
      throw ModelLoadError("model file truncated: " + p.name + " needs " +
                           std::to_string(consumed) + " weight bytes, " +
                           std::to_string(*remaining) + " present");
    }
    in.read(reinterpret_cast<char*>(p.value->data()),
            static_cast<std::streamsize>(count * sizeof(float)));
    if (!in) throw ModelLoadError("model file truncated in " + p.name);
  }
  return net;
}

}  // namespace sma::nn
