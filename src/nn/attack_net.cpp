#include "nn/attack_net.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <numeric>
#include <ostream>
#include <stdexcept>
#include <string_view>

#include "util/durable_io.hpp"

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
  if (vec.shape().size() != 2 || vec.dim(1) != config_.vector_dim ||
      vec.dim(0) == 0) {
    throw std::invalid_argument("bad vector input " + vec.shape_string());
  }
  const int n = vec.dim(0);
  if (config_.use_images &&
      (images.shape().size() != 4 || images.dim(0) != n + 1 ||
       images.dim(1) != config_.image_channels)) {
    throw std::invalid_argument(
        "forward takes one query: " + std::to_string(n) +
        " candidate rows need " + std::to_string(n + 1) +
        " image planes, got " + images.shape_string());
  }

  // The vector branch, the image trunk, then the head: the layer order
  // backward unwinds.
  const Tensor& v = vector_branch(vec);
  const Tensor* embeddings = nullptr;
  if (config_.use_images) {
    embeddings = &embed(images, 0, n + 1);  // [n + 1, h]
    source_rows_.resize(static_cast<std::size_t>(n));
    std::iota(source_rows_.begin(), source_rows_.end(), 0);
    sink_rows_.assign(static_cast<std::size_t>(n), n);
  }
  const Tensor& scores =
      head(v, embeddings, source_rows_.data(), sink_rows_.data());
  trainable_ = true;
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
/// The magic, twelve i32 fields and the u64 seed.
constexpr std::size_t kHeaderBytes = 64;

/// The header encode_net_config writes. Every field is range-checked
/// before it can reach tensor allocation: a multi-gigabyte "hidden width"
/// would otherwise surface as bad_alloc, or succeed and materialize
/// garbage tensors.
NetConfig decode_net_config(util::ByteReader& in) {
  if (in.u32("magic") != kMagic) {
    throw ModelLoadError("not an AttackNet model file");
  }
  const auto field = [&in](const char* name, int lo, int hi) {
    const auto value = static_cast<int>(in.u32(name));
    if (value < lo || value > hi) {
      throw ModelLoadError(
          "model header field " + std::string(name) + " = " +
          std::to_string(value) + " outside sane range [" +
          std::to_string(lo) + ", " + std::to_string(hi) + "]");
    }
    return value;
  };
  const auto flag = [&field](const char* name) {
    return field(name, 0, 1) == 1;
  };
  // Bounds: generous enough for any configuration this repo can train
  // (paper config: hidden 128, channels <= 128), tight enough that
  // weight_section_bytes cannot overflow (it stays below 2^57).
  constexpr int kMaxWidth = 1 << 20;
  constexpr int kMaxBlocks = 4096;
  NetConfig config;
  config.vector_dim = field("vector_dim", 1, kMaxWidth);
  config.hidden = field("hidden", 1, kMaxWidth);
  config.vector_res_blocks = field("vector_res_blocks", 0, kMaxBlocks);
  config.merged_res_blocks = field("merged_res_blocks", 0, kMaxBlocks);
  config.use_images = flag("use_images");
  config.image_channels = field("image_channels", 1, 1024);
  for (int& ch : config.conv_channels) {
    ch = field("conv_channels", 1, kMaxWidth);
  }
  config.image_fc = field("image_fc", 1, kMaxWidth);
  config.fc6_width = field("fc6_width", 1, kMaxWidth);
  config.two_class = flag("two_class");
  config.seed = in.u64("seed");
  in.expect_end();
  return config;
}

/// Up to `size` bytes of `in`, fewer when the stream ends first. The
/// buffer grows only as bytes arrive, so a header that promises more than
/// the stream holds costs what the stream holds.
std::string read_up_to(std::istream& in, std::uint64_t size) {
  constexpr std::uint64_t kChunk = std::uint64_t{1} << 20;
  std::string bytes;
  while (bytes.size() < size && in) {
    const std::size_t have = bytes.size();
    bytes.resize(have + std::min(kChunk, size - have));
    in.read(bytes.data() + have,
            static_cast<std::streamsize>(bytes.size() - have));
    bytes.resize(have + static_cast<std::size_t>(in.gcount()));
  }
  return bytes;
}

}  // namespace

std::string encode_net_config(const NetConfig& config) {
  const std::array<int, 4>& conv = config.conv_channels;
  const int fields[] = {config.vector_dim,        config.hidden,
                        config.vector_res_blocks, config.merged_res_blocks,
                        config.use_images,        config.image_channels,
                        conv[0], conv[1], conv[2], conv[3],
                        config.image_fc,          config.fc6_width,
                        config.two_class};
  util::ByteWriter out;
  out.u32(kMagic);
  for (int v : fields) out.u32(static_cast<std::uint32_t>(v));
  out.u64(config.seed);
  return out.take();
}

std::uint64_t weight_section_bytes(const NetConfig& config) {
  // The constructor's layers. Each Linear or Conv2d saves a weight and a
  // bias tensor, each as a u64 float count and its floats.
  std::uint64_t total = 0;
  const auto layer = [&total](std::uint64_t in, std::uint64_t out,
                              std::uint64_t kernel = 1) {
    total += 2 * sizeof(std::uint64_t) +
             (out * in * kernel + out) * sizeof(float);
  };
  const std::uint64_t h = config.hidden;
  layer(config.vector_dim, h);
  // Three h x h Linears per ResBlock, in both trunks.
  const int res_blocks = config.vector_res_blocks + config.merged_res_blocks;
  for (int i = 0; i < 3 * res_blocks; ++i) layer(h, h);
  if (config.use_images) {
    std::uint64_t in = config.image_channels;
    for (int ch : config.conv_channels) {
      for (int i = 0; i < 3; ++i, in = ch) layer(in, ch, 9);
    }
    layer(in, config.image_fc);
    layer(config.image_fc, h);
    layer(2 * h, h);
  }
  layer(config.use_images ? 2 * h : h, h);
  layer(h, config.fc6_width);
  layer(config.fc6_width, config.two_class ? 2 : 1);
  return total;
}

void write_param_values(util::ByteWriter& out,
                        const std::vector<Param>& params) {
  for (const Param& p : params) {
    out.u64(p.value->size())
        .bytes(p.value->data(), p.value->size() * sizeof(float));
  }
}

void read_param_values(util::ByteReader& in, std::vector<Param>& params) {
  // Validate the whole section — every size, and that nothing follows the
  // last tensor — before touching any tensor, so a bad section leaves the
  // model unchanged.
  std::vector<std::string_view> values(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Param& p = params[i];
    const std::uint64_t size = in.u64(p.name.c_str());
    if (size != p.value->size()) {
      in.fail("size mismatch for " + p.name + ": " + std::to_string(size) +
              " floats, the model has " + std::to_string(p.value->size()));
    }
    values[i] = in.bytes(p.value->size() * sizeof(float), p.name.c_str());
  }
  in.expect_end();
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (!values[i].empty()) {
      std::memcpy(params[i].value->data(), values[i].data(), values[i].size());
    }
  }
}

void AttackNet::save(std::ostream& out) {
  const std::string header = encode_net_config(config_);
  util::ByteWriter weights;
  weights.reserve(weight_section_bytes(config_));
  write_param_values(weights, params());
  const std::string body = weights.take();
  out.write(header.data(), static_cast<std::streamsize>(header.size()));
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  // A full disk or closed stream would otherwise return silently here,
  // leaving a truncated file that only load() can diagnose — much later.
  if (!out) {
    throw std::runtime_error(
        "AttackNet::save: writing the model failed (stream error or disk "
        "full)");
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
  try {
    const std::string header = read_up_to(in, kHeaderBytes);
    util::ByteReader header_in(header, "model header");
    const NetConfig config = decode_net_config(header_in);
    // Construction allocates every weight tensor, so the whole weight
    // section the header's network needs is read first: a stream that
    // holds less fails here, having cost only the bytes it held.
    const std::uint64_t need = weight_section_bytes(config);
    const std::string weights = read_up_to(in, need);
    if (weights.size() < need) {
      throw ModelLoadError("model file truncated: the header's network needs " +
                           std::to_string(need) + " weight bytes, " +
                           std::to_string(weights.size()) + " present");
    }
    AttackNet net(config);
    util::ByteReader weights_in(weights, "model weights");
    std::vector<Param> params = net.params();
    read_param_values(weights_in, params);
    return net;
  } catch (const util::FrameError& e) {
    throw ModelLoadError(e.what());
  }
}

}  // namespace sma::nn
