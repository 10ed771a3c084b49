// Kernel-core benchmark: times the six production GEMM entry points
// (nn/gemm.hpp) at the shapes the fast-profile network actually issues —
// one row per layer and pass (fwd / dW / dX) — plus the forward and
// backward of each distinct conv and dense layer. Shapes derive from
// ExperimentProfile::fast(): a query of max_candidates candidates runs
// max_candidates + 1 images through the conv trunk and max_candidates
// rows through the dense layers. A conv GEMM row is one tile's call
// (Conv2d::tile_images images). Every conv layer is timed twice: at one
// query's planes and at kWideQueries queries' planes stacked, the width
// batched inference runs. The non-GEMM stages of training get rows of
// their own: per conv at one query's planes, col2im (stride-1 convs that
// compute dX) and the masked-dy staging, both over the layer's tiles as
// Conv2d::backward runs them; and the fused training step
// (TrainStep::step: lane reduce + Adam) of the fast-profile network at
// its 8 lanes, on 1 and on 3 threads. Bit-identity of these kernels
// against the naive oracle is gated by tests/test_kernels.cpp,
// tests/test_optimizer.cpp and tests/test_train_step.cpp, not here.
// Every time is the fastest of ~0.2 s of individually timed calls (see
// time_call).
//
// Human-readable progress goes to stderr; stdout carries exactly one JSON
// object (scripts/bench.sh redirects it to BENCH_kernels.json).
//
// Flags:
//   --smoke   run every GEMM form, layer and stage once, no timing (CI
//             mode)
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "eval/experiment.hpp"
#include "nn/attack_net.hpp"
#include "nn/gemm.hpp"
#include "nn/layers.hpp"
#include "nn/train_step.hpp"
#include "runtime/thread_pool.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using sma::nn::Tensor;

std::vector<float> random_vec(std::size_t n, sma::util::Pcg32& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.next_gaussian());
  return v;
}

/// Seconds of the fastest call of `fn` over ~0.2 s of calls. Each call is
/// timed on its own and the minimum kept: on a shared host a mean absorbs
/// whatever else runs, while the fastest call is what the kernel costs.
template <typename Fn>
double time_call(Fn&& fn, int min_reps = 3) {
  fn();  // warmup
  sma::util::Timer budget;
  double best = 0.0;
  int reps = 0;
  do {
    sma::util::Timer call;
    fn();
    const double seconds = call.seconds();
    if (reps == 0 || seconds < best) best = seconds;
    ++reps;
  } while ((budget.seconds() < 0.2 || reps < min_reps) && reps < 10000);
  return best;
}

/// Queries stacked in the wide rows of the conv layer table (B=16).
constexpr int kWideQueries = 16;

/// One layer of the fast-profile network. Conv: `in`/`out` are channels
/// and `batch` images of `size` x `size` pixels; dense: `in`/`out` are
/// features and `batch` rows.
struct LayerSpec {
  std::string name;
  bool conv = false;
  int in = 0;
  int out = 0;
  int stride = 1;
  int batch = 0;
  int size = 0;
  bool first = false;  ///< reads the dataset input; skips its dX
};

/// The distinct layer shapes of the fast-profile network in network
/// order (mirroring AttackNet's topology): the first two convs of each
/// group — the third repeats the second's shape — then the dense layers.
std::vector<LayerSpec> fast_profile_layers() {
  const sma::eval::ExperimentProfile profile =
      sma::eval::ExperimentProfile::fast();
  const sma::nn::NetConfig& net = profile.net;
  const int rows = profile.dataset.candidates.max_candidates;
  const int images = rows + 1;  // n source images + the sink image
  std::vector<LayerSpec> layers;
  int channels = static_cast<int>(profile.dataset.images.pixel_sizes.size());
  int size = profile.dataset.images.size;
  for (int group = 0; group < 4; ++group) {
    for (int layer = 0; layer < 2; ++layer) {
      LayerSpec spec;
      spec.name = "conv" + std::to_string(group + 1) + "_" +
                  std::to_string(layer);
      spec.conv = true;
      spec.in = channels;
      spec.out = net.conv_channels[group];
      spec.stride = group > 0 && layer == 0 ? 3 : 1;
      spec.batch = images;
      spec.size = size;
      spec.first = group == 0 && layer == 0;
      layers.push_back(spec);
      size = (size + 2 - 3) / spec.stride + 1;
      channels = spec.out;
    }
  }
  const auto dense = [&layers](const char* name, int in, int out,
                               int batch) {
    LayerSpec spec;
    spec.name = name;
    spec.in = in;
    spec.out = out;
    spec.batch = batch;
    layers.push_back(spec);
  };
  dense("fc1", net.vector_dim, net.hidden, rows);
  dense("res.fc", net.hidden, net.hidden, rows);
  dense("fc3", net.conv_channels[3], net.image_fc, images);
  dense("fc4", net.image_fc, net.hidden, images);
  dense("fc5", 2 * net.hidden, net.hidden, rows);
  dense("fc6", net.hidden, net.fc6_width, rows);
  return layers;
}

std::string describe(const LayerSpec& spec) {
  std::ostringstream os;
  if (spec.conv) {
    os << spec.in << "->" << spec.out << " s" << spec.stride << " ["
       << spec.batch << "x" << spec.size << "x" << spec.size << "]";
  } else {
    os << spec.batch << "x" << spec.in << "->" << spec.out;
  }
  return os.str();
}

enum class Form {
  kForwardNnRowbias,
  kAccNt,
  kOvrTn,
  kForwardNt,
  kAccTn,
  kOvrNn
};

const char* form_name(Form form) {
  switch (form) {
    case Form::kForwardNnRowbias: return "gemm_forward_nn_rowbias";
    case Form::kAccNt: return "gemm_acc_nt";
    case Form::kOvrTn: return "gemm_ovr_tn";
    case Form::kForwardNt: return "gemm_forward_nt";
    case Form::kAccTn: return "gemm_acc_tn";
    case Form::kOvrNn: return "gemm_ovr_nn";
  }
  return "?";
}

/// One GEMM call exactly as a layer issues it.
struct GemmSpec {
  std::string layer;
  const char* pass;  ///< fwd | dW | dX
  Form form;
  int m, n, k;
  double gflops = 0.0;
};

std::vector<GemmSpec> gemm_specs(const std::vector<LayerSpec>& layers) {
  std::vector<GemmSpec> specs;
  for (const LayerSpec& l : layers) {
    if (l.conv) {
      const int out_size = (l.size + 2 - 3) / l.stride + 1;
      const int pixels = out_size * out_size;
      const int tile = sma::nn::Conv2d::tile_images(l.in, pixels);
      const int rows = (l.batch < tile ? l.batch : tile) * pixels;
      const int patch = l.in * 9;
      specs.push_back({l.name, "fwd", Form::kForwardNnRowbias, l.out, rows,
                       patch});
      specs.push_back({l.name, "dW", Form::kAccNt, l.out, patch, rows});
      if (!l.first) {
        specs.push_back({l.name, "dX", Form::kOvrTn, patch, rows, l.out});
      }
    } else {
      specs.push_back({l.name, "fwd", Form::kForwardNt, l.batch, l.out, l.in});
      specs.push_back({l.name, "dW", Form::kAccTn, l.out, l.in, l.batch});
      specs.push_back({l.name, "dX", Form::kOvrNn, l.batch, l.in, l.out});
    }
  }
  return specs;
}

/// Runs `spec` through its production entry point (with the LeakyReLU
/// epilogue and mask the layers use on forward); when `timed`, records
/// its GF/s.
void run_gemm(GemmSpec& spec, bool timed) {
  const int m = spec.m;
  const int n = spec.n;
  const int k = spec.k;
  sma::util::Pcg32 rng(0x9e3779b9u ^ m ^ (n << 8) ^ (k << 16));
  const std::vector<float> a =
      random_vec(static_cast<std::size_t>(m) * k, rng);
  const std::vector<float> b =
      random_vec(static_cast<std::size_t>(k) * n, rng);
  const std::vector<float> bias = random_vec(m > n ? m : n, rng);
  std::vector<float> c = random_vec(static_cast<std::size_t>(m) * n, rng);
  std::vector<std::uint8_t> mask(static_cast<std::size_t>(m) * n);
  sma::nn::GemmScratch scratch;
  const auto lrelu = sma::nn::Epilogue::kBiasLeakyReLU;
  const auto call = [&] {
    switch (spec.form) {
      case Form::kForwardNnRowbias:
        sma::nn::gemm_forward_nn_rowbias(m, n, k, a.data(), b.data(),
                                         bias.data(), c.data(), n, lrelu,
                                         0.01f, mask.data(), scratch);
        break;
      case Form::kAccNt:
        sma::nn::gemm_acc_nt(m, n, k, a.data(), b.data(), c.data(), scratch);
        break;
      case Form::kOvrTn:
        sma::nn::gemm_ovr_tn(m, n, k, a.data(), b.data(), c.data(), scratch);
        break;
      case Form::kForwardNt:
        sma::nn::gemm_forward_nt(m, n, k, a.data(), b.data(), bias.data(),
                                 c.data(), lrelu, 0.01f, mask.data(),
                                 scratch);
        break;
      case Form::kAccTn:
        sma::nn::gemm_acc_tn(m, n, k, a.data(), b.data(), c.data(), scratch);
        break;
      case Form::kOvrNn:
        sma::nn::gemm_ovr_nn(m, n, k, a.data(), b.data(), c.data(), scratch);
        break;
    }
  };
  call();
  if (timed) spec.gflops = 2.0 * m * n * k / time_call(call) / 1e9;
}

struct LayerResult {
  std::string name;
  std::string shape;
  double fwd_us = 0.0;
  double bwd_us = 0.0;
};

/// Forward and backward of one layer as the network runs it: LeakyReLU
/// fused, conv inputs channel-major except the first conv's (the dataset
/// seam), dy in the layout of the layer's output.
LayerResult run_layer(const LayerSpec& spec, bool timed) {
  LayerResult result{spec.name, describe(spec)};
  sma::util::Pcg32 data_rng(1234);
  sma::util::Pcg32 rng(77);
  const auto measure = [&](auto& layer, const Tensor& x) {
    const Tensor& y = layer.forward(x);
    Tensor dy = Tensor::randn(y.shape(), data_rng, 1.0);
    dy.set_layout(y.layout());
    layer.backward(dy);
    if (timed) {
      result.fwd_us = time_call([&] { layer.forward(x); }) * 1e6;
      result.bwd_us = time_call([&] { layer.backward(dy); }) * 1e6;
    }
  };
  if (spec.conv) {
    sma::nn::Conv2d layer(spec.in, spec.out, spec.stride, rng, spec.name,
                          sma::nn::Act::kLeakyReLU);
    layer.set_compute_input_grad(!spec.first);
    const Tensor x = sma::nn::to_layout(
        Tensor::randn({spec.batch, spec.in, spec.size, spec.size}, data_rng,
                      1.0),
        spec.first ? sma::nn::Layout::kRowMajor
                   : sma::nn::Layout::kChannelMajor);
    measure(layer, x);
  } else {
    sma::nn::Linear layer(spec.in, spec.out, rng, spec.name,
                          sma::nn::Act::kLeakyReLU);
    const Tensor x = Tensor::randn({spec.batch, spec.in}, data_rng, 1.0);
    measure(layer, x);
  }
  return result;
}

/// The non-GEMM backward stages of one conv layer at one query's planes.
struct StageResult {
  std::string name;
  std::string shape;
  bool col2im = false;  ///< a stride-1 conv that computes dX
  double col2im_us = 0.0;
  double mask_us = 0.0;
};

/// Times `spec`'s col2im and masked-dy staging over its tiles, with the
/// calls Conv2d::backward makes: per tile, apply_leaky_mask per output
/// channel from channel-major dy into the tile's staging, and
/// pack_cm_col2im from the tile's dcols into channel-major dx. The mask
/// is random 0/1 bytes.
StageResult run_stages(const LayerSpec& spec, bool timed) {
  StageResult result{spec.name, describe(spec)};
  result.col2im = spec.stride == 1 && !spec.first;
  const int ho = (spec.size + 2 - 3) / spec.stride + 1;
  const int hwo = ho * ho;
  const int n = spec.batch;
  const int rows = n * hwo;
  const int patch = spec.in * 9;
  const int tile = sma::nn::Conv2d::tile_images(spec.in, hwo);
  const int max_rows = std::min(n, tile) * hwo;
  sma::util::Pcg32 rng(0x51a6e5u ^ spec.in ^ (spec.size << 8));
  const std::vector<float> dy =
      random_vec(static_cast<std::size_t>(spec.out) * rows, rng);
  std::vector<std::uint8_t> mask(dy.size());
  for (std::uint8_t& m : mask) m = static_cast<std::uint8_t>(rng.next_below(2));
  std::vector<float> staged(static_cast<std::size_t>(spec.out) * max_rows);
  const std::vector<float> dcols =
      random_vec(static_cast<std::size_t>(patch) * max_rows, rng);
  std::vector<float> dx(static_cast<std::size_t>(n) * spec.in * spec.size *
                        spec.size);
  sma::nn::GemmScratch scratch;
  const auto stage_mask = [&] {
    for (int img0 = 0; img0 < n; img0 += tile) {
      const int tile_rows = (std::min(n, img0 + tile) - img0) * hwo;
      const std::size_t col0 = static_cast<std::size_t>(img0) * hwo;
      for (int o = 0; o < spec.out; ++o) {
        const std::size_t src = static_cast<std::size_t>(o) * rows + col0;
        sma::nn::apply_leaky_mask(
            dy.data() + src, mask.data() + src, 0.01f, tile_rows,
            staged.data() + static_cast<std::size_t>(o) * tile_rows);
      }
    }
  };
  const auto col2im = [&] {
    for (int img0 = 0; img0 < n; img0 += tile) {
      sma::nn::pack_cm_col2im(dcols.data(), sma::nn::Layout::kChannelMajor,
                              n, img0, std::min(n, img0 + tile), spec.in,
                              spec.size, spec.size, spec.stride, ho, ho,
                              dx.data(), scratch);
    }
  };
  stage_mask();
  if (result.col2im) col2im();
  if (timed) {
    result.mask_us = time_call(stage_mask) * 1e6;
    if (result.col2im) result.col2im_us = time_call(col2im) * 1e6;
  }
  return result;
}

/// One fused training step (TrainStep::step) of the fast-profile network
/// at its batch_size lanes.
struct StepResult {
  int threads = 1;
  int lanes = 0;
  std::size_t params = 0;
  double ms = 0.0;
};

/// Times TrainStep::step on `threads` threads: lane gradients are
/// refilled from one random draw before every call, untimed, so each
/// timed call reduces and applies the same gradients.
StepResult run_train_step(int threads, bool timed) {
  const sma::eval::ExperimentProfile profile =
      sma::eval::ExperimentProfile::fast();
  sma::nn::NetConfig config = profile.net;
  config.use_images = true;
  config.image_channels =
      static_cast<int>(profile.dataset.images.pixel_sizes.size());
  const int lanes = profile.train.batch_size;
  sma::nn::AttackNet master(config);
  std::vector<sma::nn::AttackNet> lane_nets;
  std::vector<std::vector<sma::nn::Param>> lane_params;
  for (int l = 0; l < lanes; ++l) lane_nets.push_back(master.clone_shared());
  for (sma::nn::AttackNet& net : lane_nets) lane_params.push_back(net.params());
  sma::nn::TrainStep engine(master.params(), profile.train.adam);
  engine.attach_lanes(lane_params);
  sma::util::Pcg32 rng(0x7e57u);
  std::vector<std::vector<float>> draws;
  for (const auto& params : lane_params) {
    for (const sma::nn::Param& p : params) {
      draws.push_back(random_vec(p.grad->size(), rng));
    }
  }
  const auto refill = [&] {
    std::size_t d = 0;
    for (const auto& params : lane_params) {
      for (const sma::nn::Param& p : params) {
        std::memcpy(p.grad->data(), draws[d].data(),
                    draws[d].size() * sizeof(float));
        ++d;
      }
    }
  };
  std::unique_ptr<sma::runtime::ThreadPool> pool =
      sma::runtime::Config{threads}.make_pool();
  StepResult result{threads, lanes, engine.optimizer().num_parameters()};
  refill();
  engine.step(lanes, pool.get());
  if (!timed) return result;
  sma::util::Timer budget;
  double best = 0.0;
  int reps = 0;
  do {
    refill();
    sma::util::Timer call;
    engine.step(lanes, pool.get());
    const double seconds = call.seconds();
    if (reps == 0 || seconds < best) best = seconds;
    ++reps;
  } while ((budget.seconds() < 0.2 || reps < 3) && reps < 10000);
  result.ms = best * 1e3;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  sma::util::set_log_level(sma::util::LogLevel::kWarn);
  sma::benchutil::init_observability();

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }
  const bool timed = !smoke;

  const std::vector<LayerSpec> layers = fast_profile_layers();
  std::vector<GemmSpec> gemms = gemm_specs(layers);
  for (GemmSpec& spec : gemms) {
    run_gemm(spec, timed);
    if (timed) {
      std::cerr << spec.layer << " " << spec.pass << ": "
                << form_name(spec.form) << " " << spec.m << "x" << spec.n
                << "x" << spec.k << " " << spec.gflops << " GF/s\n";
    }
  }
  // Layer table: every layer at one query, then the convs again at
  // kWideQueries queries.
  std::vector<LayerSpec> table = layers;
  for (const LayerSpec& spec : layers) {
    if (!spec.conv) continue;
    LayerSpec wide = spec;
    wide.batch *= kWideQueries;
    table.push_back(wide);
  }
  std::vector<LayerResult> layer_results;
  for (const LayerSpec& spec : table) {
    layer_results.push_back(run_layer(spec, timed));
    const LayerResult& r = layer_results.back();
    if (timed) {
      std::cerr << r.name << " (" << r.shape << "): fwd " << r.fwd_us
                << " us, bwd " << r.bwd_us << " us\n";
    }
  }

  // Training-step stages: every conv at one query's planes, then the
  // fused step at 1 and 3 threads.
  std::vector<StageResult> stages;
  for (const LayerSpec& spec : layers) {
    if (!spec.conv) continue;
    stages.push_back(run_stages(spec, timed));
    const StageResult& r = stages.back();
    if (timed) {
      std::cerr << r.name << " (" << r.shape << "): mask " << r.mask_us
                << " us";
      if (r.col2im) std::cerr << ", col2im " << r.col2im_us << " us";
      std::cerr << "\n";
    }
  }
  std::vector<StepResult> steps;
  for (int threads : {1, 3}) {
    steps.push_back(run_train_step(threads, timed));
    const StepResult& r = steps.back();
    if (timed) {
      std::cerr << "train_step (" << r.lanes << " lanes, " << r.params
                << " params, " << r.threads << " threads): " << r.ms
                << " ms\n";
    }
  }

  std::ostringstream json;
  json << "{\"bench\": \"kernels\", \"smoke\": " << (smoke ? "true" : "false")
       << ", \"gemm\": [";
  for (std::size_t i = 0; i < gemms.size(); ++i) {
    const GemmSpec& g = gemms[i];
    json << (i ? ", " : "") << "{\"layer\": \"" << g.layer
         << "\", \"pass\": \"" << g.pass << "\", \"form\": \""
         << form_name(g.form) << "\", \"m\": " << g.m << ", \"n\": " << g.n
         << ", \"k\": " << g.k << ", \"gflops\": " << g.gflops << "}";
  }
  json << "], \"layers\": [";
  for (std::size_t i = 0; i < layer_results.size(); ++i) {
    const LayerResult& r = layer_results[i];
    json << (i ? ", " : "") << "{\"layer\": \"" << r.name
         << "\", \"shape\": \"" << r.shape << "\", \"fwd_us\": " << r.fwd_us
         << ", \"bwd_us\": " << r.bwd_us << "}";
  }
  json << "], \"stages\": [";
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const StageResult& r = stages[i];
    json << (i ? ", " : "") << "{\"layer\": \"" << r.name
         << "\", \"shape\": \"" << r.shape << "\", \"mask_us\": " << r.mask_us;
    if (r.col2im) json << ", \"col2im_us\": " << r.col2im_us;
    json << "}";
  }
  json << "], \"train_step\": [";
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const StepResult& r = steps[i];
    json << (i ? ", " : "") << "{\"threads\": " << r.threads
         << ", \"lanes\": " << r.lanes << ", \"params\": " << r.params
         << ", \"train_step_ms\": " << r.ms << "}";
  }
  json << "]";
  sma::obs::RunReport report("kernels", 1);
  json << sma::benchutil::report_fragment(report) << "}";
  std::cout << json.str() << "\n";
  sma::benchutil::flush_trace();
  return 0;
}
