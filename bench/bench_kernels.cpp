// Kernel-core benchmark: times the six production GEMM entry points
// (nn/gemm.hpp) at the shapes the fast-profile network actually issues —
// one row per layer and pass (fwd / dW / dX) — plus the forward and
// backward of each distinct conv and dense layer. Shapes derive from
// ExperimentProfile::fast(): a query of max_candidates candidates runs
// max_candidates + 1 images through the conv trunk and max_candidates
// rows through the dense layers. A conv GEMM row is one tile's call
// (Conv2d::tile_images images). Every conv layer is timed twice: at one
// query's planes and at kWideQueries queries' planes stacked, the width
// batched inference runs. Bit-identity of these kernels against the
// naive oracle is gated by tests/test_kernels.cpp, not here. Every time is
// the fastest of ~0.2 s of individually timed calls (see time_call).
//
// Human-readable progress goes to stderr; stdout carries exactly one JSON
// object (scripts/bench.sh redirects it to BENCH_kernels.json).
//
// Flags:
//   --smoke   run every GEMM form and layer once, no timing (CI mode)
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "eval/experiment.hpp"
#include "nn/gemm.hpp"
#include "nn/layers.hpp"
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
  json << "]";
  sma::obs::RunReport report("kernels", 1);
  json << sma::benchutil::report_fragment(report) << "}";
  std::cout << json.str() << "\n";
  sma::benchutil::flush_trace();
  return 0;
}
