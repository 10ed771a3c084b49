#include "nn/attack_net.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "nn/losses.hpp"
#include "nn/optimizer.hpp"

namespace sma::nn {
namespace {

NetConfig tiny_config(bool use_images, bool two_class = false) {
  NetConfig config;
  config.hidden = 16;
  config.vector_res_blocks = 2;
  config.merged_res_blocks = 1;
  config.use_images = use_images;
  config.image_channels = 2;
  config.conv_channels = {4, 6, 8, 10};
  config.image_fc = 24;
  config.fc6_width = 8;
  config.two_class = two_class;
  return config;
}

QueryInput tiny_input(int n, bool use_images, std::uint64_t seed = 1) {
  util::Pcg32 rng(seed);
  QueryInput input;
  input.vec = Tensor::randn({n, 27}, rng, 1.0);
  if (use_images) {
    input.images = Tensor::randn({n + 1, 2, 15, 15}, rng, 0.3);
  }
  return input;
}

TEST(AttackNet, VectorOnlyForwardShape) {
  AttackNet net(tiny_config(false));
  Tensor scores = net.forward(tiny_input(7, false));
  EXPECT_EQ(scores.shape(), (std::vector<int>{7}));
}

TEST(AttackNet, WithImagesForwardShape) {
  AttackNet net(tiny_config(true));
  Tensor scores = net.forward(tiny_input(5, true));
  EXPECT_EQ(scores.shape(), (std::vector<int>{5}));
}

TEST(AttackNet, TwoClassForwardShape) {
  AttackNet net(tiny_config(true, true));
  Tensor scores = net.forward(tiny_input(5, true));
  EXPECT_EQ(scores.shape(), (std::vector<int>{5, 2}));
}

TEST(AttackNet, VariableBatchSizes) {
  AttackNet net(tiny_config(true));
  for (int n : {1, 3, 9}) {
    Tensor scores = net.forward(tiny_input(n, true));
    EXPECT_EQ(scores.dim(0), n);
  }
}

TEST(AttackNet, DeterministicForward) {
  AttackNet a(tiny_config(true));
  AttackNet b(tiny_config(true));
  Tensor sa = a.forward(tiny_input(4, true));
  Tensor sb = b.forward(tiny_input(4, true));
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_FLOAT_EQ(sa[i], sb[i]);
  }
}

TEST(AttackNet, EmbedRowsAreWidthInvariant) {
  // The fast net's image trunk over 1 to 70 images, read in place or
  // staged from a sub-range: each embedding row equals the image's solo
  // embedding bit for bit, so a pin embedded once in a wide chunk stands
  // in for its embedding inside any query.
  NetConfig config = NetConfig::fast();
  config.image_channels = 3;
  AttackNet net(config);
  constexpr int kMaxImages = 70;
  util::Pcg32 rng(31);
  const Tensor images = Tensor::randn({kMaxImages, 3, 15, 15}, rng, 0.5);
  const std::size_t h = static_cast<std::size_t>(config.hidden);
  std::vector<float> solo(kMaxImages * h);
  for (int i = 0; i < kMaxImages; ++i) {
    const Tensor& row = net.embed(images, i, i + 1);
    ASSERT_EQ(row.shape(), (std::vector<int>{1, config.hidden}));
    std::memcpy(solo.data() + i * h, row.data(), sizeof(float) * h);
  }
  const auto expect_rows = [&](const Tensor& rows, int lo, int hi) {
    ASSERT_EQ(rows.shape(), (std::vector<int>{hi - lo, config.hidden}));
    EXPECT_EQ(std::memcmp(rows.data(), solo.data() + lo * h,
                          sizeof(float) * (hi - lo) * h),
              0)
        << "images [" << lo << ", " << hi << ")";
  };
  for (int count = 1; count <= kMaxImages; ++count) {
    Tensor prefix({count, 3, 15, 15});
    std::memcpy(prefix.data(), images.data(), sizeof(float) * prefix.size());
    expect_rows(net.embed(prefix, 0, count), 0, count);  // in place
    expect_rows(net.embed(images, kMaxImages - count, kMaxImages),
                kMaxImages - count, kMaxImages);  // staged sub-range
  }
  EXPECT_THROW(net.embed(images, 5, 5), std::invalid_argument);
  EXPECT_THROW(net.embed(images, 0, kMaxImages + 1), std::invalid_argument);
  AttackNet vector_only(tiny_config(false));
  EXPECT_THROW(vector_only.embed(images, 0, 1), std::logic_error);
}

TEST(AttackNet, ScoreMatchesForwardAndRejectsBadRows) {
  // forward is embed + score: scoring the same rows against a table that
  // holds the query's embeddings in another order gives the same bytes.
  AttackNet net(tiny_config(true));
  const QueryInput input = tiny_input(4, true, 9);
  const Tensor& forward_scores = net.forward(input);
  const std::vector<float> want(forward_scores.data(),
                                forward_scores.data() + forward_scores.size());
  const Tensor embeddings = net.embed(input.images, 0, 5);
  // Table rows reversed: row 4 - i holds image i.
  Tensor table(embeddings.shape());
  const std::size_t h = static_cast<std::size_t>(embeddings.dim(1));
  for (int i = 0; i < 5; ++i) {
    std::memcpy(table.data() + (4 - i) * h, embeddings.data() + i * h,
                sizeof(float) * h);
  }
  const int sources[] = {4, 3, 2, 1};
  const int sinks[] = {0, 0, 0, 0};
  const Tensor& scores = net.score(input.vec, &table, sources, sinks);
  ASSERT_EQ(scores.size(), want.size());
  EXPECT_EQ(std::memcmp(scores.data(), want.data(), sizeof(float) * want.size()),
            0);
  // Bare embed and score passes are inference-only.
  EXPECT_THROW(net.backward(Tensor(scores.shape())), std::logic_error);
  net.forward(input);
  net.embed(input.images, 0, 5);
  EXPECT_THROW(net.backward(Tensor(scores.shape())), std::logic_error);
  const int out_of_table[] = {4, 3, 2, 5};
  EXPECT_THROW(net.score(input.vec, &table, out_of_table, sinks),
               std::invalid_argument);
  EXPECT_THROW(net.score(input.vec, nullptr, sources, sinks),
               std::invalid_argument);
}

TEST(AttackNet, RejectsBadInput) {
  AttackNet net(tiny_config(true));
  QueryInput bad = tiny_input(4, true);
  bad.vec = Tensor({4, 5});  // wrong feature width
  EXPECT_THROW(net.forward(bad), std::invalid_argument);
  QueryInput bad2 = tiny_input(4, true);
  bad2.images = Tensor({4, 2, 15, 15});  // n images instead of n+1
  EXPECT_THROW(net.forward(bad2), std::invalid_argument);
}

TEST(AttackNet, EndToEndGradientCheck) {
  // Numerical gradient through the whole network on a handful of inputs.
  NetConfig config = tiny_config(true);
  AttackNet net(config);
  QueryInput input = tiny_input(3, true, 7);
  const int target = 1;

  Tensor scores = net.forward(input);
  LossResult loss = softmax_regression_loss(scores, target);
  net.backward(loss.grad);

  // Gradient w.r.t. fc1 weights via finite differences.
  std::vector<Param> params = net.params();
  Param* fc1_w = nullptr;
  for (Param& p : params) {
    if (p.name == "fc1.w") fc1_w = &p;
  }
  ASSERT_NE(fc1_w, nullptr);

  const float eps = 1e-2f;
  util::Pcg32 pick(3);
  for (int trial = 0; trial < 6; ++trial) {
    std::size_t i =
        pick.next_below(static_cast<std::uint32_t>(fc1_w->value->size()));
    float saved = (*fc1_w->value)[i];
    (*fc1_w->value)[i] = saved + eps;
    double lp =
        softmax_regression_loss(net.forward(input), target).loss;
    (*fc1_w->value)[i] = saved - eps;
    double lm =
        softmax_regression_loss(net.forward(input), target).loss;
    (*fc1_w->value)[i] = saved;
    double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR((*fc1_w->grad)[i], numeric, 5e-2)
        << "fc1.w gradient mismatch at " << i;
  }
}

TEST(AttackNet, LearnsSyntheticRule) {
  // Teach the net "the candidate with the largest feature-0 wins" on
  // random data; it should fit quickly.
  NetConfig config = tiny_config(false);
  AttackNet net(config);
  AdamConfig adam_config;
  adam_config.lr = 0.005;
  Adam adam(net.params(), adam_config);

  util::Pcg32 rng(17);
  double last_loss = 0.0;
  for (int step = 0; step < 900; ++step) {
    const int n = 6;
    QueryInput input;
    input.vec = Tensor::randn({n, 27}, rng, 1.0);
    int target = 0;
    for (int j = 1; j < n; ++j) {
      if (input.vec[static_cast<std::size_t>(j) * 27] >
          input.vec[static_cast<std::size_t>(target) * 27]) {
        target = j;
      }
    }
    Tensor scores = net.forward(input);
    LossResult loss = softmax_regression_loss(scores, target);
    net.backward(loss.grad);
    adam.step();
    last_loss = loss.loss;
  }
  // Check accuracy on fresh samples.
  int correct = 0;
  const int trials = 50;
  for (int t = 0; t < trials; ++t) {
    const int n = 6;
    QueryInput input;
    input.vec = Tensor::randn({n, 27}, rng, 1.0);
    int target = 0;
    for (int j = 1; j < n; ++j) {
      if (input.vec[static_cast<std::size_t>(j) * 27] >
          input.vec[static_cast<std::size_t>(target) * 27]) {
        target = j;
      }
    }
    if (predict(net.forward(input)) == target) ++correct;
  }
  EXPECT_GT(correct, trials * 3 / 5)
      << "net failed to learn an easy rule; last loss " << last_loss;
}

TEST(AttackNet, SaveLoadRoundTrip) {
  AttackNet net(tiny_config(true));
  QueryInput input = tiny_input(4, true, 11);
  Tensor before = net.forward(input);

  std::stringstream buffer;
  net.save(buffer);
  AttackNet restored = AttackNet::load(buffer);
  Tensor after = restored.forward(input);

  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(before[i], after[i]);
  }
  EXPECT_EQ(restored.config().hidden, 16);
  EXPECT_TRUE(restored.config().use_images);
}

TEST(AttackNet, LoadRejectsGarbage) {
  std::stringstream buffer;
  buffer << "not a model";
  EXPECT_THROW(AttackNet::load(buffer), std::runtime_error);
}

TEST(AttackNet, LoadRejectsHostileHeaderFieldsBeforeAllocating) {
  // Fuzz the 64-byte header of a valid model: magic u32 at 0, then the
  // config ints (vector_dim @4, hidden @8, vector_res_blocks @12,
  // merged_res_blocks @16, use_images @20, image_channels @24,
  // conv_channels @28..40, image_fc @44, fc6_width @48, two_class @52),
  // then the u64 seed @56. Every out-of-range value must be rejected with
  // the typed ModelLoadError *before* tensor allocation — a hostile
  // header must never become a bad_alloc or a garbage network.
  AttackNet net(tiny_config(true));
  std::stringstream buffer;
  net.save(buffer);
  const std::string full = buffer.str();
  ASSERT_GE(full.size(), 64u);

  struct Patch {
    std::size_t offset;
    int value;
    const char* field;
  };
  const Patch patches[] = {
      {4, 0, "vector_dim zero"},
      {4, -27, "vector_dim negative"},
      {4, 0x7fffffff, "vector_dim huge"},
      {8, 0, "hidden zero"},
      {8, -16, "hidden negative"},
      {8, 0x7fffffff, "hidden huge"},
      {12, -1, "vector_res_blocks negative"},
      {12, 1 << 30, "vector_res_blocks huge"},
      {16, -2, "merged_res_blocks negative"},
      {20, 7, "use_images non-flag"},
      {24, 0, "image_channels zero"},
      {24, 1 << 20, "image_channels huge"},
      {28, -4, "conv_channels negative"},
      {32, 0x7fffffff, "conv_channels huge"},
      {44, 0, "image_fc zero"},
      {48, -8, "fc6_width negative"},
      {52, 3, "two_class non-flag"},
  };
  for (const Patch& patch : patches) {
    std::string damaged = full;
    std::memcpy(&damaged[patch.offset], &patch.value, sizeof(int));
    std::stringstream in(damaged);
    EXPECT_THROW(AttackNet::load(in), ModelLoadError) << patch.field;
  }

  // The unpatched stream still loads: the patches, not the fixture,
  // triggered the rejections.
  std::stringstream good(full);
  AttackNet restored = AttackNet::load(good);
  EXPECT_EQ(restored.config().hidden, 16);
}

TEST(AttackNet, LoadRejectsHeaderPromisingMoreWeightsThanStreamHolds) {
  // A header that is self-consistent but promises a bigger network than
  // the stream contains (e.g. a truncated download of a larger model)
  // must be rejected by the size-vs-remaining-bytes check, typed.
  AttackNet net(tiny_config(false));
  std::stringstream buffer;
  net.save(buffer);
  std::string bytes = buffer.str();
  const int big_hidden = 512;  // plausible but far beyond the stored weights
  std::memcpy(&bytes[8], &big_hidden, sizeof(int));
  std::stringstream in(bytes);
  EXPECT_THROW(AttackNet::load(in), ModelLoadError);
}

/// An input buffer over `bytes` that cannot seek, like a pipe: it serves
/// one byte per underflow, and pubseekoff fails.
class PipeBuf : public std::streambuf {
 public:
  explicit PipeBuf(std::string bytes) : bytes_(std::move(bytes)) {}

 protected:
  int_type underflow() override {
    if (pos_ >= bytes_.size()) return traits_type::eof();
    current_ = bytes_[pos_++];
    setg(&current_, &current_, &current_ + 1);
    return traits_type::to_int_type(current_);
  }

 private:
  std::string bytes_;
  std::size_t pos_ = 0;
  char current_ = 0;
};

TEST(AttackNet, LoadBoundsTheWholeWeightSectionBeforeBuilding) {
  // Self-consistent headers promising a network far larger than the
  // stream holds. Loading either one must throw ModelLoadError before any
  // layer is built — never std::bad_alloc (conv_channels[3] = 2^20 asks
  // for terabytes of conv4 weights) nor a ~100 MB network built only to
  // be thrown away (hidden 256 with 60 vector ResBlocks) — whether the
  // stream can seek or not.
  AttackNet net(tiny_config(true));
  std::stringstream buffer;
  net.save(buffer);
  const std::string full = buffer.str();

  struct Patch {
    std::size_t offset;
    int value;
  };
  struct Case {
    const char* what;
    std::vector<Patch> patches;
  };
  const Case cases[] = {
      {"conv_channels[3] = 2^20", {{40, 1 << 20}}},
      {"hidden 256, 60 vector ResBlocks", {{8, 256}, {12, 60}}},
  };
  for (const Case& c : cases) {
    std::string damaged = full;
    for (const Patch& patch : c.patches) {
      std::memcpy(&damaged[patch.offset], &patch.value, sizeof(int));
    }
    std::stringstream seekable(damaged);
    EXPECT_THROW(AttackNet::load(seekable), ModelLoadError) << c.what;

    PipeBuf pipe(damaged);
    ASSERT_EQ(pipe.pubseekoff(0, std::ios::cur, std::ios::in),
              std::streambuf::pos_type(-1));
    std::istream unseekable(&pipe);
    EXPECT_THROW(AttackNet::load(unseekable), ModelLoadError)
        << c.what << " (unseekable)";
  }

  // The unpatched model loads from the pipe too.
  PipeBuf pipe(full);
  std::istream unseekable(&pipe);
  EXPECT_EQ(AttackNet::load(unseekable).config().hidden, 16);
}

TEST(AttackNet, WeightSectionBytesMatchWhatANetSaves) {
  // The length load reads before it builds a net equals what a built net
  // saves after its header, for every shape of network.
  NetConfig vector_only = NetConfig::fast();
  vector_only.use_images = false;
  NetConfig two_class = NetConfig::fast();
  two_class.two_class = true;
  const std::pair<const char*, NetConfig> configs[] = {
      {"fast", NetConfig::fast()},
      {"paper", NetConfig::paper()},
      {"vector-only", vector_only},
      {"two-class", two_class},
  };
  for (const auto& [name, config] : configs) {
    AttackNet net(config);
    std::ostringstream out;
    net.save(out);
    const std::string header = encode_net_config(config);
    ASSERT_EQ(header.size(), 64u) << name;
    EXPECT_EQ(out.str().substr(0, header.size()), header) << name;
    EXPECT_EQ(out.str().size() - header.size(), weight_section_bytes(config))
        << name;
  }
}

TEST(AttackNet, LoadTruncationThrowsTypedErrorAtEveryHeaderCut) {
  // Denser sweep than LoadRejectsTruncatedBuffer, asserting the *typed*
  // error: every cut inside the header and the early weight section.
  AttackNet net(tiny_config(false));
  std::stringstream buffer;
  net.save(buffer);
  const std::string full = buffer.str();
  for (std::size_t cut = 0; cut < 96 && cut < full.size(); ++cut) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_THROW(AttackNet::load(truncated), ModelLoadError)
        << "cut at byte " << cut;
  }
}

TEST(AttackNet, LoadRejectsTruncatedBuffer) {
  // The failure mode a silent partial save used to produce: a file cut
  // off at an arbitrary byte. load() must throw at every cut point, never
  // return a half-initialized network.
  AttackNet net(tiny_config(true));
  std::stringstream buffer;
  net.save(buffer);
  const std::string full = buffer.str();
  ASSERT_GT(full.size(), 64u);

  for (std::size_t cut :
       {full.size() / 7, full.size() / 2, full.size() - 1}) {
    std::stringstream truncated(full.substr(0, cut));
    EXPECT_THROW(AttackNet::load(truncated), std::runtime_error)
        << "cut at byte " << cut << " of " << full.size();
  }
}

namespace {

/// An output buffer that accepts only `capacity` bytes — a stand-in for a
/// full disk or closed pipe mid-save.
class CappedBuf : public std::streambuf {
 public:
  explicit CappedBuf(std::size_t capacity) : capacity_(capacity) {}

 protected:
  int_type overflow(int_type ch) override {
    if (written_ >= capacity_) return traits_type::eof();
    ++written_;
    return ch;
  }

 private:
  std::size_t capacity_;
  std::size_t written_ = 0;
};

}  // namespace

TEST(AttackNet, SaveThrowsWhenStreamFailsMidWrite) {
  AttackNet net(tiny_config(false));

  // Already-failed stream: the header write must be detected.
  std::stringstream dead;
  dead.setstate(std::ios::badbit);
  EXPECT_THROW(net.save(dead), std::runtime_error);

  // Stream that fails partway through the weights: previously save()
  // returned silently, leaving a truncated model file.
  CappedBuf capped(256);
  std::ostream out(&capped);
  EXPECT_THROW(net.save(out), std::runtime_error);
}

TEST(AttackNet, SaveLoadRoundTripAfterFailedAttempt) {
  // A failed save must not corrupt the net: a subsequent save to a good
  // stream round-trips.
  AttackNet net(tiny_config(false));
  CappedBuf capped(64);
  std::ostream bad(&capped);
  EXPECT_THROW(net.save(bad), std::runtime_error);

  std::stringstream good;
  net.save(good);
  AttackNet restored = AttackNet::load(good);
  QueryInput input = tiny_input(3, false, 21);
  Tensor a = net.forward(input);
  Tensor b = restored.forward(input);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(AttackNet, ParameterCountPaperConfigIsLarge) {
  AttackNet net(NetConfig::paper());
  // fc trunks alone: fc1 + 12 + 9 fc2 layers of 128x128 > 300k params.
  EXPECT_GT(net.num_parameters(), 500000u);
}

}  // namespace
}  // namespace sma::nn
