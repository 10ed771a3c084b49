#include "nn/optimizer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "nn_oracle.hpp"
#include "runtime/thread_pool.hpp"
#include "util/rng.hpp"

namespace sma::nn {
namespace {

TEST(Adam, MinimizesQuadratic) {
  // Minimize f(x) = (x - 3)^2 elementwise.
  Tensor x({4});
  Tensor g({4});
  x.fill(0.0f);
  AdamConfig config;
  config.lr = 0.1;
  Adam adam({{"x", &x, &g}}, config);
  for (int step = 0; step < 400; ++step) {
    for (int i = 0; i < 4; ++i) {
      g[i] = 2.0f * (x[i] - 3.0f);
    }
    adam.step();
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_NEAR(x[i], 3.0f, 0.05f);
  }
}

TEST(Adam, StepZerosGradients) {
  Tensor x({2});
  Tensor g({2});
  g.fill(1.0f);
  Adam adam({{"x", &x, &g}});
  adam.step();
  EXPECT_EQ(g[0], 0.0f);
  EXPECT_EQ(g[1], 0.0f);
}

TEST(Adam, ZeroGradWithoutUpdate) {
  Tensor x({2});
  x.fill(5.0f);
  Tensor g({2});
  g.fill(1.0f);
  Adam adam({{"x", &x, &g}});
  adam.zero_grad();
  EXPECT_EQ(g[0], 0.0f);
  EXPECT_EQ(x[0], 5.0f);  // no parameter change
}

TEST(Adam, LrDecaySchedule) {
  Tensor x({1});
  Tensor g({1});
  AdamConfig config;
  config.lr = 0.001;
  config.decay = 0.6;
  Adam adam({{"x", &x, &g}}, config);
  EXPECT_DOUBLE_EQ(adam.learning_rate(), 0.001);
  adam.decay_lr();
  EXPECT_DOUBLE_EQ(adam.learning_rate(), 0.0006);
  adam.decay_lr();
  EXPECT_NEAR(adam.learning_rate(), 0.00036, 1e-9);
}

TEST(Adam, FirstStepSizeIsLr) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  Tensor x({1});
  Tensor g({1});
  g[0] = 0.5f;
  AdamConfig config;
  config.lr = 0.01;
  Adam adam({{"x", &x, &g}}, config);
  adam.step();
  EXPECT_NEAR(x[0], -0.01f, 1e-4);
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(Adam, BlocksCoverEveryElementOnce) {
  const std::vector<std::vector<int>> shapes =
      test::oracle::adam_identity_shapes();
  std::vector<Tensor> values;
  std::vector<Tensor> grads;
  for (const auto& shape : shapes) {
    values.emplace_back(shape);
    grads.emplace_back(shape);
  }
  std::vector<Param> params;
  for (std::size_t i = 0; i < values.size(); ++i) {
    params.push_back({"p", &values[i], &grads[i]});
  }
  Adam adam(params);
  // Parameter order, ascending and contiguous within a parameter; small
  // tensors are one block, the large one four.
  std::size_t param = 0;
  std::size_t next = 0;
  std::vector<int> blocks_per_param(shapes.size(), 0);
  for (const Adam::Block& block : adam.blocks()) {
    if (block.param != param) {
      EXPECT_EQ(next, values[param].size()) << "param " << param;
      EXPECT_EQ(block.param, param + 1);
      param = block.param;
      next = 0;
    }
    EXPECT_EQ(block.begin, next);
    EXPECT_GT(block.end, block.begin);
    EXPECT_LE(block.end - block.begin, Adam::kBlockElems);
    next = block.end;
    ++blocks_per_param[block.param];
  }
  EXPECT_EQ(param, shapes.size() - 1);
  EXPECT_EQ(next, values.back().size());
  for (std::size_t i = 0; i + 1 < shapes.size(); ++i) {
    EXPECT_EQ(blocks_per_param[i], 1) << "param " << i;
  }
  EXPECT_EQ(blocks_per_param.back(), 4);
}

TEST(Adam, StepMatchesScalarReferenceBitForBit) {
  // The blocked vector update against the scalar per-parameter loop it
  // replaced, over every vector tail and a tensor of four blocks, six
  // steps with a learning-rate decay between, serially and on a pool.
  // Every third small tensor sees only tiny gradients, so its m and v
  // underflow to zero.
  const std::vector<std::vector<int>> shapes =
      test::oracle::adam_identity_shapes();
  runtime::ThreadPool pool(4);
  for (runtime::ThreadPool* p : {static_cast<runtime::ThreadPool*>(nullptr),
                                 &pool}) {
    SCOPED_TRACE(p == nullptr ? "serial" : "pool");
    util::Pcg32 init(31);
    std::vector<Tensor> values;
    for (const auto& shape : shapes) {
      values.push_back(Tensor::randn(shape, init, 0.5));
    }
    std::vector<Tensor> ref_values = values;
    std::vector<Tensor> grads;
    for (const auto& shape : shapes) grads.emplace_back(shape);
    std::vector<Tensor> ref_grads = grads;
    std::vector<Param> params;
    std::vector<Param> ref_params;
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      params.push_back({"p" + std::to_string(i), &values[i], &grads[i]});
      ref_params.push_back({"p" + std::to_string(i), &ref_values[i],
                            &ref_grads[i]});
    }
    AdamConfig config;
    config.lr = 0.01;
    Adam adam(params, config);
    test::oracle::Adam reference(ref_params, config);

    util::Pcg32 grad_rng(77);
    for (int step = 0; step < 6; ++step) {
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        const bool tiny = i + 1 < shapes.size() && i % 3 == 0;
        for (std::size_t j = 0; j < grads[i].size(); ++j) {
          grads[i][j] = test::oracle::adam_identity_grad(grad_rng, tiny);
          ref_grads[i][j] = grads[i][j];
        }
      }
      adam.step(p);
      reference.step();
      if (step == 2) {
        adam.decay_lr();
        reference.decay_lr();
      }
      for (std::size_t i = 0; i < shapes.size(); ++i) {
        EXPECT_TRUE(same_bytes(values[i], ref_values[i]))
            << "step " << step << " weight " << i;
        EXPECT_TRUE(same_bytes(grads[i], ref_grads[i]))
            << "step " << step << " grad " << i;
      }
      EXPECT_TRUE(adam.serialize() == reference.serialize())
          << "step " << step << " state";
    }
  }
}

TEST(Adam, CountsParameters) {
  Tensor a({3, 4});
  Tensor ga({3, 4});
  Tensor b({5});
  Tensor gb({5});
  Adam adam({{"a", &a, &ga}, {"b", &b, &gb}});
  EXPECT_EQ(adam.num_parameters(), 17u);
}

}  // namespace
}  // namespace sma::nn
