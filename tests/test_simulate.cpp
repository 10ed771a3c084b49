#include <gtest/gtest.h>

#include "layout/def_io.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/generator.hpp"
#include "netlist_support.hpp"
#include "test_support.hpp"

namespace sma::netlist {
namespace {

using test::random_equivalence;
using test::Simulator;
using test::to_bench;

TEST(Simulator, C17TruthSamples) {
  Netlist nl = parse_bench_string(test::kC17Bench, "c17", &test::library());
  Simulator sim(&nl);
  ASSERT_EQ(sim.num_inputs(), 5);
  ASSERT_EQ(sim.num_outputs(), 2);
  // c17: out22 = NAND(G10, G16), out23 = NAND(G16, G19) with
  // G10=NAND(1,3), G11=NAND(3,6), G16=NAND(2,G11), G19=NAND(G11,7).
  // All-zero inputs: G10=1, G11=1, G16=1, G19=1 -> 22=0, 23=0.
  std::vector<bool> out = sim.evaluate({false, false, false, false, false});
  EXPECT_FALSE(out[0]);
  EXPECT_FALSE(out[1]);
  // inputs 1=1, 3=1 -> G10=0 -> 22=1 regardless of G16.
  out = sim.evaluate({true, false, true, false, false});
  EXPECT_TRUE(out[0]);
}

TEST(Simulator, GateFunctions) {
  // One gate of each function, checked against its Boolean definition.
  struct Case {
    const char* text;
    std::vector<bool> in;
    bool expected;
  };
  const Case cases[] = {
      {"INPUT(a)\nOUTPUT(z)\nz = NOT(a)\n", {true}, false},
      {"INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n", {true, true}, true},
      {"INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NAND(a, b)\n", {true, true}, false},
      {"INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = OR(a, b)\n", {false, false}, false},
      {"INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = NOR(a, b)\n", {false, false}, true},
      {"INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = XOR(a, b)\n", {true, false}, true},
      {"INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = XNOR(a, b)\n", {true, false}, false},
  };
  for (const Case& c : cases) {
    Netlist nl = parse_bench_string(c.text, "g", &test::library());
    Simulator sim(&nl);
    EXPECT_EQ(sim.evaluate(c.in)[0], c.expected) << c.text;
  }
}

TEST(Simulator, DffDelaysByOneCycle) {
  std::string text = "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n";
  Netlist nl = parse_bench_string(text, "dff", &test::library());
  Simulator sim(&nl);
  EXPECT_FALSE(sim.step({true})[0]);   // state was 0
  EXPECT_TRUE(sim.step({false})[0]);   // captured the 1
  EXPECT_FALSE(sim.step({false})[0]);
  sim.reset();
  EXPECT_FALSE(sim.step({true})[0]);
}

TEST(Simulator, WideGateDecompositionPreservesFunction) {
  // 9-input NAND decomposed into a tree must still be a 9-input NAND.
  std::string wide;
  std::string args;
  for (int i = 0; i < 9; ++i) {
    wide += "INPUT(i" + std::to_string(i) + ")\n";
    args += (i ? ", i" : "i") + std::to_string(i);
  }
  wide += "OUTPUT(z)\nz = NAND(" + args + ")\n";
  Netlist nl = parse_bench_string(wide, "wide", &test::library());
  Simulator sim(&nl);
  std::vector<bool> all_ones(9, true);
  EXPECT_FALSE(sim.evaluate(all_ones)[0]);
  for (int i = 0; i < 9; ++i) {
    std::vector<bool> in(9, true);
    in[i] = false;
    EXPECT_TRUE(sim.evaluate(in)[0]) << "bit " << i;
  }
}

TEST(Simulator, BenchRoundTripEquivalence) {
  Netlist nl = parse_bench_string(test::kC17Bench, "c17", &test::library());
  Netlist rt =
      parse_bench_string(to_bench(nl), "c17rt", &test::library());
  util::Pcg32 rng(3);
  EXPECT_TRUE(random_equivalence(nl, rt, 64, rng));
}

TEST(Simulator, GeneratedNetlistsAreSimulatable) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    GeneratorConfig config;
    config.num_gates = 300;
    config.seq_fraction = 0.1;
    config.seed = seed;
    Netlist nl = generate_netlist(config, "sim", &test::library());
    Simulator sim(&nl);
    util::Pcg32 rng(seed);
    for (int t = 0; t < 8; ++t) {
      std::vector<bool> in(sim.num_inputs());
      for (std::size_t i = 0; i < in.size(); ++i) in[i] = rng.next_bool(0.5);
      EXPECT_EQ(sim.step(in).size(),
                static_cast<std::size_t>(sim.num_outputs()));
    }
  }
}

TEST(Simulator, DefRoundTripPreservesFunction) {
  layout::Design design = test::small_routed_design(120, 4);
  layout::Design imported =
      layout::read_def_string(layout::to_def_string(design),
                              &test::library());
  util::Pcg32 rng(9);
  EXPECT_TRUE(
      random_equivalence(*design.netlist, *imported.netlist, 32, rng));
}

TEST(Simulator, InputWidthChecked) {
  Netlist nl = parse_bench_string(test::kC17Bench, "c17", &test::library());
  Simulator sim(&nl);
  EXPECT_THROW(sim.evaluate({true}), std::invalid_argument);
}

TEST(RandomEquivalence, DetectsDifferentCircuits) {
  std::string a = "INPUT(x)\nINPUT(y)\nOUTPUT(z)\nz = AND(x, y)\n";
  std::string b = "INPUT(x)\nINPUT(y)\nOUTPUT(z)\nz = OR(x, y)\n";
  Netlist na = parse_bench_string(a, "a", &test::library());
  Netlist nb = parse_bench_string(b, "b", &test::library());
  util::Pcg32 rng(5);
  EXPECT_FALSE(random_equivalence(na, nb, 64, rng));
}

}  // namespace
}  // namespace sma::netlist
