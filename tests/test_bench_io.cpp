#include "netlist/bench_io.hpp"

#include <gtest/gtest.h>

#include <typeinfo>

#include "netlist/simulate.hpp"
#include "netlist/stats.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace sma::netlist {
namespace {

TEST(BenchIo, ParsesC17) {
  Netlist nl = parse_bench_string(test::kC17Bench, "c17", &test::library());
  EXPECT_EQ(nl.name(), "c17");
  EXPECT_EQ(nl.num_cells(), 6);  // six NAND2 gates
  EXPECT_EQ(nl.num_ports(), 7);  // 5 inputs + 2 outputs
  EXPECT_TRUE(nl.validate().empty());
  for (CellId c = 0; c < nl.num_cells(); ++c) {
    EXPECT_EQ(nl.lib_cell_of(c).function, tech::Function::kNand);
  }
}

TEST(BenchIo, C17RoundTrip) {
  Netlist nl = parse_bench_string(test::kC17Bench, "c17", &test::library());
  std::string round = to_bench(nl);
  Netlist nl2 = parse_bench_string(round, "c17rt", &test::library());
  EXPECT_EQ(nl2.num_cells(), nl.num_cells());
  EXPECT_EQ(nl2.num_ports(), nl.num_ports());
  EXPECT_EQ(nl2.num_nets(), nl.num_nets());
  EXPECT_TRUE(nl2.validate().empty());
}

TEST(BenchIo, DecomposesWideGates) {
  const char* text = R"(
INPUT(a) INPUT(b)
)";
  (void)text;
  std::string wide = "INPUT(i0)\n";
  std::string args = "i0";
  for (int i = 1; i < 9; ++i) {
    wide += "INPUT(i" + std::to_string(i) + ")\n";
    args += ", i" + std::to_string(i);
  }
  wide += "OUTPUT(z)\n";
  wide += "z = NAND(" + args + ")\n";
  Netlist nl = parse_bench_string(wide, "wide", &test::library());
  EXPECT_TRUE(nl.validate().empty());
  // 9-input NAND needs at least 3 gates after decomposition.
  EXPECT_GE(nl.num_cells(), 3);
  // The output net must be driven by an inverting gate (NAND).
  NetId z = *nl.find_net("z");
  ASSERT_FALSE(nl.net(z).driver.is_port());
  EXPECT_EQ(nl.lib_cell_of(nl.net(z).driver.id).function,
            tech::Function::kNand);
}

TEST(BenchIo, DecomposesWideXorAsChain) {
  std::string text = "INPUT(a)\nINPUT(b)\nINPUT(c)\nINPUT(d)\nOUTPUT(z)\n";
  text += "z = XOR(a, b, c, d)\n";
  Netlist nl = parse_bench_string(text, "xor4", &test::library());
  EXPECT_TRUE(nl.validate().empty());
  EXPECT_EQ(nl.num_cells(), 3);  // xor chain of 3 two-input gates
}

TEST(BenchIo, SingleInputAndBecomesBuffer) {
  std::string text = "INPUT(a)\nOUTPUT(z)\nz = AND(a)\n";
  Netlist nl = parse_bench_string(text, "and1", &test::library());
  ASSERT_EQ(nl.num_cells(), 1);
  EXPECT_EQ(nl.lib_cell_of(0).function, tech::Function::kBuf);
}

TEST(BenchIo, SingleInputNandBecomesInverter) {
  std::string text = "INPUT(a)\nOUTPUT(z)\nz = NAND(a)\n";
  Netlist nl = parse_bench_string(text, "nand1", &test::library());
  ASSERT_EQ(nl.num_cells(), 1);
  EXPECT_EQ(nl.lib_cell_of(0).function, tech::Function::kInv);
}

TEST(BenchIo, ParsesDff) {
  std::string text = "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n";
  Netlist nl = parse_bench_string(text, "dff", &test::library());
  ASSERT_EQ(nl.num_cells(), 1);
  EXPECT_EQ(nl.lib_cell_of(0).function, tech::Function::kDff);
}

TEST(BenchIo, CommentsAndBlankLinesIgnored) {
  std::string text =
      "# header\n\nINPUT(a)  # inline comment\nOUTPUT(z)\nz = NOT(a)\n";
  Netlist nl = parse_bench_string(text, "c", &test::library());
  EXPECT_EQ(nl.num_cells(), 1);
}

TEST(BenchIo, ErrorsOnUnknownGate) {
  std::string text = "INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n";
  EXPECT_THROW(parse_bench_string(text, "bad", &test::library()),
               std::runtime_error);
}

TEST(BenchIo, ErrorsOnUndefinedOutput) {
  std::string text = "INPUT(a)\nOUTPUT(zz)\nz = NOT(a)\n";
  EXPECT_THROW(parse_bench_string(text, "bad", &test::library()),
               std::runtime_error);
}

TEST(BenchIo, ErrorsOnMalformedLine) {
  EXPECT_THROW(
      parse_bench_string("INPUT a\n", "bad", &test::library()),
      std::runtime_error);
  EXPECT_THROW(
      parse_bench_string("z = NAND(a\n", "bad", &test::library()),
      std::runtime_error);
}

TEST(BenchIo, HostileInputParsesOrThrowsParserError) {
  // Every input must either parse or throw the parser's own error, exactly
  // std::runtime_error: not Netlist's std::logic_error for a net driven
  // twice, nor its std::invalid_argument for a port name used twice.
  // Returns whether `text` was rejected.
  auto rejects = [](const std::string& text) {
    SCOPED_TRACE(text);
    try {
      parse_bench_string(text, "hostile", &test::library());
    } catch (const std::exception& e) {
      EXPECT_TRUE(typeid(e) == typeid(std::runtime_error))
          << typeid(e).name() << ": " << e.what();
      return true;
    }
    return false;
  };
  const std::string c17 = test::kC17Bench;
  for (std::size_t cut = 0; cut <= c17.size(); ++cut) {
    rejects(c17.substr(0, cut));
  }

  const std::string header = "INPUT(a)\nINPUT(b)\nOUTPUT(z)\n";
  // Signals named like the parser's own nets parse, and compute what the
  // same file computes with that signal renamed: `_dec0` like a
  // decomposition temporary of the six-input AND, `z_po` like the port of
  // OUTPUT(z).
  struct Renamed {
    std::string text;
    std::string renamed;
  };
  const Renamed own_names[] = {
      {header + "INPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(_dec0)\n" +
           "z = AND(a, b, c, d, e, _dec0)\n",
       header + "INPUT(c)\nINPUT(d)\nINPUT(e)\nINPUT(f)\n" +
           "z = AND(a, b, c, d, e, f)\n"},
      {header + "INPUT(z_po)\nz = AND(a, b, z_po)\n",
       header + "INPUT(y)\nz = AND(a, b, y)\n"},
  };
  for (const Renamed& pair : own_names) {
    if (rejects(pair.text)) {
      ADD_FAILURE() << "rejected a legal file:\n" << pair.text;
      continue;
    }
    const Netlist got = parse_bench_string(pair.text, "own", &test::library());
    const Netlist want =
        parse_bench_string(pair.renamed, "renamed", &test::library());
    EXPECT_TRUE(got.validate().empty()) << pair.text;
    util::Pcg32 rng(17);
    EXPECT_TRUE(random_equivalence(got, want, 64, rng)) << pair.text;
  }
  for (const std::string& text : {
           header + "z = NOT(a)\nz = BUF(b)\n",   // gate defined twice
           header + "z = NOT(a)\na = NOT(b)\n",   // INPUT redefined as a gate
           header + "z = NOT(a)\nINPUT(z)\n",     // gate redefined as INPUT
           header + "INPUT(a)\nz = NOT(a)\n",     // repeated INPUT
           header + "OUTPUT(z)\nz = NOT(a)\n",    // repeated OUTPUT
           header + "INPUT()\nz = NOT(a)\n",      // empty INPUT name
           header + "OUTPUT()\nz = NOT(a)\n",     // empty OUTPUT name
           header + " = NOT(a)\nz = NOT(a)\n",    // empty gate output
           header + "z = AND(a, )\n",             // empty gate input
           header + "z = AND(a, c)\n",            // undefined gate input
           header + "z = DFF(a, b)\n",            // no library cell
       }) {
    EXPECT_TRUE(rejects(text)) << text;
  }
}

TEST(BenchIo, C17LevelizationDepth) {
  Netlist nl = parse_bench_string(test::kC17Bench, "c17", &test::library());
  Levelization lev = levelize(nl);
  EXPECT_FALSE(lev.has_combinational_loop);
  EXPECT_EQ(lev.max_level, 2);  // c17 is 3 NAND levels deep (0, 1, 2)
}

}  // namespace
}  // namespace sma::netlist
