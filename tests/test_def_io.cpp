#include "layout/def_io.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <exception>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "split/split_design.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace sma::layout {
namespace {

TEST(DefIo, RoundTripPreservesEverything) {
  Design original = test::small_routed_design(60, 3);
  std::string text = to_def_string(original);
  Design imported = read_def_string(text, &test::library());

  const netlist::Netlist& a = *original.netlist;
  const netlist::Netlist& b = *imported.netlist;
  ASSERT_EQ(a.num_cells(), b.num_cells());
  ASSERT_EQ(a.num_nets(), b.num_nets());
  ASSERT_EQ(a.num_ports(), b.num_ports());
  EXPECT_TRUE(b.validate().empty());

  for (netlist::CellId c = 0; c < a.num_cells(); ++c) {
    EXPECT_EQ(a.cell(c).name, b.cell(c).name);
    EXPECT_EQ(a.cell(c).lib_cell, b.cell(c).lib_cell);
    EXPECT_EQ(original.placement->cell_origin(c),
              imported.placement->cell_origin(c));
  }
  for (netlist::NetId n = 0; n < a.num_nets(); ++n) {
    EXPECT_EQ(a.net(n).name, b.net(n).name);
    EXPECT_EQ(a.net(n).sinks.size(), b.net(n).sinks.size());
    EXPECT_EQ(original.route_of(n).segments, imported.route_of(n).segments);
    EXPECT_EQ(original.route_of(n).vias, imported.route_of(n).vias);
  }
  EXPECT_EQ(original.routing.total_wirelength,
            imported.routing.total_wirelength);
}

TEST(DefIo, SecondSerializationIsIdentical) {
  Design original = test::small_routed_design(40, 9);
  std::string text1 = to_def_string(original);
  Design imported = read_def_string(text1, &test::library());
  std::string text2 = to_def_string(imported);
  EXPECT_EQ(text1, text2);
}

TEST(DefIo, SplitOnImportedDesignMatchesOriginal) {
  Design original = test::small_routed_design(60, 3);
  std::string text = to_def_string(original);
  Design imported = read_def_string(text, &test::library());

  split::SplitDesign split_a(&original, 3);
  split::SplitDesign split_b(&imported, 3);
  EXPECT_EQ(split_a.fragments().size(), split_b.fragments().size());
  EXPECT_EQ(split_a.sink_fragments().size(), split_b.sink_fragments().size());
  EXPECT_EQ(split_a.source_fragments().size(),
            split_b.source_fragments().size());
  EXPECT_EQ(split_a.virtual_pins().size(), split_b.virtual_pins().size());
}

TEST(DefIo, RejectsMalformedInput) {
  EXPECT_THROW(read_def_string("GARBAGE", &test::library()),
               std::runtime_error);
  EXPECT_THROW(read_def_string("DESIGN x\nDIEAREA 0 0", &test::library()),
               std::runtime_error);
  EXPECT_THROW(read_def_string("", &test::library()), std::runtime_error);
  // Header counts are checked, never trusted for pre-sizing: a negative
  // count and one that overstates the file both end in the parser's own
  // error instead of std::length_error or std::bad_alloc.
  const std::string header =
      "DESIGN x\nDIEAREA 0 0 100 100\nROWS 1 4 1400 190\nGCELL 700\n"
      "COMPONENTS 0\nPINS 0\n";
  EXPECT_THROW(read_def_string(header + "NETS -1\nEND\n", &test::library()),
               std::runtime_error);
  EXPECT_THROW(read_def_string(header + "NETS 2000000000\n", &test::library()),
               std::runtime_error);
  EXPECT_THROW(read_def_string("DESIGN x\nDIEAREA 0 0 100 100\n"
                               "ROWS 1 4 1400 190\nGCELL 700\n"
                               "COMPONENTS 2000000000\n",
                               &test::library()),
               std::runtime_error);
  // Hostile grid dimensions end in the parser's own error, not in
  // RoutingGrid's std::invalid_argument (non-positive gcell, empty die),
  // a 4e9-gcell axis truncated through int into a 1x1 grid, or
  // std::bad_alloc (a 4e7 x 4e7 grid).
  auto with_grid = [](const std::string& die, const std::string& gcell) {
    return "DESIGN x\nDIEAREA " + die + "\nROWS 1 4 1400 190\nGCELL " +
           gcell + "\nCOMPONENTS 0\nPINS 0\nNETS 0\nEND\n";
  };
  EXPECT_NO_THROW(read_def_string(with_grid("0 0 100 100", "700"),
                                  &test::library()));
  for (const auto& [die, gcell] :
       std::vector<std::pair<std::string, std::string>>{
           {"0 0 100 100", "0"},
           {"0 0 100 100", "-5"},
           {"1000 1000 0 0", "700"},
           {"0 0 4000000000 4000000000", "1"},
           {"0 0 400000000 400000000", "10"}}) {
    SCOPED_TRACE("DIEAREA " + die + " GCELL " + gcell);
    EXPECT_THROW(read_def_string(with_grid(die, gcell), &test::library()),
                 std::runtime_error);
  }
}

/// Checks what an accepted import promises: every coordinate inside the
/// routing grid's area, layers and cuts in range, a design total equal to
/// the sum of its nets, and a clean split at M1 and M3.
void expect_sane_import(const Design& design) {
  const util::Rect& die = design.placement->floorplan().die;
  const route::RoutingGrid& grid = *design.grid;
  const util::Rect area{die.lo, {die.lo.x + grid.nx() * grid.gcell_size(),
                                 die.lo.y + grid.ny() * grid.gcell_size()}};
  const int layers = design.stack->num_layers();
  for (netlist::CellId c = 0; c < design.netlist->num_cells(); ++c) {
    ASSERT_TRUE(area.contains(design.placement->cell_origin(c))) << c;
  }
  std::int64_t total = 0;
  for (const route::NetRoute& route : design.routing.routes) {
    for (const route::RouteSegment& s : route.segments) {
      ASSERT_GE(s.layer, 1);
      ASSERT_LE(s.layer, layers);
      ASSERT_TRUE(area.contains(s.a) && area.contains(s.b));
    }
    for (const route::RouteVia& v : route.vias) {
      ASSERT_GE(v.cut, 1);
      ASSERT_LT(v.cut, layers);
      ASSERT_TRUE(area.contains(v.at));
    }
    total += route.total_wirelength();
  }
  EXPECT_EQ(total, design.routing.total_wirelength);
  for (int layer : {1, 3}) {
    split::SplitDesign split(&design, layer);
    EXPECT_GE(split.stats().num_fragments, 0);
  }
}

TEST(DefIo, HostileInputImportsCleanlyOrThrowsParserError) {
  // Seeded fuzz of a small routed design's DEF, in the style of
  // AttackNet::load's: truncations at sampled cut points, and hostile
  // integers written into sampled numeric tokens. Every input must either
  // import and split cleanly at M1 and M3, or throw the parser's own
  // std::runtime_error. A truncation can shorten a name to an existing
  // one (a duplicate net, a port connected twice), and a hostile integer
  // can put a component or segment far outside the die or a segment on a
  // layer that does not exist.
  // 110 gates give 11 inputs, so a cut can shorten port pi10 to pi1.
  const std::string full = to_def_string(test::small_routed_design(110, 3));
  ASSERT_NO_FATAL_FAILURE(
      expect_sane_import(read_def_string(full, &test::library())));

  struct Token {
    std::size_t begin;
    std::size_t end;
  };
  std::vector<Token> numeric;  // integers anywhere in the file
  std::vector<Token> names;    // the name after each NET and PORT keyword
  std::string previous;
  for (std::size_t i = 0; i < full.size();) {
    if (std::isspace(static_cast<unsigned char>(full[i]))) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < full.size() &&
           !std::isspace(static_cast<unsigned char>(full[end]))) {
      ++end;
    }
    const std::size_t digits = i + (full[i] == '-');
    bool is_int = digits < end;
    for (std::size_t k = digits; k < end; ++k) {
      is_int &= std::isdigit(static_cast<unsigned char>(full[k])) != 0;
    }
    if (is_int) numeric.push_back({i, end});
    if (previous == "NET" || previous == "PORT") names.push_back({i, end});
    previous = full.substr(i, end - i);
    i = end;
  }
  ASSERT_GT(numeric.size(), 100u);
  ASSERT_GT(names.size(), 100u);

  int accepted = 0;
  int rejected = 0;
  auto check = [&](const std::string& text, const std::string& what) {
    SCOPED_TRACE(what);
    std::optional<Design> design;
    try {
      design.emplace(read_def_string(text, &test::library()));
    } catch (const std::runtime_error&) {
      ++rejected;
      return;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "escaped as a non-parser error: " << e.what();
      return;
    }
    ++accepted;
    expect_sane_import(*design);
  };

  util::Pcg32 rng(2019);
  for (int i = 0; i < 200; ++i) {
    const std::size_t cut =
        rng.next_below(static_cast<std::uint32_t>(full.size()));
    check(full.substr(0, cut), "cut at byte " + std::to_string(cut));
  }
  // Every cut inside a net or port name, where the parser adds the net or
  // connects the port before it reads on, and a shortened name can repeat
  // an earlier one.
  for (const Token& name : names) {
    for (std::size_t cut = name.begin + 1; cut < name.end; ++cut) {
      check(full.substr(0, cut), "cut at byte " + std::to_string(cut));
    }
  }

  const std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  const std::int64_t hostile[] = {-1,
                                  0,
                                  std::int64_t{1} << 31,
                                  -(std::int64_t{1} << 31) - 1,
                                  kMax,
                                  -kMax};
  for (int i = 0; i < 120; ++i) {
    const Token& token = numeric[rng.next_below(
        static_cast<std::uint32_t>(numeric.size()))];
    for (std::int64_t value : hostile) {
      const std::string text = full.substr(0, token.begin) +
                               std::to_string(value) + full.substr(token.end);
      check(text, "token at byte " + std::to_string(token.begin) + " = " +
                      std::to_string(value));
    }
  }
  // Both outcomes occur: the fuzz reaches the parser's checks and the
  // importer, not just one of them.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(DefIo, RejectsUnknownMaster) {
  std::string text =
      "DESIGN x\nDIEAREA 0 0 100 100\nROWS 1 4 1400 190\nGCELL 700\n"
      "COMPONENTS 1\n  u1 NOT_A_CELL 0 0\nPINS 0\nNETS 0\nEND\n";
  EXPECT_THROW(read_def_string(text, &test::library()), std::runtime_error);
}

}  // namespace
}  // namespace sma::layout
