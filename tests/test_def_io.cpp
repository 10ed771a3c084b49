#include "layout/def_io.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "split/split_design.hpp"
#include "test_support.hpp"

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

TEST(DefIo, RejectsUnknownMaster) {
  std::string text =
      "DESIGN x\nDIEAREA 0 0 100 100\nROWS 1 4 1400 190\nGCELL 700\n"
      "COMPONENTS 1\n  u1 NOT_A_CELL 0 0\nPINS 0\nNETS 0\nEND\n";
  EXPECT_THROW(read_def_string(text, &test::library()), std::runtime_error);
}

}  // namespace
}  // namespace sma::layout
