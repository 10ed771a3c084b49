#include "route/routing_grid.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>

namespace sma::route {
namespace {

class RoutingGridTest : public ::testing::Test {
 protected:
  RoutingGridTest()
      : stack_(tech::LayerStack::nangate45_like()),
        grid_(&stack_, util::Rect{{0, 0}, {7000, 7000}}) {}

  tech::LayerStack stack_;
  RoutingGrid grid_;
};

TEST_F(RoutingGridTest, Dimensions) {
  EXPECT_EQ(grid_.nx(), 10);
  EXPECT_EQ(grid_.ny(), 10);
  EXPECT_EQ(grid_.num_layers(), 6);
  EXPECT_EQ(grid_.num_nodes(), 600u);
}

TEST_F(RoutingGridTest, NodeIndexRoundTrip) {
  for (int layer = 1; layer <= 6; ++layer) {
    for (int y = 0; y < 10; y += 3) {
      for (int x = 0; x < 10; x += 3) {
        GridCoord c{layer, x, y};
        EXPECT_EQ(grid_.coord_of(grid_.node_index(c)), c);
      }
    }
  }
}

TEST_F(RoutingGridTest, GcellMapping) {
  GridCoord c = grid_.gcell_at({350, 1399});
  EXPECT_EQ(c.x, 0);
  EXPECT_EQ(c.y, 1);
  // Clamped outside the die.
  GridCoord edge = grid_.gcell_at({999999, -5});
  EXPECT_EQ(edge.x, 9);
  EXPECT_EQ(edge.y, 0);
  // Center of gcell (0,0).
  util::Point center = grid_.gcell_center({1, 0, 0});
  EXPECT_EQ(center, (util::Point{350, 350}));
}

TEST_F(RoutingGridTest, NeighborsRespectBounds) {
  GridCoord corner{1, 0, 0};
  EXPECT_TRUE(grid_.has_neighbor(corner, Dir::kEast));
  EXPECT_FALSE(grid_.has_neighbor(corner, Dir::kWest));
  EXPECT_TRUE(grid_.has_neighbor(corner, Dir::kNorth));
  EXPECT_FALSE(grid_.has_neighbor(corner, Dir::kSouth));
  EXPECT_TRUE(grid_.has_neighbor(corner, Dir::kUp));
  EXPECT_FALSE(grid_.has_neighbor(corner, Dir::kDown));
  GridCoord top{6, 9, 9};
  EXPECT_FALSE(grid_.has_neighbor(top, Dir::kUp));
  EXPECT_TRUE(grid_.has_neighbor(top, Dir::kDown));
}

TEST_F(RoutingGridTest, ReverseDirections) {
  EXPECT_EQ(reverse(Dir::kEast), Dir::kWest);
  EXPECT_EQ(reverse(Dir::kNorth), Dir::kSouth);
  EXPECT_EQ(reverse(Dir::kUp), Dir::kDown);
}

TEST_F(RoutingGridTest, PreferredDirectionCapacities) {
  // M1 horizontal but clamped to pin-access capacity.
  EXPECT_EQ(grid_.capacity({1, 4, 4}, Dir::kEast), 1);
  // M2 vertical: 700/140 = 5 tracks, x0.65 utilization = 3 (and the M2
  // clamp is also 3).
  EXPECT_EQ(grid_.capacity({2, 4, 4}, Dir::kNorth), 3);
  // Wrong-way on M2.
  EXPECT_EQ(grid_.capacity({2, 4, 4}, Dir::kEast), 1);
  // M4 vertical: same thin pitch and utilization.
  EXPECT_EQ(grid_.capacity({4, 4, 4}, Dir::kNorth), 3);
  // Vias.
  EXPECT_EQ(grid_.capacity({2, 4, 4}, Dir::kUp), 12);
}

TEST_F(RoutingGridTest, UsageSharedBetweenEdgeEnds) {
  GridCoord a{3, 4, 4};
  grid_.add_usage(a, Dir::kEast, 1);
  EXPECT_EQ(grid_.usage(a, Dir::kEast), 1);
  GridCoord b = grid_.neighbor(a, Dir::kEast);
  EXPECT_EQ(grid_.usage(b, Dir::kWest), 1);
  grid_.add_usage(b, Dir::kWest, -1);
  EXPECT_EQ(grid_.usage(a, Dir::kEast), 0);
}

TEST_F(RoutingGridTest, UsageNeverNegative) {
  GridCoord a{2, 1, 1};
  grid_.add_usage(a, Dir::kNorth, -3);
  EXPECT_EQ(grid_.usage(a, Dir::kNorth), 0);
}

TEST_F(RoutingGridTest, OverflowCountAndHistory) {
  GridCoord a{1, 2, 2};
  EXPECT_EQ(grid_.overflow_count(), 0);
  grid_.add_usage(a, Dir::kEast, 3);  // capacity 1 -> overflow
  EXPECT_EQ(grid_.overflow_count(), 1);
  EXPECT_FLOAT_EQ(grid_.history(a, Dir::kEast), 0.0f);
  grid_.bump_history_on_overflow(1.5f);
  EXPECT_FLOAT_EQ(grid_.history(a, Dir::kEast), 1.5f);
  grid_.clear_usage();
  EXPECT_EQ(grid_.overflow_count(), 0);
  // History survives usage clearing.
  EXPECT_FLOAT_EQ(grid_.history(a, Dir::kEast), 1.5f);
}

TEST_F(RoutingGridTest, ViaUsage) {
  GridCoord a{2, 5, 5};
  grid_.add_usage(a, Dir::kUp, 2);
  GridCoord above = grid_.neighbor(a, Dir::kUp);
  EXPECT_EQ(grid_.usage(above, Dir::kDown), 2);
}

TEST_F(RoutingGridTest, RejectsDegenerateCapacities) {
  // Zero/negative capacities used to reach the router as NaN/inf edge
  // costs (usage / 0); they must fail loudly at construction instead.
  const util::Rect die{{0, 0}, {7000, 7000}};
  auto make = [&](const RoutingGrid::Config& config) {
    RoutingGrid grid(&stack_, die, config);
  };
  RoutingGrid::Config config;
  config.via_capacity = 0;
  EXPECT_THROW(make(config), std::invalid_argument);
  config = {};
  config.m1_capacity = 0;
  EXPECT_THROW(make(config), std::invalid_argument);
  config = {};
  config.m2_capacity = 0;
  EXPECT_THROW(make(config), std::invalid_argument);
  config = {};
  config.wrongway_capacity = -1;
  EXPECT_THROW(make(config), std::invalid_argument);
  config = {};
  config.gcell_size = 0;
  EXPECT_THROW(make(config), std::invalid_argument);
  config = {};
  config.track_utilization = 0.0;
  EXPECT_THROW(make(config), std::invalid_argument);
  // wrongway_capacity = 0 is legal: "no wrong-way tracks".
  config = {};
  config.wrongway_capacity = 0;
  EXPECT_NO_THROW(make(config));
  RoutingGrid no_wrongway(&stack_, die, config);
  // M1 is horizontal-preferred in this stack; its vertical edges now have
  // zero capacity.
  EXPECT_EQ(no_wrongway.capacity({1, 5, 5}, Dir::kNorth), 0);
  EXPECT_GT(no_wrongway.capacity({1, 5, 5}, Dir::kEast), 0);

  // Grid dimensions are computed in 64 bits and bounded before anything is
  // allocated: an axis wider than kMaxGcellsPerAxis must not wrap through
  // int (4e9 gcells into a 1-wide grid), and a grid whose node count
  // exceeds kMaxNodes must not reach the allocator.
  RoutingGrid::Config unit;
  unit.gcell_size = 1;
  auto nx_of = [&](const util::Rect& area, const RoutingGrid::Config& c) {
    return RoutingGrid(&stack_, area, c).nx();
  };
  const std::int64_t axis = RoutingGrid::kMaxGcellsPerAxis;
  EXPECT_EQ(nx_of({{0, 0}, {axis, 1}}, unit), axis);
  EXPECT_THROW(nx_of({{0, 0}, {axis + 1, 1}}, unit), std::invalid_argument);
  EXPECT_THROW(nx_of({{0, 0}, {1, axis + 1}}, unit), std::invalid_argument);
  // Both axes in bounds, but 6 x 2^32 nodes.
  EXPECT_THROW(nx_of({{0, 0}, {axis, axis}}, unit), std::invalid_argument);
  EXPECT_THROW(nx_of({{0, 0}, {4000000000, 4000000000}}, unit),
               std::invalid_argument);
  RoutingGrid::Config ten;
  ten.gcell_size = 10;
  EXPECT_THROW(nx_of({{0, 0}, {400000000, 400000000}}, ten),
               std::invalid_argument);
  // A die whose width overflows int64 subtraction, and an empty die.
  const std::int64_t far = std::int64_t{1} << 62;
  EXPECT_THROW(nx_of({{-far, 0}, {far, 10}}, RoutingGrid::Config{}),
               std::invalid_argument);
  EXPECT_THROW(nx_of({{1000, 1000}, {0, 0}}, RoutingGrid::Config{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace sma::route
