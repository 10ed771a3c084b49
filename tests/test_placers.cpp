#include <gtest/gtest.h>

#include <stdexcept>

#include "netlist/generator.hpp"
#include "place/detailed_placer.hpp"
#include "place/global_placer.hpp"
#include "place/legalizer.hpp"
#include "runtime/thread_pool.hpp"
#include "test_support.hpp"

namespace sma::place {
namespace {

netlist::Netlist medium_netlist(std::uint64_t seed = 21) {
  netlist::GeneratorConfig config;
  config.num_inputs = 10;
  config.num_outputs = 5;
  config.num_gates = 150;
  config.seed = seed;
  return netlist::generate_netlist(config, "m", &sma::test::library());
}

TEST(GlobalPlacer, ImprovesHpwlOverRandom) {
  netlist::Netlist nl = medium_netlist();
  Floorplan fp = make_floorplan(nl);
  Placement placement(&nl, fp);

  // Random baseline: scatter deterministically.
  util::Pcg32 rng(1);
  for (netlist::CellId c = 0; c < nl.num_cells(); ++c) {
    placement.set_cell_origin(
        c, {static_cast<std::int64_t>(rng.next_double() * fp.die.width()),
            static_cast<std::int64_t>(rng.next_double() * fp.die.height())});
  }
  std::int64_t random_hpwl = placement.total_hpwl();

  run_global_placement(placement);
  std::int64_t placed_hpwl = placement.total_hpwl();
  EXPECT_LT(placed_hpwl, random_hpwl);
}

TEST(GlobalPlacer, KeepsCellsInsideDie) {
  netlist::Netlist nl = medium_netlist();
  Floorplan fp = make_floorplan(nl);
  Placement placement(&nl, fp);
  run_global_placement(placement);
  for (netlist::CellId c = 0; c < nl.num_cells(); ++c) {
    const util::Point& p = placement.cell_origin(c);
    EXPECT_GE(p.x, 0);
    EXPECT_GE(p.y, 0);
    EXPECT_LT(p.x, fp.die.hi.x);
    EXPECT_LT(p.y, fp.die.hi.y);
  }
}

TEST(GlobalPlacer, DeterministicInSeed) {
  netlist::Netlist nl = medium_netlist();
  Floorplan fp = make_floorplan(nl);
  Placement p1(&nl, fp);
  Placement p2(&nl, fp);
  run_global_placement(p1);
  run_global_placement(p2);
  for (netlist::CellId c = 0; c < nl.num_cells(); ++c) {
    EXPECT_EQ(p1.cell_origin(c), p2.cell_origin(c));
  }
}

TEST(GlobalPlacer, ParallelBitIdenticalToSerial) {
  // Lane accumulation and band sorts are scheduled by the config, never
  // the thread count: pools of any size must land every cell on exactly
  // the serial coordinates. Two design profiles, threads {1, 2, 4}.
  for (std::uint64_t seed : {21ull, 97ull}) {
    netlist::Netlist nl = medium_netlist(seed);
    Floorplan fp = make_floorplan(nl);
    Placement serial(&nl, fp);
    run_global_placement(serial);
    for (int threads : {2, 4}) {
      runtime::ThreadPool pool(threads - 1);
      Placement parallel(&nl, fp);
      run_global_placement(parallel, {}, &pool);
      for (netlist::CellId c = 0; c < nl.num_cells(); ++c) {
        ASSERT_EQ(serial.cell_origin(c), parallel.cell_origin(c))
            << "seed " << seed << ", threads " << threads << ", cell " << c;
      }
    }
  }
}

TEST(GlobalPlacer, ParallelStableAcrossRuns) {
  netlist::Netlist nl = medium_netlist(33);
  Floorplan fp = make_floorplan(nl);
  runtime::ThreadPool pool(3);
  Placement first(&nl, fp);
  Placement second(&nl, fp);
  run_global_placement(first, {}, &pool);
  run_global_placement(second, {}, &pool);
  for (netlist::CellId c = 0; c < nl.num_cells(); ++c) {
    ASSERT_EQ(first.cell_origin(c), second.cell_origin(c));
  }
}

TEST(Legalizer, ProducesLegalPlacement) {
  netlist::Netlist nl = medium_netlist();
  Floorplan fp = make_floorplan(nl);
  Placement placement(&nl, fp);
  run_global_placement(placement);
  run_legalization(placement);
  std::vector<std::string> problems;
  EXPECT_TRUE(placement.is_legal(&problems))
      << (problems.empty() ? "" : problems.front());
}

TEST(Legalizer, SmallDisplacement) {
  netlist::Netlist nl = medium_netlist();
  Floorplan fp = make_floorplan(nl);
  Placement placement(&nl, fp);
  run_global_placement(placement);
  std::vector<util::Point> before;
  for (netlist::CellId c = 0; c < nl.num_cells(); ++c) {
    before.push_back(placement.cell_origin(c));
  }
  run_legalization(placement);
  std::int64_t total_displacement = 0;
  for (netlist::CellId c = 0; c < nl.num_cells(); ++c) {
    total_displacement +=
        util::manhattan(before[c], placement.cell_origin(c));
  }
  double avg = static_cast<double>(total_displacement) / nl.num_cells();
  // Average displacement under ~4 row heights indicates a sane legalizer.
  EXPECT_LT(avg, 4.0 * fp.row_height);
}

TEST(DetailedPlacer, NeverWorsensHpwlAndStaysLegal) {
  netlist::Netlist nl = medium_netlist();
  Floorplan fp = make_floorplan(nl);
  Placement placement(&nl, fp);
  run_global_placement(placement);
  run_legalization(placement);
  std::int64_t before = placement.total_hpwl();
  std::int64_t gain = run_detailed_placement(placement);
  std::int64_t after = placement.total_hpwl();
  EXPECT_EQ(before - after, gain);
  EXPECT_GE(gain, 0);
  EXPECT_TRUE(placement.is_legal());
}

TEST(Legalizer, WorksOnEmptyAndTinyNetlists) {
  netlist::GeneratorConfig config;
  config.num_inputs = 2;
  config.num_outputs = 1;
  config.num_gates = 1;
  netlist::Netlist nl =
      netlist::generate_netlist(config, "tiny", &sma::test::library());
  Floorplan fp = make_floorplan(nl);
  Placement placement(&nl, fp);
  run_global_placement(placement);
  EXPECT_NO_THROW(run_legalization(placement));
  EXPECT_TRUE(placement.is_legal());
}

}  // namespace
}  // namespace sma::place
