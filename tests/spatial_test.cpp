// Differential equivalence suite for the spatial-index subsystem.
//
// The UniformGrid2D exists to make proximity queries cheap, not to change
// behavior: every grid-backed answer must be *identical* — not merely close —
// to a brute-force scan (tests/brute_reference.hpp), including
// floating-point tie-breaking. This file proves that three ways:
//
//  1. unit tests of the grid's own contract (iteration order, incremental
//     move semantics, loud failure on index desync);
//  2. a randomized property suite (1000 trials) comparing every query kind
//     against the brute-force reference, and a fuzz-style interleaving of
//     insert/move/remove against a naive position map (run under ASAN in
//     CI);
//  3. end-to-end: throughout full simulations of all three algorithms, with
//     and without the robot fault/repair chaos, every grid-backed query the
//     simulator makes matches the brute-force reference on the live state,
//     and runs stay byte-identical across runner worker counts (run under
//     TSAN in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "brute_reference.hpp"
#include "core/simulation.hpp"
#include "runner/executor.hpp"
#include "runner/sink.hpp"
#include "sim/rng.hpp"
#include "spatial/uniform_grid.hpp"

namespace sensrep::spatial {
namespace {

using geometry::Rect;
using geometry::Vec2;

constexpr Rect kField{{0.0, 0.0}, {400.0, 400.0}};

// --- grid contract ----------------------------------------------------------

TEST(UniformGrid, SizingCoversTheBounds) {
  const UniformGrid2D<int> g(kField, 63.0);
  EXPECT_EQ(g.cols(), 7u);  // ceil(400 / 63)
  EXPECT_EQ(g.rows(), 7u);
  EXPECT_TRUE(g.empty());
  EXPECT_EQ(g.size(), 0u);
}

TEST(UniformGrid, RejectsNonPositiveCellSize) {
  EXPECT_THROW(UniformGrid2D<int>(kField, 0.0), std::invalid_argument);
  EXPECT_THROW(UniformGrid2D<int>(kField, -1.0), std::invalid_argument);
}

TEST(UniformGrid, DegenerateBoundsStillGetOneCell) {
  const UniformGrid2D<int> g({{5.0, 5.0}, {5.0, 5.0}}, 10.0);
  EXPECT_EQ(g.cols(), 1u);
  EXPECT_EQ(g.rows(), 1u);
}

TEST(UniformGrid, InsertRemoveContains) {
  UniformGrid2D<int> g(kField, 50.0);
  g.insert(3, {10, 10});
  EXPECT_TRUE(g.contains(3));
  EXPECT_EQ(g.position(3), (Vec2{10, 10}));
  EXPECT_THROW(g.insert(3, {20, 20}), std::logic_error);  // duplicate id
  g.remove(3);
  EXPECT_FALSE(g.contains(3));
  g.remove(3);  // absent: no-op by contract
  EXPECT_THROW(static_cast<void>(g.position(3)), std::out_of_range);
}

TEST(UniformGrid, MoveUnknownIdThrows) {
  UniformGrid2D<int> g(kField, 50.0);
  EXPECT_THROW(g.move(1, {0, 0}), std::out_of_range);
}

TEST(UniformGrid, CheckedMoveDetectsIndexDesync) {
  UniformGrid2D<int> g(kField, 50.0);
  g.insert(1, {10, 10});
  EXPECT_NO_THROW(g.move(1, {10, 10}, {200, 200}));
  // A caller whose belief of the old position is stale forgot an update
  // somewhere; the grid fails loudly instead of silently fragmenting.
  EXPECT_THROW(g.move(1, {10, 10}, {30, 30}), std::logic_error);
  EXPECT_EQ(g.position(1), (Vec2{200, 200}));
}

TEST(UniformGrid, OutOfBoundsPointsClampIntoBorderCellsButKeepTruePositions) {
  UniformGrid2D<int> g(kField, 50.0);
  g.insert(1, {-100, -100});
  g.insert(2, {900, 900});
  EXPECT_EQ(g.position(1), (Vec2{-100, -100}));
  // Queries still use exact stored positions, so the nearest answer is
  // correct even though both points live in (clamped) border cells.
  EXPECT_EQ(g.nearest({0, 0}).value(), 1);
  // From the field center both are outside, but 1 is nearer; from (400,400)
  // they would be exactly equidistant (tie to 1) — query off-center instead.
  EXPECT_EQ(g.nearest({410, 410}).value(), 2);
  EXPECT_EQ(g.within_radius({-100, -100}, 1.0), std::vector<int>{1});
}

TEST(UniformGrid, ForEachIsCellMajorThenInsertionOrder) {
  UniformGrid2D<int> g(kField, 100.0);  // 4x4 cells
  g.insert(9, {350, 350});  // last cell
  g.insert(5, {10, 10});    // first cell, first
  g.insert(7, {20, 20});    // first cell, second
  g.insert(1, {10, 150});   // row 1
  std::vector<int> order;
  g.for_each([&](int id, Vec2) { order.push_back(id); });
  EXPECT_EQ(order, (std::vector<int>{5, 7, 1, 9}));
}

TEST(UniformGrid, SameCellMovePreservesInsertionOrder) {
  UniformGrid2D<int> g(kField, 100.0);
  g.insert(5, {10, 10});
  g.insert(7, {20, 20});
  g.move(5, {30, 30});  // stays in cell (0,0); must not re-append
  std::vector<int> order;
  g.for_each([&](int id, Vec2) { order.push_back(id); });
  EXPECT_EQ(order, (std::vector<int>{5, 7}));
  EXPECT_EQ(g.position(5), (Vec2{30, 30}));
}

TEST(UniformGrid, NearestBreaksDistanceTiesByLowestId) {
  UniformGrid2D<int> g(kField, 50.0);
  // Exactly equidistant from the origin (3-4-5 triangles): d = 50 both ways.
  g.insert(8, {30, 40});
  g.insert(2, {40, 30});
  EXPECT_EQ(g.nearest({0, 0}).value(), 2);
  EXPECT_EQ(g.nearest_euclid({0, 0}, [](int) { return true; }).value(), 2);
  // The filter resolves the tie the other way once 2 is unacceptable.
  EXPECT_EQ(g.nearest({0, 0}, [](int id) { return id != 2; }).value(), 8);
}

TEST(UniformGrid, NearestOnEmptyOrFullyFilteredGridIsNullopt) {
  UniformGrid2D<int> g(kField, 50.0);
  EXPECT_FALSE(g.nearest({0, 0}).has_value());
  g.insert(1, {10, 10});
  EXPECT_FALSE(g.nearest({0, 0}, [](int) { return false; }).has_value());
}

TEST(UniformGrid, NearestCrossesManyEmptyRings) {
  // One point in the far corner: the ring search must expand all the way
  // across the grid instead of giving up on empty rings.
  UniformGrid2D<int> g(kField, 10.0);  // 40x40 cells
  g.insert(42, {399, 399});
  EXPECT_EQ(g.nearest({0, 0}).value(), 42);
}

TEST(UniformGrid, InRectIsClosedAndAscending) {
  UniformGrid2D<int> g(kField, 50.0);
  g.insert(3, {100, 100});  // on the min corner: included (closed)
  g.insert(1, {150, 150});  // on the max corner: included (closed)
  g.insert(2, {99, 100});   // just outside
  EXPECT_EQ(g.in_rect({{100, 100}, {150, 150}}), (std::vector<int>{1, 3}));
}

TEST(UniformGrid, WithinRadiusIsAClosedBall) {
  UniformGrid2D<int> g(kField, 10.0);
  g.insert(1, {0, 0});
  g.insert(2, {10, 0});
  EXPECT_EQ(g.within_radius({0, 0}, 10.0), (std::vector<int>{1, 2}));
  EXPECT_EQ(g.within_radius({0, 0}, 9.999), std::vector<int>{1});
}

TEST(UniformGrid, WithinRadiusRejectsNegativeAndNaNRadii) {
  // r*r is positive for r = -5, so an unchecked query would answer for |r|.
  UniformGrid2D<int> g(kField, 10.0);
  g.insert(1, {0, 0});
  g.insert(2, {3, 0});
  EXPECT_THROW((void)g.within_radius({0, 0}, -5.0), std::invalid_argument);
  EXPECT_THROW((void)g.within_radius({0, 0}, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_EQ(g.within_radius({0, 0}, 0.0), std::vector<int>{1});
}

TEST(UniformGrid, NegativeCoordinatesWork) {
  // Bounds entirely at negative coordinates, plus points beyond their
  // negative edges (clamped into the border cells).
  UniformGrid2D<int> g({{-200.0, -200.0}, {-50.0, -50.0}}, 25.0);
  g.insert(1, {-100, -100});
  g.insert(2, {-110, -90});
  g.insert(3, {-230, -260});
  EXPECT_EQ(g.within_radius({-100, -100}, 30), (std::vector<int>{1, 2}));
  EXPECT_EQ(g.within_radius({-215, -245}, 22), std::vector<int>{3});
  EXPECT_EQ(g.nearest({-300, -300}).value(), 3);
}

TEST(UniformGrid, WithinRadiusMatchesBruteForceOnRandomData) {
  // Query radii from a sixth of a cell to two cells; the grid covers only
  // the lower-left quarter of the point cloud, so most points are clamped.
  sim::Rng rng(555);
  UniformGrid2D<std::uint32_t> g({{0.0, 0.0}, {250.0, 250.0}}, 63.0);
  reference::BruteIndex<std::uint32_t> brute;
  for (std::uint32_t i = 0; i < 300; ++i) {
    const Vec2 p{rng.uniform(0, 500), rng.uniform(0, 500)};
    g.insert(i, p);
    brute.pts.emplace_back(i, p);
  }
  for (int t = 0; t < 50; ++t) {
    const Vec2 q{rng.uniform(0, 500), rng.uniform(0, 500)};
    const double radius = rng.uniform(10, 120);
    EXPECT_EQ(g.within_radius(q, radius), brute.within_radius(q, radius)) << "query " << t;
  }
}

// --- randomized property suite: grid vs brute force -------------------------

TEST(UniformGridProperty, AllQueriesMatchBruteForceOverRandomizedTrials) {
  sim::Rng rng(20260805);
  for (int trial = 0; trial < 1000; ++trial) {
    // Vary the geometry every trial: cell sizes from "everything in one
    // cell" to "one point per cell", point counts from sparse to dense,
    // and a few points pushed outside the bounds (clamped border cells).
    const double cell = 5.0 + rng.uniform01() * 200.0;
    const int n = 1 + static_cast<int>(rng.uniform01() * 60.0);
    UniformGrid2D<int> grid(kField, cell);
    reference::BruteIndex<int> brute;
    for (int id = 0; id < n; ++id) {
      Vec2 p{rng.uniform01() * 440.0 - 20.0, rng.uniform01() * 440.0 - 20.0};
      if (rng.uniform01() < 0.1) p = {p.x * 10.0 - 1000.0, p.y};  // far outside
      grid.insert(id, p);
      brute.pts.emplace_back(id, p);
    }
    // Duplicate positions force genuine distance ties.
    if (n >= 2) {
      grid.move(n - 1, brute.pts[0].second);
      brute.pts[n - 1].second = brute.pts[0].second;
    }

    const Vec2 q{rng.uniform01() * 480.0 - 40.0, rng.uniform01() * 480.0 - 40.0};
    const auto accept_all = [](int) { return true; };
    const auto accept_even = [](int id) { return id % 2 == 0; };

    EXPECT_EQ(grid.nearest(q), brute.nearest_d2(q, accept_all)) << "trial " << trial;
    EXPECT_EQ(grid.nearest(q, accept_even), brute.nearest_d2(q, accept_even))
        << "trial " << trial;
    EXPECT_EQ(grid.nearest_euclid(q, accept_all), brute.nearest_euclid(q, accept_all))
        << "trial " << trial;
    EXPECT_EQ(grid.nearest_euclid(q, accept_even), brute.nearest_euclid(q, accept_even))
        << "trial " << trial;

    const double r = rng.uniform01() * 150.0;
    EXPECT_EQ(grid.within_radius(q, r), brute.within_radius(q, r)) << "trial " << trial;

    const Vec2 a{rng.uniform01() * 400.0, rng.uniform01() * 400.0};
    const Vec2 b{rng.uniform01() * 400.0, rng.uniform01() * 400.0};
    const Rect rect{{std::min(a.x, b.x), std::min(a.y, b.y)},
                    {std::max(a.x, b.x), std::max(a.y, b.y)}};
    EXPECT_EQ(grid.in_rect(rect), brute.in_rect(rect)) << "trial " << trial;
  }
}

// --- fuzz: incremental mutation vs a naive reference ------------------------

// Random interleavings of insert / move / checked-move / remove, with the
// grid's full contents and query answers checked against a std::map of
// positions after every operation. ASAN (CI) turns any bucket bookkeeping
// slip — double erase, stale Entry, leaked cell slot — into a hard fault.
TEST(UniformGridFuzz, IncrementalMutationsNeverDesyncFromNaiveReference) {
  sim::Rng rng(77);
  for (int round = 0; round < 40; ++round) {
    const double cell = 10.0 + rng.uniform01() * 120.0;
    UniformGrid2D<int> grid(kField, cell);
    std::map<int, Vec2> ref;
    int next_id = 0;

    for (int op = 0; op < 400; ++op) {
      const double roll = rng.uniform01();
      const Vec2 p{rng.uniform01() * 500.0 - 50.0, rng.uniform01() * 500.0 - 50.0};
      if (roll < 0.4 || ref.empty()) {
        grid.insert(next_id, p);
        ref.emplace(next_id, p);
        ++next_id;
      } else {
        // Pick an existing id, biased toward the low end like robot fleets.
        auto it = ref.lower_bound(static_cast<int>(rng.uniform01() * next_id));
        if (it == ref.end()) it = ref.begin();
        if (roll < 0.65) {
          grid.move(it->first, p);
          it->second = p;
        } else if (roll < 0.85) {
          grid.move(it->first, it->second, p);  // checked move (robot path)
          it->second = p;
        } else {
          grid.remove(it->first);
          ref.erase(it);
        }
      }

      ASSERT_EQ(grid.size(), ref.size());
      if (op % 20 != 0) continue;  // full audits are O(n); sample them
      std::vector<std::pair<int, Vec2>> seen;
      grid.for_each([&](int id, Vec2 pos) { seen.emplace_back(id, pos); });
      ASSERT_EQ(seen.size(), ref.size());
      std::sort(seen.begin(), seen.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      auto rit = ref.begin();
      for (const auto& [id, pos] : seen) {
        ASSERT_EQ(id, rit->first);
        ASSERT_EQ(pos, rit->second);
        ++rit;
      }
      // And a spot query: the naive nearest must agree.
      const Vec2 q{rng.uniform01() * 400.0, rng.uniform01() * 400.0};
      std::optional<int> naive;
      double naive_d2 = std::numeric_limits<double>::infinity();
      for (const auto& [id, pos] : ref) {
        const double d2 = geometry::distance2(pos, q);
        if (!naive || d2 < naive_d2) {
          naive = id;
          naive_d2 = d2;
        }
      }
      ASSERT_EQ(grid.nearest(q), naive);
    }
  }
}

// --- end to end: grid-backed queries against brute force, mid-run -----------

/// Exposes the protected fleet queries of whichever algorithm a Simulation
/// built: a pointer to a base-class member named through a derived class.
struct FleetQueries : core::CoordinationAlgorithm {
  using core::CoordinationAlgorithm::closest_live_robot;
  using core::CoordinationAlgorithm::nearest_robot_index;
};

/// Runs the simulation in 200 s steps. At every step, each grid-backed
/// query — the fleet's closest live robot and nearest robot, the field's
/// slots within range, the medium's unit-disk neighbourhoods — must equal
/// the brute-force reference over the live state.
void expect_queries_match_brute_force(core::Algorithm algo, bool chaos) {
  core::SimulationConfig cfg;
  cfg.algorithm = algo;
  cfg.robots = 4;
  cfg.seed = 2026;
  cfg.sim_duration = chaos ? 4000.0 : 8000.0;
  if (chaos) {
    // Deaths, MTTR resurrections, auto-tuned leases, and packet loss: every
    // fault-tolerance path the index touches (supervision sweeps, adoption
    // floods, failover nearest-robot picks) runs several times.
    cfg.robot_faults.mtbf = 1200.0;
    cfg.robot_faults.mttr = 600.0;
    cfg.robot_faults.heartbeat_period = 40.0;
    cfg.robot_faults.lease_auto_tune = true;
    cfg.radio.loss_probability = 0.05;
  }
  core::Simulation s(cfg);
  auto& algorithm = s.algorithm();
  const auto& field = s.field();
  const auto& medium = s.medium();
  const Rect area = cfg.field_area();
  sim::Rng rng(99);
  for (double t = 200.0; t <= cfg.sim_duration; t += 200.0) {
    s.run_until(t);
    reference::BruteIndex<std::size_t> fleet;
    for (std::size_t i = 0; i < s.robots().size(); ++i) {
      fleet.pts.emplace_back(i, s.robots()[i]->position());
    }
    reference::BruteIndex<net::NodeId> sensors;
    for (net::NodeId id = 0; id < field.size(); ++id) {
      sensors.pts.emplace_back(id, field.node(id).position());
    }
    // Every alive transceiver: sensors, robots and the manager.
    reference::BruteIndex<net::NodeId> radios;
    for (net::NodeId id = 0; id <= cfg.manager_id(); ++id) {
      if (medium.attached(id) && medium.alive(id)) {
        radios.pts.emplace_back(id, medium.position_of(id));
      }
    }
    const auto live = [&](std::size_t i) { return !algorithm.robot_presumed_dead(i); };
    const auto any = [](std::size_t) { return true; };
    for (int k = 0; k < 20; ++k) {
      // Queries reach a little past the field edge.
      const Vec2 q{rng.uniform(area.min.x - 50.0, area.max.x + 50.0),
                   rng.uniform(area.min.y - 50.0, area.max.y + 50.0)};
      auto* closest = (algorithm.*(&FleetQueries::closest_live_robot))(q);
      const auto want = fleet.nearest_euclid(q, live);
      ASSERT_EQ(closest == nullptr, !want.has_value()) << "t=" << t;
      if (want) {
        ASSERT_EQ(closest, s.robots()[*want].get()) << "t=" << t;
      }
      ASSERT_EQ((algorithm.*(&FleetQueries::nearest_robot_index))(q),
                fleet.nearest_d2(q, any))
          << "t=" << t;
      const double r = rng.uniform(0.0, 150.0);
      ASSERT_EQ(field.slots_within(q, r), sensors.within_distance(q, r)) << "t=" << t;
      ASSERT_EQ(medium.nodes_near(q, r), radios.within_radius(q, r)) << "t=" << t;
    }
    for (const auto& robot : s.robots()) {
      if (!medium.alive(robot->id())) continue;
      auto want = radios.within_radius(robot->position(), medium.tx_range_of(robot->id()));
      std::erase(want, robot->id());
      ASSERT_EQ(medium.neighbors_of(robot->id()), want) << "t=" << t;
    }
  }
}

class SpatialEquivalence : public ::testing::TestWithParam<core::Algorithm> {};

TEST_P(SpatialEquivalence, DefaultRunQueriesMatchBruteForce) {
  expect_queries_match_brute_force(GetParam(), /*chaos=*/false);
}

TEST_P(SpatialEquivalence, FaultChaosRunQueriesMatchBruteForce) {
  expect_queries_match_brute_force(GetParam(), /*chaos=*/true);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SpatialEquivalence,
                         ::testing::Values(core::Algorithm::kCentralized,
                                           core::Algorithm::kFixedDistributed,
                                           core::Algorithm::kDynamicDistributed),
                         [](const ::testing::TestParamInfo<core::Algorithm>& tpi) {
                           return std::string(core::to_string(tpi.param));
                         });

// The parallel runner must keep its byte-identical-across-worker-counts
// guarantee: the grid is per-simulation state, so workers must never share
// one. TSAN runs this in CI.
TEST(SpatialRunnerDeterminism, CsvIsByteIdenticalAcrossWorkerCountsWithIndexOn) {
  runner::ParameterGrid grid;
  grid.algorithms = {core::Algorithm::kCentralized, core::Algorithm::kFixedDistributed,
                     core::Algorithm::kDynamicDistributed};
  grid.robot_counts = {4};
  grid.seeds = 2;
  grid.base.sim_duration = 800.0;
  grid.base.robot_faults.mtbf = 400.0;  // exercise supervision in every job
  grid.base.robot_faults.mttr = 200.0;

  const auto run_with = [&grid](std::size_t workers) {
    std::ostringstream out;
    runner::CsvSink sink(out);
    runner::ExecutorOptions options;
    options.jobs = workers;
    runner::Executor exec(options);
    const auto batch = exec.run(grid, &sink);
    EXPECT_TRUE(batch.ok());
    return out.str();
  };

  const std::string serial = run_with(1);
  const std::string parallel = run_with(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace sensrep::spatial
