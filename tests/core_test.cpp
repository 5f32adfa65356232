// Unit tests for the coordination layer: configuration, and the three
// algorithms' decision logic exercised through small end-to-end simulations
// with injected failures (spontaneous lifetimes disabled for determinism).

#include <gtest/gtest.h>

#include <memory>

#include "core/centralized.hpp"
#include "core/config.hpp"
#include "core/dynamic_distributed.hpp"
#include "core/fixed_distributed.hpp"
#include "core/simulation.hpp"

namespace sensrep::core {
namespace {

using geometry::Vec2;
using net::NodeId;

// --- SimulationConfig ---------------------------------------------------------

TEST(ConfigTest, DerivedQuantities) {
  SimulationConfig cfg;
  cfg.robots = 16;
  EXPECT_EQ(cfg.sensor_count(), 800u);
  EXPECT_EQ(cfg.robot_base_id(), 800u);
  EXPECT_EQ(cfg.robot_id(0), 800u);
  EXPECT_EQ(cfg.robot_id(15), 815u);
  EXPECT_EQ(cfg.manager_id(), 816u);
  const auto area = cfg.field_area();
  EXPECT_NEAR(area.width(), 800.0, 1e-9);
  EXPECT_NEAR(area.height(), 800.0, 1e-9);
}

TEST(ConfigTest, PaperDefaults) {
  const SimulationConfig cfg;
  EXPECT_DOUBLE_EQ(cfg.robot_speed, 1.0);
  EXPECT_DOUBLE_EQ(cfg.robot_tx_range, 250.0);
  EXPECT_DOUBLE_EQ(cfg.field.sensor_tx_range, 63.0);
  EXPECT_DOUBLE_EQ(cfg.field.beacon_period, 10.0);
  EXPECT_EQ(cfg.field.stale_beacon_count, 3);
  EXPECT_DOUBLE_EQ(cfg.field.lifetime.mean, 16000.0);
  EXPECT_EQ(cfg.field.lifetime.distribution, wsn::LifetimeDistribution::kExponential);
  EXPECT_DOUBLE_EQ(cfg.sim_duration, 64000.0);
  EXPECT_DOUBLE_EQ(cfg.update_threshold, 20.0);
  EXPECT_EQ(cfg.sensors_per_robot, 50u);
  EXPECT_DOUBLE_EQ(cfg.area_per_robot, 40000.0);
}

TEST(ConfigTest, ValidateRejectsBadValues) {
  SimulationConfig cfg;
  cfg.robots = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.update_threshold = 40.0;  // >= sensor range / 2
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.robot_speed = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ConfigTest, AlgorithmNames) {
  EXPECT_EQ(to_string(Algorithm::kCentralized), "centralized");
  EXPECT_EQ(to_string(Algorithm::kFixedDistributed), "fixed");
  EXPECT_EQ(to_string(Algorithm::kDynamicDistributed), "dynamic");
  EXPECT_EQ(to_string(PartitionShape::kSquare), "square");
  EXPECT_EQ(to_string(PartitionShape::kHexagon), "hexagon");
}

// --- Shared fixture ---------------------------------------------------------------

SimulationConfig small_config(Algorithm algo, std::uint64_t seed = 11) {
  SimulationConfig cfg;
  cfg.algorithm = algo;
  cfg.robots = 4;
  cfg.seed = seed;
  cfg.sim_duration = 4000.0;
  cfg.field.spontaneous_failures = false;  // injected failures only
  return cfg;
}

/// Fails `slot` and runs long enough for detection, dispatch and repair.
void fail_and_settle(Simulation& s, NodeId slot, double settle = 1200.0) {
  s.field().fail_slot(slot);
  s.run_until(s.simulator().now() + settle);
}

// --- Centralized -------------------------------------------------------------------

TEST(CentralizedTest, ManagerSitsAtFieldCenter) {
  Simulation s(small_config(Algorithm::kCentralized));
  auto& algo = dynamic_cast<CentralizedAlgorithm&>(s.algorithm());
  EXPECT_EQ(algo.manager().position(), s.config().field_area().center());
  EXPECT_EQ(algo.manager().id(), s.config().manager_id());
}

TEST(CentralizedTest, ManagerTracksEveryRobotAfterInit) {
  Simulation s(small_config(Algorithm::kCentralized));
  s.run_until(5.0);
  const auto& algo = dynamic_cast<const CentralizedAlgorithm&>(s.algorithm());
  EXPECT_EQ(algo.tracked_robots().size(), 4u);
}

TEST(CentralizedTest, FailureIsRepairedViaRepairRequest) {
  Simulation s(small_config(Algorithm::kCentralized));
  s.run_until(1.0);
  fail_and_settle(s, 0);
  const auto& rec = s.failure_log().at(0);
  EXPECT_TRUE(rec.detected());
  EXPECT_TRUE(sim::is_valid_time(rec.reported_at));
  EXPECT_TRUE(rec.repaired());
  EXPECT_GT(rec.report_hops, 0u);
  EXPECT_GT(rec.request_hops, 0u);  // the forwarding leg exists
}

TEST(CentralizedTest, ClosestRobotIsDispatched) {
  Simulation s(small_config(Algorithm::kCentralized));
  s.run_until(1.0);
  // Pick the failure next to robot 0's position; that robot must serve it.
  const Vec2 r0 = s.robots()[0]->position();
  NodeId slot = 0;
  double best = 1e18;
  for (NodeId id = 0; id < s.field().size(); ++id) {
    const double d = geometry::distance(s.field().node(id).position(), r0);
    if (d < best) {
      best = d;
      slot = id;
    }
  }
  fail_and_settle(s, slot);
  const auto& rec = s.failure_log().at(0);
  ASSERT_TRUE(rec.repaired());
  EXPECT_EQ(*rec.robot_id, s.robots()[0]->id());
}

TEST(CentralizedTest, RobotsDoNotRelayIntoFloods) {
  Simulation s(small_config(Algorithm::kCentralized));
  s.run_until(1.0);
  fail_and_settle(s, 0);
  // Location updates in centralized mode: unicast hops to the manager plus
  // one-hop announces; far fewer than any subarea flood would produce.
  const auto r = s.result();
  EXPECT_GT(r.tx(metrics::MessageCategory::kLocationUpdate), 0u);
  EXPECT_LT(r.location_update_tx_per_repair, 60.0);
}

TEST(CentralizedTest, QueueAwareDispatchSpreadsBackToBackFailures) {
  // Two failures in quick succession near the same robot: the plain paper
  // policy sends both to that robot; queue-aware sends the second one to a
  // different robot (the first is charged one expected service leg).
  // The penalty per queued task is 0.5*sqrt(area_per_robot) = 100 m, so the
  // split shows up for a "contested" sensor: closest to robot A, but with
  // another robot within (d_A + 100) m. Margins absorb the <= 20 m location
  // staleness of a dispatched, moving robot A.
  for (const bool queue_aware : {false, true}) {
    auto cfg = small_config(Algorithm::kCentralized);
    cfg.queue_aware_dispatch = queue_aware;
    Simulation s(cfg);
    s.run_until(1.0);

    const auto dist_to_robot = [&](NodeId sensor, std::size_t robot) {
      return geometry::distance(s.field().node(sensor).position(),
                                s.robots()[robot]->position());
    };
    // first: any sensor clearly closest to robot 0. second: contested —
    // robot 0 closest, another robot inside the penalty band.
    NodeId first = net::kNoNode, second = net::kNoNode;
    for (NodeId id = 0; id < s.field().size(); ++id) {
      double d0 = dist_to_robot(id, 0);
      double best_other = 1e18;
      for (std::size_t r = 1; r < s.robots().size(); ++r) {
        best_other = std::min(best_other, dist_to_robot(id, r));
      }
      if (first == net::kNoNode && d0 + 60.0 < best_other) first = id;
      if (second == net::kNoNode && d0 + 30.0 < best_other &&
          best_other + 30.0 < d0 + 100.0) {
        second = id;
      }
    }
    if (first == net::kNoNode || second == net::kNoNode || first == second) {
      GTEST_SKIP() << "deployment lacks a contested sensor for this seed";
    }
    s.field().fail_slot(first);
    s.field().fail_slot(second);
    s.run_until(s.simulator().now() + 1500.0);
    ASSERT_EQ(s.failure_log().size(), 2u);
    const auto& a = s.failure_log().at(0);
    const auto& b = s.failure_log().at(1);
    ASSERT_TRUE(a.repaired());
    ASSERT_TRUE(b.repaired());
    if (queue_aware) {
      EXPECT_NE(*a.robot_id, *b.robot_id) << "queue-aware should split the pair";
    } else {
      EXPECT_EQ(*a.robot_id, *b.robot_id) << "paper policy: both to the closest";
      EXPECT_EQ(*a.robot_id, s.robots()[0]->id());
    }
  }
}

// --- Fixed distributed -----------------------------------------------------------

TEST(FixedTest, RobotsParkAtSubareaCenters) {
  Simulation s(small_config(Algorithm::kFixedDistributed));
  const auto& algo = dynamic_cast<const FixedDistributedAlgorithm&>(s.algorithm());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(s.robots()[i]->position(), algo.partition().center(i)) << "robot " << i;
  }
  EXPECT_GT(s.algorithm().init_motion(), 0.0);
}

TEST(FixedTest, SubareaRobotHandlesItsOwnFailures) {
  Simulation s(small_config(Algorithm::kFixedDistributed));
  s.run_until(1.0);
  const auto& algo = dynamic_cast<const FixedDistributedAlgorithm&>(s.algorithm());
  // Fail a sensor in subarea 2; robot 2 must be the maintainer even if
  // another robot is closer.
  NodeId slot = net::kNoNode;
  for (NodeId id = 0; id < s.field().size(); ++id) {
    if (algo.partition().cell_of(s.field().node(id).position()) == 2) {
      slot = id;
      break;
    }
  }
  ASSERT_NE(slot, net::kNoNode);
  fail_and_settle(s, slot);
  const auto& rec = s.failure_log().at(0);
  ASSERT_TRUE(rec.repaired());
  EXPECT_EQ(*rec.robot_id, s.config().robot_id(2));
  EXPECT_EQ(rec.request_hops, 0u);  // no manager->robot forwarding leg
}

TEST(FixedTest, HexPartitionAlsoWorks) {
  auto cfg = small_config(Algorithm::kFixedDistributed);
  cfg.partition = PartitionShape::kHexagon;
  Simulation s(cfg);
  s.run_until(1.0);
  fail_and_settle(s, 7);
  EXPECT_TRUE(s.failure_log().at(0).repaired());
}

TEST(FixedTest, SensorsKnowTheirSubareaRobotAfterInit) {
  Simulation s(small_config(Algorithm::kFixedDistributed));
  s.run_until(5.0);
  const auto& algo = dynamic_cast<const FixedDistributedAlgorithm&>(s.algorithm());
  std::size_t informed = 0;
  for (NodeId id = 0; id < s.field().size(); ++id) {
    const auto& n = s.field().node(id);
    const NodeId expected =
        s.config().robot_id(algo.partition().cell_of(n.position()));
    if (n.myrobot() == expected) ++informed;
  }
  // The init flood should have reached (essentially) every sensor.
  EXPECT_GE(informed, s.field().size() * 9 / 10);
}

// --- Dynamic distributed ------------------------------------------------------------

TEST(DynamicTest, SensorsAdoptClosestRobotAfterInit) {
  Simulation s(small_config(Algorithm::kDynamicDistributed));
  s.run_until(10.0);  // init floods + fallback sweep at t=5
  std::size_t correct = 0;
  for (NodeId id = 0; id < s.field().size(); ++id) {
    const auto& n = s.field().node(id);
    ASSERT_NE(n.myrobot(), net::kNoNode) << "sensor " << id << " has no myrobot";
    // Verify it is the truly closest robot.
    NodeId best = net::kNoNode;
    double best_d = 1e18;
    for (const auto& r : s.robots()) {
      const double d = geometry::distance(n.position(), r->position());
      if (d < best_d) {
        best_d = d;
        best = r->id();
      }
    }
    if (n.myrobot() == best) ++correct;
  }
  EXPECT_GE(correct, s.field().size() * 9 / 10);
}

TEST(DynamicTest, ClosestRobotRepairsAndNoRequestLeg) {
  Simulation s(small_config(Algorithm::kDynamicDistributed));
  s.run_until(10.0);
  fail_and_settle(s, 3);
  const auto& rec = s.failure_log().at(0);
  ASSERT_TRUE(rec.repaired());
  EXPECT_EQ(rec.request_hops, 0u);  // the report's receiver is the maintainer
  // The maintainer was the failed sensor's myrobot: the closest robot at
  // init time (nobody moved before this failure).
  const Vec2 failed_pos = s.field().node(3).position();
  NodeId closest = net::kNoNode;
  double best_d = 1e18;
  for (const auto& r : s.robots()) {
    // Robots move to repair; use where they started, recoverable from the
    // deployment being deterministic: the repairing robot is at failed_pos.
    const Vec2 pos = (r->id() == *rec.robot_id) ? failed_pos : r->position();
    const double d = geometry::distance(failed_pos, pos);
    if (d < best_d) {
      best_d = d;
      closest = r->id();
    }
  }
  EXPECT_EQ(closest, *rec.robot_id);
}

TEST(DynamicTest, MyRobotSwitchesWhenRobotMovesAway) {
  auto cfg = small_config(Algorithm::kDynamicDistributed);
  Simulation s(cfg);
  s.run_until(10.0);
  // Drive robot 0 far away; sensors that had it must eventually re-adopt
  // whichever robot is now closest, via the movement's update floods.
  auto& r0 = *s.robots()[0];
  NodeId watcher = net::kNoNode;
  for (NodeId id = 0; id < s.field().size(); ++id) {
    if (s.field().node(id).myrobot() == r0.id() &&
        geometry::distance(s.field().node(id).position(), r0.position()) > 120.0) {
      watcher = id;
      break;
    }
  }
  if (watcher == net::kNoNode) GTEST_SKIP() << "no distant member in robot 0's cell";
  const Vec2 far_corner =
      geometry::distance(r0.position(), s.config().field_area().min) >
              geometry::distance(r0.position(), s.config().field_area().max)
          ? s.config().field_area().min
          : s.config().field_area().max;
  r0.drive_to(far_corner);
  s.run_until(s.simulator().now() + 600.0);
  // The watcher heard the floods (it was in the old cell) and re-evaluated.
  const auto& n = s.field().node(watcher);
  NodeId best = net::kNoNode;
  double best_d = 1e18;
  for (const auto& r : s.robots()) {
    const double d = geometry::distance(n.position(), r->position());
    if (d < best_d) {
      best_d = d;
      best = r->id();
    }
  }
  EXPECT_EQ(n.myrobot(), best);
}

TEST(DynamicTest, FloodDedupKeepsUpdateCostBounded) {
  Simulation s(small_config(Algorithm::kDynamicDistributed));
  s.run_until(10.0);
  const auto before = s.counters().get(metrics::MessageCategory::kLocationUpdate);
  s.field().fail_slot(42);
  s.run_until(s.simulator().now() + 800.0);
  const auto after = s.counters().get(metrics::MessageCategory::kLocationUpdate);
  const auto per_failure = after - before;
  // One repair drive of <= ~300 m emits <= ~15 update floods; each flood is
  // relayed at most once per sensor (200 sensors total).
  EXPECT_GT(per_failure, 0u);
  EXPECT_LT(per_failure, 15u * 200u);
}

// --- Flood scope per algorithm (the Fig. 4 mechanism, measured directly) ---------

std::uint64_t one_update_cost(Algorithm algo) {
  auto cfg = small_config(algo, 15);
  Simulation s(cfg);
  s.run_until(20.0);  // init floods settled
  const auto before = s.counters().get(metrics::MessageCategory::kLocationUpdate);
  s.algorithm().on_robot_location_update(*s.robots()[0]);
  s.run_until(30.0);  // let the relays cascade
  return s.counters().get(metrics::MessageCategory::kLocationUpdate) - before;
}

TEST(FloodScopeTest, CentralizedUpdateIsAFewTransmissions) {
  // One broadcast + a geo-routed unicast to the manager: single digits.
  const auto cost = one_update_cost(Algorithm::kCentralized);
  EXPECT_GE(cost, 2u);
  EXPECT_LE(cost, 10u);
}

TEST(FloodScopeTest, FixedUpdateFloodsRoughlyTheSubarea) {
  // ~50 sensors per subarea each relay once (plus the seed broadcast).
  const auto cost = one_update_cost(Algorithm::kFixedDistributed);
  EXPECT_GE(cost, 25u);
  EXPECT_LE(cost, 80u);
}

TEST(FloodScopeTest, DynamicUpdateFloodsCellPlusFringe) {
  const auto fixed_cost = one_update_cost(Algorithm::kFixedDistributed);
  const auto dynamic_cost = one_update_cost(Algorithm::kDynamicDistributed);
  // The dynamic scope adds the boundary fringe: at or above fixed's, but
  // nowhere near a network-wide flood (200 sensors).
  EXPECT_GE(dynamic_cost + 10u, fixed_cost);
  EXPECT_LE(dynamic_cost, 150u);
}

// --- Idle repositioning (E12) --------------------------------------------------------

TEST(RepositionTest, IdleRobotReturnsToSubareaCenter) {
  auto cfg = small_config(Algorithm::kFixedDistributed);
  cfg.idle_reposition = true;
  Simulation s(cfg);
  s.run_until(1.0);
  const auto& algo = dynamic_cast<const FixedDistributedAlgorithm&>(s.algorithm());
  // Fail a sensor far from its subarea's center; after the repair the robot
  // must drive back near the center instead of parking at the failure.
  const Vec2 center0 = algo.partition().center(0);
  NodeId slot = net::kNoNode;
  for (NodeId id = 0; id < s.field().size(); ++id) {
    const auto& n = s.field().node(id);
    if (algo.partition().cell_of(n.position()) == 0 &&
        geometry::distance(n.position(), center0) > 80.0) {
      slot = id;
      break;
    }
  }
  ASSERT_NE(slot, net::kNoNode);
  fail_and_settle(s, slot, 1500.0);
  ASSERT_TRUE(s.failure_log().at(0).repaired());
  EXPECT_LE(geometry::distance(s.robots()[0]->position(), center0),
            s.config().update_threshold + 1.0);
}

TEST(RepositionTest, PaperModeParksAtTheFailure) {
  auto cfg = small_config(Algorithm::kFixedDistributed);
  cfg.idle_reposition = false;  // the paper's on-demand mobility
  Simulation s(cfg);
  s.run_until(1.0);
  fail_and_settle(s, 7, 1500.0);
  const auto& rec = s.failure_log().at(0);
  ASSERT_TRUE(rec.repaired());
  const auto& maintainer = *s.robots()[rec.robot_id.value() - s.config().robot_base_id()];
  EXPECT_LE(geometry::distance(maintainer.position(), s.field().node(7).position()),
            1e-6);
}

// --- Cross-algorithm properties --------------------------------------------------------

TEST(DeterminismTest, SameSeedSameResult) {
  for (const auto algo : {Algorithm::kCentralized, Algorithm::kFixedDistributed,
                          Algorithm::kDynamicDistributed}) {
    auto cfg = small_config(algo, 77);
    cfg.field.spontaneous_failures = true;
    cfg.sim_duration = 2000.0;
    Simulation a(cfg);
    a.run();
    Simulation b(cfg);
    b.run();
    const auto ra = a.result();
    const auto rb = b.result();
    EXPECT_EQ(ra.failures, rb.failures);
    EXPECT_EQ(ra.repaired, rb.repaired);
    EXPECT_DOUBLE_EQ(ra.avg_travel_per_repair, rb.avg_travel_per_repair);
    EXPECT_DOUBLE_EQ(ra.total_robot_distance, rb.total_robot_distance);
    EXPECT_EQ(ra.tx(metrics::MessageCategory::kLocationUpdate),
              rb.tx(metrics::MessageCategory::kLocationUpdate));
  }
}

TEST(DeterminismTest, DifferentSeedsDiffer) {
  auto cfg = small_config(Algorithm::kCentralized, 1);
  cfg.field.spontaneous_failures = true;
  cfg.sim_duration = 2000.0;
  Simulation a(cfg);
  a.run();
  cfg.seed = 2;
  Simulation b(cfg);
  b.run();
  EXPECT_NE(a.result().total_robot_distance, b.result().total_robot_distance);
}

TEST(SimulationTest, RunUntilIsResumableAndMetricsAreMonotone) {
  auto cfg = small_config(Algorithm::kDynamicDistributed);
  cfg.field.spontaneous_failures = true;
  cfg.sim_duration = 4000.0;
  Simulation s(cfg);
  s.run_until(1000.0);
  const auto mid = s.result();
  s.run();  // continues to 4000 s, not a restart
  const auto end = s.result();
  EXPECT_GE(end.failures, mid.failures);
  EXPECT_GE(end.repaired, mid.repaired);
  EXPECT_GE(end.total_robot_distance, mid.total_robot_distance);
  EXPECT_GE(end.tx(metrics::MessageCategory::kBeacon),
            mid.tx(metrics::MessageCategory::kBeacon));
  EXPECT_DOUBLE_EQ(s.simulator().now(), 4000.0);
}

TEST(SimulationTest, EnergyAccountingMatchesModelIdentity) {
  auto cfg = small_config(Algorithm::kFixedDistributed);
  cfg.field.spontaneous_failures = true;
  cfg.sim_duration = 4000.0;
  Simulation s(cfg);
  s.run();
  const auto r = s.result();
  // mission = idle floor for the whole fleet + marginal motion energy.
  const double idle_floor =
      cfg.energy.idle_power_w * 4000.0 * static_cast<double>(cfg.robots);
  EXPECT_NEAR(r.mission_energy_j, idle_floor + r.motion_energy_j, 1e-6);
  EXPECT_NEAR(r.motion_energy_j,
              cfg.energy.motion_energy_j(r.total_robot_distance), 1e-6);
}

TEST(SimulationTest, RobotsRestockAtTheDepotAndKeepRepairing) {
  auto cfg = small_config(Algorithm::kDynamicDistributed);
  cfg.field.spontaneous_failures = true;
  cfg.sim_duration = 8000.0;
  cfg.robot_spares = 2;
  auto stranded = cfg;  // the same fleet with nowhere to reload
  cfg.robot_depot = cfg.field_area().center();

  Simulation s(cfg);
  s.run();
  const auto r = s.result();
  EXPECT_EQ(r.orphaned_tasks, 0u);
  EXPECT_GT(r.repaired, cfg.robots * cfg.robot_spares);

  Simulation without_depot(stranded);
  without_depot.run();
  EXPECT_GT(without_depot.result().orphaned_tasks, 0u);
}

TEST(ResultTest, SummaryMentionsKeyNumbers) {
  Simulation s(small_config(Algorithm::kCentralized));
  s.run_until(1.0);
  fail_and_settle(s, 0);
  const auto text = s.result().summary();
  EXPECT_NE(text.find("centralized"), std::string::npos);
  EXPECT_NE(text.find("fig2"), std::string::npos);
  EXPECT_NE(text.find("fig4"), std::string::npos);
}

}  // namespace
}  // namespace sensrep::core
