// Unit tests for the robot substrate: FCFS task queue, kinematic movement,
// threshold-triggered location updates, spares/depot logic.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "metrics/counters.hpp"
#include "metrics/failure_log.hpp"
#include "net/medium.hpp"
#include "robot/energy.hpp"
#include "robot/robot.hpp"
#include "robot/task_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "wsn/sensor_field.hpp"

namespace sensrep::robot {
namespace {

using geometry::Vec2;
using net::NodeId;
using net::Packet;

// --- TaskQueue --------------------------------------------------------------

TEST(TaskQueueTest, FifoOrder) {
  TaskQueue q;
  q.push({1, {0, 0}, 0, 0.0});
  q.push({2, {0, 0}, 0, 0.0});
  q.push({3, {0, 0}, 0, 0.0});
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop()->slot, 1u);
  EXPECT_EQ(q.pop()->slot, 2u);
  EXPECT_EQ(q.pop()->slot, 3u);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(TaskQueueTest, FrontPeeksWithoutRemoval) {
  TaskQueue q;
  EXPECT_FALSE(q.front().has_value());
  q.push({7, {1, 2}, 0, 0.0});
  EXPECT_EQ(q.front()->slot, 7u);
  EXPECT_EQ(q.size(), 1u);
}

TEST(TaskQueueTest, ContainsSlot) {
  TaskQueue q;
  q.push({7, {1, 2}, 0, 0.0});
  EXPECT_TRUE(q.contains_slot(7));
  EXPECT_FALSE(q.contains_slot(8));
}

// --- EnergyModel -------------------------------------------------------------

TEST(EnergyModelTest, MotionEnergyScalesWithDistance) {
  const EnergyModel m;
  EXPECT_DOUBLE_EQ(m.motion_energy_j(0.0), 0.0);
  EXPECT_DOUBLE_EQ(m.motion_energy_j(100.0), (21.0 - 6.0) * 100.0);
  EXPECT_DOUBLE_EQ(m.motion_energy_j(200.0), 2.0 * m.motion_energy_j(100.0));
}

TEST(EnergyModelTest, MissionEnergyHasIdleFloor) {
  const EnergyModel m;
  // Parked the whole mission: pure idle draw.
  EXPECT_DOUBLE_EQ(m.mission_energy_j(0.0, 1000.0), 6.0 * 1000.0);
  // Driving swaps idle seconds for drive seconds.
  EXPECT_DOUBLE_EQ(m.mission_energy_j(100.0, 1000.0),
                   21.0 * 100.0 + 6.0 * 900.0);
  // Identity: mission == idle floor + marginal motion energy.
  EXPECT_DOUBLE_EQ(m.mission_energy_j(100.0, 1000.0),
                   6.0 * 1000.0 + m.motion_energy_j(100.0));
}

TEST(EnergyModelTest, FasterRobotSpendsLessTimeEnergy) {
  EnergyModel fast;
  fast.speed_m_per_s = 2.0;
  const EnergyModel slow;
  EXPECT_LT(fast.motion_energy_j(100.0), slow.motion_energy_j(100.0));
}

// --- RobotNode -----------------------------------------------------------------

/// Policy stub: counts update events and delivered packets.
class StubRobotPolicy : public RobotPolicy {
 public:
  void on_robot_location_update(RobotNode&) override { ++updates; }
  void on_robot_packet(RobotNode&, const Packet& pkt) override { delivered.push_back(pkt); }

  int updates = 0;
  std::vector<Packet> delivered;
};

/// Sensor policy stub for the field the robot repairs into.
class NullSensorPolicy : public wsn::SensorPolicy {
 public:
  std::optional<wsn::ReportTarget> report_target(const wsn::SensorNode&) const override {
    return std::nullopt;
  }
  void on_location_update(wsn::SensorNode&, const Packet&, NodeId) override {}
};

class RobotFixture : public ::testing::Test {
 protected:
  RobotFixture()
      : medium_(sim_, sim::Rng(3), net::RadioConfig{},
                geometry::Rect::sized(200.0, 200.0), 63.0) {
    wsn::FieldConfig fc;
    fc.spontaneous_failures = false;
    field_ = std::make_unique<wsn::SensorField>(sim_, medium_, sensor_policy_, log_, fc,
                                                sim::Rng(5));
    field_->deploy({{0, 0}, {40, 0}, {80, 0}, {120, 0}, {160, 0}});
    field_->initialize();
    field_->start();
  }

  RobotNode& make_robot(Vec2 pos, RobotNode::Config cfg = {}) {
    const NodeId id = 100 + static_cast<NodeId>(robots_.size());
    robots_.push_back(
        std::make_unique<RobotNode>(id, pos, cfg, sim_, medium_, *field_, policy_));
    return *robots_.back();
  }

  /// Fails a slot and returns the metrics failure id tag (record id + 1).
  std::uint64_t fail(NodeId slot) {
    field_->fail_slot(slot);
    return *field_->open_failure(slot) + 1;
  }

  sim::Simulator sim_;
  net::Medium medium_;
  NullSensorPolicy sensor_policy_;
  metrics::FailureLog log_;
  std::unique_ptr<wsn::SensorField> field_;
  StubRobotPolicy policy_;
  std::vector<std::unique_ptr<RobotNode>> robots_;
};

TEST_F(RobotFixture, DrivesAtConfiguredSpeedAndReplaces) {
  auto& r = make_robot({0, 100});  // 100 m from slot 0
  const auto fid = fail(0);
  r.enqueue({0, {0, 0}, fid, sim_.now()});
  EXPECT_TRUE(r.busy());
  sim_.run_until(99.0);
  EXPECT_FALSE(field_->node(0).alive());  // not there yet at 1 m/s
  sim_.run_until(101.0);
  EXPECT_TRUE(field_->node(0).alive());
  EXPECT_FALSE(r.busy());
  EXPECT_NEAR(r.odometer(), 100.0, 1e-6);
  EXPECT_EQ(r.repairs_done(), 1u);
  EXPECT_NEAR(log_.at(fid - 1).travel_distance, 100.0, 1e-6);
}

TEST_F(RobotFixture, EmitsUpdateEveryThresholdLeg) {
  RobotNode::Config cfg;
  cfg.update_threshold = 20.0;
  auto& r = make_robot({0, 100}, cfg);
  const auto fid = fail(0);
  r.enqueue({0, {0, 0}, fid, sim_.now()});
  sim_.run_until(200.0);
  EXPECT_EQ(policy_.updates, 5);  // 100 m / 20 m per leg
}

TEST_F(RobotFixture, PartialFinalLegStillUpdatesOnArrival) {
  RobotNode::Config cfg;
  cfg.update_threshold = 30.0;
  auto& r = make_robot({0, 70}, cfg);
  const auto fid = fail(0);
  r.enqueue({0, {0, 0}, fid, sim_.now()});
  sim_.run_until(200.0);
  EXPECT_EQ(policy_.updates, 3);  // 30 + 30 + 10
  EXPECT_NEAR(r.odometer(), 70.0, 1e-6);
}

TEST_F(RobotFixture, QueueServedFcfsWhileBusy) {
  auto& r = make_robot({0, 50});
  const auto f0 = fail(0);
  const auto f2 = fail(2);
  const auto f4 = fail(4);
  r.enqueue({0, {0, 0}, f0, sim_.now()});
  r.enqueue({2, {80, 0}, f2, sim_.now()});
  r.enqueue({4, {160, 0}, f4, sim_.now()});
  EXPECT_EQ(r.queue().size(), 2u);  // first task already started
  sim_.run_until(1000.0);
  EXPECT_EQ(r.repairs_done(), 3u);
  // Legs: 50 (to slot0) + 80 (to slot2) + 80 (to slot4).
  EXPECT_NEAR(r.odometer(), 210.0, 1e-6);
  // Per-failure travel excludes the other legs.
  EXPECT_NEAR(log_.at(f2 - 1).travel_distance, 80.0, 1e-6);
  EXPECT_NEAR(log_.at(f4 - 1).travel_distance, 80.0, 1e-6);
}

TEST_F(RobotFixture, DuplicateSlotEnqueueIgnored) {
  auto& r = make_robot({0, 50});
  const auto f0 = fail(0);
  r.enqueue({0, {0, 0}, f0, sim_.now()});
  r.enqueue({0, {0, 0}, f0, sim_.now()});  // duplicate of the active task
  EXPECT_EQ(r.queue().size(), 0u);
  sim_.run_until(100.0);
  EXPECT_EQ(r.repairs_done(), 1u);
}

TEST_F(RobotFixture, DispatchTimeRecordedOnEnqueue) {
  auto& r = make_robot({0, 50});
  sim_.run_until(5.0);
  const auto fid = fail(0);
  r.enqueue({0, {0, 0}, fid, sim_.now()});
  EXPECT_DOUBLE_EQ(log_.at(fid - 1).dispatched_at, 5.0);
}

TEST_F(RobotFixture, TeleportOnlyWhenIdle) {
  auto& r = make_robot({0, 50});
  r.teleport({10, 10});
  EXPECT_EQ(r.position(), (Vec2{10, 10}));
  const auto fid = fail(0);
  r.enqueue({0, {0, 0}, fid, sim_.now()});
  EXPECT_THROW(r.teleport({0, 0}), std::logic_error);
}

TEST_F(RobotFixture, DriveToMovesWithoutReplacing) {
  auto& r = make_robot({0, 60});
  r.drive_to({0, 0});
  EXPECT_TRUE(r.busy());
  sim_.run_until(100.0);
  EXPECT_FALSE(r.busy());
  EXPECT_NEAR(r.odometer(), 60.0, 1e-6);
  EXPECT_EQ(r.repairs_done(), 0u);
}

TEST_F(RobotFixture, FiniteSparesWithDepotReloads) {
  RobotNode::Config cfg;
  cfg.spares = 1;
  cfg.depot = Vec2{0, 200};
  auto& r = make_robot({0, 100}, cfg);
  const auto f0 = fail(0);
  const auto f2 = fail(2);
  r.enqueue({0, {0, 0}, f0, sim_.now()});
  r.enqueue({2, {80, 0}, f2, sim_.now()});
  sim_.run_until(2000.0);
  EXPECT_EQ(r.repairs_done(), 2u);
  EXPECT_TRUE(field_->node(2).alive());
  // Leg 1: 100 m to slot0 (uses the only spare). Task 2: depot run
  // (0,0)->(0,200) = 200 m, then (0,200)->(80,0) = sqrt(80^2+200^2).
  const double expected = 100.0 + 200.0 + std::hypot(80.0, 200.0);
  EXPECT_NEAR(r.odometer(), expected, 1e-6);
  EXPECT_EQ(r.spares_left(), 0u);
}

TEST_F(RobotFixture, NoSparesNoDepotSkipsTask) {
  RobotNode::Config cfg;
  cfg.spares = 0;
  auto& r = make_robot({0, 50}, cfg);
  const auto f0 = fail(0);
  r.enqueue({0, {0, 0}, f0, sim_.now()});
  sim_.run_until(500.0);
  EXPECT_EQ(r.repairs_done(), 0u);
  EXPECT_FALSE(field_->node(0).alive());
}

TEST_F(RobotFixture, SpeedScalesTravelTime) {
  RobotNode::Config cfg;
  cfg.speed = 2.0;
  auto& r = make_robot({0, 100}, cfg);
  const auto fid = fail(0);
  r.enqueue({0, {0, 0}, fid, sim_.now()});
  sim_.run_until(51.0);  // 100 m at 2 m/s = 50 s
  EXPECT_TRUE(field_->node(0).alive());
  EXPECT_FALSE(r.busy());
}

TEST_F(RobotFixture, RefreshNeighborTableSeesNearbyAliveNodes) {
  auto& r = make_robot({0, 10});
  r.refresh_neighbor_table();
  EXPECT_TRUE(r.table().contains(0));   // 10 m away
  EXPECT_TRUE(r.table().contains(4));   // 160 m away, within 250 m robot range
  field_->fail_slot(0);
  r.refresh_neighbor_table();
  EXPECT_FALSE(r.table().contains(0));  // dead nodes are not neighbors
}

TEST_F(RobotFixture, EnqueueWhileDrivingExtendsRoute) {
  auto& r = make_robot({0, 100});
  const auto f0 = fail(0);
  r.enqueue({0, {0, 0}, f0, sim_.now()});
  sim_.run_until(50.0);  // halfway to slot 0
  const auto f4 = fail(4);
  r.enqueue({4, {160, 0}, f4, sim_.now()});
  EXPECT_EQ(r.queue().size(), 1u);
  sim_.run_until(1000.0);
  EXPECT_EQ(r.repairs_done(), 2u);
}

}  // namespace
}  // namespace sensrep::robot
