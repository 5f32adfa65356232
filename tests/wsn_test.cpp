// Unit tests for the sensor-field substrate: deployment, guardian-guardee
// establishment, beacon-based failure detection timing, guardian re-pick,
// failure reporting, replacement mechanics, and staleness eviction.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "brute_reference.hpp"
#include "metrics/counters.hpp"
#include "metrics/failure_log.hpp"
#include "net/medium.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "wsn/deployment.hpp"
#include "wsn/sensor_field.hpp"
#include "wsn/sensor_node.hpp"

namespace sensrep::wsn {
namespace {

using geometry::Rect;
using geometry::Vec2;
using net::NodeId;
using net::Packet;

// --- Deployment -----------------------------------------------------------

TEST(DeploymentTest, UniformCountAndBounds) {
  sim::Rng rng(1);
  const Rect area = Rect::sized(400, 300);
  const auto pts = uniform_deployment(rng, area, 500);
  ASSERT_EQ(pts.size(), 500u);
  for (const Vec2 p : pts) EXPECT_TRUE(area.contains(p));
}

TEST(DeploymentTest, UniformIsDeterministicPerSeed) {
  sim::Rng a(9), b(9), c(10);
  const Rect area = Rect::sized(100, 100);
  EXPECT_EQ(uniform_deployment(a, area, 50), uniform_deployment(b, area, 50));
  EXPECT_NE(uniform_deployment(a, area, 50), uniform_deployment(c, area, 50));
}

TEST(DeploymentTest, MinSeparationRespectedWhenFeasible) {
  sim::Rng rng(2);
  const auto pts = uniform_deployment(rng, Rect::sized(1000, 1000), 50, 30.0);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      EXPECT_GE(geometry::distance(pts[i], pts[j]), 30.0);
    }
  }
}

TEST(DeploymentTest, GridCoversEvenly) {
  sim::Rng rng(3);
  const auto pts = grid_deployment(rng, Rect::sized(100, 100), 4, 5, 0.0);
  ASSERT_EQ(pts.size(), 20u);
  EXPECT_EQ(pts.front(), (Vec2{10, 12.5}));
}

// --- LifetimeModel --------------------------------------------------------------

TEST(LifetimeModelTest, AllDistributionsMatchTheConfiguredMean) {
  const double target = 16000.0;
  for (const auto dist :
       {LifetimeDistribution::kExponential, LifetimeDistribution::kWeibull,
        LifetimeDistribution::kBatteryLinear}) {
    LifetimeModel model;
    model.distribution = dist;
    model.mean = target;
    sim::Rng rng(99);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) sum += model.draw(rng);
    EXPECT_NEAR(sum / n, target, target * 0.02) << to_string(dist);
  }
}

TEST(LifetimeModelTest, DrawsArePositive) {
  for (const auto dist :
       {LifetimeDistribution::kExponential, LifetimeDistribution::kWeibull,
        LifetimeDistribution::kBatteryLinear}) {
    LifetimeModel model;
    model.distribution = dist;
    model.mean = 100.0;
    sim::Rng rng(5);
    for (int i = 0; i < 5000; ++i) EXPECT_GT(model.draw(rng), 0.0) << to_string(dist);
  }
}

TEST(LifetimeModelTest, WeibullShapeControlsSpread) {
  // Higher shape -> tighter distribution (wear-out clustering).
  const auto cv = [](double shape) {
    LifetimeModel model;
    model.distribution = LifetimeDistribution::kWeibull;
    model.mean = 1000.0;
    model.weibull_shape = shape;
    sim::Rng rng(7);
    double sum = 0.0, sum2 = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
      const double x = model.draw(rng);
      sum += x;
      sum2 += x * x;
    }
    const double mean = sum / n;
    return std::sqrt(sum2 / n - mean * mean) / mean;
  };
  EXPECT_GT(cv(1.0), 0.9);  // shape 1 == exponential, CV 1
  EXPECT_LT(cv(1.0), 1.1);
  EXPECT_LT(cv(5.0), 0.3);  // strong wear-out: tight
}

TEST(LifetimeModelTest, BatteryJitterBoundsTheSupport) {
  LifetimeModel model;
  model.distribution = LifetimeDistribution::kBatteryLinear;
  model.mean = 1000.0;
  model.battery_jitter = 0.2;
  sim::Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = model.draw(rng);
    EXPECT_GE(x, 800.0);
    EXPECT_LT(x, 1200.0);
  }
}

TEST(LifetimeModelTest, ValidateRejectsBadParameters) {
  LifetimeModel model;
  model.mean = 0.0;
  EXPECT_THROW(model.validate(), std::invalid_argument);
  model = {};
  model.distribution = LifetimeDistribution::kWeibull;
  model.weibull_shape = -1.0;
  EXPECT_THROW(model.validate(), std::invalid_argument);
  model = {};
  model.distribution = LifetimeDistribution::kBatteryLinear;
  model.battery_jitter = 1.5;
  EXPECT_THROW(model.validate(), std::invalid_argument);
  model = {};
  EXPECT_NO_THROW(model.validate());
}

// --- SensorField harness -------------------------------------------------------

/// Minimal policy: reports go to a fixed "manager" transceiver owned by the
/// fixture; location updates are ignored.
class StubPolicy : public SensorPolicy {
 public:
  std::optional<ReportTarget> report_target(const SensorNode&) const override {
    return target;
  }
  void on_location_update(SensorNode&, const Packet&, NodeId) override {}

  std::optional<ReportTarget> target;
};

class FieldFixture : public ::testing::Test {
 protected:
  static constexpr NodeId kManagerId = 1000;

  FieldFixture()
      : medium_(sim_, sim::Rng(7), net::RadioConfig{},
                geometry::Rect::sized(200.0, 200.0), 63.0) {}

  /// Builds a 3x3 grid field with 40 m spacing (everyone has 2-4 neighbors
  /// at 63 m range) plus a manager node in the middle.
  void build(FieldConfig cfg = {}, double spacing = 40.0, double robot_lease_window = 0.0) {
    cfg.spontaneous_failures = false;  // tests inject failures explicitly
    field_ = std::make_unique<SensorField>(sim_, medium_, policy_, log_, cfg,
                                           sim::Rng(21), robot_lease_window);
    std::vector<Vec2> pts;
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 3; ++c) {
        pts.push_back({static_cast<double>(c) * spacing, static_cast<double>(r) * spacing});
      }
    }
    field_->deploy(pts);
    medium_.attach(kManagerId, {spacing, spacing}, 250.0,
                   [this](const Packet& pkt, NodeId) { manager_rx_.push_back(pkt); });
    policy_.target = ReportTarget{kManagerId, {spacing, spacing}};
    field_->initialize();
    // Manager discovery (the coordination algorithms do this in their init):
    // sensors within their own TX range can use the manager as a final hop.
    for (NodeId id = 0; id < field_->size(); ++id) {
      auto& n = field_->node(id);
      if (geometry::distance(n.position(), {spacing, spacing}) <= 63.0) {
        n.table().upsert(kManagerId, {spacing, spacing});
      }
    }
    field_->start();
    sim_.run_until(0.1);  // drain guardian confirmations
  }

  /// Offers robot `robot`'s flood update `seq` to node `n`'s relay step and
  /// returns how many location-update frames went on the air (0 or 1).
  std::uint64_t relays(SensorNode& n, NodeId robot, std::uint32_t seq) {
    Packet pkt;
    pkt.type = net::PacketType::kLocationUpdate;
    pkt.src = n.id();
    pkt.dst = net::kBroadcastId;
    pkt.payload = net::LocationUpdatePayload{robot, {30, 0}, seq};
    const auto before = sim_.counters().get(metrics::MessageCategory::kLocationUpdate);
    n.relay_once(pkt, robot, seq);
    return sim_.counters().get(metrics::MessageCategory::kLocationUpdate) - before;
  }

  sim::Simulator sim_;
  net::Medium medium_;
  StubPolicy policy_;
  metrics::FailureLog log_;
  std::unique_ptr<SensorField> field_;
  std::vector<Packet> manager_rx_;
};

TEST_F(FieldFixture, DeployBuildsStaticAdjacency) {
  build();
  // Corner node 0 at (0,0): neighbors at 40 and 56.6 (diagonal) distance.
  const auto adj = field_->static_neighbors(0);
  EXPECT_EQ(std::vector<NodeId>(adj.begin(), adj.end()), (std::vector<NodeId>{1, 3, 4}));
  // Center node 4 sees everything within 63 m: the 4-neighborhood + corners.
  EXPECT_EQ(field_->static_neighbors(4).size(), 8u);
  // The manager sits on node 4, inside every sensor's range: the medium's
  // list holds it, the sensor adjacency does not.
  EXPECT_EQ(medium_.static_receivers(4).back(), kManagerId);
}

// static_neighbors() is the sensor prefix of the medium's static receiver
// list. It must equal a brute sensor-only d^2 <= r^2 scan, in ascending
// order, with a static manager attached after the lists were first built and
// a mobile robot in range.
TEST(StaticNeighborsTest, EqualBruteSensorScanWithManagerAndRobotInRange) {
  sim::Simulator sim;
  net::Medium medium(sim, sim::Rng(3), net::RadioConfig{},
                     Rect::sized(300.0, 300.0), 63.0);
  StubPolicy policy;
  metrics::FailureLog log;
  FieldConfig cfg;
  cfg.spontaneous_failures = false;
  SensorField field(sim, medium, policy, log, cfg, sim::Rng(4));
  sim::Rng rng(5);
  const auto pts = uniform_deployment(rng, Rect::sized(300.0, 300.0), 300);
  field.deploy(pts);
  reference::BruteIndex<NodeId> brute;
  for (NodeId id = 0; id < pts.size(); ++id) brute.pts.emplace_back(id, pts[id]);
  const auto check = [&] {
    for (NodeId id = 0; id < pts.size(); ++id) {
      auto want = brute.within_radius(pts[id], cfg.sensor_tx_range);
      std::erase(want, id);
      const auto got = field.static_neighbors(id);
      ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()), want) << "sensor " << id;
    }
  };
  check();
  const NodeId manager = 500;
  const NodeId robot = 501;
  medium.attach(manager, {150.0, 150.0}, 250.0, {});
  medium.attach(robot, {140.0, 150.0}, 250.0, {}, net::Mobility::kMobile);
  check();
  EXPECT_EQ(medium.static_receivers(brute.within_radius({150.0, 150.0}, 63.0).front())
                .back(),
            manager);
}

TEST_F(FieldFixture, GuardiansAreNearestNeighbors) {
  build();
  sim_.run_until(1.0);
  // Every node picked a guardian, and it is one of its nearest neighbors
  // (40 m beats the 56.6 m diagonals).
  for (NodeId id = 0; id < 9; ++id) {
    const auto& n = field_->node(id);
    ASSERT_NE(n.guardian(), net::kNoNode) << "node " << id;
    const double d = geometry::distance(n.position(),
                                        field_->node(n.guardian()).position());
    EXPECT_DOUBLE_EQ(d, 40.0) << "node " << id;
  }
  EXPECT_EQ(field_->unguarded_count(), 0u);
}

TEST_F(FieldFixture, GuardianConfirmEstablishesGuardeeSets) {
  build();
  sim_.run_until(1.0);
  // Sum of guardee counts == number of sensors (each confirmed exactly one).
  std::size_t total = 0;
  for (NodeId id = 0; id < 9; ++id) total += field_->node(id).guardees().size();
  EXPECT_EQ(total, 9u);
}

TEST_F(FieldFixture, FailureDetectedWithinFourBeaconPeriods) {
  build();
  sim_.run_until(1.0);
  field_->fail_slot(4);
  const double failed_at = sim_.now();
  sim_.run_until(failed_at + 45.0);
  ASSERT_EQ(log_.size(), 1u);
  const auto& rec = log_.at(0);
  EXPECT_TRUE(rec.detected());
  // Staleness window is 30 s; the guardian's check tick adds < 1 period.
  EXPECT_GE(rec.detected_at - rec.failed_at, 30.0);
  EXPECT_LE(rec.detected_at - rec.failed_at, 40.0);
}

TEST_F(FieldFixture, FailureReportReachesManagerExactlyOnce) {
  build();
  sim_.run_until(1.0);
  field_->fail_slot(4);
  sim_.run_until(sim_.now() + 60.0);
  std::size_t reports = 0;
  for (const auto& pkt : manager_rx_) {
    if (pkt.type == net::PacketType::kFailureReport) {
      ++reports;
      const auto& body = std::get<net::FailureReportPayload>(pkt.payload);
      EXPECT_EQ(body.failed_node, 4u);
      EXPECT_EQ(body.failure_id, 1u);  // metrics tag = record id + 1
    }
  }
  EXPECT_EQ(reports, 1u);
}

TEST_F(FieldFixture, DeadNodeStopsBeaconTraffic) {
  build();
  sim_.run_until(1.0);
  field_->fail_slot(0);
  const auto beacons_before = sim_.counters().get(metrics::MessageCategory::kBeacon);
  sim_.run_until(sim_.now() + 100.0);
  const auto beacons_after = sim_.counters().get(metrics::MessageCategory::kBeacon);
  // 8 alive sensors x 10 periods = 80 beacons expected (+- tick phase).
  EXPECT_NEAR(static_cast<double>(beacons_after - beacons_before), 80.0, 9.0);
}

TEST_F(FieldFixture, StalenessEvictsFailedNodeFromNeighborTables) {
  build();
  sim_.run_until(1.0);
  ASSERT_TRUE(field_->node(0).table().contains(4));
  field_->fail_slot(4);
  sim_.run_until(sim_.now() + 31.0);
  EXPECT_FALSE(field_->node(0).table().contains(4));
  EXPECT_FALSE(field_->node(8).table().contains(4));
}

TEST_F(FieldFixture, GuardeeRePicksGuardianWhenGuardianDies) {
  build();
  sim_.run_until(1.0);
  // Find a node whose guardian is node 4 (center), then kill 4.
  NodeId orphan = net::kNoNode;
  for (NodeId id = 0; id < 9; ++id) {
    if (id != 4 && field_->node(id).guardian() == 4) {
      orphan = id;
      break;
    }
  }
  if (orphan == net::kNoNode) GTEST_SKIP() << "grid symmetry: no node guarded by center";
  field_->fail_slot(4);
  sim_.run_until(sim_.now() + 50.0);
  const auto& n = field_->node(orphan);
  EXPECT_NE(n.guardian(), 4u);
  EXPECT_NE(n.guardian(), net::kNoNode);
}

TEST_F(FieldFixture, ReplacementClosesRecordAndRestoresNode) {
  build();
  sim_.run_until(1.0);
  field_->fail_slot(4);
  sim_.run_until(sim_.now() + 60.0);
  EXPECT_FALSE(field_->node(4).alive());
  field_->replace_slot(4, 500);
  const double repaired_at = sim_.now();
  EXPECT_TRUE(field_->node(4).alive());
  EXPECT_EQ(field_->node(4).incarnation(), 1u);
  const auto& rec = log_.at(0);
  EXPECT_TRUE(rec.repaired());
  EXPECT_DOUBLE_EQ(rec.repaired_at, repaired_at);
  ASSERT_TRUE(rec.robot_id.has_value());
  EXPECT_EQ(*rec.robot_id, 500u);
}

TEST_F(FieldFixture, ReplacedNodeRejoinsNeighborTablesAndGetsGuardian) {
  build();
  sim_.run_until(1.0);
  field_->fail_slot(4);
  sim_.run_until(sim_.now() + 40.0);  // detected + evicted
  field_->replace_slot(4, 500);
  sim_.run_until(sim_.now() + 15.0);  // announce + table rebuild + guardian
  EXPECT_TRUE(field_->node(0).table().contains(4));   // announce heard
  EXPECT_FALSE(field_->node(4).table().empty());      // table rebuilt
  EXPECT_NE(field_->node(4).guardian(), net::kNoNode);
}

TEST_F(FieldFixture, ReplacedNodeCanFailAndBeDetectedAgain) {
  build();
  sim_.run_until(1.0);
  field_->fail_slot(4);
  sim_.run_until(sim_.now() + 40.0);
  field_->replace_slot(4, 500);
  sim_.run_until(sim_.now() + 20.0);
  field_->fail_slot(4);
  sim_.run_until(sim_.now() + 45.0);
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_TRUE(log_.at(1).detected());
}

TEST_F(FieldFixture, UnreportedWhenPolicyHasNoManager) {
  build();
  sim_.run_until(1.0);
  policy_.target = std::nullopt;  // managers unreachable
  field_->fail_slot(4);
  sim_.run_until(sim_.now() + 60.0);
  EXPECT_EQ(field_->unreported_count(), 1u);
  EXPECT_TRUE(log_.at(0).detected());
  EXPECT_FALSE(sim::is_valid_time(log_.at(0).reported_at));
}

TEST_F(FieldFixture, AliveCountTracksFailuresAndRepairs) {
  build();
  EXPECT_EQ(field_->alive_count(), 9u);
  field_->fail_slot(1);
  field_->fail_slot(2);
  EXPECT_EQ(field_->alive_count(), 7u);
  field_->replace_slot(1, 500);
  EXPECT_EQ(field_->alive_count(), 8u);
}

TEST_F(FieldFixture, CoverageFractionDropsWithFailures) {
  build();
  const Rect area{{-20, -20}, {100, 100}};
  const double full = field_->coverage_fraction(area, 45.0);
  for (NodeId id = 0; id < 9; ++id) {
    if (id != 4) field_->fail_slot(id);
  }
  const double sparse = field_->coverage_fraction(area, 45.0);
  EXPECT_GT(full, sparse);
  EXPECT_GT(sparse, 0.0);
}

TEST_F(FieldFixture, SpontaneousLifetimesScheduleFailures) {
  FieldConfig cfg;
  cfg.lifetime.mean = 50.0;  // very short for the test
  cfg.spontaneous_failures = true;
  field_ = std::make_unique<SensorField>(sim_, medium_, policy_, log_, cfg, sim::Rng(4));
  std::vector<Vec2> pts;
  for (int i = 0; i < 20; ++i) pts.push_back({static_cast<double>(i) * 30.0, 0});
  field_->deploy(pts);
  policy_.target = std::nullopt;
  field_->initialize();
  field_->start();
  sim_.run_until(200.0);
  // With mean 50 s over 200 s, nearly every node should have failed once.
  EXPECT_GE(log_.size(), 10u);
}

TEST_F(FieldFixture, FailSlotIsIdempotent) {
  build();
  field_->fail_slot(3);
  field_->fail_slot(3);
  EXPECT_EQ(log_.size(), 1u);
}

TEST_F(FieldFixture, ReplaceAliveSlotIsRejected) {
  build();
  field_->replace_slot(3, 500);  // logs a warning, does nothing
  EXPECT_EQ(field_->node(3).incarnation(), 0u);
}

TEST_F(FieldFixture, LearnRobotOrdersBySequence) {
  build();
  auto& n = field_->node(0);
  EXPECT_TRUE(n.learn_robot(500, {10, 10}, 3));
  EXPECT_FALSE(n.learn_robot(500, {99, 99}, 3));  // duplicate seq
  EXPECT_FALSE(n.learn_robot(500, {99, 99}, 2));  // stale seq
  EXPECT_TRUE(n.learn_robot(500, {20, 20}, 4));
  ASSERT_NE(n.find_robot(500), nullptr);
  EXPECT_EQ(n.find_robot(500)->location, (Vec2{20, 20}));
  EXPECT_EQ(n.find_robot(500)->seq, 4u);
  EXPECT_EQ(n.find_robot(777), nullptr);
}

TEST_F(FieldFixture, LearnRobotManagesRoutingTableByRange) {
  build();
  auto& n = field_->node(0);  // at (0,0), sensor range 63 m
  EXPECT_TRUE(n.learn_robot(500, {30, 0}, 1));
  EXPECT_TRUE(n.table().contains(500));  // in range: usable next hop
  EXPECT_TRUE(n.learn_robot(500, {200, 0}, 2));
  EXPECT_FALSE(n.table().contains(500));  // moved away: evicted
}

TEST_F(FieldFixture, ClosestKnownRobotPicksMinimum) {
  build();
  auto& n = field_->node(0);
  EXPECT_FALSE(n.closest_known_robot().has_value());
  n.learn_robot(500, {100, 0}, 1);
  n.learn_robot(501, {40, 0}, 1);
  n.learn_robot(502, {300, 0}, 1);
  ASSERT_TRUE(n.closest_known_robot().has_value());
  EXPECT_EQ(*n.closest_known_robot(), 501u);
}

TEST_F(FieldFixture, RelayDedupBySequence) {
  build();
  auto& n = field_->node(0);
  EXPECT_EQ(relays(n, 500, 1), 1u);
  EXPECT_EQ(relays(n, 500, 3), 1u);
  EXPECT_EQ(relays(n, 500, 3), 0u);  // already relayed
  EXPECT_EQ(relays(n, 500, 2), 0u);  // older than relayed
  EXPECT_EQ(relays(n, 500, 4), 1u);  // newer
  EXPECT_EQ(relays(n, 501, 1), 1u);  // other robot
}

TEST_F(FieldFixture, FailureClearsProtocolState) {
  build();
  auto& n = field_->node(0);
  n.learn_robot(500, {30, 0}, 5);
  n.set_myrobot(500);
  EXPECT_EQ(relays(n, 500, 5), 1u);
  field_->fail_slot(0);
  EXPECT_EQ(n.myrobot(), net::kNoNode);
  EXPECT_EQ(n.find_robot(500), nullptr);
  EXPECT_TRUE(n.table().empty());
  field_->replace_slot(0, kManagerId);
  EXPECT_EQ(relays(n, 500, 5), 1u);  // a fresh unit starts clean
}

// The relay stamp is not robot knowledge: aging a robot out of the table
// must not let this unit relay the same flood update a second time.
TEST_F(FieldFixture, RelayStampOutlivesRobotKnowledgeAging) {
  const double lease = 25.0;
  build({}, 40.0, lease);
  auto& n = field_->node(0);
  ASSERT_TRUE(n.learn_robot(500, {30, 0}, 5));
  EXPECT_EQ(relays(n, 500, 5), 1u);
  sim_.run_until(sim_.now() + lease + 3 * FieldConfig{}.beacon_period);
  ASSERT_EQ(n.find_robot(500), nullptr);  // aged out by the beacon tick
  EXPECT_EQ(relays(n, 500, 5), 0u);
  EXPECT_EQ(relays(n, 500, 6), 1u);
}

// ... nor may a replacement unit's mentor copy, which overwrites the robot
// table with an older sequence than the unit already relayed.
TEST_F(FieldFixture, RelayStampOutlivesMentorCopy) {
  build();
  for (NodeId id = 0; id < field_->size(); ++id) field_->node(id).learn_robot(500, {30, 0}, 6);
  field_->fail_slot(0);
  field_->replace_slot(0, kManagerId);
  auto& n = field_->node(0);
  // First beacon period: the new unit hears update 7 and relays it.
  ASSERT_TRUE(n.learn_robot(500, {30, 0}, 7));
  EXPECT_EQ(relays(n, 500, 7), 1u);
  // One period after power-on the unit copies its mentor's robot table.
  sim_.run_until(sim_.now() + 1.5 * FieldConfig{}.beacon_period);
  ASSERT_NE(n.find_robot(500), nullptr);
  ASSERT_EQ(n.find_robot(500)->seq, 6u);  // the mentor's copy replaced 7
  EXPECT_EQ(relays(n, 500, 7), 0u);
}

TEST_F(FieldFixture, PairDeathUndetectedWithoutWatch) {
  // Kill a guardee together with its guardian: the paper's "negligible"
  // corner case. Without neighborhood watch, whichever of the two was only
  // watched by the other goes unreported.
  build();
  sim_.run_until(1.0);
  // Node 4's guardian g: kill both at once.
  const NodeId g = field_->node(4).guardian();
  ASSERT_NE(g, net::kNoNode);
  field_->fail_slot(4);
  field_->fail_slot(g);
  sim_.run_until(sim_.now() + 100.0);
  // g is watched by its own guardian (a third node) -> detected. Node 4 was
  // watched only by g -> undetected, unless its guardian wasn't g... assert
  // via the log: at most one of the two records carries a detection.
  std::size_t detected = 0;
  for (const auto& rec : log_.records()) detected += rec.detected() ? 1 : 0;
  EXPECT_LE(detected, 1u);
}

TEST_F(FieldFixture, PairDeathDetectedWithWatch) {
  FieldConfig cfg;
  cfg.neighborhood_watch = true;
  build(cfg);
  sim_.run_until(1.0);
  const NodeId g = field_->node(4).guardian();
  ASSERT_NE(g, net::kNoNode);
  field_->fail_slot(4);
  field_->fail_slot(g);
  sim_.run_until(sim_.now() + 100.0);
  for (const auto& rec : log_.records()) {
    EXPECT_TRUE(rec.detected()) << "slot " << rec.node_id;
  }
}

TEST_F(FieldFixture, WatchModeReportsEachFailureOncePerWatcher) {
  FieldConfig cfg;
  cfg.neighborhood_watch = true;
  build(cfg);
  sim_.run_until(1.0);
  field_->fail_slot(4);  // center node: 8 watchers
  sim_.run_until(sim_.now() + 200.0);
  std::size_t reports = 0;
  for (const auto& pkt : manager_rx_) {
    if (pkt.type == net::PacketType::kFailureReport) ++reports;
  }
  // Every alive watcher reports once — and exactly once (dedup by silence
  // episode), despite 20 periods elapsing.
  EXPECT_GE(reports, 3u);
  EXPECT_LE(reports, 8u);
}

TEST_F(FieldFixture, ReportSeqKeepsIncreasingAcrossTheReportersReplacement) {
  // Receivers deduplicate failure reports on (src, seq). The slot's router
  // stamps the seq and outlives the unit, so the replacement unit continues
  // its predecessor's sequence instead of reusing its numbers.
  FieldConfig cfg;
  cfg.neighborhood_watch = true;  // every watcher reports, not only the guardian
  build(cfg);
  sim_.run_until(1.0);
  const NodeId reporter = field_->node(4).guardian();
  ASSERT_NE(reporter, net::kNoNode);
  const auto seqs_from_reporter = [&](std::size_t begin, std::size_t end) {
    std::vector<std::uint32_t> seqs;
    for (std::size_t i = begin; i < end; ++i) {
      const Packet& pkt = manager_rx_[i];
      if (pkt.type == net::PacketType::kFailureReport && pkt.src == reporter) {
        seqs.push_back(pkt.seq);
      }
    }
    return seqs;
  };

  field_->fail_slot(4);
  sim_.run_until(sim_.now() + 60.0);
  field_->replace_slot(4, 500);
  sim_.run_until(sim_.now() + 20.0);
  field_->fail_slot(reporter);
  sim_.run_until(sim_.now() + 60.0);
  field_->replace_slot(reporter, 500);
  ASSERT_EQ(field_->node(reporter).incarnation(), 1u);
  const std::size_t replaced_at = manager_rx_.size();
  sim_.run_until(sim_.now() + 20.0);
  field_->fail_slot(4);
  sim_.run_until(sim_.now() + 60.0);

  const auto before = seqs_from_reporter(0, replaced_at);
  const auto after = seqs_from_reporter(replaced_at, manager_rx_.size());
  ASSERT_FALSE(before.empty());
  ASSERT_FALSE(after.empty());
  std::vector<std::uint32_t> all = before;
  all.insert(all.end(), after.begin(), after.end());
  for (std::size_t i = 1; i < all.size(); ++i) EXPECT_GT(all[i], all[i - 1]);
}


class ReliableReportFixture : public FieldFixture {
 protected:
  std::size_t run_deaf_manager(bool reliable) {
    FieldConfig cfg;
    cfg.reliable_reports = reliable;
    cfg.report_retry_timeout = 10.0;
    build(cfg);
    sim_.run_until(1.0);
    medium_.set_alive(kManagerId, false);
    field_->fail_slot(4);
    sim_.at(44.0, [this] {
      // The manager comes back and re-announces itself (forwarders evicted
      // it from their tables while it was deaf).
      medium_.set_alive(kManagerId, true);
      for (NodeId id = 0; id < field_->size(); ++id) {
        auto& n = field_->node(id);
        if (n.alive() && geometry::distance(n.position(), {40.0, 40.0}) <= 63.0) {
          n.table().upsert(kManagerId, {40.0, 40.0});
        }
      }
    });
    sim_.run_until(120.0);
    std::size_t reports = 0;
    for (const auto& pkt : manager_rx_) {
      if (pkt.type == net::PacketType::kFailureReport) ++reports;
    }
    return reports;
  }
};

TEST_F(ReliableReportFixture, RetryReachesTheRevivedManager) {
  EXPECT_GE(run_deaf_manager(true), 1u);
}

TEST_F(ReliableReportFixture, SingleShotReportDiesWithoutRetries) {
  EXPECT_EQ(run_deaf_manager(false), 0u);
}

TEST_F(FieldFixture, ReliableReportsSendBoundedRetries) {
  // Manager permanently dead: retries must stop at the configured budget
  // instead of flooding forever.
  FieldConfig cfg;
  cfg.reliable_reports = true;
  cfg.report_retries = 3;
  cfg.report_retry_timeout = 10.0;
  build(cfg);
  sim_.run_until(1.0);
  medium_.set_alive(kManagerId, false);
  const auto tx_before = sim_.counters().get(metrics::MessageCategory::kFailureReport);
  field_->fail_slot(4);
  sim_.run_until(300.0);
  const auto tx_after = sim_.counters().get(metrics::MessageCategory::kFailureReport);
  // 1 + 3 retries, each a handful of hop transmissions before the drop.
  EXPECT_GT(tx_after, tx_before);
  EXPECT_LE(tx_after - tx_before, 4u * 8u);
}

TEST_F(FieldFixture, IsSensorBoundaries) {
  build();
  EXPECT_TRUE(field_->is_sensor(0));
  EXPECT_TRUE(field_->is_sensor(8));
  EXPECT_FALSE(field_->is_sensor(9));
  EXPECT_FALSE(field_->is_sensor(kManagerId));
  EXPECT_THROW((void)field_->node(9), std::out_of_range);
}

}  // namespace
}  // namespace sensrep::wsn
