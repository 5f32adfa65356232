// Golden regression suite: exact per-seed results for the three algorithms.
//
// The simulator is deterministic by design (seeded RNG streams, sequence-
// numbered event ordering), so these values must reproduce bit-for-bit on
// any standard-conforming toolchain. A failure here means an intentional
// behavior change (update the goldens, and re-run the figure benches so
// EXPERIMENTS.md stays honest) or an accidental one (a bug).
//
// Golden values recorded from: seed 2026, 4 robots, 8000 s horizon.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "brute_reference.hpp"
#include "core/coordination.hpp"
#include "core/simulation.hpp"
#include "metrics/counters.hpp"
#include "metrics/failure_log.hpp"
#include "net/medium.hpp"
#include "robot/robot.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "wsn/sensor_field.hpp"

namespace sensrep::core {
namespace {

// gtest names each case after the raw bytes of a param it cannot print, so
// the struct has no padding: `zero_fill` takes the hole after `algorithm`
// that would otherwise put uninitialized memory into the test names.
struct Golden {
  Algorithm algorithm;
  std::uint32_t zero_fill;
  std::size_t failures;
  std::size_t repaired;
  double travel;
  double report_hops;
  double request_hops;
  double update_tx;
  double total_distance;
};
static_assert(offsetof(Golden, failures) ==
              sizeof(Algorithm) + sizeof(std::uint32_t));

class GoldenRegression : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenRegression, ExactResultsReproduce) {
  const Golden& g = GetParam();
  SimulationConfig cfg;
  cfg.algorithm = g.algorithm;
  cfg.robots = 4;
  cfg.seed = 2026;
  cfg.sim_duration = 8000.0;
  Simulation s(cfg);
  s.run();
  const auto r = s.result();

  EXPECT_EQ(r.failures, g.failures);
  EXPECT_EQ(r.repaired, g.repaired);
  // Doubles with a hair of slack for -ffast-math-free toolchain variation in
  // transcendental functions (exp/log in the RNG draws).
  EXPECT_NEAR(r.avg_travel_per_repair, g.travel, 1e-3);
  EXPECT_NEAR(r.avg_report_hops, g.report_hops, 1e-3);
  EXPECT_NEAR(r.avg_request_hops, g.request_hops, 1e-3);
  EXPECT_NEAR(r.location_update_tx_per_repair, g.update_tx, 1e-3);
  EXPECT_NEAR(r.total_robot_distance, g.total_distance, 1e-2);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, GoldenRegression,
    ::testing::Values(
        Golden{Algorithm::kCentralized, 0, 105, 101, 101.320001, 3.588235, 1.058824,
               11.396040, 10293.320087},
        Golden{Algorithm::kFixedDistributed, 0, 103, 101, 104.893234, 2.490196, 0.0,
               288.801980, 10594.216595},
        Golden{Algorithm::kDynamicDistributed, 0, 104, 102, 101.962992, 2.330097, 0.0,
               353.362745, 10420.225173}),
    [](const ::testing::TestParamInfo<Golden>& param_info) {
      return std::string(to_string(param_info.param.algorithm));
    });

// --- closest_live_robot: pinned tie-breaking and liveness semantics ---------
//
// The selection rule every recovery path leans on: nearest by computed
// Euclidean distance, exact ties to the lowest robot id, presumed-dead
// robots excluded, nullptr when the whole fleet is presumed dead — and a
// robot repaired mid-simulation is eligible again the instant its rejoin
// runs, not at the next supervision sweep. Pinned for both the uniform-grid
// index and the brute-force reference scan over the same fleet state
// (tests/brute_reference.hpp), which must agree bit for bit.

/// Minimal concrete algorithm exposing the protected selection/lease layer.
class ProbeAlgorithm final : public CoordinationAlgorithm {
 public:
  void initialize() override {}
  std::optional<wsn::ReportTarget> report_target(const wsn::SensorNode&) const override {
    return std::nullopt;
  }
  void on_location_update(wsn::SensorNode&, const net::Packet&, net::NodeId) override {}
  void on_robot_location_update(robot::RobotNode&) override {}
  void on_robot_packet(robot::RobotNode&, const net::Packet&) override {}

  using CoordinationAlgorithm::closest_live_robot;
  using CoordinationAlgorithm::nearest_robot_index;
  using CoordinationAlgorithm::presumed_dead;
  using CoordinationAlgorithm::refresh_lease;
};

class ClosestLiveRobot : public ::testing::TestWithParam<bool> {
 protected:
  ClosestLiveRobot()
      : medium_(sim_, sim::Rng(3), net::RadioConfig{},
                geometry::Rect::sized(400.0, 400.0), 63.0) {
    cfg_.robots = 4;
    cfg_.sensors_per_robot = 0;  // robot ids start at 0; no sensor traffic
    cfg_.robot_faults.mtbf = 1.0e12;  // enables the lease machinery; no injector
    wsn::FieldConfig fc;
    fc.spontaneous_failures = false;
    field_ = std::make_unique<wsn::SensorField>(sim_, medium_, probe_, log_, fc,
                                               sim::Rng(5));
    field_->deploy({});
    // Robots 0 and 1 exactly equidistant from the origin (3-4-5 triangles);
    // 2 and 3 far away in the opposite corner of the 400x400 field.
    make_robot({30.0, 40.0});
    make_robot({40.0, 30.0});
    make_robot({300.0, 300.0});
    make_robot({380.0, 380.0});
    probe_.bind({&sim_, &medium_, field_.get(), &log_, &robots_, &cfg_});
  }

  void make_robot(geometry::Vec2 pos) {
    const auto id = static_cast<net::NodeId>(robots_.size());
    robots_.push_back(std::make_unique<robot::RobotNode>(
        id, pos, robot::RobotNode::Config{}, sim_, medium_, *field_, probe_));
  }

  /// The selection under test: the grid-backed algorithm query, or the
  /// brute-force reference over the same positions and lease beliefs.
  robot::RobotNode* closest_live_robot(geometry::Vec2 pos) {
    if (GetParam()) return probe_.closest_live_robot(pos);
    const auto best = fleet().nearest_euclid(
        pos, [this](std::size_t i) { return !probe_.presumed_dead(i); });
    return best ? robots_[*best].get() : nullptr;
  }

  std::optional<std::size_t> nearest_robot_index(geometry::Vec2 pos) {
    if (GetParam()) return probe_.nearest_robot_index(pos);
    return fleet().nearest_d2(pos, [](std::size_t) { return true; });
  }

  [[nodiscard]] reference::BruteIndex<std::size_t> fleet() const {
    reference::BruteIndex<std::size_t> out;
    for (std::size_t i = 0; i < robots_.size(); ++i) {
      out.pts.emplace_back(i, robots_[i]->position());
    }
    return out;
  }

  /// Keeps every robot except those in `expire` alive by refreshing their
  /// leases each heartbeat period.
  void refresh_all_but(std::vector<std::size_t> expire) {
    sim_.every(cfg_.robot_faults.heartbeat_period, [this, expire = std::move(expire)] {
      for (std::size_t i = 0; i < robots_.size(); ++i) {
        if (std::find(expire.begin(), expire.end(), i) == expire.end()) {
          probe_.refresh_lease(i);
        }
      }
    });
  }

  SimulationConfig cfg_;
  sim::Simulator sim_;
  net::Medium medium_;
  metrics::FailureLog log_;
  ProbeAlgorithm probe_;
  std::unique_ptr<wsn::SensorField> field_;
  std::vector<std::unique_ptr<robot::RobotNode>> robots_;
};

TEST_P(ClosestLiveRobot, ExactDistanceTieGoesToTheLowestId) {
  // d((0,0), robot 0) == d((0,0), robot 1) == 50 exactly.
  auto* best = closest_live_robot({0.0, 0.0});
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->id(), 0u);
  // From the far corner the tie partners lose and 3 beats 2.
  EXPECT_EQ(closest_live_robot({400.0, 400.0})->id(), 3u);
  // nearest_robot_index shares the rule (squared-distance key).
  EXPECT_EQ(nearest_robot_index({0.0, 0.0}).value(), 0u);
}

TEST_P(ClosestLiveRobot, PresumedDeadRobotsAreExcluded) {
  probe_.start_fault_tolerance();
  refresh_all_but({0});
  sim_.run_until(250.0);  // window = 3 x 60 s; sweep at 240 s expires robot 0
  ASSERT_TRUE(probe_.presumed_dead(0));
  ASSERT_FALSE(probe_.presumed_dead(1));
  // The tie partner (higher id) now wins at the origin.
  EXPECT_EQ(closest_live_robot({0.0, 0.0})->id(), 1u);
  // The init-sweep rule deliberately ignores liveness: still robot 0.
  EXPECT_EQ(nearest_robot_index({0.0, 0.0}).value(), 0u);
}

TEST_P(ClosestLiveRobot, AllDeadFleetYieldsNullptr) {
  probe_.start_fault_tolerance();
  sim_.run_until(250.0);  // nobody refreshes: the whole fleet expires
  for (std::size_t i = 0; i < 4; ++i) ASSERT_TRUE(probe_.presumed_dead(i));
  EXPECT_EQ(closest_live_robot({0.0, 0.0}), nullptr);
}

TEST_P(ClosestLiveRobot, RevivedRobotIsEligibleAgainTheSameTick) {
  probe_.start_fault_tolerance();
  sim_.run_until(250.0);
  ASSERT_EQ(closest_live_robot({0.0, 0.0}), nullptr);
  // Repair lands between sweeps: eligibility must not wait for the next one.
  probe_.on_robot_repaired(*robots_[1]);
  EXPECT_FALSE(probe_.presumed_dead(1));
  auto* best = closest_live_robot({0.0, 0.0});
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->id(), 1u);
}

TEST_P(ClosestLiveRobot, SupervisionKeepsWatchingARevivedRobot) {
  // Regression pin for the batched sweep's lease floor: after the whole
  // fleet expires the floor rises to +inf, and a later repair must pull it
  // back down — otherwise the sweep would skip forever and a silent reborn
  // robot could never be presumed dead again.
  probe_.start_fault_tolerance();
  sim_.run_until(250.0);
  probe_.on_robot_repaired(*robots_[1]);
  ASSERT_FALSE(probe_.presumed_dead(1));
  sim_.run_until(500.0);  // lease from 250 s, window 180 s: expires by 480 s
  EXPECT_TRUE(probe_.presumed_dead(1));
  EXPECT_EQ(closest_live_robot({0.0, 0.0}), nullptr);
}

INSTANTIATE_TEST_SUITE_P(GridAndBrute, ClosestLiveRobot, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& tpi) {
                           return tpi.param ? "spatial_index" : "brute_force";
                         });

}  // namespace
}  // namespace sensrep::core
