// Tests for the chaos subsystem: LinkModel unit behavior (Gilbert-Elliott
// bursts, duplication, jitter, partition windows, config validation), its
// Medium integration, the protocol hardening against duplication, and the
// runtime invariant oracle — including the three-algorithm resurrection
// suite under combined adversarial link conditions.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "chaos/invariant_checker.hpp"
#include "chaos/link_model.hpp"
#include "core/simulation.hpp"
#include "metrics/counters.hpp"
#include "net/medium.hpp"
#include "net/packet.hpp"
#include "runner/executor.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace sensrep::chaos {
namespace {

using geometry::Vec2;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Spatial-index bounds for the media under test.
constexpr geometry::Rect kArea = geometry::Rect::sized(200.0, 200.0);

// ---------------------------------------------------------------------------
// ChaosConfig validation (satellite: reject malformed knobs at construction)

TEST(ChaosConfigTest, DefaultIsDisabledAndValid) {
  ChaosConfig cfg;
  EXPECT_FALSE(cfg.any_enabled());
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ChaosConfigTest, RejectsOutOfRangeAndNaNProbabilities) {
  ChaosConfig cfg;
  cfg.burst.enabled = true;
  cfg.burst.p_enter_bad = -0.1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.burst.p_enter_bad = kNaN;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.burst.p_enter_bad = 0.1;
  cfg.burst.loss_bad = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.burst.loss_bad = 0.5;
  EXPECT_NO_THROW(cfg.validate());

  cfg.duplication.enabled = true;
  cfg.duplication.probability = 2.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.duplication.probability = 0.1;
  cfg.duplication.extra_delay_s = -1.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.duplication.extra_delay_s = 1e-3;
  EXPECT_NO_THROW(cfg.validate());

  cfg.jitter.enabled = true;
  cfg.jitter.probability = 0.5;
  cfg.jitter.max_extra_s = kNaN;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.jitter.max_extra_s = 0.01;
  EXPECT_NO_THROW(cfg.validate());
}

TEST(ChaosConfigTest, RejectsMalformedPartitionWindows) {
  ChaosConfig cfg;
  PartitionWindow w;
  w.start_s = 100.0;
  w.end_s = 100.0;  // empty window
  cfg.partitions.push_back(w);
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.partitions[0].end_s = 200.0;
  EXPECT_NO_THROW(cfg.validate());

  cfg.partitions[0].has_zone = true;
  cfg.partitions[0].zone_min = {10.0, 10.0};
  cfg.partitions[0].zone_max = {5.0, 20.0};  // inverted rect
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.partitions[0].zone_max = {20.0, 20.0};
  EXPECT_NO_THROW(cfg.validate());
}

TEST(RadioConfigTest, MediumConstructionValidates) {
  sim::Simulator sim;
  net::RadioConfig bad;
  bad.bitrate_bps = 0.0;
  EXPECT_THROW(net::Medium(sim, sim::Rng(1), bad, kArea, 50.0),
               std::invalid_argument);
  bad.bitrate_bps = 11e6;
  bad.loss_probability = kNaN;
  EXPECT_THROW(net::Medium(sim, sim::Rng(1), bad, kArea, 50.0),
               std::invalid_argument);
  bad.loss_probability = 0.0;
  bad.unicast_retries = -1;
  EXPECT_THROW(net::Medium(sim, sim::Rng(1), bad, kArea, 50.0),
               std::invalid_argument);
  bad.unicast_retries = 3;
  bad.chaos.burst.enabled = true;
  bad.chaos.burst.p_enter_bad = -1.0;
  EXPECT_THROW(net::Medium(sim, sim::Rng(1), bad, kArea, 50.0),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// LinkModel unit behavior

TEST(LinkModelTest, GilbertElliottLossIsBurstyAtTheStationaryRate) {
  ChaosConfig cfg;
  cfg.burst.enabled = true;
  cfg.burst.p_enter_bad = 0.1;
  cfg.burst.p_exit_bad = 0.3;
  cfg.burst.loss_bad = 1.0;
  cfg.burst.loss_good = 0.0;
  LinkModel model(cfg, sim::Rng(42));

  const int kDraws = 40000;
  int drops = 0, run = 0, longest_run = 0;
  for (int i = 0; i < kDraws; ++i) {
    if (model.burst_drop()) {
      ++drops;
      longest_run = std::max(longest_run, ++run);
    } else {
      run = 0;
    }
  }
  // Stationary bad share = p_enter / (p_enter + p_exit) = 0.25.
  const double rate = static_cast<double>(drops) / kDraws;
  EXPECT_NEAR(rate, 0.25, 0.03);
  // Bursts: E[sojourn in bad] = 1/p_exit ~ 3.3, so long runs must occur —
  // the qualitative difference from Bernoulli loss at the same average rate.
  EXPECT_GE(longest_run, 5);
}

TEST(LinkModelTest, DisabledSubModelsNeverFire) {
  ChaosConfig cfg;
  cfg.jitter.enabled = true;  // any_enabled, but burst/dup off
  cfg.jitter.probability = 1.0;
  cfg.jitter.max_extra_s = 0.01;
  LinkModel model(cfg, sim::Rng(7));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(model.burst_drop());
    EXPECT_FALSE(model.duplicate());
    EXPECT_GT(model.jitter(), 0.0);
  }
}

TEST(LinkModelTest, PartitionWindowCoverage) {
  PartitionWindow global;
  global.start_s = 100.0;
  global.end_s = 200.0;
  EXPECT_FALSE(global.covers(99.9, 1, {0, 0}));
  EXPECT_TRUE(global.covers(100.0, 1, {0, 0}));
  EXPECT_TRUE(global.covers(199.9, 42, {500, 500}));
  EXPECT_FALSE(global.covers(200.0, 1, {0, 0}));  // [t0, t1)

  PartitionWindow zoned = global;
  zoned.has_zone = true;
  zoned.zone_min = {0, 0};
  zoned.zone_max = {100, 100};
  EXPECT_TRUE(zoned.covers(150.0, 1, {50, 50}));
  EXPECT_TRUE(zoned.covers(150.0, 1, {100, 100}));  // inclusive edge
  EXPECT_FALSE(zoned.covers(150.0, 1, {101, 50}));

  PartitionWindow listed = global;
  listed.nodes = {3, 9};
  EXPECT_TRUE(listed.covers(150.0, 9, {999, 999}));
  EXPECT_FALSE(listed.covers(150.0, 4, {0, 0}));
}

// ---------------------------------------------------------------------------
// Medium integration

struct Rx {
  std::vector<std::pair<net::Packet, net::NodeId>> got;
  net::Medium::ReceiveFn fn() {
    return [this](const net::Packet& p, net::NodeId from) { got.emplace_back(p, from); };
  }
};

net::Packet beacon(net::NodeId src) {
  net::Packet p;
  p.type = net::PacketType::kBeacon;
  p.src = src;
  p.dst = net::kBroadcastId;
  return p;
}

TEST(MediumChaosTest, DefaultMediumHasNoChaosModel) {
  sim::Simulator sim;
  net::Medium medium(sim, sim::Rng(1), net::RadioConfig{}, kArea, 50.0);
  EXPECT_FALSE(medium.chaos_active());
}

TEST(MediumChaosTest, DuplicationDeliversTwiceButCountsOneTransmission) {
  sim::Simulator sim;
  const obs::CounterBlock& counters = sim.counters();
  net::RadioConfig cfg;
  cfg.chaos.duplication.enabled = true;
  cfg.chaos.duplication.probability = 1.0;
  net::Medium medium(sim, sim::Rng(1), cfg, kArea, 50.0);
  EXPECT_TRUE(medium.chaos_active());

  Rx rx;
  medium.attach(1, {0, 0}, 50.0, {});
  medium.attach(2, {30, 0}, 50.0, rx.fn());
  medium.broadcast(1, beacon(1));
  sim.run_all();
  EXPECT_EQ(rx.got.size(), 2u);  // the duplicate is a reception artifact
  EXPECT_EQ(counters.total(), 1u);
  EXPECT_EQ(medium.chaos_duplicates(), 1u);
}

TEST(MediumChaosTest, GlobalPartitionJamsSenderButStillCountsTheTransmission) {
  sim::Simulator sim;
  const obs::CounterBlock& counters = sim.counters();
  net::RadioConfig cfg;
  PartitionWindow w;
  w.start_s = 0.0;
  w.end_s = 10.0;
  cfg.chaos.partitions.push_back(w);
  net::Medium medium(sim, sim::Rng(1), cfg, kArea, 50.0);

  Rx rx;
  medium.attach(1, {0, 0}, 50.0, {});
  medium.attach(2, {30, 0}, 50.0, rx.fn());

  // Inside the window: jam = the frame goes on air (counted) but lands
  // nowhere. After it: delivery resumes.
  medium.broadcast(1, beacon(1));
  sim.run_all();
  EXPECT_TRUE(rx.got.empty());
  EXPECT_EQ(counters.total(), 1u);
  EXPECT_GE(medium.chaos_jams(), 1u);

  sim.in(12.0, [&] { medium.broadcast(1, beacon(1)); });
  sim.run_all();
  EXPECT_EQ(rx.got.size(), 1u);
  EXPECT_EQ(counters.total(), 2u);
}

TEST(MediumChaosTest, ZonedPartitionJamsOnlyNodesInsideTheRect) {
  sim::Simulator sim;
  net::RadioConfig cfg;
  PartitionWindow w;
  w.start_s = 0.0;
  w.end_s = 10.0;
  w.has_zone = true;
  w.zone_min = {20, -10};
  w.zone_max = {40, 10};  // covers node 2, not nodes 1 and 3
  cfg.chaos.partitions.push_back(w);
  net::Medium medium(sim, sim::Rng(1), cfg, kArea, 50.0);

  Rx in_zone, out_zone;
  medium.attach(1, {0, 0}, 50.0, {});
  medium.attach(2, {30, 0}, 50.0, in_zone.fn());
  medium.attach(3, {-30, 0}, 50.0, out_zone.fn());
  medium.broadcast(1, beacon(1));
  sim.run_all();
  EXPECT_TRUE(in_zone.got.empty());
  EXPECT_EQ(out_zone.got.size(), 1u);
}

TEST(MediumChaosTest, UnicastIntoJamBurnsAllAttemptsAndFails) {
  sim::Simulator sim;
  const obs::CounterBlock& counters = sim.counters();
  net::RadioConfig cfg;
  PartitionWindow w;
  w.start_s = 0.0;
  w.end_s = 10.0;
  cfg.chaos.partitions.push_back(w);
  net::Medium medium(sim, sim::Rng(1), cfg, kArea, 50.0);

  Rx rx;
  medium.attach(1, {0, 0}, 50.0, {});
  medium.attach(2, {30, 0}, 50.0, rx.fn());
  net::Packet p = beacon(1);
  p.dst = 2;
  EXPECT_FALSE(medium.unicast(1, 2, p));
  sim.run_all();
  EXPECT_TRUE(rx.got.empty());
  // Jam is loss, not a powered-off radio: every ARQ attempt is counted.
  EXPECT_EQ(counters.total(), static_cast<std::uint64_t>(cfg.unicast_retries) + 1);
}

TEST(MediumChaosTest, BurstLossDropsBroadcastReceptions) {
  sim::Simulator sim;
  const obs::CounterBlock& counters = sim.counters();
  net::RadioConfig cfg;
  cfg.chaos.burst.enabled = true;
  cfg.chaos.burst.p_enter_bad = 1.0;  // permanently bad from the first draw
  cfg.chaos.burst.p_exit_bad = 0.0;
  cfg.chaos.burst.loss_bad = 1.0;
  net::Medium medium(sim, sim::Rng(1), cfg, kArea, 50.0);

  Rx rx;
  medium.attach(1, {0, 0}, 50.0, {});
  medium.attach(2, {30, 0}, 50.0, rx.fn());
  for (int i = 0; i < 5; ++i) medium.broadcast(1, beacon(1));
  sim.run_all();
  EXPECT_TRUE(rx.got.empty());
  EXPECT_EQ(counters.total(), 5u);
  EXPECT_EQ(medium.chaos_drops(), 5u);
}

// ---------------------------------------------------------------------------
// Invariant oracle

TEST(InvariantCheckerTest, CleanDefaultRunPasses) {
  core::SimulationConfig cfg;
  cfg.robots = 4;
  cfg.sim_duration = 4000.0;
  cfg.seed = 11;
  core::Simulation sim(cfg);
  InvariantChecker checker(sim);  // fail_fast: any violation throws
  sim.run();
  checker.check_final();
  EXPECT_TRUE(checker.ok());
  EXPECT_GE(checker.checks_run(), 2u);  // periodic events fired + final
}

TEST(InvariantCheckerTest, CatchesOutOfBandRobotDeath) {
  core::SimulationConfig cfg;
  cfg.robots = 4;
  cfg.sim_duration = 4000.0;
  cfg.seed = 11;
  core::Simulation sim(cfg);
  sim.run_until(1000.0);
  // Kill a robot behind the coordination layer's back: the ground truth
  // (dead robot) now disagrees with the injection ledger (0 failures).
  sim.robots()[0]->fail();
  InvariantCheckerOptions opts;
  opts.fail_fast = false;
  InvariantChecker checker(sim, opts);
  checker.check_now();
  ASSERT_FALSE(checker.ok());
  EXPECT_EQ(checker.violations().front().invariant, "robot-bookkeeping");
  EXPECT_NE(checker.report().find("robot-bookkeeping"), std::string::npos);
}

TEST(InvariantCheckerTest, FailFastThrowsOnViolation) {
  core::SimulationConfig cfg;
  cfg.robots = 4;
  cfg.sim_duration = 4000.0;
  cfg.seed = 11;
  core::Simulation sim(cfg);
  sim.run_until(1000.0);
  sim.robots()[0]->fail();
  InvariantChecker checker(sim);
  EXPECT_THROW(checker.check_now(), std::runtime_error);
}

// ---------------------------------------------------------------------------
// The chaos resurrection suite: all three algorithms survive combined
// Gilbert-Elliott burst loss + duplication + jitter + a partition window +
// robot crash/resurrection, with the oracle validating throughout.

core::SimulationConfig chaos_config(core::Algorithm algorithm) {
  core::SimulationConfig cfg;
  cfg.algorithm = algorithm;
  cfg.robots = 4;
  cfg.sim_duration = 8000.0;
  cfg.seed = 2026;
  cfg.field.reliable_reports = true;  // end-to-end re-report under loss
  cfg.radio.chaos.burst.enabled = true;
  cfg.radio.chaos.burst.p_enter_bad = 0.08;
  cfg.radio.chaos.burst.p_exit_bad = 0.3;
  cfg.radio.chaos.burst.loss_bad = 0.5;
  cfg.radio.chaos.duplication.enabled = true;
  cfg.radio.chaos.duplication.probability = 0.2;
  cfg.radio.chaos.jitter.enabled = true;
  cfg.radio.chaos.jitter.probability = 0.2;
  cfg.radio.chaos.jitter.max_extra_s = 4e-3;
  PartitionWindow blackout;
  blackout.start_s = 2000.0;
  blackout.end_s = 2600.0;
  cfg.radio.chaos.partitions.push_back(blackout);
  cfg.robot_faults.crashes.push_back(robot::ScheduledCrash{0, 3000.0});
  cfg.robot_faults.repairs.push_back(robot::ScheduledRepair{0, 5000.0});
  return cfg;
}

class ChaosResurrectionTest : public ::testing::TestWithParam<core::Algorithm> {};

TEST_P(ChaosResurrectionTest, SurvivesCombinedChaosUnderTheOracle) {
  const auto cfg = chaos_config(GetParam());
  core::Simulation sim(cfg);
  obs::Tracer tracer;
  sim.attach_tracer(tracer);
  InvariantChecker checker(sim, {}, &tracer);  // fail_fast: throw = test fail
  sim.run();
  checker.check_final();
  const auto result = sim.result();
  EXPECT_TRUE(checker.ok());
  EXPECT_GT(result.failures, 0u);
  EXPECT_GT(result.repaired, 0u);
  EXPECT_EQ(result.robot_failures, 1u);
  EXPECT_EQ(result.robot_repairs, 1u);
  // The protocols must keep repairing despite the chaos — the paper's
  // resilience claim under adversarial conditions. (Not a tight bound: the
  // 600 s blackout plus a dead robot legitimately builds a backlog whose
  // tail is still unrepaired at the horizon.)
  EXPECT_GT(static_cast<double>(result.repaired), 0.4 * static_cast<double>(result.failures));
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, ChaosResurrectionTest,
                         ::testing::Values(core::Algorithm::kCentralized,
                                           core::Algorithm::kFixedDistributed,
                                           core::Algorithm::kDynamicDistributed),
                         [](const auto& param_info) {
                           return std::string(core::to_string(param_info.param));
                         });

// Runner-driven variant: the same suite through the Executor's worker pool
// (the TSan CI job drives this binary to prove the oracle is race-free when
// cells run concurrently).
TEST(ChaosResurrectionTest, RunsThroughTheParallelRunner) {
  std::vector<runner::Job> jobs;
  const core::Algorithm algorithms[] = {core::Algorithm::kCentralized,
                                        core::Algorithm::kFixedDistributed,
                                        core::Algorithm::kDynamicDistributed};
  for (std::size_t i = 0; i < 3; ++i) {
    runner::Job job;
    job.index = i;
    job.label = std::string(core::to_string(algorithms[i]));
    job.config = chaos_config(algorithms[i]);
    jobs.push_back(std::move(job));
  }
  runner::ExecutorOptions options;
  options.jobs = 3;
  runner::Executor executor(options);
  const auto batch = executor.run(jobs, [](const runner::Job& job) {
    job.config.validate();
    core::Simulation sim(job.config);
    InvariantChecker checker(sim);
    sim.run();
    checker.check_final();
    return sim.result();
  });
  ASSERT_TRUE(batch.ok());
  for (const auto& result : batch.results) {
    ASSERT_TRUE(result.has_value());
    EXPECT_GT(result->repaired, 0u);
  }
}

}  // namespace
}  // namespace sensrep::chaos
