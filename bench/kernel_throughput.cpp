// Infrastructure microbenchmarks: event-queue and medium throughput.
//
// Not a paper artifact — this bench guards the substrate's performance so
// the figure benches stay tractable (a 16-robot, 64000 s run executes tens
// of millions of events).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "core/simulation.hpp"
#include "geometry/rect.hpp"
#include "metrics/counters.hpp"
#include "net/medium.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "spatial/uniform_grid.hpp"

namespace {

using sensrep::geometry::Rect;
using sensrep::geometry::Vec2;
using sensrep::spatial::UniformGrid2D;

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sensrep::sim::Simulator sim;
    long long sum = 0;
    for (int i = 0; i < n; ++i) {
      sim.at(static_cast<double>(i % 97), [&sum, i] { sum += i; });
    }
    sim.run_all();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

void BM_PeriodicTimers(benchmark::State& state) {
  const auto timers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sensrep::sim::Simulator sim;
    long long ticks = 0;
    for (int i = 0; i < timers; ++i) {
      sim.every(10.0, [&ticks] { ++ticks; });
    }
    sim.run_until(1000.0);
    benchmark::DoNotOptimize(ticks);
  }
  state.SetItemsProcessed(state.iterations() * timers * 100);
}
BENCHMARK(BM_PeriodicTimers)->Arg(100)->Arg(800);

// --- spatial index vs brute force (E16) --------------------------------------
//
// The simulator's hot proximity queries, benchmarked both ways at the fleet
// and field sizes the experiments use. The default field geometry assigns
// each robot 200x200 m^2, so the side grows as 200 * sqrt(robots); sensors
// deploy 50 per robot at the same density.

/// Fleet scattered over a field sized for `n` robots (paper density).
std::vector<Vec2> scatter(std::size_t n, double side, std::uint64_t seed) {
  sensrep::sim::Rng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(0, side), rng.uniform(0, side)});
  }
  return pts;
}

/// Stand-in for a heap-allocated RobotNode: closest_live_robot's brute scan
/// walks `vector<unique_ptr<RobotNode>>`, touching one scattered cache line
/// per robot just to read its position, and tests the presumed-dead bit.
/// The pad matches RobotNode's order of magnitude (router tables, task
/// queue, kinematics state).
struct FleetRobot {
  Vec2 pos;
  char pad[360];
};

std::vector<std::unique_ptr<FleetRobot>> make_fleet(const std::vector<Vec2>& pts) {
  std::vector<std::unique_ptr<FleetRobot>> fleet;
  fleet.reserve(pts.size());
  for (const Vec2 p : pts) {
    fleet.push_back(std::make_unique<FleetRobot>());
    fleet.back()->pos = p;
  }
  return fleet;
}

void BM_NearestRobotBrute(benchmark::State& state) {
  const auto robots = static_cast<std::size_t>(state.range(0));
  const double side = 200.0 * std::sqrt(static_cast<double>(robots));
  const auto fleet = make_fleet(scatter(robots, side, 11));
  const std::vector<bool> presumed_dead(robots, false);
  sensrep::sim::Rng rng(12);
  std::size_t picked = 0;
  for (auto _ : state) {
    const Vec2 q{rng.uniform(0, side), rng.uniform(0, side)};
    std::optional<std::size_t> best;
    double best_d = 0.0;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      if (presumed_dead[i]) continue;
      const double d = sensrep::geometry::distance(fleet[i]->pos, q);
      if (!best || d < best_d) {
        best = i;
        best_d = d;
      }
    }
    picked += *best;
  }
  benchmark::DoNotOptimize(picked);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NearestRobotBrute)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_NearestRobotGrid(benchmark::State& state) {
  const auto robots = static_cast<std::size_t>(state.range(0));
  const double side = 200.0 * std::sqrt(static_cast<double>(robots));
  const auto pts = scatter(robots, side, 11);
  const std::vector<bool> presumed_dead(robots, false);
  UniformGrid2D<std::uint32_t> grid({{0, 0}, {side, side}}, 200.0);
  for (std::uint32_t i = 0; i < pts.size(); ++i) grid.insert(i, pts[i]);
  sensrep::sim::Rng rng(12);
  std::size_t picked = 0;
  for (auto _ : state) {
    const Vec2 q{rng.uniform(0, side), rng.uniform(0, side)};
    picked += *grid.nearest_euclid(
        q, [&presumed_dead](std::uint32_t i) { return !presumed_dead[i]; });
  }
  benchmark::DoNotOptimize(picked);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NearestRobotGrid)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_SensorRangeBrute(benchmark::State& state) {
  const auto sensors = static_cast<std::size_t>(state.range(0));
  const double side = 200.0 * std::sqrt(static_cast<double>(sensors) / 50.0);
  const auto field = scatter(sensors, side, 13);
  sensrep::sim::Rng rng(14);
  std::size_t total = 0;
  const double r = 63.0;
  for (auto _ : state) {
    const Vec2 q{rng.uniform(0, side), rng.uniform(0, side)};
    for (std::size_t i = 0; i < field.size(); ++i) {
      if (sensrep::geometry::distance2(field[i], q) <= r * r) ++total;
    }
  }
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SensorRangeBrute)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SensorRangeGrid(benchmark::State& state) {
  const auto sensors = static_cast<std::size_t>(state.range(0));
  const double side = 200.0 * std::sqrt(static_cast<double>(sensors) / 50.0);
  const auto field = scatter(sensors, side, 13);
  UniformGrid2D<std::uint32_t> grid({{0, 0}, {side, side}}, 63.0);
  for (std::uint32_t i = 0; i < field.size(); ++i) grid.insert(i, field[i]);
  sensrep::sim::Rng rng(14);
  std::size_t total = 0;
  for (auto _ : state) {
    const Vec2 q{rng.uniform(0, side), rng.uniform(0, side)};
    total += grid.within_radius(q, 63.0).size();
  }
  benchmark::DoNotOptimize(total);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SensorRangeGrid)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SensorNearestBrute(benchmark::State& state) {
  const auto sensors = static_cast<std::size_t>(state.range(0));
  const double side = 200.0 * std::sqrt(static_cast<double>(sensors) / 50.0);
  const auto field = scatter(sensors, side, 15);
  sensrep::sim::Rng rng(16);
  std::size_t picked = 0;
  for (auto _ : state) {
    const Vec2 q{rng.uniform(0, side), rng.uniform(0, side)};
    std::optional<std::size_t> best;
    double best_d2 = 0.0;
    for (std::size_t i = 0; i < field.size(); ++i) {
      const double d2 = sensrep::geometry::distance2(field[i], q);
      if (!best || d2 < best_d2) {
        best = i;
        best_d2 = d2;
      }
    }
    picked += *best;
  }
  benchmark::DoNotOptimize(picked);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SensorNearestBrute)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SensorNearestGrid(benchmark::State& state) {
  const auto sensors = static_cast<std::size_t>(state.range(0));
  const double side = 200.0 * std::sqrt(static_cast<double>(sensors) / 50.0);
  const auto field = scatter(sensors, side, 15);
  UniformGrid2D<std::uint32_t> grid({{0, 0}, {side, side}}, 63.0);
  for (std::uint32_t i = 0; i < field.size(); ++i) grid.insert(i, field[i]);
  sensrep::sim::Rng rng(16);
  std::size_t picked = 0;
  for (auto _ : state) {
    const Vec2 q{rng.uniform(0, side), rng.uniform(0, side)};
    picked += *grid.nearest(q);
  }
  benchmark::DoNotOptimize(picked);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SensorNearestGrid)->Arg(1000)->Arg(10000)->Arg(100000);

// --- end-to-end events/sec (E19) ---------------------------------------------
//
// Whole simulations at scale, measuring executed events per wall second of
// Simulation::run(); construction (deployment, discovery floods) is excluded
// via manual timing. Horizons shrink as the field grows so the 1M-sensor
// point stays tractable on a laptop. perfbench/ is the phase-split
// benchmark with work counters; this is the quick kernel-level view.

void BM_EndToEndTicks(benchmark::State& state) {
  const auto sensors = static_cast<std::size_t>(state.range(0));
  sensrep::core::SimulationConfig cfg;
  cfg.algorithm = sensrep::core::Algorithm::kFixedDistributed;  // no manager hub
  cfg.robots = sensors / 50;  // paper density: 50 sensors per robot
  cfg.seed = 2026;
  cfg.sim_duration = sensors >= 1000000 ? 20.0 : sensors >= 100000 ? 100.0 : 400.0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    sensrep::core::Simulation sim(cfg);
    const auto start = std::chrono::steady_clock::now();
    sim.run();
    const auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
    events += sim.simulator().executed();
  }
  benchmark::DoNotOptimize(events);
  // items_per_second == executed events / timed wall seconds.
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_EndToEndTicks)
    ->Arg(10000)
    ->Arg(100000)
    ->Arg(1000000)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

// --- metrics-plane overhead ablation (E20) -----------------------------------
//
// The same end-to-end run as BM_EndToEndTicks, with the observability plane
// in its three states: 0 = counters only (the default: each simulation's
// counter block is always on), 1 = histograms and gauges enabled too,
// 2 = those plus the flight recorder. Every instrumentation site is compiled
// in unconditionally — an opt-in probe that is off pays one relaxed load —
// so the /0 vs /1 vs /2 spread IS the runtime cost of the opt-in plane.
// tools/check_metrics_overhead.sh feeds the repetition medians through a <3%
// guard.

void BM_MetricsOverhead(benchmark::State& state) {
  const auto sensors = static_cast<std::size_t>(state.range(0));
  const auto mode = static_cast<int>(state.range(1));
  sensrep::core::SimulationConfig cfg;
  cfg.algorithm = sensrep::core::Algorithm::kFixedDistributed;
  cfg.robots = sensors / 50;
  cfg.seed = 2026;
  cfg.sim_duration = sensors >= 1000000 ? 20.0 : sensors >= 100000 ? 100.0 : 400.0;
  sensrep::obs::Metrics::reset();
  sensrep::obs::Metrics::enable(mode >= 1);
  if (mode >= 2) {
    sensrep::obs::FlightRecorder::enable();
    sensrep::obs::FlightRecorder::reset();
  } else {
    sensrep::obs::FlightRecorder::disable();
  }
  std::uint64_t events = 0;
  for (auto _ : state) {
    sensrep::core::Simulation sim(cfg);
    const auto start = std::chrono::steady_clock::now();
    sim.run();
    const auto stop = std::chrono::steady_clock::now();
    state.SetIterationTime(std::chrono::duration<double>(stop - start).count());
    events += sim.simulator().executed();
  }
  benchmark::DoNotOptimize(events);
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  sensrep::obs::Metrics::enable(false);
  sensrep::obs::Metrics::reset();
  sensrep::obs::FlightRecorder::disable();
}
BENCHMARK(BM_MetricsOverhead)
    ->ArgsProduct({{100000}, {0, 1, 2}})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

void BM_MediumBroadcast(benchmark::State& state) {
  sensrep::sim::Simulator sim;
  sensrep::net::Medium medium(sim, sensrep::sim::Rng(2), {}, Rect::sized(400, 400),
                              63.0);
  sensrep::sim::Rng rng(3);
  int delivered = 0;
  for (sensrep::net::NodeId i = 0; i < 400; ++i) {
    medium.attach(i, {rng.uniform(0, 400), rng.uniform(0, 400)}, 63.0,
                  [&delivered](const sensrep::net::Packet&, sensrep::net::NodeId) {
                    ++delivered;
                  });
  }
  sensrep::net::Packet pkt;
  pkt.type = sensrep::net::PacketType::kBeacon;
  pkt.dst = sensrep::net::kBroadcastId;
  sensrep::net::NodeId sender = 0;
  for (auto _ : state) {
    medium.broadcast(sender, pkt);
    sender = (sender + 1) % 400;
    sim.run_all();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MediumBroadcast);

}  // namespace

BENCHMARK_MAIN();
