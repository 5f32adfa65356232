// Tests for the production metrics plane: the per-simulation counter blocks
// and the registry that sums them, the Prometheus/Influx/webhook exporters,
// the /metrics HTTP endpoint, the flight recorder, and the JsonlSink drop
// mode. The concurrency cases run blocks and whole simulations on the
// runner's worker pool while scraping — these are the TSan targets.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "metrics/counters.hpp"
#include "obs/exporters.hpp"
#include "obs/domain.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "core/simulation.hpp"
#include "runner/executor.hpp"
#include "service/daemon.hpp"
#include "service/signal.hpp"
#include "service/telemetry.hpp"

namespace sensrep {
namespace {

using obs::Counter;
using obs::Kind;
using obs::FlightRecorder;
using obs::Gauge;
using obs::Hist;
using obs::Metrics;

/// The registry and recorder are process-wide; every test scopes its
/// enablement so the binary's tests stay independent.
struct MetricsGuard {
  MetricsGuard() {
    Metrics::reset();
    Metrics::enable(true);
  }
  ~MetricsGuard() {
    Metrics::enable(false);
    Metrics::reset();
  }
};

struct FlightGuard {
  explicit FlightGuard(std::size_t capacity = 64) {
    FlightRecorder::enable(capacity);
    FlightRecorder::reset();
  }
  ~FlightGuard() { FlightRecorder::disable(); }
};

// ---------------------------------------------------------------------------
// Registry

TEST(MetricsRegistry, DisabledIncrementsAreNoOps) {
  // Histograms and gauges are opt-in; counters are always on (next test).
  Metrics::reset();
  Metrics::enable(false);
  Metrics::observe(Hist::kRepairLatency, 10.0);
  obs::CounterBlock block;
  block.set(Gauge::kSimClock, 5.0);
  const obs::MetricsSnapshot s = Metrics::snapshot();
  EXPECT_EQ(s.hists[0].count, 0u);
  EXPECT_EQ(s.gauges[static_cast<std::size_t>(Gauge::kSimClock)], 0.0);
}

TEST(MetricsRegistry, CountersCountWhileDisabled) {
  Metrics::reset();
  Metrics::enable(false);
  {
    obs::CounterBlock block;
    block.inc(Counter::kDispatches);
    block.tx(metrics::MessageCategory::kBeacon);
    Metrics::inc(Counter::kJsonlDropped);
    const obs::MetricsSnapshot s = Metrics::snapshot();
    EXPECT_EQ(s.counters[static_cast<std::size_t>(Counter::kDispatches)], 1u);
    EXPECT_EQ(s.counters[static_cast<std::size_t>(Counter::kJsonlDropped)], 1u);
    EXPECT_EQ(s.net_tx[1], 1u);
  }
  Metrics::reset();
}

TEST(MetricsRegistry, CountersSumExactly) {
  MetricsGuard guard;
  obs::CounterBlock a;
  obs::CounterBlock b;
  a.inc(Counter::kSensorFailures);
  b.inc(Counter::kSensorFailures, 40);
  Metrics::inc(Counter::kSensorFailures);  // the process block
  a.tx(metrics::MessageCategory::kBeacon, 7);
  b.rx(metrics::MessageCategory::kBeacon);
  EXPECT_EQ(Metrics::counter_value(Counter::kSensorFailures), 42u);
  const obs::MetricsSnapshot s = Metrics::snapshot();
  EXPECT_EQ(s.counters[static_cast<std::size_t>(Counter::kSensorFailures)], 42u);
  EXPECT_EQ(s.net_tx[1], 7u);
  EXPECT_EQ(s.net_rx[1], 1u);
}

TEST(MetricsRegistry, DestroyedBlocksStayInTheTotals) {
  MetricsGuard guard;
  obs::CounterBlock live;
  live.inc(Counter::kElections, 2);
  {
    obs::CounterBlock dying;
    dying.inc(Counter::kElections, 3);
    dying.tx(metrics::MessageCategory::kData, 4);
    EXPECT_EQ(Metrics::counter_value(Counter::kElections), 5u);
  }
  const obs::MetricsSnapshot s = Metrics::snapshot();
  EXPECT_EQ(s.counters[static_cast<std::size_t>(Counter::kElections)], 5u);
  EXPECT_EQ(s.net_tx[static_cast<std::size_t>(metrics::MessageCategory::kData)], 4u);
}

TEST(MetricsRegistry, HistogramBucketsCountAndSum) {
  MetricsGuard guard;
  const auto& edges = obs::hist_edges(Hist::kRepairLatency);
  Metrics::observe(Hist::kRepairLatency, edges[0] - 1.0);   // bucket 0
  Metrics::observe(Hist::kRepairLatency, edges[0]);          // le is inclusive
  Metrics::observe(Hist::kRepairLatency, edges[7] + 100.0);  // +Inf only
  const obs::MetricsSnapshot s = Metrics::snapshot();
  const auto& h = s.hists[static_cast<std::size_t>(Hist::kRepairLatency)];
  EXPECT_EQ(h.buckets[0], 2u);
  EXPECT_EQ(h.count, 3u);
  std::uint64_t finite = 0;
  for (const auto b : h.buckets) finite += b;
  EXPECT_EQ(finite, 2u);  // the overflow sample lives only in count (+Inf)
  EXPECT_NEAR(h.sum, (edges[0] - 1.0) + edges[0] + edges[7] + 100.0, 1e-6);
}

TEST(MetricsRegistry, ResetZeroesEverything) {
  MetricsGuard guard;
  obs::CounterBlock live;
  live.inc(Counter::kElections, 2);
  {
    obs::CounterBlock retired;
    retired.inc(Counter::kElections, 9);
  }
  Metrics::inc(Counter::kElections, 9);
  Metrics::observe(Hist::kDispatchDistance, 10.0);
  Metrics::reset();
  // The retired total and the process block are gone; a live simulation's
  // block is its own and keeps counting.
  EXPECT_EQ(Metrics::counter_value(Counter::kElections), 2u);
  EXPECT_EQ(Metrics::snapshot().hists[1].count, 0u);
}

TEST(MetricsRegistry, GaugesArePerSimulation) {
  MetricsGuard guard;
  service::reset_shutdown();
  const auto gauge = [](Gauge g) {
    return Metrics::snapshot().gauges[static_cast<std::size_t>(g)];
  };
  service::DaemonOptions opts;
  opts.algorithm = core::Algorithm::kDynamicDistributed;
  opts.robots = 4;
  opts.telemetry_period = 100.0;
  service::Daemon four(opts);
  four.handle_line("advance 1000");
  {
    opts.robots = 6;
    service::Daemon six(opts);
    six.handle_line("advance 500");
    // Counts sum over the live simulations; the clock is the furthest one.
    EXPECT_EQ(gauge(Gauge::kLiveRobots), 10.0);
    EXPECT_EQ(gauge(Gauge::kSimClock), 1000.0);
  }
  // A destroyed simulation's gauges leave with it.
  EXPECT_EQ(gauge(Gauge::kLiveRobots), 4.0);
  EXPECT_EQ(gauge(Gauge::kSimClock), 1000.0);
  four.handle_line("advance 1000");
  EXPECT_EQ(gauge(Gauge::kSimClock), 2000.0);
}

TEST(MetricsRegistry, CategoryLabelsMirrorMessageCategories) {
  // kCategoryLabel is the one name table: metrics::to_string reads it, and
  // this pins every entry to the category the counter block indexes with.
  ASSERT_EQ(obs::kNetCategories,
            static_cast<std::size_t>(metrics::MessageCategory::kCount));
  for (std::size_t i = 0; i < obs::kNetCategories; ++i) {
    EXPECT_EQ(std::string_view(obs::kCategoryLabel[i]),
              metrics::to_string(static_cast<metrics::MessageCategory>(i)))
        << "category " << i;
  }
}

TEST(MetricsRegistry, CounterRowsFollowTheEnum) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < static_cast<std::size_t>(Counter::kCount); ++i) {
    const auto c = static_cast<Counter>(i);
    EXPECT_TRUE(names.insert(obs::to_string(c)).second) << obs::to_string(c);
    EXPECT_NE(obs::counter_help(c), "?");
  }
  EXPECT_EQ(obs::to_string(Counter::kSensorFailures), "sensor_failures");
  EXPECT_EQ(obs::to_string(Counter::kEventsExecuted), "events_executed");
  EXPECT_EQ(obs::to_string(Counter::kFlightRecDumps), "flightrec_dumps");
}

// ---------------------------------------------------------------------------
// Concurrency (TSan targets)

TEST(MetricsConcurrency, ExactSumAcrossRunnerWorkers) {
  MetricsGuard guard;
  constexpr std::size_t kJobs = 8;
  constexpr std::uint64_t kPerJob = 100000;
  std::vector<runner::Job> jobs(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) jobs[i].index = i;
  runner::ExecutorOptions exec_opts;
  exec_opts.jobs = 4;
  runner::Executor exec(exec_opts);
  const auto batch = exec.run(jobs, [](const runner::Job&) {
    obs::CounterBlock block;  // one per job, like a Simulation's
    for (std::uint64_t i = 0; i < kPerJob; ++i) {
      block.inc(Counter::kDispatches);
      block.tx(static_cast<metrics::MessageCategory>(i % obs::kNetCategories));
      Metrics::inc(Counter::kJsonlDropped);
      Metrics::observe(Hist::kRepairLatency, static_cast<double>(i % 512));
    }
    return core::ExperimentResult{};
  });
  ASSERT_TRUE(batch.ok());
  const obs::MetricsSnapshot s = Metrics::snapshot();
  const std::uint64_t n = kJobs * kPerJob;
  EXPECT_EQ(s.counters[static_cast<std::size_t>(Counter::kDispatches)], n);
  EXPECT_EQ(s.counters[static_cast<std::size_t>(Counter::kJsonlDropped)], n);
  std::uint64_t tx = 0;
  for (const auto v : s.net_tx) tx += v;
  EXPECT_EQ(tx, n);
  EXPECT_EQ(s.hists[0].count, n);
}

TEST(MetricsConcurrency, ScrapeDuringIncrementsIsMonotone) {
  MetricsGuard guard;
  constexpr std::uint64_t kPerThread = 200000;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&go] {
      obs::CounterBlock block;  // retires into the totals as the thread ends
      while (!go.load(std::memory_order_acquire)) {}
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        block.inc(Counter::kEventsExecuted);
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Every cell only grows and a dying block's counts move into the retired
  // total under the registry lock, so snapshots taken mid-increment must
  // never go backwards and never exceed the final total.
  std::uint64_t last = 0;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t now = Metrics::counter_value(Counter::kEventsExecuted);
    EXPECT_GE(now, last);
    last = now;
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(Metrics::counter_value(Counter::kEventsExecuted), 4 * kPerThread);
  EXPECT_LE(last, 4 * kPerThread);
}

/// The counts a scrape must agree with, summed over finished runs.
struct FaultTotals {
  std::array<std::uint64_t, obs::kNetCategories> tx{};
  std::uint64_t robot_failures = 0, tasks_lost = 0, redispatches = 0, adoptions = 0,
                robot_repairs = 0, elections = 0, ownership_transfers = 0;

  void add(const core::ExperimentResult& r) {
    for (std::size_t c = 0; c < tx.size(); ++c) tx[c] += r.transmissions[c];
    robot_failures += r.robot_failures;
    tasks_lost += r.tasks_lost;
    redispatches += r.redispatches;
    adoptions += r.adoptions;
    robot_repairs += r.robot_repairs;
    elections += r.elections;
    ownership_transfers += r.ownership_transfers;
  }
};

TEST(MetricsConcurrency, SimulationsOnWorkersSumIntoMonotoneScrapes) {
  MetricsGuard guard;
  // Two of each algorithm under robot faults, so every fault counter moves.
  std::vector<runner::Job> jobs(6);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].index = i;
    auto& cfg = jobs[i].config;
    cfg.algorithm = static_cast<core::Algorithm>(i % 3);
    cfg.robots = 4;
    cfg.seed = 2026 + i;
    cfg.sim_duration = 3000.0;
    cfg.robot_faults.mtbf = 800.0;
    cfg.robot_faults.mttr = 300.0;
    if (cfg.algorithm == core::Algorithm::kCentralized) {
      cfg.robot_faults.manager_crash_at = 1000.0;
      cfg.robot_faults.manager_repair_at = 1800.0;
    }
  }
  std::atomic<bool> done{false};
  std::size_t scrapes = 0;
  bool monotone = true;
  std::thread scraper([&] {
    obs::MetricsSnapshot last = Metrics::snapshot();
    while (!done.load(std::memory_order_acquire)) {
      const obs::MetricsSnapshot now = Metrics::snapshot();
      for (std::size_t i = 0; i < now.counters.size(); ++i) {
        monotone = monotone && now.counters[i] >= last.counters[i];
      }
      for (std::size_t i = 0; i < obs::kNetCategories; ++i) {
        monotone = monotone && now.net_tx[i] >= last.net_tx[i] &&
                   now.net_rx[i] >= last.net_rx[i];
      }
      last = now;
      ++scrapes;
    }
  });
  runner::ExecutorOptions exec_opts;
  exec_opts.jobs = 3;
  runner::Executor exec(exec_opts);
  const auto batch = exec.run(jobs, [](const runner::Job& job) {
    core::Simulation sim(job.config);
    sim.run();
    return sim.result();  // the simulation, and its block, die here
  });
  done.store(true, std::memory_order_release);
  scraper.join();
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(monotone);
  EXPECT_GT(scrapes, 0u);

  FaultTotals want;
  for (const auto& r : batch.results) want.add(*r);
  const obs::MetricsSnapshot got = Metrics::snapshot();
  const auto counter = [&got](Counter c) {
    return got.counters[static_cast<std::size_t>(c)];
  };
  for (std::size_t c = 0; c < obs::kNetCategories; ++c) {
    EXPECT_EQ(got.net_tx[c], want.tx[c]) << obs::kCategoryLabel[c];
  }
  EXPECT_EQ(counter(Counter::kRobotFailures), want.robot_failures);
  EXPECT_EQ(counter(Counter::kTasksLost), want.tasks_lost);
  EXPECT_EQ(counter(Counter::kRedispatches), want.redispatches);
  EXPECT_EQ(counter(Counter::kAdoptions), want.adoptions);
  EXPECT_EQ(counter(Counter::kRobotRepairs), want.robot_repairs);
  EXPECT_EQ(counter(Counter::kElections), want.elections);
  EXPECT_EQ(counter(Counter::kOwnershipTransfers), want.ownership_transfers);
  EXPECT_GT(want.robot_failures, 0u);
  EXPECT_GT(want.redispatches, 0u);
  EXPECT_GT(want.adoptions, 0u);
  EXPECT_GT(want.elections, 0u);
  EXPECT_GT(want.ownership_transfers, 0u);
}

// ---------------------------------------------------------------------------
// The two fault counts that are not counters

TEST(FaultStatsTest, DynamicRefloodsCountAsFailoversButNotFailoverEvents) {
  core::SimulationConfig cfg;
  cfg.algorithm = core::Algorithm::kDynamicDistributed;
  cfg.robots = 4;
  cfg.seed = 2026;
  cfg.sim_duration = 8000.0;
  cfg.robot_faults.mtbf = 3000.0;
  cfg.robot_faults.mttr = 600.0;
  core::Simulation sim(cfg);
  sim.run();
  EXPECT_EQ(sim.result().failover_events, 0u);
  EXPECT_GT(sim.counters().get(Counter::kFailovers), 0u);
}

TEST(FaultStatsTest, FixedSubareaReturnsCountAsHandbacksButNotResultHandbacks) {
  core::SimulationConfig cfg;
  cfg.algorithm = core::Algorithm::kFixedDistributed;
  cfg.robots = 4;
  cfg.seed = 2026;
  cfg.sim_duration = 8000.0;
  cfg.robot_faults.mtbf = 3000.0;
  cfg.robot_faults.mttr = 600.0;
  core::Simulation sim(cfg);
  sim.run();
  EXPECT_EQ(sim.result().handbacks, 0u);
  EXPECT_GT(sim.counters().get(Counter::kHandbacks), 0u);
}

// ---------------------------------------------------------------------------
// Exporter renderings

TEST(Exporters, PrometheusEscape) {
  EXPECT_EQ(obs::prometheus_escape("plain"), "plain");
  EXPECT_EQ(obs::prometheus_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(Exporters, PrometheusTextShape) {
  MetricsGuard guard;
  obs::CounterBlock block;
  block.inc(Counter::kSensorFailures, 3);
  block.tx(metrics::MessageCategory::kBeacon, 10);
  Metrics::observe(Hist::kRepairLatency, 45.0);
  block.set(Gauge::kLiveRobots, 4.0);
  const std::string text = obs::prometheus_text(Metrics::snapshot());
  EXPECT_NE(text.find("# TYPE sensrep_sensor_failures_total counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("sensrep_sensor_failures_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("sensrep_net_tx_total{category=\"beacon\"} 10\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE sensrep_repair_latency_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("sensrep_repair_latency_seconds_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("sensrep_repair_latency_seconds_count 1\n"), std::string::npos);
  EXPECT_NE(text.find("sensrep_live_robots 4\n"), std::string::npos);
  // Cumulative le buckets: 45 lands in le="60" and every later bucket.
  EXPECT_NE(text.find("sensrep_repair_latency_seconds_bucket{le=\"60\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("sensrep_repair_latency_seconds_bucket{le=\"30\"} 0\n"),
            std::string::npos);
}

TEST(Exporters, InfluxLinesShape) {
  MetricsGuard guard;
  Metrics::inc(Counter::kDispatches, 2);
  const std::string lines = obs::influx_lines(Metrics::snapshot(), 1.5);
  EXPECT_NE(lines.find("sensrep_counter,name=dispatches value=2i 1500000000\n"),
            std::string::npos);
}

TEST(Exporters, WebhookBatchesAndFlushesOnClose) {
  MetricsGuard guard;
  std::vector<std::string> bodies;
  obs::WebhookExporter hook([&bodies](const std::string& b) { bodies.push_back(b); },
                            /*batch_ticks=*/3, "http://example.test/hook");
  for (int i = 0; i < 7; ++i) hook.on_tick(static_cast<double>(i));
  EXPECT_EQ(bodies.size(), 2u);  // two full batches of 3
  hook.close();                  // flushes the partial batch of 1
  ASSERT_EQ(bodies.size(), 3u);
  EXPECT_EQ(bodies[0].rfind("{\"url\":\"http://example.test/hook\",\"batch\":[", 0), 0u);
  // Each body is one line (the JsonlSink contract): no embedded newlines.
  for (const auto& b : bodies) EXPECT_EQ(b.find('\n'), std::string::npos);
}

TEST(Exporters, InfluxFileSinkWritesOnTick) {
  MetricsGuard guard;
  const std::string path = ::testing::TempDir() + "influx_sink_test.txt";
  {
    obs::InfluxExporter influx(path);
    ASSERT_TRUE(influx.ok());
    Metrics::inc(Counter::kAdoptions);
    influx.on_tick(2.0);
    influx.close();
  }
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("sensrep_counter,name=adoptions value=1i 2000000000\n"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// /metrics HTTP endpoint

std::string http_get(std::uint16_t port, const char* request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  EXPECT_GT(::send(fd, request, std::strlen(request), 0), 0);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(MetricsHttpServerTest, ServesPrometheusTextOnEphemeralPort) {
  MetricsGuard guard;
  Metrics::inc(Counter::kFailovers, 5);
  obs::MetricsHttpServer server;
  std::string err;
  ASSERT_TRUE(server.start(0, &err)) << err;
  ASSERT_NE(server.port(), 0);
  const std::string ok =
      http_get(server.port(), "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(ok.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(ok.find("sensrep_failovers_total 5\n"), std::string::npos);
  const std::string missing =
      http_get(server.port(), "GET /other HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(missing.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u);
  EXPECT_EQ(server.scrapes(), 1u);
  server.stop();
  EXPECT_FALSE(server.running());
}

// ---------------------------------------------------------------------------
// Flight recorder

TEST(FlightRecorderTest, DisabledNotesAreNoOps) {
  FlightRecorder::disable();
  // The ring is process-wide and may hold an earlier test's records: a
  // disabled note must leave both the count and the contents unchanged.
  const std::uint64_t recorded = FlightRecorder::recorded();
  const std::string before = FlightRecorder::dump_jsonl();
  FlightRecorder::note(1.0, Kind::kDispatch, 1, 2);
  EXPECT_EQ(FlightRecorder::recorded(), recorded);
  EXPECT_EQ(FlightRecorder::dump_jsonl(), before);
}

TEST(FlightRecorderTest, DaemonDisarmsOnlyTheSwitchesItArmed) {
  service::reset_shutdown();
  FlightRecorder::disable();
  Metrics::enable(false);
  service::DaemonOptions opts;
  opts.robots = 4;
  opts.metrics = true;
  {
    const service::Daemon d(opts);
    EXPECT_TRUE(FlightRecorder::enabled());
    EXPECT_TRUE(Metrics::enabled());
  }
  EXPECT_FALSE(FlightRecorder::enabled());
  EXPECT_FALSE(Metrics::enabled());

  // Overlapping daemons: the switch stays armed until the last holder goes.
  {
    auto first = std::make_unique<service::Daemon>(opts);
    const service::Daemon second(opts);
    first.reset();
    EXPECT_TRUE(FlightRecorder::enabled());
    EXPECT_TRUE(Metrics::enabled());
  }
  EXPECT_FALSE(FlightRecorder::enabled());
  EXPECT_FALSE(Metrics::enabled());

  // A switch armed before the daemon existed is not the daemon's to disarm.
  FlightRecorder::enable(64);
  Metrics::enable(true);
  { const service::Daemon d(opts); }
  EXPECT_TRUE(FlightRecorder::enabled());
  EXPECT_TRUE(Metrics::enabled());
  FlightRecorder::disable();
  Metrics::enable(false);
  Metrics::reset();
}

TEST(FlightRecorderTest, KeepsTailOldestFirstAfterWrap) {
  FlightGuard guard(16);  // already a power of two
  ASSERT_EQ(FlightRecorder::capacity(), 16u);
  for (std::uint32_t i = 0; i < 20; ++i) {
    FlightRecorder::note(static_cast<double>(i), Kind::kFailure, i);
  }
  EXPECT_EQ(FlightRecorder::recorded(), 20u);
  const auto records = FlightRecorder::dump();
  ASSERT_EQ(records.size(), 16u);
  EXPECT_EQ(records.front().a, 4u);  // records 0..3 evicted
  EXPECT_EQ(records.back().a, 19u);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].t, records[i].t);
  }
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  FlightGuard guard(20);
  EXPECT_EQ(FlightRecorder::capacity(), 32u);
}

TEST(FlightRecorderTest, DumpJsonlCarriesSeqKindIds) {
  FlightGuard guard(16);
  FlightRecorder::note(12.5, Kind::kReplacement, 7, 3);
  const std::string jsonl = FlightRecorder::dump_jsonl();
  EXPECT_NE(jsonl.find("\"seq\":0"), std::string::npos);
  EXPECT_NE(jsonl.find("\"kind\":\"replacement\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"a\":7"), std::string::npos);
  EXPECT_NE(jsonl.find("\"b\":3"), std::string::npos);
}

TEST(FlightRecorderTest, DumpToFileBumpsTheDumpCounter) {
  MetricsGuard metrics;
  FlightGuard guard(16);
  FlightRecorder::note(1.0, Kind::kViolation);
  const std::string path = ::testing::TempDir() + "flightrec_test.jsonl";
  ASSERT_TRUE(FlightRecorder::dump_to_file(path));
  EXPECT_EQ(Metrics::counter_value(Counter::kFlightRecDumps), 1u);
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"kind\":\"violation\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// JsonlSink drop mode

/// Streambuf whose first write blocks until released — pins the sink's
/// writer thread mid-flush so the bounded queue deterministically fills.
class BlockingStreambuf : public std::streambuf {
 public:
  int overflow(int ch) override {
    {
      std::unique_lock lock(mu_);
      entered_ = true;
      entered_cv_.notify_all();
      release_cv_.wait(lock, [this] { return released_; });
    }
    return ch;
  }

  void wait_until_blocked() {
    std::unique_lock lock(mu_);
    entered_cv_.wait(lock, [this] { return entered_; });
  }

  void release() {
    const std::lock_guard lock(mu_);
    released_ = true;
    release_cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable entered_cv_;
  std::condition_variable release_cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(JsonlSinkTest, DropWhenFullShedsInsteadOfBlocking) {
  MetricsGuard metrics;
  BlockingStreambuf buf;
  std::ostream out(&buf);
  {
    service::JsonlSink sink(out, /*capacity=*/4, /*drop_when_full=*/true);
    sink.push("first");          // writer swaps it out and blocks in overflow
    buf.wait_until_blocked();
    for (int i = 0; i < 4; ++i) sink.push("fill");  // queue now at capacity
    sink.push("shed-me");        // full queue + drop mode: returns immediately
    EXPECT_EQ(sink.dropped(), 1u);
    buf.release();
    sink.close();
    EXPECT_EQ(sink.written(), 5u);
  }
  EXPECT_EQ(Metrics::counter_value(Counter::kJsonlDropped), 1u);
}

TEST(JsonlSinkTest, PushAfterCloseCountsAsDrop) {
  std::ostringstream out;
  service::JsonlSink sink(out);
  sink.push("a");
  sink.close();
  sink.push("late");
  EXPECT_EQ(sink.written(), 1u);
  EXPECT_EQ(sink.dropped(), 1u);
}

}  // namespace
}  // namespace sensrep
