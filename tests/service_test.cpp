// Service-mode tests: protocol parsing, signal flag, cooperative interrupt,
// stepped-run determinism, daemon command handling, telemetry, the JSONL
// sink's threading, snapshot round-trips, and the kill-and-restore
// differential that proves a restored daemon reconverges bit-for-bit on the
// uninterrupted run (docs/SERVICE.md §6).

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/simulation.hpp"
#include "obs/tracer.hpp"
#include "runner/executor.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "service/signal.hpp"
#include "service/snapshot.hpp"
#include "service/telemetry.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace sensrep;

// --- protocol ---------------------------------------------------------------

TEST(Protocol, ParsesEveryCommandAndRoundTripsCanonicalForm) {
  const std::vector<std::string> lines = {
      "fail 42", "crash-robot 1", "repair-robot 0", "advance 120.5",
      "status", "telemetry", "snapshot /tmp/x.snap", "quit",
  };
  for (const auto& line : lines) {
    const auto cmd = service::parse_command(line);
    ASSERT_TRUE(cmd.has_value()) << line;
    const auto again = service::parse_command(service::format_command(*cmd));
    ASSERT_TRUE(again.has_value()) << line;
    EXPECT_EQ(*cmd, *again) << line;
  }
}

TEST(Protocol, SkipsBlanksAndComments) {
  EXPECT_FALSE(service::parse_command("").has_value());
  EXPECT_FALSE(service::parse_command("   \t ").has_value());
  EXPECT_FALSE(service::parse_command("# a comment").has_value());
  EXPECT_FALSE(service::parse_command("  #indented").has_value());
}

TEST(Protocol, RejectsMalformedInput) {
  EXPECT_THROW(service::parse_command("explode"), std::invalid_argument);
  EXPECT_THROW(service::parse_command("fail"), std::invalid_argument);
  EXPECT_THROW(service::parse_command("fail 1 2"), std::invalid_argument);
  EXPECT_THROW(service::parse_command("fail -3"), std::invalid_argument);
  EXPECT_THROW(service::parse_command("fail x"), std::invalid_argument);
  EXPECT_THROW(service::parse_command("advance nope"), std::invalid_argument);
  EXPECT_THROW(service::parse_command("status now"), std::invalid_argument);
}

// `advance 0` would run events at the current instant that a snapshot replay
// cannot reproduce — the parser is where that door stays shut.
TEST(Protocol, RejectsNonPositiveAdvance) {
  EXPECT_THROW(service::parse_command("advance 0"), std::invalid_argument);
  EXPECT_THROW(service::parse_command("advance -5"), std::invalid_argument);
  EXPECT_THROW(service::parse_command("advance inf"), std::invalid_argument);
  EXPECT_THROW(service::parse_command("advance nan"), std::invalid_argument);
}

TEST(Protocol, MutationClassification) {
  EXPECT_TRUE(service::is_mutation(service::CommandKind::kFail));
  EXPECT_TRUE(service::is_mutation(service::CommandKind::kAdvance));
  EXPECT_TRUE(service::is_mutation(service::CommandKind::kCrashRobot));
  EXPECT_TRUE(service::is_mutation(service::CommandKind::kRepairRobot));
  EXPECT_FALSE(service::is_mutation(service::CommandKind::kStatus));
  EXPECT_FALSE(service::is_mutation(service::CommandKind::kTelemetry));
  EXPECT_FALSE(service::is_mutation(service::CommandKind::kSnapshot));
  EXPECT_FALSE(service::is_mutation(service::CommandKind::kQuit));
}

TEST(Protocol, AdvanceSecondsRoundTripBitwise) {
  service::Command c;
  c.kind = service::CommandKind::kAdvance;
  c.seconds = 0.1 + 0.2;  // not representable prettily: %.17g must round-trip
  const auto again = service::parse_command(service::format_command(c));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(c.seconds, again->seconds);
}

// --- signal flag ------------------------------------------------------------

TEST(Signal, FlagSetAndResetProgrammatically) {
  service::reset_shutdown();
  EXPECT_FALSE(service::shutdown_requested());
  service::request_shutdown();
  EXPECT_TRUE(service::shutdown_requested());
  service::reset_shutdown();
  EXPECT_FALSE(service::shutdown_requested());
}

TEST(Signal, SigintSetsTheFlag) {
  service::install_signal_handlers();
  service::reset_shutdown();
  std::raise(SIGINT);
  EXPECT_TRUE(service::shutdown_requested());
  service::reset_shutdown();
}

// --- simulator interrupt ----------------------------------------------------

TEST(SimulatorInterrupt, ProbeStopsTheLoopAndLeavesClockAtLastEvent) {
  sim::Simulator simulator;
  std::atomic<int> executed{0};
  for (int i = 1; i <= 1000; ++i) {
    simulator.at(static_cast<double>(i), [&executed] { ++executed; });
  }
  bool stop = false;
  simulator.set_interrupt([&stop] { return stop; }, /*stride=*/1);
  simulator.at(250.5, [&stop] { stop = true; });
  simulator.run_until(1000.0);
  EXPECT_TRUE(simulator.interrupted());
  // The probe fires on the first check at or after the flag flips; the clock
  // must NOT have jumped to the horizon.
  EXPECT_LT(simulator.now(), 1000.0);
  EXPECT_LT(executed.load(), 1000);
  // Clearing the probe and re-running finishes the remainder.
  simulator.set_interrupt({});
  simulator.run_until(1000.0);
  EXPECT_FALSE(simulator.interrupted());
  EXPECT_EQ(executed.load(), 1000);
  EXPECT_EQ(simulator.now(), 1000.0);
}

TEST(SimulatorInterrupt, NoProbeMeansNoOverheadPathChanges) {
  sim::Simulator simulator;
  int runs = 0;
  simulator.at(1.0, [&runs] { ++runs; });
  simulator.run_until(10.0);
  EXPECT_FALSE(simulator.interrupted());
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(simulator.now(), 10.0);
}

// --- stepped run_until == single run (satellite regression) -----------------

core::SimulationConfig stepped_config(core::Algorithm algorithm, bool chaos) {
  core::SimulationConfig cfg;
  cfg.algorithm = algorithm;
  cfg.robots = 4;
  cfg.seed = 77;
  cfg.sim_duration = 8000.0;
  if (chaos) {
    cfg.robot_faults.mtbf = 1200.0;
    cfg.robot_faults.mttr = 600.0;
    cfg.robot_faults.heartbeat_period = 40.0;
    cfg.radio.loss_probability = 0.05;
  }
  return cfg;
}

void expect_identical(const core::ExperimentResult& a, const core::ExperimentResult& b) {
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.reported, b.reported);
  EXPECT_EQ(a.repaired, b.repaired);
  EXPECT_EQ(a.unreported, b.unreported);
  EXPECT_EQ(a.router_drops, b.router_drops);
  // Bitwise, not NEAR: stepping the clock must not reorder or re-draw
  // anything; any ULP of drift means the service's advance loop diverges
  // from batch runs.
  EXPECT_EQ(a.avg_travel_per_repair, b.avg_travel_per_repair);
  EXPECT_EQ(a.avg_report_hops, b.avg_report_hops);
  EXPECT_EQ(a.avg_request_hops, b.avg_request_hops);
  EXPECT_EQ(a.location_update_tx_per_repair, b.location_update_tx_per_repair);
  EXPECT_EQ(a.avg_detection_latency, b.avg_detection_latency);
  EXPECT_EQ(a.avg_repair_latency, b.avg_repair_latency);
  EXPECT_EQ(a.p95_repair_latency, b.p95_repair_latency);
  EXPECT_EQ(a.total_robot_distance, b.total_robot_distance);
  EXPECT_EQ(a.motion_energy_j, b.motion_energy_j);
  EXPECT_EQ(a.robot_failures, b.robot_failures);
  EXPECT_EQ(a.tasks_lost, b.tasks_lost);
  EXPECT_EQ(a.redispatches, b.redispatches);
  EXPECT_EQ(a.failover_events, b.failover_events);
  EXPECT_EQ(a.adoptions, b.adoptions);
  EXPECT_EQ(a.robot_repairs, b.robot_repairs);
  EXPECT_EQ(a.elections, b.elections);
  EXPECT_EQ(a.handbacks, b.handbacks);
  EXPECT_EQ(a.ownership_transfers, b.ownership_transfers);
  EXPECT_EQ(a.transmissions, b.transmissions);
}

class SteppedEquivalence : public ::testing::TestWithParam<core::Algorithm> {};

TEST_P(SteppedEquivalence, ManyRunUntilStepsMatchOneRunBitwise) {
  const auto cfg = stepped_config(GetParam(), /*chaos=*/false);
  core::Simulation whole(cfg);
  whole.run();

  core::Simulation stepped(cfg);
  // Deliberately uneven steps, a repeated horizon (no-op run_until), and a
  // final run() — the exact call pattern a daemon's advance loop produces.
  for (const double t : {500.0, 501.25, 2000.0, 2000.0, 6400.0, 7999.5}) {
    stepped.run_until(t);
  }
  stepped.run();
  expect_identical(whole.result(), stepped.result());
}

TEST_P(SteppedEquivalence, SteppingUnderFaultChaosMatchesBitwise) {
  const auto cfg = stepped_config(GetParam(), /*chaos=*/true);
  core::Simulation whole(cfg);
  whole.run();

  core::Simulation stepped(cfg);
  for (int i = 1; i <= 16; ++i) {
    stepped.run_until(cfg.sim_duration * static_cast<double>(i) / 16.0);
  }
  stepped.run();
  expect_identical(whole.result(), stepped.result());
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SteppedEquivalence,
                         ::testing::Values(core::Algorithm::kCentralized,
                                           core::Algorithm::kFixedDistributed,
                                           core::Algorithm::kDynamicDistributed),
                         [](const ::testing::TestParamInfo<core::Algorithm>& tpi) {
                           return std::string(core::to_string(tpi.param));
                         });

// --- daemon -----------------------------------------------------------------

service::DaemonOptions daemon_options(core::Algorithm algorithm) {
  service::DaemonOptions opts;
  opts.algorithm = algorithm;
  opts.robots = 4;
  opts.seed = 11;
  opts.telemetry_period = 100.0;
  return opts;
}

TEST(Daemon, CommandRepliesAndIdempotenceErrors) {
  service::reset_shutdown();
  service::Daemon daemon(daemon_options(core::Algorithm::kCentralized));
  EXPECT_FALSE(daemon.handle_line("").has_value());
  EXPECT_FALSE(daemon.handle_line("# comment").has_value());

  auto reply = daemon.handle_line("fail 3");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "ok fail 3");
  // Same slot again: already dead, a benign no-op — and NOT journaled.
  reply = daemon.handle_line("fail 3");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "err sensor 3 already dead");
  EXPECT_EQ(daemon.journal().size(), 1u);

  EXPECT_EQ(daemon.handle_line("repair-robot 0").value(), "err robot 0 already alive");
  EXPECT_EQ(daemon.handle_line("crash-robot 2").value(), "ok crash-robot 2");
  EXPECT_EQ(daemon.handle_line("crash-robot 2").value(), "err robot 2 already dead");
  EXPECT_EQ(daemon.handle_line("repair-robot 2").value(), "ok repair-robot 2");

  // Out-of-range operands become err replies, not exceptions.
  const auto bad = daemon.handle_line("crash-robot 99");
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->rfind("err ", 0), 0u) << *bad;
  const auto bad_sensor = daemon.handle_line("fail 999999");
  ASSERT_TRUE(bad_sensor.has_value());
  EXPECT_EQ(bad_sensor->rfind("err ", 0), 0u) << *bad_sensor;

  const auto advance = daemon.handle_line("advance 50");
  ASSERT_TRUE(advance.has_value());
  EXPECT_EQ(*advance, "ok advance 50");
  EXPECT_EQ(daemon.simulation().simulator().now(), 50.0);

  const auto status = daemon.handle_line("status");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->rfind("ok clock=50 ", 0), 0u) << *status;

  EXPECT_EQ(daemon.handle_line("bogus cmd").value().rfind("err ", 0), 0u);
  EXPECT_FALSE(daemon.quit_requested());
  EXPECT_EQ(daemon.handle_line("quit").value(), "ok quit");
  EXPECT_TRUE(daemon.quit_requested());
}

TEST(Daemon, AdvanceBeyondHorizonIsRejected) {
  service::reset_shutdown();
  auto opts = daemon_options(core::Algorithm::kDynamicDistributed);
  opts.horizon = 1000.0;
  service::Daemon daemon(opts);
  EXPECT_EQ(daemon.handle_line("advance 999").value(), "ok advance 999");
  const auto reply = daemon.handle_line("advance 2");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("err advance", 0), 0u) << *reply;
  // The rejected advance must not have moved the clock or journaled.
  EXPECT_EQ(daemon.simulation().simulator().now(), 999.0);
  EXPECT_EQ(daemon.journal().back().command.kind, service::CommandKind::kAdvance);
  EXPECT_EQ(daemon.journal().back().t, 999.0);
}

TEST(Daemon, ServeScriptIsDeterministic) {
  service::reset_shutdown();
  const std::string script =
      "status\nfail 5\nadvance 250\ncrash-robot 0\nadvance 250\n"
      "repair-robot 0\nadvance 100\nstatus\nquit\n";
  auto transcript = [&script] {
    service::Daemon daemon(daemon_options(core::Algorithm::kFixedDistributed));
    std::istringstream in(script);
    std::ostringstream out;
    daemon.serve(in, out);
    return out.str();
  };
  const std::string first = transcript();
  const std::string second = transcript();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("ok fail 5"), std::string::npos);
  EXPECT_NE(first.find("telemetry t=100.000 "), std::string::npos);
  EXPECT_NE(first.find("bye clock=600 "), std::string::npos);
}

TEST(Daemon, TelemetryCommandSamplesWithoutPerturbingTheStream) {
  service::reset_shutdown();
  service::Daemon daemon(daemon_options(core::Algorithm::kCentralized));
  std::vector<std::string> stream;
  daemon.exporter()->set_line_sink([&stream](const std::string& s) { stream.push_back(s); });
  daemon.handle_line("advance 150");
  const auto one = daemon.handle_line("telemetry");
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(one->rfind("telemetry t=150.000 ", 0), 0u) << *one;
  EXPECT_NE(one->find("\nok telemetry"), std::string::npos);
  daemon.handle_line("advance 150");
  ASSERT_EQ(stream.size(), 3u);  // ticks at 100, 200, 300 — the read didn't tick
  EXPECT_EQ(stream[0].rfind("telemetry t=100.000 ", 0), 0u);
  EXPECT_EQ(stream[2].rfind("telemetry t=300.000 ", 0), 0u);
}

TEST(Daemon, TelemetryDisabledYieldsErr) {
  service::reset_shutdown();
  auto opts = daemon_options(core::Algorithm::kCentralized);
  opts.telemetry_period = 0.0;
  service::Daemon daemon(opts);
  EXPECT_EQ(daemon.exporter(), nullptr);
  const auto reply = daemon.handle_line("telemetry");
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->rfind("err ", 0), 0u) << *reply;
}

// --- JSONL sink (threading; TSan runs this in CI) ---------------------------

TEST(JsonlSink, ConcurrentProducersAllLinesArriveExactlyOnce) {
  std::ostringstream out;
  {
    service::JsonlSink sink(out, /*capacity=*/64);  // small: force backpressure
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
      producers.emplace_back([&sink, p] {
        for (int i = 0; i < 500; ++i) {
          sink.push("{\"p\":" + std::to_string(p) + ",\"i\":" + std::to_string(i) + "}");
        }
      });
    }
    for (auto& t : producers) t.join();
    sink.close();
    EXPECT_EQ(sink.written(), 2000u);
  }
  std::istringstream lines(out.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    ++n;
  }
  EXPECT_EQ(n, 2000u);
}

TEST(JsonlSink, CloseIsIdempotentAndDropsLatePushes) {
  std::ostringstream out;
  service::JsonlSink sink(out);
  sink.push("{\"a\":1}");
  sink.close();
  sink.push("{\"late\":true}");  // dropped, not crashed
  sink.close();
  EXPECT_EQ(sink.written(), 1u);
}

// --- retention primitives ---------------------------------------------------

TEST(TracerCompact, RetiresOldClosedSpansKeepsOpenOnes) {
  obs::Tracer tracer;
  tracer.open(1, obs::Stage::kRepair, 10.0, 5);
  tracer.close(1, obs::Stage::kRepair, 20.0);
  tracer.open(2, obs::Stage::kRepair, 30.0, 6);
  tracer.close(2, obs::Stage::kRepair, 90.0);
  tracer.open(3, obs::Stage::kTravel, 15.0, 7);  // ancient but still open

  tracer.compact(/*before=*/50.0);
  EXPECT_EQ(tracer.retired(), 1u);            // span 1 (ended 20) retired
  EXPECT_EQ(tracer.opened(), 2u);             // span 2 + the open span 3
  EXPECT_EQ(tracer.closed_count(), 1u);
  EXPECT_TRUE(tracer.is_open(3, obs::Stage::kTravel));
  ASSERT_EQ(tracer.stage_durations(obs::Stage::kRepair).size(), 1u);
  EXPECT_EQ(tracer.stage_durations(obs::Stage::kRepair)[0], 60.0);

  // The open span survived with working bookkeeping: closing it after the
  // compaction must land on the right span.
  tracer.close(3, obs::Stage::kTravel, 100.0);
  EXPECT_EQ(tracer.stray_closes(), 0u);
  ASSERT_EQ(tracer.stage_durations(obs::Stage::kTravel).size(), 1u);
  EXPECT_EQ(tracer.stage_durations(obs::Stage::kTravel)[0], 85.0);

  tracer.compact(/*before=*/500.0);
  EXPECT_EQ(tracer.retired(), 3u);
  EXPECT_EQ(tracer.opened(), 0u);
}

TEST(TelemetryExporter, RetentionWindowBoundsSeriesAndTracer) {
  service::reset_shutdown();
  auto opts = daemon_options(core::Algorithm::kDynamicDistributed);
  opts.telemetry_period = 50.0;
  opts.retention_window = 200.0;
  opts.trace_stages = true;
  service::Daemon daemon(opts);
  daemon.handle_line("advance 2000");
  EXPECT_EQ(daemon.exporter()->samples_taken(), 40u);
  // The last tick, at t=2000, compacted every span closed before 1800;
  // open spans survive whatever their age.
  const obs::Tracer* tracer = daemon.simulation().field().events().tracer();
  ASSERT_NE(tracer, nullptr);
  EXPECT_GT(tracer->retired(), 0u);
  ASSERT_GT(tracer->closed_count(), 0u);
  for (const obs::Span& span : tracer->spans()) {
    if (span.closed()) {
      EXPECT_GE(span.end, 1800.0);
    }
  }
}

// --- snapshot ---------------------------------------------------------------

TEST(Snapshot, TextRoundTripPreservesEverything) {
  service::reset_shutdown();
  auto opts = daemon_options(core::Algorithm::kFixedDistributed);
  opts.retention_window = 500.0;
  opts.trace_stages = true;
  service::Daemon daemon(opts);
  daemon.handle_line("fail 9");
  daemon.handle_line("advance 333.125");
  daemon.handle_line("crash-robot 1");
  daemon.handle_line("advance 100.5");

  const service::Snapshot snap = daemon.make_snapshot();
  std::stringstream text;
  snap.write(text);
  const service::Snapshot loaded = service::Snapshot::read(text);

  EXPECT_EQ(loaded.options.algorithm, snap.options.algorithm);
  EXPECT_EQ(loaded.options.robots, snap.options.robots);
  EXPECT_EQ(loaded.options.seed, snap.options.seed);
  EXPECT_EQ(loaded.options.horizon, snap.options.horizon);
  EXPECT_EQ(loaded.options.mean_lifetime, snap.options.mean_lifetime);
  EXPECT_EQ(loaded.options.spontaneous_failures, snap.options.spontaneous_failures);
  EXPECT_EQ(loaded.options.telemetry_period, snap.options.telemetry_period);
  EXPECT_EQ(loaded.options.retention_window, snap.options.retention_window);
  EXPECT_EQ(loaded.options.trace_stages, snap.options.trace_stages);
  EXPECT_EQ(loaded.clock, snap.clock);
  EXPECT_EQ(loaded.journal, snap.journal);
  EXPECT_TRUE(loaded.digest == snap.digest);
}

TEST(Snapshot, RejectsGarbage) {
  {
    std::istringstream in("not a snapshot\n");
    EXPECT_THROW(service::Snapshot::read(in), std::runtime_error);
  }
  {
    std::istringstream in(std::string(service::Snapshot::kMagic) + "\nfrobnicate 3\nend\n");
    EXPECT_THROW(service::Snapshot::read(in), std::runtime_error);
  }
  {
    // Truncated: no digest/end.
    std::istringstream in(std::string(service::Snapshot::kMagic) + "\nrobots 4\n");
    EXPECT_THROW(service::Snapshot::read(in), std::runtime_error);
  }
}

// v1 snapshots digest a run whose event counts predate one-event-per-frame
// delivery; they are refused up front, naming the wanted version, instead of
// failing the digest check after a full replay.
TEST(Snapshot, RejectsTheOldFormatVersionByName) {
  service::reset_shutdown();
  service::Daemon daemon(daemon_options(core::Algorithm::kCentralized));
  daemon.handle_line("advance 100");
  std::ostringstream out;
  daemon.make_snapshot().write(out);
  std::string text = out.str();
  ASSERT_EQ(text.rfind(service::Snapshot::kMagic, 0), 0u);
  text.replace(0, std::string(service::Snapshot::kMagic).size(), "sensrep-snapshot v1");
  std::istringstream in(text);
  try {
    (void)service::Snapshot::read(in);
    FAIL() << "a v1 snapshot was accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sensrep-snapshot v1"), std::string::npos) << what;
    EXPECT_NE(what.find(service::Snapshot::kMagic), std::string::npos) << what;
  }
}

TEST(Snapshot, RestoreVerifiesTheDigestAndThrowsOnMismatch) {
  service::reset_shutdown();
  service::Daemon daemon(daemon_options(core::Algorithm::kCentralized));
  daemon.handle_line("fail 4");
  daemon.handle_line("advance 200");
  service::Snapshot snap = daemon.make_snapshot();
  snap.digest.transmissions += 1;  // tamper
  EXPECT_THROW({ service::Daemon restored(snap); }, std::runtime_error);
}

// --- the kill-and-restore differential --------------------------------------

class RestoreDifferential : public ::testing::TestWithParam<core::Algorithm> {};

TEST_P(RestoreDifferential, RestoredDaemonMatchesUninterruptedRunBitwise) {
  service::reset_shutdown();
  const auto opts = daemon_options(GetParam());

  // Daemon A runs prefix + suffix uninterrupted, collecting telemetry.
  service::Daemon a(opts);
  std::vector<std::string> tel_a;
  a.exporter()->set_line_sink([&tel_a](const std::string& s) { tel_a.push_back(s); });

  const std::vector<std::string> prefix = {"fail 3", "advance 400", "crash-robot 1",
                                           "advance 333.25"};
  const std::vector<std::string> suffix = {"repair-robot 1", "advance 500", "fail 7",
                                           "advance 766.75"};
  for (const auto& line : prefix) {
    const auto r = a.handle_line(line);
    ASSERT_TRUE(r.has_value() && r->rfind("ok", 0) == 0) << line << " -> " << *r;
  }

  // "Kill" A here: snapshot through the text format, like the real file.
  std::stringstream text;
  a.make_snapshot().write(text);
  const std::size_t tel_mark = tel_a.size();

  // Daemon B restores and both run the identical suffix.
  service::Daemon b(service::Snapshot::read(text));
  EXPECT_EQ(b.status_line(), a.status_line());
  EXPECT_EQ(b.journal().size(), a.journal().size());
  std::vector<std::string> tel_b;
  b.exporter()->set_line_sink([&tel_b](const std::string& s) { tel_b.push_back(s); });

  for (const auto& line : suffix) {
    const auto ra = a.handle_line(line);
    const auto rb = b.handle_line(line);
    ASSERT_TRUE(ra.has_value() && rb.has_value()) << line;
    EXPECT_EQ(*ra, *rb) << line;
  }

  // Digest, full metrics, and the telemetry tail all match bitwise.
  EXPECT_EQ(a.status_line(), b.status_line());
  expect_identical(a.simulation().result(), b.simulation().result());
  const std::vector<std::string> tail_a(tel_a.begin() + static_cast<std::ptrdiff_t>(tel_mark),
                                        tel_a.end());
  EXPECT_FALSE(tail_a.empty());
  EXPECT_EQ(tail_a, tel_b);

  // A later snapshot taken from the *restored* daemon restores again: the
  // journal is preserved from genesis, not since the last restore.
  std::stringstream text2;
  b.make_snapshot().write(text2);
  service::Daemon c(service::Snapshot::read(text2));
  EXPECT_EQ(c.status_line(), b.status_line());
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, RestoreDifferential,
                         ::testing::Values(core::Algorithm::kCentralized,
                                           core::Algorithm::kFixedDistributed,
                                           core::Algorithm::kDynamicDistributed),
                         [](const ::testing::TestParamInfo<core::Algorithm>& tpi) {
                           return std::string(core::to_string(tpi.param));
                         });

// --- executor cancellation --------------------------------------------------

TEST(ExecutorCancellation, CancelledBatchRecordsCancelledFailures) {
  runner::ParameterGrid grid;
  grid.algorithms = {core::Algorithm::kCentralized};
  grid.robot_counts = {4};
  grid.seeds = 2;
  grid.base.sim_duration = 4000.0;
  runner::ExecutorOptions options;
  options.jobs = 2;
  options.cancelled = [] { return true; };  // cancelled before anything runs
  runner::Executor executor(options);
  const auto batch = executor.run(grid, nullptr);
  EXPECT_EQ(batch.completed(), 0u);
  ASSERT_EQ(batch.failures.size(), grid.size());
  for (const auto& f : batch.failures) EXPECT_EQ(f.error, "cancelled");
}

TEST(ExecutorCancellation, MidRunCancellationKeepsFinishedRowsAndStopsTheRest) {
  runner::ParameterGrid grid;
  grid.algorithms = {core::Algorithm::kCentralized};
  grid.robot_counts = {4};
  grid.seeds = 4;
  grid.base.sim_duration = 8000.0;
  std::atomic<bool> cancel{false};
  runner::ExecutorOptions options;
  options.jobs = 1;  // serial: the first job finishes, then we cancel
  options.cancelled = [&cancel] { return cancel.load(); };
  runner::Executor executor(options);

  class CancelAfterFirst : public runner::ResultSink {
   public:
    explicit CancelAfterFirst(std::atomic<bool>& flag) : flag_(flag) {}
    void accept(const runner::Job&, const core::ExperimentResult&) override {
      ++rows_;
      flag_.store(true);
    }
    std::size_t rows_ = 0;

   private:
    std::atomic<bool>& flag_;
  } sink(cancel);

  const auto batch = executor.run(grid, &sink);
  EXPECT_GE(sink.rows_, 1u);
  EXPECT_LT(sink.rows_, grid.size());
  EXPECT_EQ(batch.completed() + batch.failures.size(), grid.size());
  for (const auto& f : batch.failures) EXPECT_EQ(f.error, "cancelled");
}

}  // namespace
