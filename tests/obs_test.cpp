// Observability subsystem: repair-lifecycle span tracing and the hot-path
// wall-clock profiler.
//
// The integration suites assert the instrumentation invariants end to end:
// every repaired failure carries a complete detect->report->dispatch->queue->
// travel->repair span chain, spans close exactly once even under packet loss
// and robot crashes (stray_closes() == 0), orphaned work is flagged as open
// or kOrphan spans, and neither the tracer nor the profiler perturbs any
// simulation result.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/simulation.hpp"
#include "obs/domain.hpp"
#include "obs/event_log.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"
#include "obs/tracer.hpp"

namespace sensrep::obs {
namespace {

using core::Algorithm;
using core::Simulation;
using core::SimulationConfig;

SimulationConfig base_config(Algorithm algo, std::uint64_t seed, double duration) {
  SimulationConfig cfg;
  cfg.algorithm = algo;
  cfg.robots = 4;
  cfg.seed = seed;
  cfg.sim_duration = duration;
  return cfg;
}

// --- Tracer unit tests -----------------------------------------------------------

TEST(Tracer, OpenCloseAccounting) {
  Tracer t;
  t.open(1, Stage::kDetect, 10.0, 7);
  EXPECT_TRUE(t.is_open(1, Stage::kDetect));
  EXPECT_EQ(t.opened(), 1u);
  EXPECT_EQ(t.open_count(), 1u);

  t.close(1, Stage::kDetect, 25.0, 15.0, 3);
  EXPECT_FALSE(t.is_open(1, Stage::kDetect));
  EXPECT_EQ(t.closed_count(), 1u);
  EXPECT_EQ(t.open_count(), 0u);
  EXPECT_EQ(t.stray_closes(), 0u);

  const auto& s = t.spans().front();
  EXPECT_EQ(s.trace_id, 1u);
  EXPECT_EQ(s.node, 7u);
  EXPECT_DOUBLE_EQ(s.start, 10.0);
  EXPECT_DOUBLE_EQ(s.end, 25.0);
  EXPECT_DOUBLE_EQ(s.duration(), 15.0);
  ASSERT_TRUE(s.value.has_value());
  EXPECT_DOUBLE_EQ(*s.value, 15.0);
  ASSERT_TRUE(s.actor.has_value());
  EXPECT_EQ(*s.actor, 3u);
}

TEST(Tracer, DuplicateOpenIsIgnoredAndCounted) {
  Tracer t;
  t.open(5, Stage::kQueue, 1.0, 2);
  t.open(5, Stage::kQueue, 2.0, 2);  // same (trace, stage) while open
  EXPECT_EQ(t.opened(), 1u);
  EXPECT_EQ(t.duplicate_opens(), 1u);
  t.close(5, Stage::kQueue, 3.0);
  EXPECT_DOUBLE_EQ(t.spans().front().start, 1.0);  // first open wins

  // After closing, the same (trace, stage) may open a fresh instance.
  t.open(5, Stage::kQueue, 4.0, 2);
  EXPECT_EQ(t.opened(), 2u);
  EXPECT_EQ(t.duplicate_opens(), 1u);
}

TEST(Tracer, StrayCloseIsCountedNoop) {
  Tracer t;
  t.close(9, Stage::kTravel, 1.0);
  EXPECT_EQ(t.stray_closes(), 1u);
  EXPECT_TRUE(t.spans().empty());

  t.open(9, Stage::kTravel, 2.0, 1);
  t.close(9, Stage::kTravel, 3.0);
  t.close(9, Stage::kTravel, 4.0);  // already closed
  EXPECT_EQ(t.stray_closes(), 2u);
  EXPECT_DOUBLE_EQ(t.spans().front().end, 3.0);  // closed spans are immutable
}

TEST(Tracer, CloseIfOpenToleratesMissingSpanSilently) {
  Tracer t;
  t.close_if_open(3, Stage::kDispatch, 1.0);
  EXPECT_EQ(t.stray_closes(), 0u);

  t.open(3, Stage::kDispatch, 2.0, 4);
  t.close_if_open(3, Stage::kDispatch, 5.0);
  t.close_if_open(3, Stage::kDispatch, 6.0);
  EXPECT_EQ(t.stray_closes(), 0u);
  EXPECT_EQ(t.closed_count(), 1u);
  EXPECT_DOUBLE_EQ(t.spans().front().end, 5.0);
}

TEST(Tracer, HasCompleteChainRequiresEveryCoreStageClosed) {
  Tracer t;
  const std::uint64_t tid = 42;
  const std::vector<Stage> core_stages = {Stage::kDetect, Stage::kReport,
                                          Stage::kDispatch, Stage::kQueue,
                                          Stage::kTravel};
  t.open(tid, Stage::kRepair, 0.0, 1);
  double now = 0.0;
  for (const Stage st : core_stages) {
    t.open(tid, st, now, 1);
    EXPECT_FALSE(t.has_complete_chain(tid));
    t.close(tid, st, now + 1.0);
    now += 1.0;
  }
  EXPECT_FALSE(t.has_complete_chain(tid));  // root still open
  t.close(tid, Stage::kRepair, now);
  EXPECT_TRUE(t.has_complete_chain(tid));
  EXPECT_FALSE(t.has_complete_chain(tid + 1));
}

TEST(Tracer, SpansOfAndStageDurationsSelectClosedSpans) {
  Tracer t;
  t.open(1, Stage::kTravel, 0.0, 1);
  t.close(1, Stage::kTravel, 4.0);
  t.open(2, Stage::kTravel, 0.0, 2);
  t.close(2, Stage::kTravel, 6.0);
  t.open(3, Stage::kTravel, 0.0, 3);  // stays open

  const auto durations = t.stage_durations(Stage::kTravel);
  ASSERT_EQ(durations.size(), 2u);
  EXPECT_DOUBLE_EQ(durations[0], 4.0);
  EXPECT_DOUBLE_EQ(durations[1], 6.0);

  EXPECT_EQ(t.spans_of(2).size(), 1u);
  EXPECT_EQ(t.spans_of(7).size(), 0u);
}

TEST(Tracer, JsonlExportFlagsOpenSpans) {
  Tracer t;
  t.open(1, Stage::kDetect, 1.5, 9, 4);
  t.close(1, Stage::kDetect, 2.5, 1.0);
  t.open(2, Stage::kTravel, 3.0, 8);

  std::ostringstream out;
  t.write_jsonl(out);
  std::istringstream lines(out.str());
  std::string line;
  std::vector<std::string> all;
  while (std::getline(lines, line)) all.push_back(line);
  ASSERT_EQ(all.size(), 2u);
  EXPECT_NE(all[0].find(R"("stage":"detect")"), std::string::npos);
  EXPECT_NE(all[0].find(R"("end":)"), std::string::npos);
  EXPECT_EQ(all[0].find(R"("open":true)"), std::string::npos);
  EXPECT_NE(all[1].find(R"("stage":"travel")"), std::string::npos);
  EXPECT_NE(all[1].find(R"("open":true)"), std::string::npos);
  for (const auto& l : all) {
    EXPECT_EQ(l.front(), '{');
    EXPECT_EQ(l.back(), '}');
  }
}

TEST(Tracer, ChromeTraceExportIsStructurallyValid) {
  Tracer t;
  t.open(1, Stage::kRepair, 0.0, 5);
  t.open(1, Stage::kDetect, 0.0, 5);
  t.close(1, Stage::kDetect, 30.0, 30.0);
  t.close(1, Stage::kRepair, 120.0, 120.0, 2);
  t.open(2, Stage::kDetect, 50.0, 6);  // open at export time

  std::ostringstream out;
  t.write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find(R"("ph":"X")"), std::string::npos);   // closed spans
  EXPECT_NE(json.find(R"("ph":"B")"), std::string::npos);   // the open span
  EXPECT_NE(json.find(R"("displayTimeUnit":"ms")"), std::string::npos);
  const auto last = json.find_last_not_of('\n');
  ASSERT_NE(last, std::string::npos);
  EXPECT_EQ(json[last], '}');
  // Balanced braces/brackets outside string literals.
  int depth = 0;
  bool in_string = false, escaped = false;
  for (const char c : json) {
    if (escaped) {
      escaped = false;
    } else if (c == '\\') {
      escaped = in_string;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string && (c == '{' || c == '[')) {
      ++depth;
    } else if (!in_string && (c == '}' || c == ']')) {
      --depth;
      ASSERT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(Tracer, ClearResetsEverything) {
  Tracer t;
  t.open(1, Stage::kDetect, 0.0, 1);
  t.open(1, Stage::kDetect, 1.0, 1);
  t.close(2, Stage::kDetect, 1.0);
  t.clear();
  EXPECT_EQ(t.opened(), 0u);
  EXPECT_EQ(t.closed_count(), 0u);
  EXPECT_EQ(t.duplicate_opens(), 0u);
  EXPECT_EQ(t.stray_closes(), 0u);
  EXPECT_FALSE(t.is_open(1, Stage::kDetect));
}

// --- Profiler unit tests ---------------------------------------------------------

TEST(Profiler, DisabledTimersRecordNothing) {
  Profiler::reset();
  Profiler::enable(false);
  { const ScopedTimer probe(Probe::kPlanarizer); }
  EXPECT_EQ(Profiler::snapshot(Probe::kPlanarizer).count, 0u);
}

TEST(Profiler, EnabledTimersAccumulate) {
  Profiler::reset();
  Profiler::enable(true);
  { const ScopedTimer probe(Probe::kPlanarizer); }
  { const ScopedTimer probe(Probe::kPlanarizer); }
  Profiler::enable(false);
  const auto snap = Profiler::snapshot(Probe::kPlanarizer);
  EXPECT_EQ(snap.count, 2u);

  const std::string report = Profiler::report();
  EXPECT_NE(report.find("planarizer"), std::string::npos);

  Profiler::reset();
  EXPECT_EQ(Profiler::snapshot(Probe::kPlanarizer).count, 0u);
}

// --- Integration: traced simulations ---------------------------------------------

class TracedRun : public ::testing::TestWithParam<Algorithm> {};

TEST_P(TracedRun, EveryRepairedFailureHasACompleteSpanChain) {
  auto cfg = base_config(GetParam(), 7, 8000.0);
  Simulation s(cfg);
  Tracer tracer;
  s.attach_tracer(tracer);
  s.run();

  const auto r = s.result();
  ASSERT_GT(r.repaired, 0u);
  EXPECT_EQ(tracer.stray_closes(), 0u);
  EXPECT_GT(tracer.opened(), 0u);

  std::size_t complete = 0;
  const auto& records = s.failure_log().records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const std::uint64_t tid = i + 1;  // failure id convention: index + 1
    if (records[i].repaired()) {
      EXPECT_TRUE(tracer.has_complete_chain(tid)) << "failure " << tid;
      ++complete;
    } else {
      // Unrepaired failures must leave their root span open — flagged, not
      // silently dropped.
      EXPECT_TRUE(tracer.is_open(tid, Stage::kRepair)) << "failure " << tid;
    }
  }
  EXPECT_EQ(complete, r.repaired);

  // Travel spans carry the per-task travel distance as their value.
  for (const auto& span : tracer.spans()) {
    if (span.stage == Stage::kTravel && span.closed()) {
      ASSERT_TRUE(span.value.has_value());
      EXPECT_GE(*span.value, 0.0);
    }
  }
}

TEST_P(TracedRun, SpanPairingSurvivesPacketLoss) {
  // Lossy radio: reports need retransmission, robots re-learn positions.
  // Whatever the retry machinery does, spans still close exactly once.
  auto cfg = base_config(GetParam(), 11, 8000.0);
  cfg.radio.loss_probability = 0.1;
  cfg.field.reliable_reports = true;
  Simulation s(cfg);
  Tracer tracer;
  s.attach_tracer(tracer);
  s.run();

  const auto r = s.result();
  ASSERT_GT(r.repaired, 0u);
  EXPECT_EQ(tracer.stray_closes(), 0u);
  const auto& records = s.failure_log().records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].repaired()) {
      EXPECT_TRUE(tracer.has_complete_chain(i + 1)) << "failure " << i + 1;
    }
  }
}

TEST_P(TracedRun, RobotCrashesProduceOrphanSpansAndClosedRoots) {
  // Two of four robots die mid-run; their in-flight and queued tasks orphan,
  // and the fault-tolerance machinery redispatches them. Traces must show the
  // orphan stage, never double-close, and close the root span of every
  // repaired failure. Chain completeness is weaker than in the fault-free
  // suite: a failure repaired by a robot still carrying a *stale* task (from
  // an earlier failure of the same slot, redispatched around a crash) gets
  // its travel attributed to that older trace — an artifact the tracer is
  // meant to surface, not hide — so only most chains are complete.
  auto cfg = base_config(GetParam(), 11, 16000.0);
  cfg.robot_faults.crashes = {{0, 1200.0}, {1, 2400.0}};
  Simulation s(cfg);
  Tracer tracer;
  s.attach_tracer(tracer);
  s.run();

  const auto r = s.result();
  EXPECT_EQ(r.robot_failures, 2u);
  ASSERT_GT(r.repaired, 0u);
  EXPECT_EQ(tracer.stray_closes(), 0u);

  if (r.orphaned_tasks > 0) {
    const bool any_orphan_span =
        std::any_of(tracer.spans().begin(), tracer.spans().end(),
                    [](const Span& sp) { return sp.stage == Stage::kOrphan; });
    EXPECT_TRUE(any_orphan_span) << r.orphaned_tasks << " orphaned tasks, no spans";
  }

  std::size_t complete = 0, repaired = 0;
  const auto& records = s.failure_log().records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!records[i].repaired()) continue;
    ++repaired;
    const std::uint64_t tid = i + 1;
    const auto spans = tracer.spans_of(tid);
    const bool root_closed =
        std::any_of(spans.begin(), spans.end(), [](const Span& sp) {
          return sp.stage == Stage::kRepair && sp.closed();
        });
    EXPECT_TRUE(root_closed) << "failure " << tid << " repaired, root span open";
    if (tracer.has_complete_chain(tid)) ++complete;
  }
  EXPECT_GE(complete * 10, repaired * 9)
      << complete << " complete chains of " << repaired << " repaired failures";
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, TracedRun,
                         ::testing::Values(Algorithm::kCentralized,
                                           Algorithm::kFixedDistributed,
                                           Algorithm::kDynamicDistributed),
                         [](const ::testing::TestParamInfo<Algorithm>& param_info) {
                           return std::string(core::to_string(param_info.param));
                         });

// --- Integration: every sink agrees with the kind table --------------------------

class SinkConsistency : public ::testing::TestWithParam<Algorithm> {};

TEST_P(SinkConsistency, EachKindReachesExactlyTheSinksItsRowNames) {
  // Robot MTBF and MTTR (plus a manager crash and repair for the centralized
  // algorithm) drive every failover-family kind. All four sinks are live.
  auto cfg = base_config(GetParam(), 2026, 8000.0);
  cfg.robot_faults.mtbf = 3000.0;
  cfg.robot_faults.mttr = 600.0;
  if (GetParam() == Algorithm::kCentralized) {
    cfg.robot_faults.manager_crash_at = 2000.0;
    cfg.robot_faults.manager_repair_at = 4000.0;
  }
  Metrics::reset();
  Metrics::enable(true);
  FlightRecorder::enable(1u << 16);
  FlightRecorder::reset();
  Simulation s(cfg);
  EventLog log;
  Tracer tracer;
  s.attach_event_log(log);
  s.attach_tracer(tracer);
  s.run();
  const MetricsSnapshot metrics = Metrics::snapshot();
  const std::vector<FlightRecord> flight = FlightRecorder::dump();
  const bool ring_kept_all = FlightRecorder::recorded() < FlightRecorder::capacity();
  Metrics::enable(false);
  Metrics::reset();
  FlightRecorder::disable();
  ASSERT_TRUE(ring_kept_all);

  constexpr std::size_t kKindCount = static_cast<std::size_t>(Kind::kCount);
  std::array<std::size_t, kKindCount> logged{};
  std::array<std::size_t, kKindCount> flown{};
  for (const Event& e : log.events()) ++logged[static_cast<std::size_t>(e.kind)];
  for (const FlightRecord& r : flight) {
    ASSERT_LT(r.kind, kKindCount);
    ++flown[r.kind];
  }
  for (std::size_t k = 0; k < kKindCount; ++k) {
    const KindRow& r = kKinds[k];
    SCOPED_TRACE(std::string(r.name));
    if ((r.sinks & kToLog) == 0) {
      EXPECT_EQ(logged[k], 0u);
    }
    if ((r.sinks & kToFlight) == 0) {
      EXPECT_EQ(flown[k], 0u);
    }
    if ((r.sinks & kToLog) != 0 && (r.sinks & kToFlight) != 0) {
      EXPECT_EQ(logged[k], flown[k]);
    }
    if (r.counter != kNoCounter) {
      const std::size_t seen = (r.sinks & kToLog) != 0 ? logged[k] : flown[k];
      EXPECT_EQ(metrics.counters[static_cast<std::size_t>(r.counter)], seen);
    }
  }

  // The run exercised the fault machinery this algorithm recovers with.
  const auto seen = [&](Kind k) { return flown[static_cast<std::size_t>(k)]; };
  EXPECT_GT(seen(Kind::kRobotFailure), 0u);
  EXPECT_GT(seen(Kind::kRobotRepair), 0u);
  EXPECT_GT(seen(Kind::kLeaseExpiry), 0u);
  switch (GetParam()) {
    case Algorithm::kCentralized:
      EXPECT_GT(seen(Kind::kElection), 0u);
      EXPECT_GT(seen(Kind::kFailover), 0u);
      EXPECT_GT(seen(Kind::kHandback), 0u);
      break;
    case Algorithm::kFixedDistributed:
      EXPECT_GT(seen(Kind::kAdoption), 0u);
      EXPECT_GT(seen(Kind::kHandback), 0u);
      break;
    case Algorithm::kDynamicDistributed:
      EXPECT_GT(seen(Kind::kFailover), 0u);
      break;
  }

  // The span sink: no stray close, and a complete chain for every repaired
  // failure of a slot that failed once (the oracle's rule: a stale task for
  // an earlier failure of the same slot puts its travel on the older trace).
  EXPECT_EQ(tracer.stray_closes(), 0u);
  const auto& records = s.failure_log().records();
  std::map<std::uint32_t, std::size_t> failures_per_slot;
  for (const auto& rec : records) ++failures_per_slot[rec.node_id];
  std::size_t checked = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (!records[i].repaired() || failures_per_slot[records[i].node_id] != 1) continue;
    ++checked;
    EXPECT_TRUE(tracer.has_complete_chain(i + 1)) << "failure " << i + 1;
  }
  EXPECT_GT(checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, SinkConsistency,
                         ::testing::Values(Algorithm::kCentralized,
                                           Algorithm::kFixedDistributed,
                                           Algorithm::kDynamicDistributed),
                         [](const ::testing::TestParamInfo<Algorithm>& param_info) {
                           return std::string(core::to_string(param_info.param));
                         });

// --- Integration: observability must not perturb results -------------------------

TEST(ObservabilityDeterminism, TracerAndProfilerLeaveResultsByteIdentical) {
  const auto cfg = base_config(Algorithm::kCentralized, 3, 8000.0);

  Simulation plain(cfg);
  plain.run();
  const std::string baseline = plain.result().summary();

  Profiler::reset();
  Profiler::enable(true);
  Simulation observed(cfg);
  Tracer tracer;
  observed.attach_tracer(tracer);
  observed.run();
  Profiler::enable(false);
  const std::string instrumented = observed.result().summary();

  EXPECT_EQ(baseline, instrumented);
  EXPECT_GT(tracer.opened(), 0u);
  // The profiled run actually exercised the probes.
  EXPECT_GT(Profiler::snapshot(Probe::kEventPop).count, 0u);
  Profiler::reset();
}

}  // namespace
}  // namespace sensrep::obs
