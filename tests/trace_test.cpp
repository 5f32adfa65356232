// Tests for the trace layer: printf-style formatting, the sim-time logger,
// the SVG writer, the structured event log, and its integration with a full
// simulation run.

#include <gtest/gtest.h>

#include <sstream>

#include "core/simulation.hpp"
#include "obs/event_log.hpp"
#include "trace/format.hpp"
#include "trace/log.hpp"
#include "trace/svg.hpp"

namespace sensrep::trace {
namespace {

using obs::Event;
using obs::EventLog;
using obs::Kind;

// --- strfmt ------------------------------------------------------------------

TEST(FormatTest, BasicSubstitution) {
  EXPECT_EQ(strfmt("x=%d y=%.2f s=%s", 7, 3.14159, "hi"), "x=7 y=3.14 s=hi");
}

TEST(FormatTest, EmptyAndNoArgs) {
  EXPECT_EQ(strfmt("plain"), "plain");
  EXPECT_EQ(strfmt("%s", ""), "");
}

TEST(FormatTest, LongOutputsAllocateCorrectly) {
  const std::string big(5000, 'a');
  const auto out = strfmt("<%s>", big.c_str());
  EXPECT_EQ(out.size(), 5002u);
  EXPECT_EQ(out.front(), '<');
  EXPECT_EQ(out.back(), '>');
}

// --- Logger -------------------------------------------------------------------

TEST(LoggerTest, ThresholdFiltersLevels) {
  std::ostringstream out;
  Logger log(out, Level::kWarn);
  log.logf(Level::kDebug, 1.0, "test", "hidden %d", 1);
  log.logf(Level::kWarn, 2.0, "test", "shown %d", 2);
  log.logf(Level::kError, 3.0, "test", "also %d", 3);
  const std::string text = out.str();
  EXPECT_EQ(text.find("hidden"), std::string::npos);
  EXPECT_NE(text.find("shown 2"), std::string::npos);
  EXPECT_NE(text.find("also 3"), std::string::npos);
}

TEST(LoggerTest, LinesCarrySimTimeAndComponent) {
  std::ostringstream out;
  Logger log(out, Level::kInfo);
  log.log(Level::kInfo, 1234.5, "routing", "message");
  const std::string text = out.str();
  EXPECT_NE(text.find("1234.500s"), std::string::npos);
  EXPECT_NE(text.find("routing"), std::string::npos);
  EXPECT_NE(text.find("INFO"), std::string::npos);
}

TEST(LoggerTest, OffDisablesEverything) {
  std::ostringstream out;
  Logger log(out, Level::kOff);
  log.log(Level::kError, 0.0, "x", "nope");
  EXPECT_TRUE(out.str().empty());
  EXPECT_FALSE(log.enabled(Level::kError));
}

// --- SvgWriter ---------------------------------------------------------------

TEST(SvgTest, RendersWellFormedDocument) {
  SvgWriter svg(geometry::Rect::sized(100, 50), 400.0);
  svg.add_circle({50, 25}, 5.0, "red");
  svg.add_line({0, 0}, {100, 50}, "blue", 1.0);
  svg.add_text({10, 10}, "label");
  const std::string doc = svg.render();
  EXPECT_NE(doc.find("<svg"), std::string::npos);
  EXPECT_NE(doc.find("</svg>"), std::string::npos);
  EXPECT_NE(doc.find("<circle"), std::string::npos);
  EXPECT_NE(doc.find("<line"), std::string::npos);
  EXPECT_NE(doc.find("label"), std::string::npos);
  // Aspect preserved: 100x50 field at width 400 -> height 200.
  EXPECT_NE(doc.find(R"(height="200")"), std::string::npos);
}

TEST(SvgTest, FlipsYAxis) {
  SvgWriter svg(geometry::Rect::sized(100, 100), 100.0);
  svg.add_circle({0, 100}, 1.0, "red");  // top-left in field coords
  const std::string doc = svg.render();
  // Field (0, 100) -> pixel (0, 0).
  EXPECT_NE(doc.find(R"(cx="0.00" cy="0.00")"), std::string::npos);
}

TEST(SvgTest, PolygonFromVoronoiCell) {
  SvgWriter svg(geometry::Rect::sized(10, 10), 100.0);
  svg.add_polygon(geometry::ConvexPolygon::from_rect(geometry::Rect::sized(5, 5)),
                  "#aaa", "#000");
  EXPECT_NE(svg.render().find("<polygon"), std::string::npos);
}

// --- EventLog -----------------------------------------------------------------

TEST(EventLogTest, RecordAndQuery) {
  EventLog log;
  log.record({1.0, Kind::kFailure, 7, std::nullopt, geometry::Vec2{1, 2}, {}});
  log.record({2.0, Kind::kDetection, 7, 9u, std::nullopt, 31.0});
  log.record({3.0, Kind::kFailure, 8, std::nullopt, std::nullopt, {}});
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.of_kind(Kind::kFailure).size(), 2u);
  EXPECT_EQ(log.about_node(7).size(), 2u);
  EXPECT_EQ(log.about_node(8).size(), 1u);
}

TEST(EventLogTest, JsonShapes) {
  Event e;
  e.time = 12.5;
  e.kind = Kind::kDispatch;
  e.node = 42;
  e.actor = 200;
  e.location = geometry::Vec2{3.0, 4.0};
  e.value = 2.0;
  const auto json = EventLog::to_json(e);
  EXPECT_EQ(json,
            R"({"t":12.500,"kind":"dispatch","node":42,"actor":200,"x":3.00,"y":4.00,"value":2.000})");
  // Optionals absent -> fields omitted.
  Event bare;
  bare.kind = Kind::kFailure;
  EXPECT_EQ(EventLog::to_json(bare), R"({"t":0.000,"kind":"failure","node":0})");
}

TEST(EventLogTest, JsonlOneObjectPerLine) {
  EventLog log;
  log.record({1.0, Kind::kFailure, 1, std::nullopt, std::nullopt, {}});
  log.record({2.0, Kind::kReplacement, 1, 100u, std::nullopt, {}});
  std::ostringstream out;
  log.write_jsonl(out);
  const std::string text = out.str();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 2);
  EXPECT_EQ(std::count(text.begin(), text.end(), '{'), 2);
}

TEST(EventLogTest, FullSimulationProducesCoherentLifecycles) {
  core::SimulationConfig cfg;
  cfg.algorithm = core::Algorithm::kCentralized;
  cfg.robots = 4;
  cfg.seed = 3;
  cfg.sim_duration = 2000.0;
  cfg.field.spontaneous_failures = false;
  core::Simulation s(cfg);
  EventLog events;
  s.attach_event_log(events);
  s.run_until(1.0);
  s.field().fail_slot(5);
  s.run();

  const auto failures = events.of_kind(Kind::kFailure);
  const auto detections = events.of_kind(Kind::kDetection);
  const auto reports = events.of_kind(Kind::kReport);
  const auto dispatches = events.of_kind(Kind::kDispatch);
  const auto replacements = events.of_kind(Kind::kReplacement);
  const auto moves = events.of_kind(Kind::kRobotMove);
  ASSERT_EQ(failures.size(), 1u);
  ASSERT_EQ(detections.size(), 1u);
  ASSERT_EQ(reports.size(), 1u);
  ASSERT_EQ(dispatches.size(), 1u);
  ASSERT_EQ(replacements.size(), 1u);
  EXPECT_GT(moves.size(), 0u);

  // Chronology across the lifecycle.
  EXPECT_LT(failures[0].time, detections[0].time);
  EXPECT_LT(detections[0].time, reports[0].time);
  EXPECT_LE(reports[0].time, dispatches[0].time);
  EXPECT_LT(dispatches[0].time, replacements[0].time);
  // The dispatch names the robot that later did the replacement.
  ASSERT_TRUE(dispatches[0].actor.has_value());
  EXPECT_EQ(dispatches[0].actor, replacements[0].actor);
  // All events concern slot 5.
  for (const auto& e : {failures[0], detections[0], reports[0], dispatches[0],
                        replacements[0]}) {
    EXPECT_EQ(e.node, 5u);
  }
}

}  // namespace
}  // namespace sensrep::trace
