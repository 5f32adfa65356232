// Unit tests for metrics: per-category transmission counts, summary statistics,
// CSV emission, and the failure log.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "metrics/counters.hpp"
#include "metrics/csv.hpp"
#include "metrics/failure_log.hpp"
#include "metrics/histogram.hpp"
#include "metrics/summary.hpp"
#include "metrics/timeline.hpp"
#include "obs/metrics_registry.hpp"

namespace sensrep::metrics {
namespace {

// --- per-category transmissions in a simulation's counter block ---------

TEST(CountersTest, StartsAtZero) {
  obs::CounterBlock c;
  EXPECT_EQ(c.total(), 0u);
  EXPECT_EQ(c.get(MessageCategory::kBeacon), 0u);
}

TEST(CountersTest, AddAccumulatesPerCategory) {
  obs::CounterBlock c;
  c.tx(MessageCategory::kBeacon);
  c.tx(MessageCategory::kBeacon, 9);
  c.tx(MessageCategory::kFailureReport, 3);
  c.rx(MessageCategory::kBeacon);
  EXPECT_EQ(c.get(MessageCategory::kBeacon), 10u);
  EXPECT_EQ(c.get(MessageCategory::kFailureReport), 3u);
  EXPECT_EQ(c.total(), 13u);
  EXPECT_EQ(c.received(), 1u);
}

TEST(CountersTest, NamesAreStable) {
  EXPECT_EQ(to_string(MessageCategory::kBeacon), "beacon");
  EXPECT_EQ(to_string(MessageCategory::kLocationUpdate), "location_update");
  EXPECT_EQ(to_string(MessageCategory::kFailureReport), "failure_report");
  EXPECT_EQ(to_string(MessageCategory::kRepairRequest), "repair_request");
  EXPECT_EQ(to_string(MessageCategory::kInitialization), "initialization");
}

// --- Summary -----------------------------------------------------------------

TEST(SummaryTest, EmptyDefaults) {
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_THROW((void)s.percentile(0.5), std::logic_error);
}

TEST(SummaryTest, MeanAndSum) {
  Summary s;
  for (const double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
  EXPECT_EQ(s.count(), 4u);
}

TEST(SummaryTest, StddevMatchesKnownValue) {
  Summary s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  // Sample stddev of this classic data set is sqrt(32/7).
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(SummaryTest, MinMax) {
  Summary s;
  for (const double v : {5.0, -2.0, 9.0, 0.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.min(), -2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SummaryTest, PercentilesInterpolate) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0.95), 95.05, 1e-9);
}

TEST(SummaryTest, PercentileRejectsBadQ) {
  Summary s;
  s.add(1.0);
  EXPECT_THROW((void)s.percentile(-0.1), std::invalid_argument);
  EXPECT_THROW((void)s.percentile(1.1), std::invalid_argument);
}

TEST(SummaryTest, PercentileAfterMoreSamplesRecomputes) {
  Summary s;
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.median(), 1.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);  // sorted cache invalidated
}

TEST(SummaryTest, ResetClears) {
  Summary s;
  s.add(5.0);
  s.reset();
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(SummaryTest, WelfordIsStableForLargeOffsets) {
  Summary s;
  // Catastrophic cancellation check: huge offset, small variance.
  for (const double v : {1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0}) s.add(v);
  EXPECT_NEAR(s.mean(), 1e9 + 10.0, 1e-3);
  EXPECT_NEAR(s.stddev(), std::sqrt(30.0), 1e-6);
}

// --- CsvWriter --------------------------------------------------------------

TEST(CsvTest, PlainRow) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row({"a", "b", "c"});
  EXPECT_EQ(out.str(), "a,b,c\n");
}

TEST(CsvTest, TypedRowRendersNumbers) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row("x", 42, 2.5);
  EXPECT_EQ(out.str(), "x,42,2.5\n");
}

TEST(CsvTest, QuotesCellsWithCommas) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row({"a,b", "plain"});
  EXPECT_EQ(out.str(), "\"a,b\",plain\n");
}

TEST(CsvTest, EscapesEmbeddedQuotes) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row({"say \"hi\""});
  EXPECT_EQ(out.str(), "\"say \"\"hi\"\"\"\n");
}

TEST(CsvTest, DoubleUsesShortestRoundTrip) {
  EXPECT_EQ(CsvWriter::to_cell(0.1), "0.1");
  EXPECT_EQ(CsvWriter::to_cell(100.0), "100");
}

// --- FailureLog ----------------------------------------------------------------

TEST(FailureLogTest, OpenCreatesRecord) {
  FailureLog log;
  const auto id = log.open(17, 1000.0);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.at(id).node_id, 17u);
  EXPECT_DOUBLE_EQ(log.at(id).failed_at, 1000.0);
  EXPECT_FALSE(log.at(id).detected());
  EXPECT_FALSE(log.at(id).repaired());
}

TEST(FailureLogTest, LatencyComputedWhenRepaired) {
  FailureLog log;
  const auto id = log.open(1, 100.0);
  log.at(id).repaired_at = 250.0;
  EXPECT_DOUBLE_EQ(log.at(id).repair_latency(), 150.0);
}

TEST(FailureLogTest, LatencyIsNeverWhenUnrepaired) {
  FailureLog log;
  const auto id = log.open(1, 100.0);
  EXPECT_EQ(log.at(id).repair_latency(), sim::kNever);
}

TEST(FailureLogTest, CountsByState) {
  FailureLog log;
  const auto a = log.open(1, 10.0);
  const auto b = log.open(2, 20.0);
  log.open(3, 30.0);
  log.at(a).detected_at = 40.0;
  log.at(a).repaired_at = 100.0;
  log.at(b).detected_at = 50.0;
  EXPECT_EQ(log.detected_count(), 2u);
  EXPECT_EQ(log.repaired_count(), 1u);
}

// --- TimeSeries ----------------------------------------------------------------

TEST(TimeSeriesTest, StepSemantics) {
  TimeSeries s;
  s.add(0.0, 10.0);
  s.add(100.0, 20.0);
  s.add(200.0, 5.0);
  EXPECT_DOUBLE_EQ(s.value_at(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.value_at(99.9), 10.0);
  EXPECT_DOUBLE_EQ(s.value_at(100.0), 20.0);
  EXPECT_DOUBLE_EQ(s.value_at(1000.0), 5.0);
}

TEST(TimeSeriesTest, RejectsBackwardsTimeAndEarlyQueries) {
  TimeSeries s;
  s.add(10.0, 1.0);
  EXPECT_THROW(s.add(5.0, 2.0), std::invalid_argument);
  EXPECT_THROW((void)s.value_at(9.0), std::invalid_argument);
  TimeSeries empty;
  EXPECT_THROW((void)empty.value_at(0.0), std::logic_error);
}

TEST(TimeSeriesTest, MinMax) {
  TimeSeries s;
  s.add(0.0, 3.0);
  s.add(1.0, -1.0);
  s.add(2.0, 7.0);
  EXPECT_DOUBLE_EQ(s.min(), -1.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.0);
}

TEST(TimeSeriesTest, TimeWeightedMean) {
  TimeSeries s;
  s.add(0.0, 10.0);   // holds for 100 s
  s.add(100.0, 30.0); // holds for 100 s
  EXPECT_DOUBLE_EQ(s.time_weighted_mean(0.0, 200.0), 20.0);
  EXPECT_DOUBLE_EQ(s.time_weighted_mean(50.0, 150.0), 20.0);
  EXPECT_DOUBLE_EQ(s.time_weighted_mean(0.0, 100.0), 10.0);
}

TEST(TimeSeriesTest, CsvOutput) {
  TimeSeries s;
  s.add(1.5, 2.0);
  std::ostringstream out;
  s.write_csv(out, "coverage");
  EXPECT_EQ(out.str(), "t,coverage\n1.5,2\n");
}

TEST(TimeSeriesTest, PeriodicSamplingDrivesSeries) {
  sim::Simulator simulator;
  TimeSeries s;
  double counter = 0.0;
  const auto id =
      sample_periodically(simulator, 10.0, s, [&counter] { return counter++; });
  simulator.run_until(35.0);
  EXPECT_TRUE(simulator.cancel(id));
  ASSERT_EQ(s.size(), 3u);
  EXPECT_DOUBLE_EQ(s.points()[0].first, 10.0);
  EXPECT_DOUBLE_EQ(s.points()[2].second, 2.0);
}

// --- Histogram --------------------------------------------------------------------

TEST(HistogramTest, BinningAndEdges) {
  Histogram h(0.0, 100.0, 10);
  h.add(0.0);    // bin 0 (inclusive lower edge)
  h.add(9.999);  // bin 0
  h.add(10.0);   // bin 1
  h.add(99.9);   // bin 9
  h.add(100.0);  // overflow (exclusive upper edge)
  h.add(-0.1);   // underflow
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.total(), 6u);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 30.0);
  EXPECT_DOUBLE_EQ(h.bin_width(), 10.0);
}

TEST(HistogramTest, RejectsBadConstruction) {
  EXPECT_THROW(Histogram(10.0, 10.0, 5), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 10.0, 0), std::invalid_argument);
}

TEST(HistogramTest, AsciiRenderScalesToPeak) {
  Histogram h(0.0, 30.0, 3);
  for (int i = 0; i < 8; ++i) h.add(5.0);
  for (int i = 0; i < 4; ++i) h.add(15.0);
  const std::string art = h.ascii(8);
  // Peak bin renders 8 hashes, half-peak renders 4.
  EXPECT_NE(art.find("########"), std::string::npos);
  EXPECT_NE(art.find("#### "), std::string::npos);
  EXPECT_NE(art.find("8"), std::string::npos);
  EXPECT_NE(art.find("4"), std::string::npos);
}

TEST(HistogramTest, AddAllFromSummarySamples) {
  Summary s;
  for (int i = 0; i < 100; ++i) s.add(static_cast<double>(i));
  Histogram h(0.0, 100.0, 4);
  h.add_all(s.samples());
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.count(0), 25u);
  EXPECT_EQ(h.count(3), 25u);
}

}  // namespace
}  // namespace sensrep::metrics
