// Unit tests for the discrete-event kernel: event queue ordering and
// cancellation, simulator clock semantics, periodic timers, RNG streams.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace sensrep::sim {
namespace {

// --- EventQueue --------------------------------------------------------------

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, EqualTimesPopInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().callback();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue q;
  bool ran = false;
  const EventId id = q.schedule(1.0, [&] { ran = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelledEventSkippedByNextTime) {
  EventQueue q;
  const EventId early = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_TRUE(q.cancel(early));
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(EventQueueTest, SizeCountsLiveEventsOnly) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, RejectsInvalidTimeAndNullCallback) {
  EventQueue q;
  EXPECT_THROW(q.schedule(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule(kNever, [] {}), std::invalid_argument);
  EXPECT_THROW(q.schedule(1.0, EventQueue::Callback{}), std::invalid_argument);
}

// Regression: cancel() used to leave its HeapEntry behind forever, so a
// workload that perpetually reschedules (cancel + schedule, like lease
// supervision re-arming) grew the heap without bound. The queue must now
// compact once dead entries outnumber live ones.
TEST(EventQueueTest, HeapStaysBoundedUnderCancelRescheduleChurn) {
  EventQueue q;
  const EventId keep = q.schedule(1e9, [] {});  // one long-lived anchor event
  EventId current = q.schedule(1.0, [] {});
  for (int i = 0; i < 100000; ++i) {
    EXPECT_TRUE(q.cancel(current));
    current = q.schedule(2.0 + i, [] {});
  }
  EXPECT_EQ(q.size(), 2u);
  // 2 live events; anything O(live) is fine, 100k dead entries is the bug.
  EXPECT_LE(q.heap_size(), 64u);
  EXPECT_TRUE(q.cancel(keep));
  EXPECT_TRUE(q.cancel(current));
  EXPECT_TRUE(q.empty());
}

// Audit: next_time()/empty() must agree after any interleaving of cancel and
// pop, including cancelling the current top-of-heap.
TEST(EventQueueTest, CancelOfTopKeepsNextTimeConsistent) {
  EventQueue q;
  const EventId top = q.schedule(1.0, [] {});
  q.schedule(3.0, [] {});
  const EventId mid = q.schedule(2.0, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  EXPECT_TRUE(q.cancel(top));       // dead entry is now the heap top
  EXPECT_FALSE(q.empty());
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  EXPECT_TRUE(q.cancel(mid));       // next-in-line dies too
  EXPECT_FALSE(q.empty());
  EXPECT_DOUBLE_EQ(q.next_time(), 3.0);
  auto ev = q.pop();
  EXPECT_DOUBLE_EQ(ev.time, 3.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, InterleavedCancelPopNeverDesyncs) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 32; ++i) {
    ids.push_back(q.schedule(static_cast<double>(i), [] {}));
  }
  // Cancel every even event, then alternate pop / cancel-ahead.
  for (std::size_t i = 0; i < ids.size(); i += 2) EXPECT_TRUE(q.cancel(ids[i]));
  double last = -1.0;
  while (!q.empty()) {
    const double next = q.next_time();
    auto ev = q.pop();
    EXPECT_DOUBLE_EQ(ev.time, next);  // next_time() promised this pop
    EXPECT_GT(ev.time, last);
    last = ev.time;
  }
  EXPECT_EQ(q.size(), 0u);
}

// EventIds stay unique across slot reuse: a stale id from a popped event
// must not cancel the event that recycled its slot.
TEST(EventQueueTest, StaleIdCannotCancelRecycledSlot) {
  EventQueue q;
  const EventId first = q.schedule(1.0, [] {});
  q.pop().callback();
  bool ran = false;
  q.schedule(2.0, [&] { ran = true; });  // very likely reuses first's slot
  EXPECT_FALSE(q.cancel(first));
  q.pop().callback();
  EXPECT_TRUE(ran);
}

// --- Simulator -----------------------------------------------------------------

TEST(SimulatorTest, ClockAdvancesToEventTimes) {
  Simulator s;
  std::vector<double> seen;
  s.at(1.5, [&] { seen.push_back(s.now()); });
  s.at(4.0, [&] { seen.push_back(s.now()); });
  s.run_all();
  EXPECT_EQ(seen, (std::vector<double>{1.5, 4.0}));
}

TEST(SimulatorTest, InSchedulesRelativeToNow) {
  Simulator s;
  double fired_at = -1.0;
  s.at(10.0, [&] { s.in(5.0, [&] { fired_at = s.now(); }); });
  s.run_all();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(SimulatorTest, RunUntilStopsAtHorizonAndLandsClockThere) {
  Simulator s;
  int count = 0;
  s.at(1.0, [&] { ++count; });
  s.at(2.0, [&] { ++count; });
  s.at(10.0, [&] { ++count; });
  s.run_until(5.0);
  EXPECT_EQ(count, 2);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
  s.run_until(20.0);
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, EventExactlyAtHorizonRuns) {
  Simulator s;
  bool ran = false;
  s.at(5.0, [&] { ran = true; });
  s.run_until(5.0);
  EXPECT_TRUE(ran);
}

TEST(SimulatorTest, RejectsPastScheduling) {
  Simulator s;
  s.at(5.0, [] {});
  s.run_all();
  EXPECT_THROW(s.at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(s.in(-1.0, [] {}), std::invalid_argument);
}

TEST(SimulatorTest, PeriodicFiresAtMultiples) {
  Simulator s;
  std::vector<double> times;
  const EventId series = s.every(2.0, [&] { times.push_back(s.now()); });
  s.run_until(7.0);
  s.cancel(series);
  EXPECT_EQ(times, (std::vector<double>{2.0, 4.0, 6.0}));
}

TEST(SimulatorTest, CancelPeriodicStopsSeries) {
  Simulator s;
  int count = 0;
  const EventId series = s.every(1.0, [&] { ++count; });
  s.run_until(3.5);
  EXPECT_EQ(count, 3);
  EXPECT_TRUE(s.cancel(series));
  s.run_until(10.0);
  EXPECT_EQ(count, 3);
}

TEST(SimulatorTest, CancelPeriodicFromInsideItsOwnCallback) {
  Simulator s;
  int count = 0;
  EventId series{};
  series = s.every(1.0, [&] {
    ++count;
    if (count == 2) s.cancel(series);
  });
  s.run_until(10.0);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(SimulatorTest, PeriodicWithFirstDelayFiresAtFirstThenEveryPeriod) {
  Simulator s;
  std::vector<double> times;
  const EventId series = s.every(0.5, 2.0, [&] { times.push_back(s.now()); });
  s.run_until(7.0);
  EXPECT_TRUE(s.cancel(series));
  EXPECT_EQ(times, (std::vector<double>{0.5, 2.5, 4.5, 6.5}));

  std::vector<double> immediate;
  s.every(0.0, 1.0, [&] { immediate.push_back(s.now()); });
  s.run_until(9.0);
  EXPECT_EQ(immediate, (std::vector<double>{7.0, 8.0, 9.0}));

  EXPECT_THROW(s.every(-1.0, 1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(s.every(1.0, 0.0, [] {}), std::invalid_argument);
}

TEST(SimulatorTest, OneShotScheduledByBodyForNextOccurrenceRunsFirst) {
  // The next occurrence takes its sequence number after everything its body
  // scheduled, so a one-shot at the same instant wins the tie.
  Simulator s;
  std::vector<std::pair<double, int>> log;
  const EventId series = s.every(1.0, [&] {
    log.emplace_back(s.now(), 0);
    if (log.size() == 1) s.at(s.now() + 1.0, [&] { log.emplace_back(s.now(), 1); });
  });
  s.run_until(2.5);
  s.cancel(series);
  EXPECT_EQ(log, (std::vector<std::pair<double, int>>{{1.0, 0}, {2.0, 1}, {2.0, 0}}));
}

TEST(SimulatorTest, PeriodicCancelledByAnotherEventStops) {
  Simulator s;
  int count = 0;
  const EventId series = s.every(1.0, [&] { ++count; });
  bool cancelled = false;
  s.at(3.5, [&] { cancelled = s.cancel(series); });
  s.run_until(10.0);
  EXPECT_TRUE(cancelled);
  EXPECT_EQ(count, 3);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_FALSE(s.cancel(series));
}

TEST(SimulatorTest, StaleSeriesIdCannotCancelLaterTenantOfItsSlot) {
  Simulator s;
  // Cancelled from inside its own run: the slot is released right away.
  EventId own{};
  own = s.every(1.0, [&] { s.cancel(own); });
  s.run_until(1.0);
  bool ran = false;
  const EventId tenant = s.in(1.0, [&] { ran = true; });
  ASSERT_EQ(tenant.value >> 32, own.value >> 32);  // same slot, new generation
  EXPECT_FALSE(s.cancel(own));
  s.run_until(3.0);
  EXPECT_TRUE(ran);

  // Cancelled from outside: the slot is released once its heap entry is
  // skimmed off.
  const EventId series = s.every(1.0, [] {});
  s.run_until(4.5);
  EXPECT_TRUE(s.cancel(series));
  s.at(6.0, [] {});
  s.run_until(5.5);  // skims the dead entry at 5.0
  bool later_ran = false;
  const EventId later = s.in(1.0, [&] { later_ran = true; });
  ASSERT_EQ(later.value >> 32, series.value >> 32);
  EXPECT_FALSE(s.cancel(series));
  s.run_until(10.0);
  EXPECT_TRUE(later_ran);
}

TEST(SimulatorTest, ThrowingPeriodicCallbackIsNotRearmed) {
  Simulator s;
  int count = 0;
  const EventId series = s.every(1.0, [&] {
    if (++count == 2) throw std::runtime_error("tick failed");
  });
  EXPECT_THROW(s.run_until(10.0), std::runtime_error);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_FALSE(s.cancel(series));
  s.run_until(10.0);
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, StopAbortsRun) {
  Simulator s;
  int count = 0;
  s.every(1.0, [&] {
    ++count;
    if (count == 5) s.stop();
  });
  s.run_until(100.0);
  EXPECT_EQ(count, 5);
}

TEST(SimulatorTest, StepExecutesOneEvent) {
  Simulator s;
  int count = 0;
  s.at(1.0, [&] { ++count; });
  s.at(2.0, [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
  EXPECT_EQ(count, 2);
}

TEST(SimulatorTest, ExecutedCounterAccumulates) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.at(static_cast<double>(i), [] {});
  s.run_all();
  EXPECT_EQ(s.executed(), 7u);
}

TEST(SimulatorTest, ExecutedAndTheBlockAgreeAfterAThrowingCallback) {
  // A daemon catches a throwing command and keeps running. executed() reads
  // the block's kEventsExecuted, counted once the callback returns: the
  // throwing event counts in neither, and the next one in both.
  Simulator s;
  s.at(1.0, [] { throw std::runtime_error("boom"); });
  s.at(2.0, [] {});
  EXPECT_THROW(s.run_all(), std::runtime_error);
  EXPECT_EQ(s.executed(), 0u);
  EXPECT_EQ(s.executed(), s.counters().get(obs::Counter::kEventsExecuted));
  s.run_all();
  EXPECT_EQ(s.executed(), 1u);
  EXPECT_EQ(s.executed(), s.counters().get(obs::Counter::kEventsExecuted));
}

TEST(SimulatorTest, ACallbackDoesNotSeeItsOwnEventExecuted) {
  Simulator s;
  std::uint64_t seen = 99;
  s.at(1.0, [] {});
  s.at(2.0, [&] { seen = s.executed(); });
  s.run_all();
  EXPECT_EQ(seen, 1u);
  EXPECT_EQ(s.executed(), 2u);
}

// --- Rng ------------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b()) ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(RngTest, Uniform01InRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 9.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng r(99);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform01();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, BelowStaysBelow) {
  Rng r(5);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(RngTest, BelowCoversAllResidues) {
  Rng r(5);
  std::vector<int> hits(5, 0);
  for (int i = 0; i < 5000; ++i) ++hits[r.below(5)];
  for (const int h : hits) EXPECT_GT(h, 800);  // ~1000 expected each
}

TEST(RngTest, BetweenInclusive) {
  Rng r(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng r(13);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(16000.0);
  EXPECT_NEAR(sum / n, 16000.0, 16000.0 * 0.02);
}

TEST(RngTest, ExponentialAlwaysPositive) {
  Rng r(13);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(r.exponential(1.0), 0.0);
}

TEST(RngTest, ChanceExtremes) {
  Rng r(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(RngTest, ChanceFrequencyTracksP) {
  Rng r(17);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ForkIsDeterministicAndIndependent) {
  const Rng parent(42);
  Rng a = parent.fork("medium");
  Rng b = parent.fork("medium");
  Rng c = parent.fork("field");
  EXPECT_EQ(a(), b());      // same name -> same stream
  Rng a2 = parent.fork("medium");
  EXPECT_NE(a2(), c());     // different names -> different streams
}

TEST(RngTest, ForkDoesNotAdvanceParent) {
  Rng p1(42), p2(42);
  (void)p1.fork("x");
  (void)p1.fork("y");
  EXPECT_EQ(p1(), p2());
}

TEST(RngTest, ShufflePreservesElements) {
  Rng r(3);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng r(3);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  const auto before = v;
  r.shuffle(v);
  EXPECT_NE(v, before);
}

}  // namespace
}  // namespace sensrep::sim
