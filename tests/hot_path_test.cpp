// Equivalence suite for the data-oriented hot path: the pooled EventQueue
// (slab-allocated slots, 4-ary structure-of-arrays heap, lazy cancellation).
// It is checked two ways:
//
//  1. randomized differential property suites: identical
//     schedule/cancel/pop sequences (one-shots and periodic series) through
//     the pooled queue and a small std::priority_queue (time, seq)
//     reference, requiring identical pop order and timestamps; and
//     Simulator::every() against a re-scheduling every() built on in()
//     (run under ASAN in CI, where any slot-lifetime slip — double destroy,
//     stale generation, inline-buffer overrun — faults);
//  2. unit tests of the pool's own contract: inline vs boxed storage,
//     capture destruction timing, slot reuse generations, and that no
//     simulation callback needs boxed storage;
//
// and simulations stay byte-identical across runner worker counts (run
// under TSAN in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "runner/executor.hpp"
#include "runner/sink.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace sensrep::sim {
namespace {

// --- pool contract -----------------------------------------------------------

TEST(EventPool, CancelDestroysCapturesImmediately) {
  EventQueue q;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  const EventId id = q.schedule(5.0, [token] { (void)*token; });
  token.reset();
  EXPECT_FALSE(watch.expired());  // queue holds the capture
  EXPECT_TRUE(q.cancel(id));
  // The old map-based queue erased the boxed std::function on cancel; the
  // pool must match that lifetime, not defer to compaction or pop.
  EXPECT_TRUE(watch.expired());
}

TEST(EventPool, PoppedHandleKeepsCaptureAliveThroughInvocation) {
  // The run loop invokes the callback from the slot, then releases the slot
  // when the Popped handle dies, so a callback's captures (which it may
  // still be using as it returns) survive its own invocation.
  EventQueue q;
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> watch = token;
  q.schedule(1.0, [token] { ++*token; });
  token.reset();
  {
    auto ev = q.pop();
    ev.callback();
    EXPECT_FALSE(watch.expired());  // handle still owns the capture
  }
  EXPECT_TRUE(watch.expired());  // released with the handle
}

TEST(EventPool, SlotsAreReusedNotAccumulated) {
  EventQueue q;
  for (int i = 0; i < 10000; ++i) {
    q.schedule(static_cast<double>(i), [] {});
    q.pop().callback();
  }
  // One pending event at a time: one chunk of slots covers the whole run.
  EXPECT_LE(q.pool_slots(), 256u);
}

// --- differential property suite: pooled vs reference -----------------------

/// The queue's ordering contract and nothing else: events pop in (time,
/// schedule order); cancel succeeds once, for a pending event only. A
/// periodic event keeps its handle and, once popped, is pushed back at
/// time + period with a fresh sequence number.
class ReferenceQueue {
 public:
  std::size_t schedule(double t, int tag, double period = 0.0) {
    const std::size_t handle = events_.size();
    events_.push_back({next_seq_, tag, period, true});
    heap_.push({t, next_seq_++, handle});
    ++live_;
    return handle;
  }
  bool cancel(std::size_t handle) {
    if (!events_[handle].live) return false;
    events_[handle].live = false;
    --live_;
    return true;
  }
  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }
  double next_time() {
    skim();
    return heap_.top().time;
  }
  /// Pops the earliest live event: (time, tag).
  std::pair<double, int> pop() {
    skim();
    const Entry e = heap_.top();
    heap_.pop();
    Event& ev = events_[e.handle];
    if (ev.period > 0.0) {
      ev.seq = next_seq_;
      heap_.push({e.time + ev.period, next_seq_++, e.handle});
    } else {
      ev.live = false;
      --live_;
    }
    return {e.time, ev.tag};
  }

 private:
  struct Event {
    std::uint64_t seq;  // of its current heap entry
    int tag;
    double period;
    bool live;
  };
  struct Entry {
    double time;
    std::uint64_t seq;
    std::size_t handle;
    bool operator>(const Entry& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };
  void skim() {
    for (;;) {
      const Entry& top = heap_.top();
      const Event& ev = events_[top.handle];
      if (ev.live && ev.seq == top.seq) return;
      heap_.pop();
    }
  }
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::vector<Event> events_;
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
};

// Both queues receive the same operation sequence; every popped event must
// surface in the same order, at the same timestamp, running the same payload.
TEST(EventQueueDifferential, RandomScheduleCancelPopMatchesReferenceExactly) {
  Rng rng(20260808);
  for (int round = 0; round < 50; ++round) {
    EventQueue pooled;
    ReferenceQueue reference;

    std::vector<int> pooled_log;
    std::vector<int> reference_log;
    // Pending events by payload tag, so cancels hit the same logical event
    // in both queues.
    struct Pending {
      EventId id;
      std::size_t ref;
      int tag;
      bool periodic;
    };
    std::vector<Pending> pending;
    int next_tag = 0;

    for (int op = 0; op < 600; ++op) {
      const double roll = rng.uniform01();
      if (roll < 0.55 || pending.empty()) {
        double t = rng.uniform01() * 100.0;
        // Some periodic series; whole-second starts and periods put their
        // occurrences on ties with each other, which only the sequence
        // numbers taken at each re-arm break.
        double period = 0.0;
        if (rng.chance(0.15)) {
          t = std::floor(t);
          period = static_cast<double>(rng.between(1, 20));
        }
        const int tag = next_tag++;
        const EventId a =
            pooled.schedule(t, [&pooled_log, tag] { pooled_log.push_back(tag); }, period);
        pending.push_back({a, reference.schedule(t, tag, period), tag, period > 0.0});
      } else if (roll < 0.75) {
        const std::size_t pick = rng.below(pending.size());
        EXPECT_EQ(pooled.cancel(pending[pick].id), reference.cancel(pending[pick].ref));
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(pick));
      } else {
        ASSERT_EQ(pooled.empty(), reference.empty());
        if (pooled.empty()) continue;
        ASSERT_DOUBLE_EQ(pooled.next_time(), reference.next_time());
        auto pa = pooled.pop();
        const auto [time, tag] = reference.pop();
        ASSERT_DOUBLE_EQ(pa.time, time);
        pa.callback();
        reference_log.push_back(tag);
        ASSERT_FALSE(pooled_log.empty());
        ASSERT_EQ(pooled_log.back(), tag);
        std::erase_if(pending, [tag](const Pending& p) { return p.tag == tag && !p.periodic; });
      }
      ASSERT_EQ(pooled.size(), reference.size()) << "round " << round << " op " << op;
    }

    // Stop the live series, then drain both queues; the tails must match
    // one-for-one, and with no more schedules interleaved the drain must be
    // nondecreasing in time.
    for (const Pending& p : pending) {
      if (p.periodic) {
        EXPECT_EQ(pooled.cancel(p.id), reference.cancel(p.ref));
      }
    }
    double last = -1.0;
    while (!pooled.empty()) {
      ASSERT_FALSE(reference.empty());
      ASSERT_DOUBLE_EQ(pooled.next_time(), reference.next_time());
      EXPECT_GE(pooled.next_time(), last);
      last = pooled.next_time();
      pooled.pop().callback();
      reference_log.push_back(reference.pop().second);
    }
    EXPECT_TRUE(reference.empty());
    EXPECT_EQ(pooled_log, reference_log) << "round " << round;
  }
}

// The simulator's own contract: nothing is scheduled before the last popped
// time, so every re-arm lands on its period's lane (the test above, which
// pops out of order, covers the heap fallback). Periods that are not exact
// in binary make repeated additions round, and same-instant starts and
// schedules at next_time() put lane heads and heap entries on exact ties.
// Cancels hit series whose next entry sits in a lane, series cancel
// themselves from inside their own run, and a cancel storm compacts.
TEST(EventQueueDifferential, InOrderSchedulesThroughLanesMatchReferenceExactly) {
  constexpr std::array<double, 3> kPeriods{0.1, 10.0 / 3.0, 7.7};
  Rng rng(20261019);
  std::size_t lane_cancels = 0;
  std::size_t self_cancels = 0;
  std::size_t compactions = 0;
  std::size_t ties = 0;
  std::size_t peak_lane_entries = 0;
  for (int round = 0; round < 30; ++round) {
    EventQueue pooled;
    ReferenceQueue reference;
    struct Event {
      EventId id;
      std::size_t ref;
      double period;
      bool active;
      bool popped;       // a series that ran once has its next entry in a lane
      bool self_cancel;  // its next run cancels its own series
    };
    std::vector<Event> events;  // by tag
    std::vector<int> pooled_log;
    std::vector<int> reference_log;
    double now = 0.0;

    const auto active_tags = [&] {
      std::vector<int> tags;
      for (std::size_t t = 0; t < events.size(); ++t) {
        if (events[t].active) tags.push_back(static_cast<int>(t));
      }
      return tags;
    };
    const auto cancel = [&](int tag) {
      Event& e = events[static_cast<std::size_t>(tag)];
      if (e.period > 0.0 && e.popped) ++lane_cancels;
      const std::size_t dead_before = pooled.dead_entries();
      EXPECT_EQ(pooled.cancel(e.id), reference.cancel(e.ref));
      if (dead_before > 0 && pooled.dead_entries() == 0) ++compactions;
      e.active = false;
    };

    for (int op = 0; op < 3000; ++op) {
      const double roll = rng.uniform01();
      if (op == 1500) {
        for (const int tag : active_tags()) {
          if (rng.chance(0.8)) cancel(tag);
        }
      } else if (roll < 0.4 || pooled.empty()) {
        // At the next entry's instant (often a lane head), or on a 0.1 grid
        // from now whose sums round differently from the lanes' additions.
        const double t = !pooled.empty() && rng.chance(0.2)
                             ? pooled.next_time()
                             : now + 0.1 * static_cast<double>(rng.between(0, 30));
        const double period = rng.chance(0.5) ? kPeriods[rng.below(kPeriods.size())] : 0.0;
        const int tag = static_cast<int>(events.size());
        const EventId id = pooled.schedule(
            t,
            [&pooled, &pooled_log, &events, tag] {
              pooled_log.push_back(tag);
              const Event& e = events[static_cast<std::size_t>(tag)];
              if (e.self_cancel) pooled_log.push_back(pooled.cancel(e.id) ? -1 : -2);
            },
            period);
        events.push_back({id, reference.schedule(t, tag, period), period, true, false, false});
      } else if (roll < 0.55) {
        const auto tags = active_tags();
        if (!tags.empty()) cancel(tags[rng.below(tags.size())]);
      } else if (roll < 0.58) {
        const auto tags = active_tags();
        if (!tags.empty()) {
          Event& e = events[static_cast<std::size_t>(tags[rng.below(tags.size())])];
          if (e.period > 0.0) e.self_cancel = true;
        }
      } else {
        ASSERT_DOUBLE_EQ(pooled.next_time(), reference.next_time());
        auto pa = pooled.pop();
        const auto [time, tag] = reference.pop();
        ASSERT_EQ(pa.time, time) << "round " << round << " op " << op;
        ASSERT_GE(time, now);
        if (time == now && op > 0) ++ties;
        now = time;
        pa.callback();
        reference_log.push_back(tag);
        Event& e = events[static_cast<std::size_t>(tag)];
        e.popped = true;
        if (e.period == 0.0) e.active = false;
        if (e.self_cancel) {
          ++self_cancels;
          reference_log.push_back(reference.cancel(e.ref) ? -1 : -2);
          e.active = false;
        }
        ASSERT_EQ(pooled_log, reference_log) << "round " << round << " op " << op;
      }
      ASSERT_EQ(pooled.size(), reference.size()) << "round " << round << " op " << op;
      ASSERT_EQ(pooled.empty(), reference.empty());
      peak_lane_entries = std::max(peak_lane_entries, pooled.lane_entries());
    }

    for (const int tag : active_tags()) {
      if (events[static_cast<std::size_t>(tag)].period > 0.0) cancel(tag);
    }
    while (!pooled.empty()) {
      ASSERT_FALSE(reference.empty());
      ASSERT_EQ(pooled.next_time(), reference.next_time());
      pooled.pop().callback();
      reference_log.push_back(reference.pop().second);
    }
    EXPECT_TRUE(reference.empty());
    EXPECT_EQ(pooled_log, reference_log) << "round " << round;
  }
  // The script reached every path it is meant to cover.
  EXPECT_GT(peak_lane_entries, 50u);
  EXPECT_GT(lane_cancels, 1000u);
  EXPECT_GT(self_cancels, 100u);
  EXPECT_GT(compactions, 20u);
  EXPECT_GT(ties, 1000u);
}

// --- periodic lanes ----------------------------------------------------------

// A lane head and a heap entry at the same instant pop in schedule order:
// the one-shot scheduled before the series' re-arm first, the one scheduled
// after it second.
TEST(EventLanes, LaneHeadAndHeapEntryAtOneInstantPopBySeq) {
  EventQueue q;
  std::vector<int> log;
  const EventId series = q.schedule(0.0, [&log] { log.push_back(0); }, 1.0);
  q.schedule(1.0, [&log] { log.push_back(1); });
  q.pop().callback();  // runs the series at 0, re-arms it at 1 onto its lane
  EXPECT_EQ(q.lane_entries(), 1u);
  q.schedule(1.0, [&log] { log.push_back(2); });
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(q.next_time(), 1.0);
    q.pop().callback();
  }
  EXPECT_EQ(log, (std::vector<int>{0, 1, 0, 2}));
  EXPECT_TRUE(q.cancel(series));
  EXPECT_TRUE(q.empty());
}

// heap_size() counts lane entries too, and compaction keeps the sum of heap
// and lanes within 2 * size() + 1 under cancel/re-schedule churn of series.
TEST(EventLanes, HeapSizeCountsLanesAndStaysBoundedUnderChurn) {
  EventQueue q;
  Rng rng(7);
  std::vector<EventId> ids;
  for (int i = 0; i < 500; ++i) {
    ids.push_back(q.schedule(rng.uniform01(), [] {}, 1.0));
  }
  double now = 0.0;
  std::size_t most_in_lanes = 0;
  for (int op = 0; op < 200000; ++op) {
    if (rng.chance(0.3)) {
      const std::size_t pick = rng.below(ids.size());
      EXPECT_TRUE(q.cancel(ids[pick]));
      ids[pick] = q.schedule(now + rng.uniform01(), [] {}, 1.0);
    } else {
      auto ev = q.pop();
      ASSERT_GE(ev.time, now);
      now = ev.time;
      ev.callback();
    }
    ASSERT_EQ(q.size(), ids.size());
    ASSERT_LE(q.heap_size(), std::max<std::size_t>(2 * q.size() + 1, 64)) << "op " << op;
    most_in_lanes = std::max(most_in_lanes, q.lane_entries());
  }
  EXPECT_GT(most_in_lanes, 250u);
}

/// 10k series of one period run for 100 periods on a raw queue popped in
/// time order; each run may cancel another series and start it afresh at a
/// random phase. With kLanes the series re-arm in their slots (and so on a
/// lane); without, each run re-schedules itself as a one-shot as its last
/// act, which always goes through the heap. Returns pool_slots() and the
/// run log's hash.
template <bool kLanes>
std::pair<std::size_t, std::uint64_t> run_series_churn() {
  constexpr std::size_t kSeries = 10000;
  constexpr double kPeriod = 10.0;
  struct Script {
    EventQueue q;
    Rng rng{99};
    std::vector<EventId> ids = std::vector<EventId>(kSeries);
    double now = 0.0;
    std::uint64_t hash = 1469598103934665603ull;

    void start(std::size_t i, double t) {
      ids[i] = kLanes ? q.schedule(t, [this, i] { fire(i); }, kPeriod)
                      : q.schedule(t, [this, i] { fire(i); });
    }
    void fire(std::size_t i) {
      hash = (hash ^ i) * 1099511628211ull;
      if (rng.chance(0.05)) {
        const std::size_t j = rng.below(kSeries);
        if (j != i) {
          EXPECT_TRUE(q.cancel(ids[j]));
          start(j, now + rng.uniform01() * kPeriod);
        }
      }
      if (!kLanes) ids[i] = q.schedule(now + kPeriod, [this, i] { fire(i); });
    }
  };
  Script s;
  for (std::size_t i = 0; i < kSeries; ++i) s.start(i, s.rng.uniform01() * kPeriod);
  while (s.q.next_time() <= 100 * kPeriod) {
    auto ev = s.q.pop();
    s.now = ev.time;
    ev.callback();
  }
  EXPECT_EQ(s.q.size(), kSeries);
  if constexpr (kLanes) {
    EXPECT_GT(s.q.lane_entries(), kSeries / 2);
  }
  return {s.q.pool_slots(), s.hash};
}

// Lane entries park their cancelled slots no longer than heap entries do:
// the pool needs no more slots than the same runs through the heap alone.
TEST(EventLanes, PoolDoesNotOutgrowHeapOnlyUnderSeriesChurn) {
  const auto [lane_slots, lane_hash] = run_series_churn<true>();
  const auto [heap_slots, heap_hash] = run_series_churn<false>();
  EXPECT_EQ(lane_hash, heap_hash);  // the same runs, in the same order
  EXPECT_LE(lane_slots, heap_slots);
}

/// The every() the simulator had before periodic events lived in their
/// queue slot, built on the public one-shot API: each occurrence runs the
/// body, then — unless cancelled meanwhile — schedules the next one.
class ReferencePeriodic {
 public:
  explicit ReferencePeriodic(Simulator& sim) : sim_(&sim) {}

  std::size_t every(Duration first, Duration period, std::function<void()> body) {
    series_.push_back(std::make_unique<Series>(Series{{}, period, std::move(body), false}));
    Series* s = series_.back().get();
    s->current = sim_->in(first, [this, s] { fire(s); });
    return series_.size() - 1;
  }
  bool cancel(std::size_t handle) {
    Series& s = *series_[handle];
    if (s.cancelled) return false;
    s.cancelled = true;
    sim_->cancel(s.current);
    return true;
  }

 private:
  struct Series {
    EventId current;
    Duration period;
    std::function<void()> body;
    bool cancelled;
  };
  void fire(Series* s) {
    s->body();
    if (!s->cancelled) s->current = sim_->in(s->period, [this, s] { fire(s); });
  }
  Simulator* sim_;
  std::vector<std::unique_ptr<Series>> series_;
};

/// Runs one randomized script of one-shots, series and cancels (some from
/// inside the cancelled series' own run) and logs every execution and every
/// cancel result. Whole-second delays make same-instant ties common.
template <bool kReference>
std::vector<std::pair<double, int>> run_periodic_script(std::uint64_t seed) {
  Simulator sim;
  ReferencePeriodic reference(sim);
  Rng rng(seed);
  std::vector<std::pair<double, int>> log;
  struct Handle {
    EventId id;
    std::size_t ref;
    bool periodic;
  };
  std::vector<Handle> handles;  // by tag
  std::function<void(int)> act;

  const auto start = [&] {
    const int tag = static_cast<int>(handles.size());
    const auto first = static_cast<Duration>(rng.between(0, 6));
    const auto body = [&act, tag] { act(tag); };
    if (!rng.chance(0.4)) {
      handles.push_back({sim.in(first, body), 0, false});
      return;
    }
    const auto period = static_cast<Duration>(rng.between(1, 5));
    if constexpr (kReference) {
      handles.push_back({{}, reference.every(first, period, body), true});
    } else {
      handles.push_back({sim.every(first, period, body), 0, true});
    }
  };
  const auto cancel = [&](const Handle& h) {
    if constexpr (kReference) {
      if (h.periodic) return reference.cancel(h.ref);
    }
    return sim.cancel(h.id);
  };
  act = [&](int tag) {
    log.emplace_back(sim.now(), tag);
    const double roll = rng.uniform01();
    if (roll < 0.45 && handles.size() < 300) {
      start();
    } else if (roll < 0.53) {
      const bool ok = cancel(handles[rng.below(handles.size())]);
      log.emplace_back(sim.now(), ok ? -1 : -2);
    } else if (roll < 0.56) {
      const bool ok = cancel(handles[static_cast<std::size_t>(tag)]);  // itself
      log.emplace_back(sim.now(), ok ? -3 : -4);
    }
  };

  for (int i = 0; i < 16; ++i) start();
  sim.run_until(150.0);
  log.emplace_back(sim.now(), static_cast<int>(sim.pending()));
  return log;
}

// The in-slot re-arm must reproduce the re-scheduling every() exactly:
// same executions, same order, same cancel outcomes, same pending count.
TEST(PeriodicDifferential, InSlotRearmMatchesReschedulingReference) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto got = run_periodic_script<false>(seed);
    const auto want = run_periodic_script<true>(seed);
    EXPECT_GT(got.size(), 500u) << "seed " << seed;
    ASSERT_EQ(got, want) << "seed " << seed;
  }
}

// Every capture the simulation schedules fits an inline slot: a closure that
// outgrows kInlineBytes fails EventQueue's static_assert at compile time.
// These runs drive the lossy, faulty and chaotic paths end to end.
class InlineSlots : public ::testing::TestWithParam<core::Algorithm> {};

TEST_P(InlineSlots, NoSimulationCallbackIsBoxed) {
  core::SimulationConfig base;
  base.algorithm = GetParam();
  base.robots = 4;
  base.sim_duration = 3000.0;
  base.seed = 2026;

  core::SimulationConfig lossy = base;
  lossy.radio.loss_probability = 0.1;
  lossy.field.reliable_reports = true;

  core::SimulationConfig faulty = base;
  faulty.robot_faults.mtbf = 1500.0;
  faulty.robot_faults.mttr = 500.0;

  core::SimulationConfig chaotic = base;
  chaotic.field.reliable_reports = true;
  chaotic.radio.model_collisions = true;
  chaotic.radio.chaos.burst = {true, 0.08, 0.3, 0.5, 0.0};
  chaotic.radio.chaos.duplication.enabled = true;
  chaotic.radio.chaos.duplication.probability = 0.2;
  chaotic.radio.chaos.jitter.enabled = true;
  chaotic.radio.chaos.jitter.probability = 0.2;
  chaotic.radio.chaos.jitter.max_extra_s = 4e-3;
  chaos::PartitionWindow blackout;
  blackout.start_s = 1000.0;
  blackout.end_s = 1500.0;
  chaotic.radio.chaos.partitions.push_back(blackout);
  chaotic.robot_faults.crashes.push_back(robot::ScheduledCrash{0, 1200.0});
  chaotic.robot_faults.repairs.push_back(robot::ScheduledRepair{0, 2000.0});

  for (const auto* cfg : {&lossy, &faulty, &chaotic}) {
    core::Simulation sim(*cfg);
    sim.run();
    EXPECT_GT(sim.simulator().executed(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, InlineSlots,
                         ::testing::Values(core::Algorithm::kCentralized,
                                           core::Algorithm::kFixedDistributed,
                                           core::Algorithm::kDynamicDistributed),
                         [](const ::testing::TestParamInfo<core::Algorithm>& param_info) {
                           return std::string(core::to_string(param_info.param));
                         });

// The parallel runner must keep its byte-identical-across-worker-counts
// guarantee: the event pool and the SoA mirrors are per-simulation state, so
// workers must never share them. TSAN runs this in CI.
TEST(HotPathRunnerDeterminism, CsvIsByteIdenticalAcrossWorkerCountsWithPooledQueue) {
  runner::ParameterGrid grid;
  grid.algorithms = {core::Algorithm::kCentralized, core::Algorithm::kFixedDistributed,
                     core::Algorithm::kDynamicDistributed};
  grid.robot_counts = {4};
  grid.seeds = 2;
  grid.base.sim_duration = 800.0;
  grid.base.robot_faults.mtbf = 400.0;  // cancel/reschedule churn in every job
  grid.base.robot_faults.mttr = 200.0;

  const auto run_with = [&grid](std::size_t workers) {
    std::ostringstream out;
    runner::CsvSink sink(out);
    runner::ExecutorOptions options;
    options.jobs = workers;
    runner::Executor exec(options);
    const auto batch = exec.run(grid, &sink);
    EXPECT_TRUE(batch.ok());
    return out.str();
  };

  const std::string serial = run_with(1);
  const std::string parallel = run_with(4);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace sensrep::sim
