#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>

#include "obs/metrics_registry.hpp"
#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace sensrep::sim {

/// Discrete-event simulation engine.
///
/// Owns the virtual clock and the event queue. All model components schedule
/// work through this class; none keeps its own notion of time. The engine is
/// single-threaded by design — wireless protocol simulations are dominated by
/// tiny events, and determinism is worth more here than parallelism.
///
/// at/in/every accept any callable and forward it to the queue unboxed, so
/// captures are stored in pooled slots without touching the heap; one that
/// does not fit EventQueue::kInlineBytes does not compile.
class Simulator {
 public:
  using Callback = EventQueue::Callback;

  Simulator() : queue_(&counters_) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time (seconds).
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `cb` at absolute time `t`. Requires t >= now().
  template <typename F>
  EventId at(SimTime t, F&& cb) {
    if (t < now_) throw std::invalid_argument("Simulator::at: time in the past");
    return queue_.schedule(t, std::forward<F>(cb));
  }

  /// Schedules `cb` after a delay. Requires delay >= 0.
  template <typename F>
  EventId in(Duration delay, F&& cb) {
    if (delay < 0.0) throw std::invalid_argument("Simulator::in: negative delay");
    return queue_.schedule(now_ + delay, std::forward<F>(cb));
  }

  /// Schedules `cb` every `period` seconds starting at now()+period, until
  /// the returned id is cancelled. Requires period > 0. The id returned
  /// identifies the whole series: cancelling it stops all future occurrences,
  /// including when called from inside the callback itself.
  template <typename F>
  EventId every(Duration period, F&& cb) {
    return every(period, period, std::forward<F>(cb));
  }

  /// As every(period, cb), but the first occurrence runs at now()+first.
  /// Requires first >= 0.
  template <typename F>
  EventId every(Duration first, Duration period, F&& cb) {
    if (!(period > 0.0)) throw std::invalid_argument("Simulator::every: period must be positive");
    if (first < 0.0) throw std::invalid_argument("Simulator::every: negative first delay");
    return queue_.schedule(now_ + first, std::forward<F>(cb), period);
  }

  /// Cancels a pending one-shot event or a periodic series.
  bool cancel(EventId id) noexcept { return queue_.cancel(id); }

  /// Runs events until the queue drains or the clock passes `horizon`.
  /// Events scheduled exactly at `horizon` still run, and the clock lands on
  /// `horizon` afterwards. Returns the number of events executed.
  std::uint64_t run_until(SimTime horizon);

  /// Runs every pending event to queue exhaustion. Returns events executed.
  std::uint64_t run_all() { return run(kNever, UINT64_MAX); }

  /// Executes at most one pending event, as a run of length one (it resets
  /// stop() and interrupted() like the other run calls). Returns false if
  /// the queue is empty.
  bool step() { return run(kNever, 1) == 1; }

  /// Requests that run_until()/run_all() return after the current event.
  void stop() noexcept { stop_requested_ = true; }

  /// Installs a cooperative interrupt probe for long advances: run_until()
  /// and run_all() evaluate `check` once every `stride` executed events and
  /// return early when it yields true, leaving the clock at the last executed
  /// event instead of jumping to the horizon. The probe must be cheap (an
  /// atomic load — the service layer passes its shutdown flag). Pass an empty
  /// function to uninstall. Unlike stop(), the probe persists across run_*
  /// calls, so an interrupted advance can be drained or resumed.
  void set_interrupt(std::function<bool()> check, std::uint64_t stride = 256) {
    interrupt_ = std::move(check);
    interrupt_stride_ = stride == 0 ? 1 : stride;
  }

  /// True when the most recent run_until()/run_all() returned early because
  /// the interrupt probe fired (reset at the start of each run_* and step()
  /// call).
  [[nodiscard]] bool interrupted() const noexcept { return interrupted_; }

  /// Live pending events (diagnostics).
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

  /// Events whose callback returned, since construction: the block's
  /// kEventsExecuted, counted after the callback. A callback that reads it
  /// (a telemetry sample) does not see its own event, and an event whose
  /// callback threw is not counted.
  [[nodiscard]] std::uint64_t executed() const noexcept {
    return counters_.get(obs::Counter::kEventsExecuted);
  }

  /// This simulation's counters. Every layer reaches them through the
  /// simulator it already holds.
  [[nodiscard]] obs::CounterBlock& counters() noexcept { return counters_; }
  [[nodiscard]] const obs::CounterBlock& counters() const noexcept { return counters_; }

 private:
  /// The one run loop: executes up to `limit` events at or before `horizon`,
  /// honouring stop() and the interrupt probe. Returns events executed.
  std::uint64_t run(SimTime horizon, std::uint64_t limit);

  obs::CounterBlock counters_;  // before queue_, which counts into it
  EventQueue queue_;
  SimTime now_ = 0.0;
  bool stop_requested_ = false;
  std::function<bool()> interrupt_;
  std::uint64_t interrupt_stride_ = 256;
  bool interrupted_ = false;
};

}  // namespace sensrep::sim
