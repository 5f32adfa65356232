#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace sensrep::obs {

/// Stages of one sensor failure's repair lifecycle, in causal order. Each
/// stage is a span on the failure's trace; `kRepair` is the root span
/// covering the whole failure -> replacement interval.
enum class Stage : std::uint8_t {
  kDetect,    // failure -> guardian declared it dead
  kReport,    // detection -> report delivered to a manager/robot
  kDispatch,  // report delivery -> a robot accepted the task
  kQueue,     // accepted -> the robot starts driving for this task
  kTravel,    // driving (incl. depot detours) -> replacement powered on
  kOrphan,    // task stranded (robot died / no spare) -> redispatch/repair
  kRepair,    // root: failure -> replacement powered on
  kCount,
};

[[nodiscard]] std::string_view to_string(Stage s) noexcept;

/// One span instance. A trace (= one sensor failure, keyed by its non-zero
/// failure id) usually holds one span per stage; retransmissions, duplicate
/// dispatches and fault recovery can add more.
struct Span {
  std::uint64_t trace_id = 0;          // failure id (FailureLog index + 1)
  Stage stage = Stage::kRepair;
  std::uint32_t node = 0;              // sensor slot concerned
  std::optional<std::uint32_t> actor;  // robot/guardian involved, if any
  sim::SimTime start = 0.0;
  sim::SimTime end = sim::kNever;      // kNever while the span is open
  std::optional<double> value;         // stage scalar (report hops, travel m)

  [[nodiscard]] bool closed() const noexcept { return sim::is_valid_time(end); }
  [[nodiscard]] double duration() const noexcept { return closed() ? end - start : 0.0; }
};

/// Span-based repair-lifecycle tracer (simulation time, opt-in).
///
/// The EventHook's span sink (obs/domain.hpp) calls open()/close() as a
/// failure progresses through its stages; with no tracer attached the hook
/// skips the span-only kinds at one branch per site.
///
/// Invariants the bookkeeping enforces:
///  - at most one *open* instance per (trace, stage): re-opening while open
///    is ignored and counted in duplicate_opens();
///  - close() closes the most recent open instance exactly once; a close()
///    with no open instance is counted in stray_closes() and does nothing;
///    close_if_open() is the variant for call sites where "maybe already
///    closed" is semantically expected (duplicate dispatches, fault paths)
///    and is never counted as stray;
///  - spans never reopen: a closed instance is immutable, so every span is
///    closed at most once by construction. Spans still open when the run
///    ends export with "open":true — the flagged orphans.
class Tracer {
 public:
  void open(std::uint64_t trace_id, Stage stage, sim::SimTime t, std::uint32_t node,
            std::optional<std::uint32_t> actor = std::nullopt);

  void close(std::uint64_t trace_id, Stage stage, sim::SimTime t,
             std::optional<double> value = std::nullopt,
             std::optional<std::uint32_t> actor = std::nullopt);

  /// close() that tolerates an already-closed (or never-opened) span without
  /// counting it as a stray.
  void close_if_open(std::uint64_t trace_id, Stage stage, sim::SimTime t,
                     std::optional<double> value = std::nullopt,
                     std::optional<std::uint32_t> actor = std::nullopt);

  /// close() of the kRepair root, whose value is its own duration (the
  /// failure -> replacement latency).
  void close_root(std::uint64_t trace_id, sim::SimTime t,
                  std::optional<std::uint32_t> actor = std::nullopt);

  [[nodiscard]] bool is_open(std::uint64_t trace_id, Stage stage) const;

  // --- inspection ----------------------------------------------------------

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] std::vector<Span> spans_of(std::uint64_t trace_id) const;

  [[nodiscard]] std::size_t opened() const noexcept { return spans_.size(); }
  [[nodiscard]] std::size_t closed_count() const noexcept { return closed_; }
  [[nodiscard]] std::size_t open_count() const noexcept { return spans_.size() - closed_; }
  [[nodiscard]] std::size_t duplicate_opens() const noexcept { return duplicate_opens_; }
  [[nodiscard]] std::size_t stray_closes() const noexcept { return stray_closes_; }

  /// Closed spans dropped by compact() since construction. opened() /
  /// closed_count() always describe the *retained* spans, so the cumulative
  /// totals are opened() + retired() and closed_count() + retired().
  [[nodiscard]] std::size_t retired() const noexcept { return retired_; }

  /// Closed-span durations of one stage, in completion order (feed these
  /// into metrics::Summary for percentiles).
  [[nodiscard]] std::vector<double> stage_durations(Stage stage) const;

  /// True when the trace carries the full failure -> replacement chain: a
  /// closed instance of every core stage (detect, report, dispatch, queue,
  /// travel) plus the closed kRepair root.
  [[nodiscard]] bool has_complete_chain(std::uint64_t trace_id) const;

  // --- export --------------------------------------------------------------

  /// One JSON object per span, one line each (open spans flagged).
  void write_jsonl(std::ostream& out) const;
  [[nodiscard]] bool save_jsonl(const std::string& path) const;

  /// Chrome trace_event JSON (chrome://tracing / Perfetto): closed spans as
  /// complete "X" events, still-open spans as unmatched "B" events, one
  /// virtual thread per trace id, timestamps in microseconds of sim time.
  void write_chrome_trace(std::ostream& out) const;
  [[nodiscard]] bool save_chrome_trace(const std::string& path) const;

  /// Long-running service mode: retires closed spans that ended before `t`,
  /// bounding the tracer's memory to the retention window while every open
  /// span (whatever its age) survives. After compaction stage_durations()
  /// and the exports cover only the retained window — which is exactly what
  /// a live-telemetry percentile wants. Invariants are unaffected: open-span
  /// bookkeeping is rebuilt, and retired() keeps the cumulative count.
  void compact(sim::SimTime before);

  void clear();

 private:
  [[nodiscard]] static std::uint64_t key(std::uint64_t trace_id, Stage stage) noexcept {
    return trace_id * static_cast<std::uint64_t>(Stage::kCount) +
           static_cast<std::uint64_t>(stage);
  }
  /// Shared close path; returns false when no instance was open.
  bool close_impl(std::uint64_t trace_id, Stage stage, sim::SimTime t,
                  const std::optional<double>& value,
                  const std::optional<std::uint32_t>& actor);

  std::vector<Span> spans_;
  std::unordered_map<std::uint64_t, std::size_t> open_;  // key -> index in spans_
  std::size_t closed_ = 0;
  std::size_t duplicate_opens_ = 0;
  std::size_t stray_closes_ = 0;
  std::size_t retired_ = 0;
};

}  // namespace sensrep::obs
