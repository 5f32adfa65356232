#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>

#include "geometry/vec2.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/time.hpp"

namespace sensrep::obs {

class EventLog;
class Tracer;

/// The domain events of the repair pipeline (PAPER §3.1, §4.2) and of the
/// machinery around it. One vocabulary for every sink: the milestone
/// counters, the flight ring, the event log and the span tracer. kKinds
/// below decides which sinks see which kind, and under what name.
enum class Kind : std::uint16_t {
  kFailure,       // a sensor unit died
  kDetection,     // a guardian declared it dead
  kReport,        // the first report of the failure reached a manager
  kDispatch,      // a robot was tasked
  kTaskQueued,    // the robot accepted the task into its queue
  kTaskStarted,   // the robot started driving for the task
  kTaskArrived,   // the robot reached the slot
  kTaskOrphaned,  // a queued task was stranded (robot died, or no spare)
  kTaskStranded,  // the task in flight was stranded (robot died driving)
  kReplacement,   // the replacement unit powered on
  kRobotMove,     // a robot finished one movement leg
  kRobotFailure,  // a robot died (fault injection ground truth)
  kRobotRepair,   // a robot was repaired and rejoined service (MTTR)
  kLeaseExpiry,   // supervision presumed a silent robot dead
  kRedispatch,    // an orphaned in-flight task was re-sent to another robot
  kFailover,      // a live robot took over a dead robot's or manager's duty
  kElection,      // a manager election ran
  kHandback,      // a repaired robot or manager took its role back
  kAdoption,      // a live robot adopted one subarea of a dead robot
  kCommand,       // the service daemon accepted a protocol command
  kViolation,     // the invariant oracle recorded a breach
  kCount,
};

/// Sink bits of a kind's row. The counter sink is the row's `counter`.
inline constexpr std::uint8_t kToFlight = 1;  // FlightRecorder ring
inline constexpr std::uint8_t kToLog = 2;     // attached EventLog
inline constexpr std::uint8_t kToSpans = 4;   // attached Tracer (stage transitions)
inline constexpr Counter kNoCounter = Counter::kCount;

struct KindRow {
  std::string_view name;
  Counter counter;
  std::uint8_t sinks;
};

inline constexpr std::array<KindRow, static_cast<std::size_t>(Kind::kCount)> kKinds{{
    {"failure", Counter::kSensorFailures, kToFlight | kToLog | kToSpans},
    {"detection", kNoCounter, kToLog | kToSpans},
    {"report", kNoCounter, kToFlight | kToLog | kToSpans},
    {"dispatch", Counter::kDispatches, kToFlight | kToLog},
    {"task_queued", kNoCounter, kToSpans},
    {"task_started", kNoCounter, kToSpans},
    {"task_arrived", kNoCounter, kToSpans},
    {"task_orphaned", kNoCounter, kToSpans},
    {"task_stranded", kNoCounter, kToSpans},
    {"replacement", Counter::kSensorRepairs, kToFlight | kToLog | kToSpans},
    {"robot_move", kNoCounter, kToLog},
    {"robot_failure", Counter::kRobotFailures, kToFlight | kToLog},
    {"robot_repair", Counter::kRobotRepairs, kToFlight | kToLog},
    {"lease_expiry", Counter::kLeaseExpiries, kToFlight},
    {"redispatch", Counter::kRedispatches, kToFlight | kToLog},
    {"failover", Counter::kFailovers, kToFlight | kToLog},
    {"election", Counter::kElections, kToFlight | kToLog},
    {"handback", Counter::kHandbacks, kToFlight | kToLog},
    {"adoption", Counter::kAdoptions, kToFlight | kToLog},
    {"command", Counter::kServiceCommands, kToFlight},
    {"violation", Counter::kInvariantViolations, kToFlight},
}};

[[nodiscard]] constexpr const KindRow& row(Kind k) noexcept {
  return kKinds[static_cast<std::size_t>(k)];
}
[[nodiscard]] constexpr std::string_view to_string(Kind k) noexcept {
  return row(k).name;
}

/// One domain event. Field use depends on the kind; unused ids are 0-value.
/// The flight ring keeps a = node, b = actor (0 when absent).
struct Event {
  sim::SimTime time = 0.0;
  Kind kind = Kind::kFailure;
  std::uint32_t node = 0;                   // sensor slot or robot id
  std::optional<std::uint32_t> actor{};     // robot/guardian involved, if any
  std::optional<geometry::Vec2> location{};
  std::optional<double> value{};            // kind-specific scalar (hops, meters)
  std::uint64_t failure_id = 0;             // span trace id; 0 = no failure attached
};

/// Each instrumented site calls emit() once; the hook hands the event to the
/// sinks its row names. The counter sink is the simulation's counter block
/// and always live; the flight ring is process-wide; the event log and
/// tracer are attached per simulation.
class EventHook {
 public:
  explicit EventHook(CounterBlock& counters) noexcept : counters_(&counters) {}

  void attach(EventLog& log) noexcept { log_ = &log; }
  void attach(Tracer& tracer) noexcept { tracer_ = &tracer; }
  [[nodiscard]] Tracer* tracer() const noexcept { return tracer_; }

  /// A kind none of whose sinks is live costs this one test.
  void emit(const Event& e) {
    const KindRow& r = row(e.kind);
    if (r.counter != kNoCounter ||
        ((r.sinks & kToLog) != 0 && log_ != nullptr) ||
        ((r.sinks & kToSpans) != 0 && tracer_ != nullptr) ||
        ((r.sinks & kToFlight) != 0 && FlightRecorder::enabled())) {
      deliver(e);
    }
  }

 private:
  void deliver(const Event& e);

  CounterBlock* counters_;
  EventLog* log_ = nullptr;
  Tracer* tracer_ = nullptr;
};

}  // namespace sensrep::obs
