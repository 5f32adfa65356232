#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/coordination.hpp"
#include "metrics/counters.hpp"
#include "metrics/failure_log.hpp"
#include "net/medium.hpp"
#include "robot/robot.hpp"
#include "sim/simulator.hpp"
#include "wsn/sensor_field.hpp"

namespace sensrep::core {

/// Aggregated outcome of one run; every figure of the paper is a projection
/// of these fields (see DESIGN.md §4 experiment index).
struct ExperimentResult {
  Algorithm algorithm = Algorithm::kCentralized;
  std::size_t robots = 0;
  std::uint64_t seed = 0;

  // Figure 2: motion overhead.
  double avg_travel_per_repair = 0.0;  // meters

  // Figure 3: messaging hops.
  double avg_report_hops = 0.0;
  double avg_request_hops = 0.0;  // centralized only; 0 otherwise

  // Figure 4: location-update transmissions per (repaired) failure.
  double location_update_tx_per_repair = 0.0;

  // Failure pipeline health.
  std::size_t failures = 0;
  std::size_t detected = 0;
  std::size_t reported = 0;
  std::size_t repaired = 0;
  std::size_t unreported = 0;   // detections with no reachable manager
  std::uint64_t router_drops = 0;
  double delivery_ratio = 0.0;  // reports that reached a manager / detections

  // Latency.
  double avg_detection_latency = 0.0;  // failure -> guardian detection
  double avg_repair_latency = 0.0;     // failure -> replacement powered on
  double p95_repair_latency = 0.0;

  // Motion & energy (EnergyModel in the config; paper ref. [9]).
  double total_robot_distance = 0.0;
  double init_motion = 0.0;
  double motion_energy_j = 0.0;   // marginal energy of all driving
  double mission_energy_j = 0.0;  // full-mission draw incl. idle floor

  // Robot fault tolerance (all zero with the default, fault-free config).
  std::size_t robot_failures = 0;   // robots that died (injection ground truth)
  std::size_t tasks_lost = 0;       // tasks dropped by dying robots
  std::size_t orphaned_tasks = 0;   // tasks dropped for want of spares/depot
  std::size_t redispatches = 0;     // in-flight tasks re-sent after lease expiry
  std::size_t failover_events = 0;  // manager failovers (centralized)
  std::size_t adoptions = 0;        // subareas adopted from dead robots (fixed)
  std::size_t robot_repairs = 0;        // robots resurrected (MTTR ground truth)
  std::size_t elections = 0;            // real election rounds run (centralized)
  std::size_t handbacks = 0;            // acting manager -> repaired manager
  std::size_t ownership_transfers = 0;  // kOwnershipTransfer deliveries applied

  // Transmission counters snapshot, indexed by MessageCategory.
  std::array<std::uint64_t, static_cast<std::size_t>(metrics::MessageCategory::kCount)>
      transmissions{};

  [[nodiscard]] std::uint64_t tx(metrics::MessageCategory c) const noexcept {
    return transmissions[static_cast<std::size_t>(c)];
  }

  /// Human-readable multi-line summary.
  [[nodiscard]] std::string summary() const;
};

/// Compact deterministic fingerprint of a live simulation, cheap enough to
/// take between events. The service layer (src/service) embeds it in
/// snapshots and compares it after a restore-replay to prove the resumed run
/// reconverged on the interrupted one; the daemon's `status` command prints
/// it. Two runs with identical configs and identical injected-event journals
/// produce identical digests at the same virtual time.
struct StateDigest {
  double clock = 0.0;
  std::uint64_t events_executed = 0;
  std::uint64_t pending_events = 0;
  std::uint64_t failures = 0;        // sensor failures opened so far
  std::uint64_t repaired = 0;        // sensor failures closed by a replacement
  std::uint64_t robot_failures = 0;  // robots killed so far
  std::uint64_t robot_repairs = 0;   // robots resurrected so far
  std::uint64_t live_robots = 0;
  std::uint64_t pending_tasks = 0;   // queued + in-service repair tasks
  std::uint64_t transmissions = 0;   // all categories
  friend bool operator==(const StateDigest&, const StateDigest&) = default;

  /// One line of space-separated key=value tokens (snapshot format; the
  /// clock prints with %.17g so it round-trips bitwise).
  [[nodiscard]] std::string to_string() const;
};

/// One fully wired simulation: medium, sensor field, robots, and the chosen
/// coordination algorithm — construction performs deployment and the
/// algorithm's initialization stage, so the system is ready to run.
///
///   core::SimulationConfig cfg;
///   cfg.algorithm = core::Algorithm::kDynamicDistributed;
///   cfg.robots = 9;
///   core::Simulation sim(cfg);
///   sim.run();
///   auto result = sim.result();
class Simulation {
 public:
  explicit Simulation(const SimulationConfig& config);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Runs to config.sim_duration (resumable: run_until first, then run).
  void run();

  /// Runs the virtual clock up to `t` (absolute seconds).
  void run_until(sim::SimTime t);

  /// Snapshot of all metrics at the current virtual time.
  [[nodiscard]] ExperimentResult result() const;

  /// Deterministic state fingerprint at the current virtual time.
  [[nodiscard]] StateDigest digest() const;

  // --- external event injection (service mode; see docs/SERVICE.md) ---------
  //
  // These are the daemon's ingestion points: they apply an event *now*, at
  // the current virtual time, instead of pre-scheduling it at construction.
  // All three are safe to call between run_until() steps only (never from
  // inside an event callback).

  /// Kills sensor `slot`'s unit now. Returns false (and does nothing) when
  /// the slot is already dead; throws std::invalid_argument for non-sensor
  /// ids.
  bool inject_sensor_failure(net::NodeId slot);

  /// Kills robot `index` now (same path as scheduled crashes, including the
  /// MTTR draw when the repair model is on). Returns false when the robot is
  /// already dead; throws std::invalid_argument for out-of-range indices.
  bool inject_robot_crash(std::size_t index);

  /// Resurrects robot `index` now (same path as scheduled repairs). Returns
  /// false when the robot is alive; throws std::invalid_argument for
  /// out-of-range indices.
  bool inject_robot_repair(std::size_t index);

  /// Streams the domain events whose kind names the log sink into `log` from
  /// now on (see obs::Kind). The log must outlive the simulation.
  void attach_event_log(obs::EventLog& log);

  /// Follows every sensor failure through its repair lifecycle as spans on
  /// `tracer` from now on (see obs::Tracer and docs/OBSERVABILITY.md). The
  /// tracer must outlive the simulation.
  void attach_tracer(obs::Tracer& tracer);

  // --- component access (examples, tests, visualization) --------------------

  [[nodiscard]] const SimulationConfig& config() const noexcept { return config_; }
  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] net::Medium& medium() noexcept { return *medium_; }
  [[nodiscard]] wsn::SensorField& field() noexcept { return *field_; }
  [[nodiscard]] CoordinationAlgorithm& algorithm() noexcept { return *algo_; }
  [[nodiscard]] std::vector<std::unique_ptr<robot::RobotNode>>& robots() noexcept {
    return robots_;
  }
  [[nodiscard]] const metrics::FailureLog& failure_log() const noexcept { return log_; }
  /// The simulator's counter block: transmissions per category
  /// (get(category), total()) and every obs::Counter.
  [[nodiscard]] const obs::CounterBlock& counters() const noexcept {
    return sim_.counters();
  }

 private:
  /// Fault injection: kills robot `index` (no-op if already dead) and, with
  /// a finite MTTR, draws and schedules its repair.
  void kill_robot(std::size_t index);

  /// MTTR model: resurrects robot `index` (no-op if alive) and, with
  /// spontaneous failures on, draws its next time-to-failure — the fleet
  /// cycles through fail/repair and reaches steady-state availability.
  void revive_robot(std::size_t index);

  SimulationConfig config_;
  sim::Simulator sim_;
  metrics::FailureLog log_;
  std::unique_ptr<net::Medium> medium_;
  std::unique_ptr<CoordinationAlgorithm> algo_;
  std::unique_ptr<wsn::SensorField> field_;
  std::vector<std::unique_ptr<robot::RobotNode>> robots_;

  // Fault-model RNG streams, seeded only when the respective model is on so
  // fault-free (and repair-free) runs draw nothing extra.
  std::optional<sim::Rng> fault_rng_;   // times-to-failure (initial + post-repair)
  std::optional<sim::Rng> repair_rng_;  // times-to-repair
};

}  // namespace sensrep::core
