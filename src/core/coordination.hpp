#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "metrics/failure_log.hpp"
#include "net/medium.hpp"
#include "robot/robot.hpp"
#include "sim/simulator.hpp"
#include "wsn/sensor_field.hpp"
#include "wsn/sensor_policy.hpp"

namespace sensrep::core {

/// Everything a coordination algorithm needs to reach at runtime. All
/// pointers are owned by the enclosing Simulation and outlive the algorithm.
struct SystemContext {
  sim::Simulator* simulator = nullptr;
  net::Medium* medium = nullptr;
  wsn::SensorField* field = nullptr;
  metrics::FailureLog* log = nullptr;
  std::vector<std::unique_ptr<robot::RobotNode>>* robots = nullptr;
  const SimulationConfig* config = nullptr;
};

/// The two recovery counts the counter block cannot give: kFailovers also
/// counts the dynamic algorithm's reflood and kHandbacks the fixed
/// algorithm's subarea return, while the result columns `failover_events`
/// and `handbacks` count only the centralized manager's. Every other fault
/// count is an obs::Counter in the simulator's block.
struct FaultStats {
  std::size_t failovers = 0;  // manager failover promotions (centralized)
  std::size_t handbacks = 0;  // acting manager -> repaired manager (centralized)
};

/// Base of the three coordination algorithms (paper §3).
///
/// An algorithm is simultaneously the SensorPolicy (sensor-side decisions)
/// and the RobotPolicy (robot-side decisions); one shared instance serves
/// every node in the simulation. Concrete subclasses: CentralizedAlgorithm,
/// FixedDistributedAlgorithm, DynamicDistributedAlgorithm.
class CoordinationAlgorithm : public wsn::SensorPolicy, public robot::RobotPolicy {
 public:
  /// Late-binds the runtime context (nodes are constructed after the policy,
  /// which the SensorField constructor needs).
  virtual void bind(const SystemContext& ctx) { ctx_ = ctx; }

  /// Paper §2, stage (a): set up roles, manager knowledge, sensors' myrobot
  /// relationships. Runs at t=0, before SensorField::start(). Initialization
  /// traffic is counted under MessageCategory::kInitialization.
  virtual void initialize() = 0;

  /// Robot meters driven during initialization (the fixed algorithm moves
  /// robots to subarea centers); excluded from the Fig.-2 metric.
  [[nodiscard]] double init_motion() const noexcept { return init_motion_; }

  /// RobotPolicy: anticipatory repositioning (config().idle_reposition,
  /// extension E12) — an idle robot returns to its region's centroid.
  void on_robot_idle(robot::RobotNode& robot) override;

  /// RobotPolicy: ground-truth bookkeeping when the injector kills a robot.
  /// Recovery is NOT triggered here — the system only learns of the death
  /// when the robot's lease expires.
  void on_robot_failed(robot::RobotNode& robot, std::size_t tasks_lost) override;

  /// RobotPolicy: a repaired robot rejoined service. Clears the presumed-dead
  /// belief, grants a fresh lease, restarts the heartbeat, then runs the
  /// algorithm-specific on_robot_rejoin path.
  void on_robot_repaired(robot::RobotNode& robot) override;

  /// Arms the fault-tolerance machinery (no-op unless the fault model is
  /// enabled): starts every robot's liveness heartbeat, seeds the lease
  /// table, and schedules the periodic lease supervision sweep. Called by
  /// Simulation after initialize().
  void start_fault_tolerance();

  /// Kills the dedicated manager node (centralized only; default no-op).
  /// Exercised by FaultConfig::manager_crash_at.
  virtual void fail_manager() {}

  /// Resurrects the dedicated manager node (centralized only; default
  /// no-op). Exercised by FaultConfig::manager_repair_at; the acting manager
  /// hands the role back at the next supervision sweep.
  virtual void repair_manager() {}

  [[nodiscard]] const FaultStats& fault_stats() const noexcept { return fault_stats_; }

  /// Lease window applied to robot `index` in supervise(). With
  /// lease_auto_tune off this is the configured lease_window(); with it on,
  /// `lease_multiplier * EWMA(inter-refresh interval)` clamped to
  /// [2 * heartbeat_period, lease_window()].
  [[nodiscard]] double effective_lease_window(std::size_t index) const;

  /// Public read-only view of the supervision belief for robot `index`
  /// (invariant oracle, tests). False whenever fault tolerance is inactive.
  [[nodiscard]] bool robot_presumed_dead(std::size_t index) const noexcept {
    return presumed_dead(index);
  }

 protected:
  [[nodiscard]] const SystemContext& ctx() const noexcept { return ctx_; }
  [[nodiscard]] const SimulationConfig& config() const noexcept { return *ctx_.config; }
  [[nodiscard]] robot::RobotNode& robot_at(std::size_t index) {
    return *(*ctx_.robots)[index];
  }
  [[nodiscard]] std::size_t robot_count() const noexcept { return ctx_.robots->size(); }

  /// Index of a robot from its node id; robots are densely numbered, so
  /// ids ascend with the index. Wraps to >= robot_count() for any id that
  /// names no robot.
  [[nodiscard]] std::size_t robot_index(net::NodeId id) const noexcept {
    return id - config().robot_base_id();
  }

  /// Stamps reported_at / report_hops on the failure record named by a
  /// delivered FailureReport. Returns false when this exact report copy
  /// (same originator and originator-scoped seq) was already processed —
  /// link-level duplication delivered it twice. Callers must not dispatch a
  /// stale copy; acking it again is fine (the first ack may have been lost).
  /// Legitimate retries and re-reports carry fresh seqs and return true.
  bool record_report_arrival(const net::Packet& pkt);

  /// reliable_reports: geo-routes a kReportAck back to the reporter through
  /// `router` (the receiving manager's or robot's). Acks every copy so a
  /// retransmitted report whose first ack was lost still gets one.
  void acknowledge_report(routing::GeoRouter& router, const net::Packet& report);

  /// Builds the RepairTask for a delivered report/request payload.
  [[nodiscard]] robot::RepairTask make_task(net::NodeId failed_slot,
                                            geometry::Vec2 failed_location,
                                            std::uint64_t failure_id) const;

  /// Hands a task to its maintainer and records the dispatch event.
  void dispatch_to(robot::RobotNode& robot, const robot::RepairTask& task);

  /// Where an idle robot should wait. Default: the centroid of its Voronoi
  /// cell over the fleet's current positions; the fixed algorithm overrides
  /// with its subarea center.
  [[nodiscard]] virtual geometry::Vec2 idle_home(const robot::RobotNode& robot) const;

  /// Seeds a location-update flood / one-hop announce from a robot.
  /// `init` books the transmissions as initialization cost.
  void broadcast_location_update(robot::RobotNode& robot, bool init = false);

  /// E6 self-pruning test: should `sensor` relay a flood it heard from
  /// `from`, given every neighbor it could newly cover? True when relaying
  /// adds coverage (or when the heard transmission's origin is unknown).
  [[nodiscard]] bool relay_adds_coverage(const wsn::SensorNode& sensor,
                                         net::NodeId from) const;

  // --- robot fault tolerance (lease-based liveness) -------------------------

  /// True once start_fault_tolerance() armed the machinery.
  [[nodiscard]] bool fault_tolerance_active() const noexcept { return ft_active_; }

  /// Whether the supervision sweep has declared robot `index` dead. This is
  /// the system's *belief*, driven purely by lease expiry — a freshly failed
  /// robot is still presumed live until its lease runs out.
  [[nodiscard]] bool presumed_dead(std::size_t index) const noexcept {
    return ft_active_ && presumed_dead_[index];
  }

  /// Re-arms robot `index`'s lease (a location update / heartbeat arrived).
  void refresh_lease(std::size_t index);

  /// Closest presumed-live robot to `pos`, or nullptr when the whole fleet
  /// is presumed dead. Uses leases, not ground truth: a dead-but-unexpired
  /// robot can be picked — its lease will expire and trigger recovery again.
  /// Answered from the medium's mobile grid.
  [[nodiscard]] robot::RobotNode* closest_live_robot(geometry::Vec2 pos);

  /// Fleet index of the robot nearest `pos` under the squared-distance
  /// comparator (ties to the lowest index), ignoring liveness — the dynamic
  /// init sweep's assignment rule. Answered from the medium's mobile grid;
  /// nullopt only for an empty fleet.
  [[nodiscard]] std::optional<std::size_t> nearest_robot_index(geometry::Vec2 pos);

  /// Periodic lease sweep: expires silent robots and fires
  /// on_robot_presumed_dead for each. Centralized overrides to check the
  /// manager's own lease first (a dead manager starves every robot lease).
  virtual void supervise();

  /// Recovery hook: the system just gave up on robot `index` (lease expired).
  /// Centralized re-dispatches its in-flight tasks; fixed re-assigns its
  /// subarea; dynamic refloods a live robot's location. Default: nothing.
  virtual void on_robot_presumed_dead(std::size_t /*index*/) {}

  /// Rejoin hook: robot `index` was repaired and is back in service (lease
  /// and heartbeat already restored by the base). Centralized re-admits it to
  /// the dispatch pool; fixed takes its subareas back via kOwnershipTransfer;
  /// dynamic refloods its location. Default: nothing.
  virtual void on_robot_rejoin(std::size_t /*index*/) {}

  /// Whether a robot's own broadcast refreshes its lease (distributed: the
  /// flood is what peers observe). Centralized returns false — its leases
  /// are refreshed when the update *reaches the manager*.
  [[nodiscard]] virtual bool lease_refresh_on_broadcast() const { return true; }

  void emit(const obs::Event& e) const { ctx_.field->events().emit(e); }

  double init_motion_ = 0.0;
  FaultStats fault_stats_;

 private:
  SystemContext ctx_;
  bool ft_active_ = false;
  std::vector<sim::SimTime> lease_;       // per robot index: last refresh time
  std::vector<bool> presumed_dead_;       // per robot index: system belief
  std::vector<double> cadence_ewma_;      // per robot index: observed refresh cadence
  /// Lower bound on min(lease_) over live robots (+inf when all presumed
  /// dead); leases only rise between sweeps, so while even the stalest
  /// possible lease is inside the smallest possible window supervise() can
  /// expire nobody and skips its scan (batched sweep).
  sim::SimTime lease_floor_ = 0.0;
  /// Exact report copies already processed, keyed (originator, seq). Reports
  /// are rare (one per sensor failure plus retries), so the set stays small.
  std::set<std::pair<net::NodeId, std::uint32_t>> seen_reports_;
};

/// Factory for the algorithm selected in the config.
[[nodiscard]] std::unique_ptr<CoordinationAlgorithm> make_algorithm(
    const SimulationConfig& config);

}  // namespace sensrep::core
