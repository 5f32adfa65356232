#pragma once

#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "core/coordination.hpp"
#include "core/manager_node.hpp"

namespace sensrep::core {

/// Centralized manager algorithm (paper §3.1).
///
/// One dedicated, stationary robot-class manager sits at the field center.
/// Every failure is reported to it; it forwards each failure to the
/// maintenance robot whose last-known location is closest. Robots update the
/// manager (geo-routed unicast) and their one-hop sensor neighborhood
/// (broadcast) every 20 m of travel.
class CentralizedAlgorithm final : public CoordinationAlgorithm {
 public:
  void initialize() override;

  // SensorPolicy ------------------------------------------------------------
  [[nodiscard]] std::optional<wsn::ReportTarget> report_target(
      const wsn::SensorNode& sensor) const override;
  void on_location_update(wsn::SensorNode& sensor, const net::Packet& pkt,
                          net::NodeId from) override;
  void on_sensor_reset(wsn::SensorNode& sensor) override;

  // RobotPolicy ---------------------------------------------------------------
  void on_robot_location_update(robot::RobotNode& robot) override;
  void on_robot_packet(robot::RobotNode& robot, const net::Packet& pkt) override;
  void on_robot_task_complete(robot::RobotNode& robot) override;

  // Fault tolerance -----------------------------------------------------------
  void fail_manager() override;
  void repair_manager() override;

  // Introspection (tests/examples) -------------------------------------------
  [[nodiscard]] ManagerNode& manager() { return *manager_; }
  [[nodiscard]] const std::unordered_map<net::NodeId, geometry::Vec2>& tracked_robots()
      const noexcept {
    return robot_locations_;
  }
  /// Fleet index of the robot acting as manager after failover (empty while
  /// the dedicated manager is believed alive).
  [[nodiscard]] std::optional<std::size_t> acting_manager() const noexcept {
    return acting_manager_;
  }
  [[nodiscard]] std::size_t in_flight_count() const noexcept { return in_flight_.size(); }

 protected:
  void supervise() override;
  void on_robot_presumed_dead(std::size_t index) override;
  void on_robot_rejoin(std::size_t index) override;
  /// Centralized leases are refreshed when an update *reaches* the manager
  /// (receiver-side), not when the robot transmits it.
  [[nodiscard]] bool lease_refresh_on_broadcast() const override { return false; }

 private:
  /// One dispatched-but-unfinished repair (keyed by failure id). Closed by a
  /// kTaskComplete from the maintainer; re-dispatched if the maintainer's
  /// lease expires first.
  struct InFlight {
    net::NodeId slot = net::kNoNode;
    geometry::Vec2 location;
    std::size_t robot = 0;  // fleet index the task was handed to
  };

  void handle_manager_packet(const net::Packet& pkt);
  void dispatch(const net::FailureReportPayload& failure);
  void close_in_flight(const net::TaskCompletePayload& done);
  void perform_failover();
  /// The repaired dedicated manager accepted the acting manager's
  /// kOwnershipTransfer: the role (and the intact in-flight table) moves
  /// back. Runs on delivery, so a lost offer is simply re-sent next sweep.
  void apply_handback();

  /// Node id failure reports and task-completes are addressed to: the
  /// dedicated manager, or the promoted robot after failover.
  [[nodiscard]] net::NodeId current_manager_id() const noexcept {
    return acting_manager_ ? config().robot_id(*acting_manager_) : config().manager_id();
  }
  [[nodiscard]] bool is_acting_manager(const robot::RobotNode& robot) const noexcept {
    return acting_manager_ && config().robot_id(*acting_manager_) == robot.id();
  }

  std::unique_ptr<ManagerNode> manager_;
  std::unordered_map<net::NodeId, geometry::Vec2> robot_locations_;
  // Last backlog each robot reported, plus the manager's own optimistic
  // increments between updates (queue-aware dispatch, E9).
  std::unordered_map<net::NodeId, std::uint32_t> robot_backlog_;
  geometry::Vec2 manager_pos_;

  // Fault-tolerance state (inert while the fault model is disabled).
  std::unordered_map<std::uint64_t, InFlight> in_flight_;
  std::optional<std::size_t> acting_manager_;
  sim::SimTime manager_lease_ = 0.0;  // fleet's shared belief in the manager
  std::uint32_t manager_hb_seq_ = 0;  // manager-heartbeat flood dedup
  std::uint32_t election_seq_ = 0;    // per-election round tag (ack correlation)
  std::uint32_t transfer_seq_ = 0;    // handback-offer retry dedup

  // Link-duplication hardening (chaos::DuplicationConfig): the router stamps
  // every geo-routed dispatch/election packet with an originator-scoped seq,
  // and exact (src, seq) copies are dropped at the receiver so a duplicated
  // frame never acts twice.
  std::set<std::pair<net::NodeId, std::uint32_t>> seen_requests_;
  // Per robot: the (winner, election_seq) ballot it last acked — a duplicated
  // ballot is not re-acked, so one election yields at most one ack per robot.
  std::map<net::NodeId, std::pair<net::NodeId, std::uint32_t>> election_acked_;
  // At the winner: ack copies already counted, keyed (acker, election_seq) —
  // a duplicated ack must not re-refresh the acker's lease (the tiny
  // inter-arrival would pollute the auto-tuned lease cadence EWMA).
  std::set<std::pair<net::NodeId, std::uint32_t>> election_acks_seen_;
};

}  // namespace sensrep::core
