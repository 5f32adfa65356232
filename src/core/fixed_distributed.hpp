#pragma once

#include <memory>
#include <vector>

#include "core/coordination.hpp"
#include "geometry/partition.hpp"

namespace sensrep::core {

/// Fixed distributed manager algorithm (paper §3.2).
///
/// The field is partitioned into equal subareas, one robot per subarea; each
/// robot is both manager and maintainer for its subarea. At initialization
/// robots move to their subarea centers and flood their location within the
/// subarea. Failures are reported to the subarea's robot; location updates
/// while it moves are flooded to (and relayed by) the subarea's sensors,
/// deduplicated by sequence number.
class FixedDistributedAlgorithm final : public CoordinationAlgorithm {
 public:
  void bind(const SystemContext& ctx) override;
  void initialize() override;

  // SensorPolicy ------------------------------------------------------------
  [[nodiscard]] std::optional<wsn::ReportTarget> report_target(
      const wsn::SensorNode& sensor) const override;
  void on_location_update(wsn::SensorNode& sensor, const net::Packet& pkt,
                          net::NodeId from) override;

  // RobotPolicy ---------------------------------------------------------------
  void on_robot_location_update(robot::RobotNode& robot) override;
  void on_robot_packet(robot::RobotNode& robot, const net::Packet& pkt) override;

  [[nodiscard]] const geometry::Partition& partition() const { return *partition_; }

  /// Current subarea ownership: cell index -> fleet index of the robot in
  /// charge. Identity until a robot death triggers an adoption.
  [[nodiscard]] const std::vector<std::size_t>& owners() const noexcept { return owner_; }

 protected:
  /// Idle robots return to their fixed subarea center (E12).
  [[nodiscard]] geometry::Vec2 idle_home(const robot::RobotNode& robot) const override {
    return partition_->center(robot_index(robot.id()));
  }

  /// Fault tolerance: the lowest-id live robot adopts every subarea the dead
  /// robot owned and floods the ownership update.
  void on_robot_presumed_dead(std::size_t index) override;

  /// Repair/return: every subarea the reborn robot originally owned (cell i
  /// belongs to robot i) is returned by its adopter via a real
  /// kOwnershipTransfer exchange — ownership flips only when the offer is
  /// delivered, and undelivered offers are retried on a timer.
  void on_robot_rejoin(std::size_t index) override;

 private:
  [[nodiscard]] std::size_t subarea_of(geometry::Vec2 p) const {
    return partition_->cell_of(p);
  }

  /// Geo-routes one ownership-return offer for `cell` from its current
  /// adopter to the cell's original owner; re-arms itself until the transfer
  /// is applied or the attempt budget runs out.
  void offer_return(std::size_t cell, std::size_t attempt);

  /// Delivered kOwnershipTransfer at the original owner: take the cell back,
  /// teach its sensors, and ack the adopter.
  void apply_return(robot::RobotNode& robot, const net::Packet& pkt);

  /// Sensor ids of subarea `cell`, ascending. Built lazily in one ascending
  /// field pass (sensors are static, so membership never changes), so the
  /// adoption/return flood loops do not classify every sensor on every
  /// ownership change.
  [[nodiscard]] const std::vector<net::NodeId>& members_of(std::size_t cell);

  std::unique_ptr<geometry::Partition> partition_;
  std::vector<std::size_t> owner_;  // cell -> fleet index (identity by default)
  std::vector<std::vector<net::NodeId>> cell_members_;  // cell -> sensor ids, ascending
  std::uint32_t transfer_seq_ = 0;  // ownership-offer retry dedup
};

}  // namespace sensrep::core
