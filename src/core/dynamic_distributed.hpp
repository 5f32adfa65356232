#pragma once

#include "core/coordination.hpp"

namespace sensrep::core {

/// Dynamic distributed manager algorithm (paper §3.3).
///
/// No fixed boundaries: each sensor reports to the *closest* robot it knows
/// of, so the robots implicitly partition the field as a Voronoi diagram
/// that shifts as they move. A moving robot's location updates are flooded
/// to its (new) Voronoi cell plus a fringe of sensors that may need to
/// switch their `myrobot` — the shaded region of the paper's Fig. 1(b) —
/// and to the sensors of its previous cell so they can switch away.
class DynamicDistributedAlgorithm final : public CoordinationAlgorithm {
 public:
  void initialize() override;

  // SensorPolicy ------------------------------------------------------------
  [[nodiscard]] std::optional<wsn::ReportTarget> report_target(
      const wsn::SensorNode& sensor) const override;
  void on_location_update(wsn::SensorNode& sensor, const net::Packet& pkt,
                          net::NodeId from) override;

  // RobotPolicy ---------------------------------------------------------------
  void on_robot_location_update(robot::RobotNode& robot) override;
  void on_robot_packet(robot::RobotNode& robot, const net::Packet& pkt) override;

 protected:
  /// Fault tolerance: sensors age the dead robot out of their knowledge on
  /// their own (SensorField::robot_lease_window); this hook refloods the
  /// nearest surviving robot's location so the orphaned region re-learns a
  /// live manager quickly.
  void on_robot_presumed_dead(std::size_t index) override;

  /// Repair/return: the reborn robot refloods its own location. Sensors it
  /// is now the closest robot for re-switch their `myrobot` through the
  /// ordinary Voronoi adoption rule — no extra machinery needed.
  void on_robot_rejoin(std::size_t index) override;
};

}  // namespace sensrep::core
