#include "core/config.hpp"

#include <cmath>
#include <stdexcept>

namespace sensrep::core {

std::string_view to_string(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::kCentralized: return "centralized";
    case Algorithm::kFixedDistributed: return "fixed";
    case Algorithm::kDynamicDistributed: return "dynamic";
  }
  return "?";
}

std::string_view to_string(PartitionShape p) noexcept {
  switch (p) {
    case PartitionShape::kSquare: return "square";
    case PartitionShape::kHexagon: return "hexagon";
  }
  return "?";
}

geometry::Rect SimulationConfig::field_area() const noexcept {
  const double side = std::sqrt(area_per_robot * static_cast<double>(robots));
  return geometry::Rect::sized(side, side);
}

void SimulationConfig::validate() const {
  if (robots == 0) throw std::invalid_argument("config: robots must be >= 1");
  if (sensors_per_robot == 0) throw std::invalid_argument("config: sensors_per_robot >= 1");
  if (area_per_robot <= 0.0) throw std::invalid_argument("config: area_per_robot > 0");
  if (sim_duration <= 0.0) throw std::invalid_argument("config: sim_duration > 0");
  if (robot_speed <= 0.0) throw std::invalid_argument("config: robot_speed > 0");
  if (robot_tx_range <= 0.0) throw std::invalid_argument("config: robot_tx_range > 0");
  if (update_threshold <= 0.0) throw std::invalid_argument("config: update_threshold > 0");
  if (update_threshold >= field.sensor_tx_range / 2.0) {
    // The paper requires threshold < 1/3 sensor range so a moving robot is
    // always reachable via its advertised location; we enforce a looser but
    // still safe bound.
    throw std::invalid_argument("config: update_threshold must be < sensor_tx_range/2");
  }
  if (dynamic_fringe < 0.0) throw std::invalid_argument("config: dynamic_fringe >= 0");
  if (field.sensor_tx_range <= 0.0) throw std::invalid_argument("config: sensor_tx_range > 0");
  field.lifetime.validate();
  robot_faults.validate();
  for (const auto& crash : robot_faults.crashes) {
    if (crash.robot >= robots) {
      throw std::invalid_argument("config: scheduled crash robot index out of range");
    }
  }
  for (const auto& rep : robot_faults.repairs) {
    if (rep.robot >= robots) {
      throw std::invalid_argument("config: scheduled repair robot index out of range");
    }
  }
  if (robot_faults.manager_crash_at && algorithm != Algorithm::kCentralized) {
    throw std::invalid_argument("config: manager_crash_at requires the centralized algorithm");
  }
  if (robot_faults.manager_repair_at && algorithm != Algorithm::kCentralized) {
    throw std::invalid_argument(
        "config: manager_repair_at requires the centralized algorithm");
  }
}

}  // namespace sensrep::core
