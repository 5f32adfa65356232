#include "core/dynamic_distributed.hpp"

#include "trace/log.hpp"

namespace sensrep::core {

using net::kNoNode;
using net::NodeId;
using net::Packet;
using net::PacketType;

void DynamicDistributedAlgorithm::initialize() {
  // Robots stay at their deployment positions and flood their locations.
  // The relay rule lets the first floods travel wide (sensors with no
  // myrobot yet always relay), then narrows as knowledge accumulates, so
  // the field converges to the Voronoi assignment.
  for (std::size_t i = 0; i < robot_count(); ++i) {
    broadcast_location_update(robot_at(i), /*init=*/true);
  }

  // Defensive sweep shortly after the init floods settle: any sensor left
  // without a manager (a flood hole) queries a neighbor for the nearest
  // robot — two counted messages each. The paper assumes init is complete;
  // this keeps that assumption checkable instead of silent.
  ctx().simulator->in(5.0, [this] {
    auto& field = *ctx().field;
    for (std::size_t s = 0; s < field.size(); ++s) {
      auto& sensor = field.node(static_cast<NodeId>(s));
      if (!sensor.alive() || sensor.myrobot() != kNoNode) continue;
      // Squared-distance comparator, ties to the lowest index — identical
      // whether answered by the fleet grid or the brute scan.
      const auto nearest = nearest_robot_index(sensor.position());
      if (!nearest) continue;
      const NodeId best = robot_at(*nearest).id();
      sensor.learn_robot(best, robot_at(*nearest).position(), 1);
      sensor.set_myrobot(best);
      ctx().medium->account(metrics::MessageCategory::kInitialization, 2);
      trace::Logger::global().logf(trace::Level::kInfo, ctx().simulator->now(), "core",
                                   "dynamic init: sensor %u missed the floods, assigned %u",
                                   sensor.id(), best);
    }
  });
}

std::optional<wsn::ReportTarget> DynamicDistributedAlgorithm::report_target(
    const wsn::SensorNode& sensor) const {
  const NodeId robot = sensor.myrobot();
  if (robot == kNoNode) return std::nullopt;
  const auto* knowledge = sensor.find_robot(robot);
  if (knowledge == nullptr) return std::nullopt;
  return wsn::ReportTarget{robot, knowledge->location};
}

void DynamicDistributedAlgorithm::on_location_update(wsn::SensorNode& sensor,
                                                     const Packet& pkt, NodeId from) {
  const auto& body = std::get<net::LocationUpdatePayload>(pkt.payload);
  const NodeId previous_myrobot = sensor.myrobot();
  const bool fresh = sensor.learn_robot(body.robot, body.robot_location, body.update_seq);

  // Adopt the closest known robot as manager (Voronoi membership).
  if (const auto closest = sensor.closest_known_robot()) sensor.set_myrobot(*closest);

  if (!fresh) return;

  // Relay scope (paper §3.3): the robot's previous cell (so members can
  // switch away), plus everyone within `fringe` of preferring the robot's
  // new location (the potential switchers of Fig. 1b).
  bool relay = previous_myrobot == body.robot || previous_myrobot == kNoNode;
  if (!relay) {
    const auto* mine = sensor.find_robot(sensor.myrobot());
    relay = mine == nullptr ||
            geometry::distance(sensor.position(), body.robot_location) <=
                geometry::distance(sensor.position(), mine->location) +
                    config().dynamic_fringe;
  }
  if (relay && config().efficient_broadcast && !relay_adds_coverage(sensor, from)) {
    relay = false;
  }
  if (relay) sensor.relay_once(pkt, body.robot, body.update_seq);
}

void DynamicDistributedAlgorithm::on_robot_location_update(robot::RobotNode& robot) {
  broadcast_location_update(robot);  // flood seed; scoped relays follow
}

void DynamicDistributedAlgorithm::on_robot_packet(robot::RobotNode& robot,
                                                  const Packet& pkt) {
  if (pkt.type != PacketType::kFailureReport) return;
  // Every copy is acked (the first ack may have been lost); only a fresh
  // report dispatches — a link-duplicated frame must not double-dispatch.
  const bool fresh = record_report_arrival(pkt);
  acknowledge_report(robot.router(), pkt);
  if (!fresh) return;
  const auto& body = std::get<net::FailureReportPayload>(pkt.payload);
  dispatch_to(robot, make_task(body.failed_node, body.failed_location, body.failure_id));
}

void DynamicDistributedAlgorithm::on_robot_presumed_dead(std::size_t index) {
  auto* live = closest_live_robot(robot_at(index).position());
  if (live == nullptr) {
    trace::Logger::global().logf(trace::Level::kError, ctx().simulator->now(), "fault",
                                 "robot %u presumed dead and no live robot remains",
                                 robot_at(index).id());
    return;
  }
  trace::Logger::global().logf(trace::Level::kInfo, ctx().simulator->now(), "fault",
                               "reflooding location of robot %u toward dead robot %u's cell",
                               live->id(), robot_at(index).id());
  emit({.time = ctx().simulator->now(), .kind = obs::Kind::kFailover, .node = live->id(),
        .actor = robot_at(index).id(), .location = live->position()});
  // A real flood seed: orphaned sensors (those whose myrobot aged out) relay
  // unconditionally, so the update spreads across the dead robot's cell.
  broadcast_location_update(*live);
}

void DynamicDistributedAlgorithm::on_robot_rejoin(std::size_t index) {
  auto& r = robot_at(index);
  trace::Logger::global().logf(trace::Level::kInfo, ctx().simulator->now(), "fault",
                               "reflooding location of repaired robot %u", r.id());
  // The reflood re-enters the robot into every nearby sensor's knowledge;
  // the Voronoi adoption rule in on_location_update does the re-switching.
  broadcast_location_update(r);
}

}  // namespace sensrep::core
