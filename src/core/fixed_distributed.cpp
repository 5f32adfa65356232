#include "core/fixed_distributed.hpp"

#include <algorithm>

#include "obs/metrics_registry.hpp"
#include "trace/log.hpp"

namespace sensrep::core {

using geometry::Vec2;
using net::NodeId;
using net::Packet;
using net::PacketType;

void FixedDistributedAlgorithm::bind(const SystemContext& system_ctx) {
  CoordinationAlgorithm::bind(system_ctx);
  const geometry::Rect area = config().field_area();
  switch (config().partition) {
    case PartitionShape::kSquare:
      partition_ = std::make_unique<geometry::SquarePartition>(
          geometry::SquarePartition::squares(area, config().robots));
      break;
    case PartitionShape::kHexagon:
      partition_ = std::make_unique<geometry::HexPartition>(area, config().robots);
      break;
  }
  // Identity ownership: robot i manages cell i until an adoption rewires it.
  owner_.resize(config().robots);
  for (std::size_t i = 0; i < owner_.size(); ++i) owner_[i] = i;
}

void FixedDistributedAlgorithm::initialize() {
  // Paper §3.2 init: robots move to their subarea centers, then flood their
  // location to the subarea's sensors. The repositioning is instantaneous in
  // simulation time (it precedes operation) but its motion cost is tracked.
  for (std::size_t i = 0; i < robot_count(); ++i) {
    auto& r = robot_at(i);
    const Vec2 center = partition_->center(i);
    init_motion_ += geometry::distance(r.position(), center);
    r.teleport(center);
    broadcast_location_update(r, /*init=*/true);
  }
}

std::optional<wsn::ReportTarget> FixedDistributedAlgorithm::report_target(
    const wsn::SensorNode& sensor) const {
  // Subarea membership is deployment-time configuration: every sensor knows
  // the field geometry and its own coordinates, hence its subarea index. The
  // owner map is identity until a robot death reassigns cells (adoption).
  const std::size_t cell = subarea_of(sensor.position());
  const std::size_t owner = owner_[cell];
  const NodeId robot = config().robot_id(owner);
  // Believed robot location: last flooded update, else the owner's home
  // subarea center (where it parked at initialization).
  const auto* knowledge = sensor.find_robot(robot);
  const Vec2 loc = knowledge ? knowledge->location : partition_->center(owner);
  return wsn::ReportTarget{robot, loc};
}

void FixedDistributedAlgorithm::on_location_update(wsn::SensorNode& sensor,
                                                   const Packet& pkt, NodeId from) {
  const auto& body = std::get<net::LocationUpdatePayload>(pkt.payload);
  const bool fresh = sensor.learn_robot(body.robot, body.robot_location, body.update_seq);
  const std::size_t my_cell = subarea_of(sensor.position());
  const bool owns = owner_[my_cell] == robot_index(body.robot);
  if (owns) sensor.set_myrobot(body.robot);

  // Relay rule (paper §3.2): all sensors of the subareas the robot owns
  // relay each update exactly once, remembered by sequence number. (With
  // identity ownership this is exactly the paper's "robot's own subarea".)
  if (!fresh || !owns) return;
  if (config().efficient_broadcast && !relay_adds_coverage(sensor, from)) return;
  sensor.relay_once(pkt, body.robot, body.update_seq);
}

void FixedDistributedAlgorithm::on_robot_location_update(robot::RobotNode& robot) {
  broadcast_location_update(robot);  // flood seed; subarea sensors relay
}

void FixedDistributedAlgorithm::on_robot_packet(robot::RobotNode& robot,
                                                const Packet& pkt) {
  if (pkt.type == PacketType::kOwnershipTransfer) {
    const auto& body = std::get<net::OwnershipTransferPayload>(pkt.payload);
    if (!body.ack) apply_return(robot, pkt);
    return;  // acks are pure confirmation (ownership flipped on delivery)
  }
  if (pkt.type != PacketType::kFailureReport) return;
  // Every copy is acked (the first ack may have been lost); only a fresh
  // report dispatches — a link-duplicated frame must not double-dispatch.
  const bool fresh = record_report_arrival(pkt);
  acknowledge_report(robot.router(), pkt);
  if (!fresh) return;
  const auto& body = std::get<net::FailureReportPayload>(pkt.payload);
  dispatch_to(robot, make_task(body.failed_node, body.failed_location, body.failure_id));
}

void FixedDistributedAlgorithm::on_robot_presumed_dead(std::size_t index) {
  // Election among the surviving robots (one message each, accounted): the
  // live robot with the lowest id adopts every subarea the dead one owned.
  // Nothing is charged before the adopter check — an all-dead fleet runs no
  // election (same rule as the centralized failover).
  std::optional<std::size_t> adopter;
  for (std::size_t i = 0; i < robot_count(); ++i) {
    if (i == index || robot_at(i).failed() || presumed_dead(i)) continue;
    adopter = i;
    break;
  }
  if (!adopter) {
    trace::Logger::global().logf(trace::Level::kError, ctx().simulator->now(), "fault",
                                 "robot %u presumed dead but no live robot can adopt",
                                 robot_at(index).id());
    return;
  }
  ctx().medium->account(metrics::MessageCategory::kFaultTolerance, robot_count());
  auto& am = robot_at(*adopter);
  std::vector<std::size_t> adopted;
  for (std::size_t cell = 0; cell < owner_.size(); ++cell) {
    if (owner_[cell] != index) continue;
    owner_[cell] = *adopter;
    adopted.push_back(cell);
    emit({.time = ctx().simulator->now(), .kind = obs::Kind::kAdoption, .node = am.id(),
          .actor = robot_at(index).id(), .location = am.position(),
          .value = static_cast<double>(cell)});
  }
  if (adopted.empty()) return;  // its cells were already adopted earlier
  trace::Logger::global().logf(trace::Level::kInfo, ctx().simulator->now(), "fault",
                               "robot %u adopts %zu subarea(s) of dead robot %u",
                               am.id(), adopted.size(), robot_at(index).id());
  // Ownership flood: a network-wide control broadcast (accounted analytically
  // like the init floods — relay rules confine location updates to owned
  // cells, so ownership changes must travel as their own flood).
  ctx().medium->account(metrics::MessageCategory::kFaultTolerance,
                        1 + static_cast<std::uint64_t>(ctx().field->size()));
  // What the flood teaches the orphaned cells' sensors: who their robot is
  // now and where it last was.
  const auto seq = am.next_update_seq();
  auto& field = *ctx().field;
  const auto teach = [&](wsn::SensorNode& sensor) {
    if (!sensor.alive()) return;
    sensor.learn_robot(am.id(), am.position(), seq);
    sensor.set_myrobot(am.id());
  };
  // Cells partition the sensors, so merging the adopted cells' (ascending)
  // member lists and sorting visits the orphaned sensors in ascending id
  // order.
  std::vector<NodeId> members;
  for (const std::size_t cell : adopted) {
    const auto& m = members_of(cell);
    members.insert(members.end(), m.begin(), m.end());
  }
  std::sort(members.begin(), members.end());
  for (const NodeId s : members) teach(field.node(s));
}

const std::vector<NodeId>& FixedDistributedAlgorithm::members_of(std::size_t cell) {
  if (cell_members_.empty()) {
    cell_members_.resize(owner_.size());
    auto& field = *ctx().field;
    for (std::size_t s = 0; s < field.size(); ++s) {
      const auto id = static_cast<NodeId>(s);
      cell_members_[subarea_of(field.node(id).position())].push_back(id);
    }
  }
  return cell_members_.at(cell);
}

void FixedDistributedAlgorithm::on_robot_rejoin(std::size_t index) {
  auto& r = robot_at(index);
  // Reflood the reborn robot's location so its old subarea's sensors relearn
  // it as a routing hop (they still forward to the adopter until the
  // ownership transfer lands).
  broadcast_location_update(r);
  // Each cell the robot originally owned (identity mapping: cell i <-> robot
  // i) that is currently adopted is offered back by its adopter.
  for (std::size_t cell = 0; cell < owner_.size(); ++cell) {
    if (cell != index || owner_[cell] == index) continue;
    offer_return(cell, 0);
  }
}

void FixedDistributedAlgorithm::offer_return(std::size_t cell, std::size_t attempt) {
  constexpr std::size_t kMaxAttempts = 5;
  const std::size_t original = cell;  // identity mapping
  if (owner_[cell] == original) return;        // transfer already applied
  if (robot_at(original).failed()) return;     // reborn robot died again
  auto& holder = robot_at(owner_[cell]);
  if (holder.failed()) return;  // adopter died; its own death path re-assigns
  auto& reborn = robot_at(original);
  Packet offer;
  offer.type = PacketType::kOwnershipTransfer;
  offer.dst = reborn.id();
  offer.dst_location = reborn.position();
  offer.payload = net::OwnershipTransferPayload{
      static_cast<std::uint32_t>(cell), reborn.id(), reborn.position(),
      ++transfer_seq_, false};
  holder.refresh_neighbor_table();
  holder.router().send(std::move(offer));
  // End-to-end retry: per-hop ARQ absorbs single losses, but a fully dropped
  // offer must not strand the cell at its adopter forever. Ownership flips
  // only on delivery, so duplicate offers are harmless.
  if (attempt + 1 >= kMaxAttempts) return;
  ctx().simulator->in(config().robot_faults.heartbeat_period,
                      [this, cell, attempt] { offer_return(cell, attempt + 1); });
}

void FixedDistributedAlgorithm::apply_return(robot::RobotNode& robot, const Packet& pkt) {
  const auto& body = std::get<net::OwnershipTransferPayload>(pkt.payload);
  const auto cell = static_cast<std::size_t>(body.cell);
  const std::size_t mine = robot_index(robot.id());
  if (cell >= owner_.size() || body.to_owner != robot.id()) return;
  if (owner_[cell] == mine) return;  // duplicate offer (retry raced the ack)
  owner_[cell] = mine;
  ctx().simulator->counters().inc(obs::Counter::kOwnershipTransfers);
  emit({.time = ctx().simulator->now(), .kind = obs::Kind::kHandback, .node = robot.id(),
        .actor = pkt.src, .location = robot.position(),
        .value = static_cast<double>(cell)});
  trace::Logger::global().logf(trace::Level::kInfo, ctx().simulator->now(), "fault",
                               "robot %u took subarea %zu back from robot %u",
                               robot.id(), cell, pkt.src);
  // Ownership flood for the returned cell (same analytic accounting as the
  // adoption flood) teaching its sensors who their robot is again.
  ctx().medium->account(metrics::MessageCategory::kFaultTolerance,
                        1 + static_cast<std::uint64_t>(ctx().field->size()));
  const auto seq = robot.next_update_seq();
  auto& field = *ctx().field;
  const auto teach = [&](wsn::SensorNode& sensor) {
    if (!sensor.alive()) return;
    sensor.learn_robot(robot.id(), robot.position(), seq);
    sensor.set_myrobot(robot.id());
  };
  for (const NodeId s : members_of(cell)) teach(field.node(s));
  // Confirmation ack back to the adopter (real traffic; informational only —
  // the shared owner map is already consistent).
  Packet ack;
  ack.type = PacketType::kOwnershipTransfer;
  ack.dst = pkt.src;
  ack.dst_location = robot_at(robot_index(pkt.src)).position();
  ack.payload = net::OwnershipTransferPayload{body.cell, robot.id(), robot.position(),
                                              body.transfer_seq, true};
  robot.refresh_neighbor_table();
  robot.router().send(std::move(ack));
}

}  // namespace sensrep::core
