#include "core/centralized.hpp"

#include <cmath>
#include <limits>

#include "obs/metrics_registry.hpp"
#include "trace/log.hpp"

namespace sensrep::core {

using geometry::Vec2;
using net::kBroadcastId;
using net::kNoNode;
using net::NodeId;
using net::Packet;
using net::PacketType;

void CentralizedAlgorithm::initialize() {
  manager_pos_ = config().field_area().center();
  manager_ = std::make_unique<ManagerNode>(
      config().manager_id(), manager_pos_, config().robot_tx_range, *ctx().medium,
      [this](const Packet& pkt) { handle_manager_packet(pkt); });

  // Init message 1 (paper §3.1): the manager broadcasts its location to all
  // sensors and robots — a network-wide flood in which every sensor relays
  // once. Accounted; the observable outcome (everyone knows the manager's
  // location) is supplied by report_target(), which never changes because
  // the manager never moves.
  ctx().medium->account(metrics::MessageCategory::kInitialization,
                        1 + static_cast<std::uint64_t>(ctx().field->size()));
  // Sensors within their own TX range of the manager can use it as a final
  // forwarding hop; the flood above is how they learned it exists.
  auto& field = *ctx().field;
  for (const NodeId s : field.slots_within(manager_pos_, config().field.sensor_tx_range)) {
    field.node(s).table().upsert(manager_->id(), manager_pos_);
  }

  // Init message 2: each maintenance robot unicasts its location to the
  // manager (real geo-routed packets) and announces itself to its one-hop
  // sensor neighbors (real broadcast).
  for (std::size_t i = 0; i < robot_count(); ++i) {
    auto& r = robot_at(i);
    r.refresh_neighbor_table();

    Packet to_manager;
    to_manager.type = PacketType::kLocationAnnounce;
    to_manager.dst = manager_->id();
    to_manager.dst_location = manager_pos_;
    to_manager.payload = net::LocationAnnouncePayload{r.position()};
    r.router().send(std::move(to_manager));

    Packet hello;
    hello.type = PacketType::kLocationAnnounce;
    hello.src = r.id();
    hello.dst = kBroadcastId;
    hello.payload = net::LocationAnnouncePayload{r.position()};
    ctx().medium->broadcast(r.id(), hello);

    // The manager's tracking map is also primed directly: losing a robot to
    // an init packet drop would deadlock repairs, which the paper's model
    // (reliable init) excludes.
    robot_locations_[r.id()] = r.position();
  }
}

std::optional<wsn::ReportTarget> CentralizedAlgorithm::report_target(
    const wsn::SensorNode& /*sensor*/) const {
  return wsn::ReportTarget{current_manager_id(), manager_pos_};
}

void CentralizedAlgorithm::on_location_update(wsn::SensorNode& sensor, const Packet& pkt,
                                              NodeId /*from*/) {
  // Centralized sensors track nearby robots only as routing next hops; they
  // never relay (the manager is updated by unicast instead).
  const auto& body = std::get<net::LocationUpdatePayload>(pkt.payload);
  sensor.learn_robot(body.robot, body.robot_location, body.update_seq);
}

void CentralizedAlgorithm::on_sensor_reset(wsn::SensorNode& sensor) {
  if (geometry::distance(sensor.position(), manager_pos_) <=
      config().field.sensor_tx_range) {
    sensor.table().upsert(current_manager_id(), manager_pos_);
  }
}

void CentralizedAlgorithm::on_robot_location_update(robot::RobotNode& robot) {
  // One-hop broadcast so nearby sensors can deliver packets to the moving
  // robot...
  broadcast_location_update(robot);
  // The acting manager's updates terminate at itself: it refreshes its own
  // tracking entry (and lease) without a unicast leg.
  if (is_acting_manager(robot)) {
    robot_locations_[robot.id()] = robot.position();
    manager_pos_ = robot.position();
    refresh_lease(robot_index(robot.id()));
    return;
  }
  // ...and a geo-routed unicast so the manager can keep dispatching to it.
  Packet update;
  update.type = PacketType::kLocationUpdate;
  update.dst = current_manager_id();
  update.dst_location = manager_pos_;
  update.payload =
      net::LocationUpdatePayload{robot.id(), robot.position(), robot.current_update_seq()};
  robot.router().send(std::move(update));
}

void CentralizedAlgorithm::on_robot_task_complete(robot::RobotNode& robot) {
  // Fault tolerance: report completion so the manager can close the
  // in-flight entry (otherwise a later lease expiry would re-dispatch a
  // repair that already happened).
  if (fault_tolerance_active() && robot.last_completed() &&
      robot.last_completed()->failure_id != 0) {
    const auto& done = *robot.last_completed();
    if (is_acting_manager(robot)) {
      close_in_flight(net::TaskCompletePayload{done.slot, done.failure_id});
    } else {
      Packet fin;
      fin.type = PacketType::kTaskComplete;
      fin.dst = current_manager_id();
      fin.dst_location = manager_pos_;
      fin.payload = net::TaskCompletePayload{done.slot, done.failure_id};
      robot.router().send(std::move(fin));
    }
  }
  // Under queue-aware dispatch the backlog value is load-bearing, so the
  // robot refreshes the manager immediately after unloading; the plain
  // paper algorithm relies on the movement-leg updates alone.
  if (!config().queue_aware_dispatch) return;
  if (is_acting_manager(robot)) {
    robot_backlog_[robot.id()] =
        static_cast<std::uint32_t>(robot.queue().size() + (robot.busy() ? 1 : 0));
    return;
  }
  Packet update;
  update.type = PacketType::kLocationUpdate;
  update.dst = current_manager_id();
  update.dst_location = manager_pos_;
  const auto backlog =
      static_cast<std::uint32_t>(robot.queue().size() + (robot.busy() ? 1 : 0));
  update.payload = net::LocationUpdatePayload{robot.id(), robot.position(),
                                              robot.current_update_seq(), backlog};
  robot.router().send(std::move(update));
}

void CentralizedAlgorithm::handle_manager_packet(const Packet& pkt) {
  switch (pkt.type) {
    case PacketType::kLocationAnnounce:
      robot_locations_[pkt.src] = std::get<net::LocationAnnouncePayload>(pkt.payload).location;
      if (fault_tolerance_active()) refresh_lease(robot_index(pkt.src));
      break;
    case PacketType::kLocationUpdate: {
      const auto& body = std::get<net::LocationUpdatePayload>(pkt.payload);
      robot_locations_[body.robot] = body.robot_location;
      robot_backlog_[body.robot] = body.queue_len;
      if (fault_tolerance_active()) refresh_lease(robot_index(body.robot));
      break;
    }
    case PacketType::kFailureReport: {
      const bool fresh = record_report_arrival(pkt);
      manager_->refresh_neighbor_table();
      // Every copy is acked (the first ack may have been lost), but only a
      // fresh report dispatches — a duplicated frame must not double-dispatch.
      acknowledge_report(manager_->router(), pkt);
      if (fresh) dispatch(std::get<net::FailureReportPayload>(pkt.payload));
      break;
    }
    case PacketType::kTaskComplete:
      close_in_flight(std::get<net::TaskCompletePayload>(pkt.payload));
      if (fault_tolerance_active()) refresh_lease(robot_index(pkt.src));
      break;
    case PacketType::kOwnershipTransfer: {
      // Handback offer from the acting manager reached the repaired manager:
      // the role moves back here. Pure confirmation ack to the sender.
      const auto& offer = std::get<net::OwnershipTransferPayload>(pkt.payload);
      if (offer.ack) break;
      const NodeId former = pkt.src;
      apply_handback();
      Packet ack;
      ack.type = PacketType::kOwnershipTransfer;
      ack.dst = former;
      const auto it = robot_locations_.find(former);
      ack.dst_location = it != robot_locations_.end()
                             ? it->second
                             : robot_at(robot_index(former)).position();
      ack.payload = net::OwnershipTransferPayload{offer.cell, manager_->id(),
                                                  manager_->position(),
                                                  offer.transfer_seq, true};
      manager_->refresh_neighbor_table();
      manager_->router().send(std::move(ack));
      break;
    }
    default:
      break;
  }
}

void CentralizedAlgorithm::dispatch(const net::FailureReportPayload& failure) {
  // Paper §3.1: "the manager selects the robot whose current location is the
  // closest to the failure". With queue_aware_dispatch (extension E9) the
  // score also charges each queued task one expected service leg, so a busy
  // nearby robot loses to an idle slightly-farther one.
  const double service_leg =
      config().queue_aware_dispatch ? 0.5 * std::sqrt(config().area_per_robot) : 0.0;
  NodeId best = kNoNode;
  double best_score = std::numeric_limits<double>::infinity();
  for (const auto& [robot, loc] : robot_locations_) {
    // Robots whose lease expired are out of the candidate set until (never)
    // they come back; a dead-but-unexpired robot can still be picked — its
    // lease will run out and the task will be re-dispatched.
    if (presumed_dead(robot_index(robot))) continue;
    double score = geometry::distance(loc, failure.failed_location);
    if (config().queue_aware_dispatch) {
      const auto it = robot_backlog_.find(robot);
      if (it != robot_backlog_.end()) score += service_leg * it->second;
    }
    if (score < best_score || (score == best_score && robot < best)) {
      best_score = score;
      best = robot;
    }
  }
  if (best == kNoNode) {
    trace::Logger::global().logf(trace::Level::kError, ctx().simulator->now(), "core",
                                 "manager knows no robots; failure of %u stranded",
                                 failure.failed_node);
    return;
  }
  if (fault_tolerance_active() && failure.failure_id != 0) {
    in_flight_[failure.failure_id] =
        InFlight{failure.failed_node, failure.failed_location, robot_index(best)};
  }
  // The acting manager dispatches to itself directly (no radio leg).
  if (acting_manager_ && best == config().robot_id(*acting_manager_)) {
    robot_backlog_[best] += 1;
    dispatch_to(robot_at(*acting_manager_),
                make_task(failure.failed_node, failure.failed_location, failure.failure_id));
    return;
  }
  Packet request;
  request.type = PacketType::kRepairRequest;
  request.dst = best;
  request.dst_location = robot_locations_[best];
  request.payload =
      net::RepairRequestPayload{failure.failed_node, failure.failed_location,
                                failure.failure_id};
  // Optimistic backlog bump so back-to-back reports spread across robots
  // even before the next location update arrives.
  robot_backlog_[best] += 1;
  if (acting_manager_) {
    auto& am = robot_at(*acting_manager_);
    am.refresh_neighbor_table();
    am.router().send(std::move(request));
    return;
  }
  manager_->refresh_neighbor_table();
  manager_->router().send(std::move(request));
}

void CentralizedAlgorithm::on_robot_packet(robot::RobotNode& robot, const Packet& pkt) {
  // After failover the promoted robot receives the manager-plane traffic
  // (reports, updates, completions) at its own robot address.
  if (is_acting_manager(robot)) {
    switch (pkt.type) {
      case PacketType::kLocationAnnounce:
      case PacketType::kLocationUpdate:
      case PacketType::kTaskComplete:
        handle_manager_packet(pkt);  // bookkeeping is router-agnostic
        return;
      case PacketType::kFailureReport: {
        const bool fresh = record_report_arrival(pkt);
        robot.refresh_neighbor_table();
        acknowledge_report(robot.router(), pkt);
        if (fresh) dispatch(std::get<net::FailureReportPayload>(pkt.payload));
        return;
      }
      default:
        break;
    }
  }
  if (pkt.type == PacketType::kElection) {
    // A failover winner announced itself: acknowledge so the election is a
    // real two-way exchange (and proves this robot alive to the new manager).
    const auto& ballot = std::get<net::ElectionPayload>(pkt.payload);
    // A duplicated ballot of a round this robot already acked is not acked
    // again — one election round yields at most one ack per robot.
    const auto round = std::make_pair(ballot.winner, ballot.election_seq);
    auto [acked_it, first_copy] = election_acked_.try_emplace(robot.id(), round);
    if (!first_copy) {
      if (acked_it->second == round) return;
      acked_it->second = round;
    }
    Packet ack;
    ack.type = PacketType::kElectionAck;
    ack.dst = ballot.winner;
    ack.dst_location = ballot.winner_location;
    ack.payload = net::ElectionPayload{ballot.winner, ballot.winner_location,
                                       ballot.election_seq, true};
    robot.refresh_neighbor_table();
    robot.router().send(std::move(ack));
    return;
  }
  if (pkt.type == PacketType::kElectionAck) {
    // Delivered to the acting manager: the acker is alive — refresh its
    // lease, but count each (acker, round) only once; a duplicated ack would
    // otherwise feed a near-zero interval into the lease cadence EWMA.
    const auto& ballot = std::get<net::ElectionPayload>(pkt.payload);
    if (!election_acks_seen_.insert({pkt.src, ballot.election_seq}).second) return;
    if (fault_tolerance_active()) refresh_lease(robot_index(pkt.src));
    return;
  }
  if (pkt.type == PacketType::kOwnershipTransfer) {
    // Ack of the handback offer this (former acting manager) robot sent; the
    // role change itself was applied when the offer reached the manager.
    return;
  }
  if (pkt.type != PacketType::kRepairRequest) return;
  // Duplication dedup: an exact copy of a request this robot already accepted
  // must not re-enqueue (the slot may have been repaired and failed again by
  // the time the stale copy lands). Redispatches carry a fresh seq and pass.
  if (pkt.seq != 0 && !seen_requests_.insert({pkt.src, pkt.seq}).second) return;
  const auto& body = std::get<net::RepairRequestPayload>(pkt.payload);
  if (body.failure_id != 0) {
    auto& rec = ctx().log->at(body.failure_id - 1);
    if (rec.request_hops == 0) rec.request_hops = pkt.hops;
  }
  dispatch_to(robot, make_task(body.failed_node, body.failed_location, body.failure_id));
}

void CentralizedAlgorithm::close_in_flight(const net::TaskCompletePayload& done) {
  in_flight_.erase(done.failure_id);
}

void CentralizedAlgorithm::fail_manager() {
  if (manager_ && !manager_->failed()) {
    manager_->fail();
    trace::Logger::global().logf(trace::Level::kInfo, ctx().simulator->now(), "fault",
                                 "manager %u failed", manager_->id());
  }
}

void CentralizedAlgorithm::repair_manager() {
  if (manager_ && manager_->failed()) {
    manager_->repair();
    trace::Logger::global().logf(trace::Level::kInfo, ctx().simulator->now(), "fault",
                                 "manager %u repaired%s", manager_->id(),
                                 acting_manager_ ? " (awaiting handback)" : "");
  }
}

void CentralizedAlgorithm::apply_handback() {
  if (!acting_manager_) return;  // duplicate offer: the role already returned
  const NodeId former = config().robot_id(*acting_manager_);
  acting_manager_.reset();
  ++fault_stats_.handbacks;
  ctx().simulator->counters().inc(obs::Counter::kOwnershipTransfers);
  manager_pos_ = manager_->position();
  manager_lease_ = ctx().simulator->now();
  trace::Logger::global().logf(trace::Level::kInfo, ctx().simulator->now(), "fault",
                               "acting manager %u handed the role back to manager %u",
                               former, manager_->id());
  emit({.time = manager_lease_, .kind = obs::Kind::kHandback, .node = manager_->id(),
        .actor = former, .location = manager_pos_});
  // The in-flight table, tracking map, and backlogs survive the handback —
  // the role moves, the dispatcher state does not, so no task is lost.
  // Re-announce flood: the restored manager tells the network where to
  // report again (same analytic accounting as the promotion flood).
  ctx().medium->account(metrics::MessageCategory::kFaultTolerance,
                        1 + static_cast<std::uint64_t>(ctx().field->size()));
  for (std::size_t i = 0; i < robot_count(); ++i) {
    if (robot_at(i).failed()) continue;
    refresh_lease(i);  // fresh grace period under the restored manager
  }
  // Sensors in radio range of the restored manager re-learn it as a final
  // forwarding hop (they may have switched to the acting manager's id).
  auto& field = *ctx().field;
  for (const NodeId s : field.slots_within(manager_pos_, config().field.sensor_tx_range)) {
    auto& sensor = field.node(s);
    if (sensor.alive()) sensor.table().upsert(manager_->id(), manager_pos_);
  }
}

void CentralizedAlgorithm::on_robot_rejoin(std::size_t index) {
  auto& r = robot_at(index);
  // One-hop hello so nearby sensors re-learn the reborn robot as a next hop.
  Packet hello;
  hello.type = PacketType::kLocationAnnounce;
  hello.src = r.id();
  hello.dst = kBroadcastId;
  hello.payload = net::LocationAnnouncePayload{r.position()};
  hello.category_override = metrics::MessageCategory::kFaultTolerance;
  ctx().medium->broadcast(r.id(), hello);
  if (is_acting_manager(r)) {
    // The acting manager resurrected before its own lease expired: it simply
    // resumes the role in place.
    robot_locations_[r.id()] = r.position();
    manager_pos_ = r.position();
    return;
  }
  // Re-admission: geo-route a kLocationAnnounce to whoever manages now; the
  // delivery re-enters the robot into the dispatch pool and refreshes its
  // lease. If every retry is lost, the restarted heartbeat unicasts catch up.
  Packet announce;
  announce.type = PacketType::kLocationAnnounce;
  announce.dst = current_manager_id();
  announce.dst_location = manager_pos_;
  announce.payload = net::LocationAnnouncePayload{r.position()};
  announce.category_override = metrics::MessageCategory::kFaultTolerance;
  r.router().send(std::move(announce));
}

void CentralizedAlgorithm::supervise() {
  const auto now = ctx().simulator->now();
  const double window = config().robot_faults.lease_window();
  // Handback offer: the dedicated manager is back in service, so the acting
  // manager geo-routes it a kOwnershipTransfer carrying the manager role.
  // Applied on delivery (apply_handback); a lost offer is simply re-sent at
  // the next sweep, so the exchange is loss-robust.
  if (acting_manager_ && manager_ && !manager_->failed() &&
      !robot_at(*acting_manager_).failed()) {
    auto& am = robot_at(*acting_manager_);
    Packet offer;
    offer.type = PacketType::kOwnershipTransfer;
    offer.dst = manager_->id();
    offer.dst_location = manager_->position();
    offer.payload = net::OwnershipTransferPayload{0, manager_->id(), manager_->position(),
                                                  ++transfer_seq_, false};
    am.refresh_neighbor_table();
    am.router().send(std::move(offer));
  }
  // Manager heartbeat: a network-wide liveness flood every supervision
  // sweep. The one-hop seed is a real kManagerHeartbeat broadcast (nearby
  // sensors refresh their forwarding entry for the manager); the field-wide
  // relays are accounted analytically, like the init flood. Only a live
  // manager emits — the silence of a dead one is what lets the fleet's
  // shared lease expire.
  const auto emit_heartbeat = [&](NodeId src, geometry::Vec2 at) {
    Packet hb;
    hb.type = PacketType::kManagerHeartbeat;
    hb.src = src;
    hb.dst = net::kBroadcastId;
    hb.payload = net::ManagerHeartbeatPayload{at, ++manager_hb_seq_};
    ctx().medium->broadcast(src, hb);
    ctx().medium->account(metrics::MessageCategory::kFaultTolerance,
                          static_cast<std::uint64_t>(ctx().field->size()));
    manager_lease_ = now;
  };
  if (!acting_manager_) {
    if (!manager_->failed()) emit_heartbeat(manager_->id(), manager_pos_);
  } else if (!robot_at(*acting_manager_).failed()) {
    auto& am = robot_at(*acting_manager_);
    manager_pos_ = am.position();
    emit_heartbeat(am.id(), manager_pos_);
    refresh_lease(*acting_manager_);
  }
  if (now - manager_lease_ > window) perform_failover();
  CoordinationAlgorithm::supervise();
}

void CentralizedAlgorithm::perform_failover() {
  // Election among the surviving robots: the live robot with the lowest id
  // wins (classic bully outcome). Nothing is charged before the winner check:
  // an all-dead fleet runs no election and pays for none.
  std::optional<std::size_t> winner;
  for (std::size_t i = 0; i < robot_count(); ++i) {
    if (!robot_at(i).failed()) {
      winner = i;
      break;
    }
  }
  if (!winner) {
    trace::Logger::global().logf(trace::Level::kError, ctx().simulator->now(), "fault",
                                 "manager lease expired but no live robot to promote");
    return;
  }
  acting_manager_ = winner;
  ++fault_stats_.failovers;
  auto& am = robot_at(*winner);
  manager_pos_ = am.position();
  manager_lease_ = ctx().simulator->now();
  trace::Logger::global().logf(trace::Level::kInfo, ctx().simulator->now(), "fault",
                               "robot %u promoted to acting manager", am.id());
  emit({.time = manager_lease_, .kind = obs::Kind::kFailover, .node = am.id(),
        .actor = manager_->id(), .location = manager_pos_});
  // Promotion flood: the new manager tells the whole network where to report
  // (same analytic accounting as the init flood). The old manager's in-flight
  // table died with it — unrepaired failures come back via the guardians'
  // periodic re-reports.
  ctx().medium->account(metrics::MessageCategory::kFaultTolerance,
                        1 + static_cast<std::uint64_t>(ctx().field->size()));
  in_flight_.clear();
  robot_locations_.clear();
  robot_backlog_.clear();
  for (std::size_t i = 0; i < robot_count(); ++i) {
    auto& r = robot_at(i);
    if (r.failed()) continue;
    robot_locations_[r.id()] = r.position();
    robot_backlog_[r.id()] =
        static_cast<std::uint32_t>(r.queue().size() + (r.busy() ? 1 : 0));
    refresh_lease(i);  // fresh grace period under the new manager
  }
  // The election exchange itself is real traffic: the winner geo-routes a
  // kElection to every other surviving robot (per-hop ARQ handles loss), and
  // each replies kElectionAck — see on_robot_packet. Convergence is still
  // modeled as immediate (the winner is deterministic: lowest live id).
  ++election_seq_;
  emit({.time = manager_lease_, .kind = obs::Kind::kElection, .node = am.id(),
        .actor = manager_->id(), .location = manager_pos_});
  am.refresh_neighbor_table();
  for (std::size_t i = 0; i < robot_count(); ++i) {
    if (i == *winner || robot_at(i).failed()) continue;
    Packet ballot;
    ballot.type = PacketType::kElection;
    ballot.dst = robot_at(i).id();
    ballot.dst_location = robot_at(i).position();
    ballot.payload = net::ElectionPayload{am.id(), manager_pos_, election_seq_, false};
    am.router().send(std::move(ballot));
  }
  // Sensors in radio range of the new manager can use it as a final hop.
  auto& field = *ctx().field;
  for (const NodeId s : field.slots_within(manager_pos_, config().field.sensor_tx_range)) {
    auto& sensor = field.node(s);
    if (sensor.alive()) sensor.table().upsert(am.id(), manager_pos_);
  }
}

void CentralizedAlgorithm::on_robot_presumed_dead(std::size_t index) {
  // Re-dispatch every task that was in flight at the dead robot. Tasks whose
  // slot has since been repaired (duplicate dispatch) are simply closed.
  std::vector<std::pair<std::uint64_t, InFlight>> orphaned;
  for (const auto& [fid, entry] : in_flight_) {
    if (entry.robot == index) orphaned.emplace_back(fid, entry);
  }
  for (const auto& [fid, entry] : orphaned) {
    in_flight_.erase(fid);
    if (ctx().field->node(entry.slot).alive()) continue;
    trace::Logger::global().logf(trace::Level::kInfo, ctx().simulator->now(), "fault",
                                 "re-dispatching repair of %u (was in flight at robot %u)",
                                 entry.slot, robot_at(index).id());
    emit({.time = ctx().simulator->now(), .kind = obs::Kind::kRedispatch,
          .node = entry.slot, .actor = robot_at(index).id(), .location = entry.location,
          .value = static_cast<double>(fid), .failure_id = fid});
    net::FailureReportPayload failure;
    failure.failed_node = entry.slot;
    failure.failed_location = entry.location;
    failure.failure_id = fid;
    dispatch(failure);
  }
}

}  // namespace sensrep::core
