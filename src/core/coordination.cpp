#include "core/coordination.hpp"

#include <algorithm>

#include "geometry/voronoi.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"
#include "trace/log.hpp"

#include "core/centralized.hpp"
#include "core/dynamic_distributed.hpp"
#include "core/fixed_distributed.hpp"

namespace sensrep::core {

using net::NodeId;
using net::Packet;

bool CoordinationAlgorithm::record_report_arrival(const Packet& pkt) {
  // Duplication dedup: seq 0 is an untagged (hand-crafted test) report and is
  // always fresh; every real report is stamped with a per-sensor sequence.
  if (pkt.seq != 0 && !seen_reports_.insert({pkt.src, pkt.seq}).second) {
    ctx_.simulator->counters().inc(obs::Counter::kReportsDeduped);
    return false;
  }
  ctx_.simulator->counters().inc(obs::Counter::kReportsArrived);
  const auto& body = std::get<net::FailureReportPayload>(pkt.payload);
  if (body.failure_id == 0) return true;
  auto& rec = ctx_.log->at(body.failure_id - 1);
  if (!sim::is_valid_time(rec.reported_at)) {
    rec.reported_at = ctx_.simulator->now();
    rec.report_hops = pkt.hops;
    emit({.time = rec.reported_at, .kind = obs::Kind::kReport, .node = body.failed_node,
          .actor = pkt.src, .location = body.failed_location,
          .value = static_cast<double>(pkt.hops), .failure_id = body.failure_id});
  }
  return true;
}

void CoordinationAlgorithm::acknowledge_report(routing::GeoRouter& router,
                                               const net::Packet& report) {
  if (!config().field.reliable_reports) return;
  const auto& body = std::get<net::FailureReportPayload>(report.payload);
  Packet ack;
  ack.type = net::PacketType::kReportAck;
  ack.dst = report.src;
  ack.dst_location = body.reporter_location;
  ack.payload = net::ReportAckPayload{body.failed_node};
  router.send(std::move(ack));
}

void CoordinationAlgorithm::dispatch_to(robot::RobotNode& robot,
                                        const robot::RepairTask& task) {
  robot.enqueue(task);
  obs::Metrics::observe(obs::Hist::kDispatchDistance,
                        geometry::distance(robot.position(), task.location));
  emit({.time = ctx_.simulator->now(), .kind = obs::Kind::kDispatch, .node = task.slot,
        .actor = robot.id(), .location = task.location,
        .value = static_cast<double>(robot.queue().size()),
        .failure_id = task.failure_id});
}

robot::RepairTask CoordinationAlgorithm::make_task(NodeId failed_slot,
                                                   geometry::Vec2 failed_location,
                                                   std::uint64_t failure_id) const {
  robot::RepairTask task;
  task.slot = failed_slot;
  task.location = failed_location;
  task.failure_id = failure_id;
  task.enqueued_at = ctx_.simulator->now();
  return task;
}

void CoordinationAlgorithm::broadcast_location_update(robot::RobotNode& robot, bool init) {
  Packet pkt;
  pkt.type = net::PacketType::kLocationUpdate;
  pkt.src = robot.id();
  pkt.dst = net::kBroadcastId;
  const auto backlog =
      static_cast<std::uint32_t>(robot.queue().size() + (robot.busy() ? 1 : 0));
  pkt.payload = net::LocationUpdatePayload{robot.id(), robot.position(),
                                           robot.next_update_seq(), backlog};
  if (init) pkt.category_override = metrics::MessageCategory::kInitialization;
  ctx_.medium->broadcast(robot.id(), pkt);
  // Distributed algorithms: the flood itself is the liveness signal peers
  // observe, so the broadcast refreshes the sender's lease. (A failed robot
  // never reaches here — its heartbeat and movement events are cancelled.)
  if (ft_active_ && lease_refresh_on_broadcast()) refresh_lease(robot_index(robot.id()));
  if (!init) {
    emit({.time = ctx_.simulator->now(), .kind = obs::Kind::kRobotMove,
          .node = robot.id(), .location = robot.position(), .value = robot.odometer()});
  }
}

geometry::Vec2 CoordinationAlgorithm::idle_home(const robot::RobotNode& robot) const {
  std::vector<geometry::Vec2> sites;
  sites.reserve(robot_count());
  for (const auto& r : *ctx_.robots) sites.push_back(r->position());
  const geometry::VoronoiDiagram voronoi(sites, config().field_area());
  const auto& cell = voronoi.cell(robot_index(robot.id()));
  return cell.empty() ? robot.position() : cell.centroid();
}

void CoordinationAlgorithm::on_robot_idle(robot::RobotNode& robot) {
  if (!config().idle_reposition) return;  // paper behavior: wait in place
  const geometry::Vec2 home = idle_home(robot);
  // A dead-band one update-leg wide prevents oscillating micro-returns
  // (arrival at home re-triggers the idle hook).
  if (geometry::distance(robot.position(), home) <= config().update_threshold) return;
  robot.drive_to(home);
}

void CoordinationAlgorithm::on_robot_failed(robot::RobotNode& robot,
                                            std::size_t tasks_lost) {
  ctx_.simulator->counters().inc(obs::Counter::kTasksLost, tasks_lost);
  emit({.time = ctx_.simulator->now(), .kind = obs::Kind::kRobotFailure,
        .node = robot.id(), .location = robot.position(),
        .value = static_cast<double>(tasks_lost)});
}

void CoordinationAlgorithm::on_robot_repaired(robot::RobotNode& robot) {
  emit({.time = ctx_.simulator->now(), .kind = obs::Kind::kRobotRepair,
        .node = robot.id(), .location = robot.position()});
  const std::size_t index = robot_index(robot.id());
  if (ft_active_) {
    // Grace lease from the resurrection instant, and a reset cadence: the
    // robot's pre-death update rhythm says nothing about its new life.
    presumed_dead_[index] = false;
    lease_[index] = ctx_.simulator->now();
    // The rejoined lease re-enters the floor (crucial when the whole fleet
    // was presumed dead and the floor had risen to +inf — without this the
    // batched sweep would never look at the reborn robot again).
    lease_floor_ = std::min(lease_floor_, lease_[index]);
    cadence_ewma_[index] = config().robot_faults.heartbeat_period;
    robot.start_heartbeat(config().robot_faults.heartbeat_period);
  }
  on_robot_rejoin(index);
}

void CoordinationAlgorithm::start_fault_tolerance() {
  const auto& faults = config().robot_faults;
  if (!faults.enabled() || ft_active_) return;
  ft_active_ = true;
  const auto now = ctx_.simulator->now();
  lease_floor_ = now;
  lease_.assign(robot_count(), now);
  presumed_dead_.assign(robot_count(), false);
  cadence_ewma_.assign(robot_count(), faults.heartbeat_period);
  for (std::size_t i = 0; i < robot_count(); ++i) {
    robot_at(i).start_heartbeat(faults.heartbeat_period);
  }
  ctx_.simulator->every(faults.heartbeat_period, [this] {
    // Timed here (not inside supervise()) so algorithm overrides that call
    // the base sweep are counted once per tick, not nested.
    const obs::ScopedTimer probe(obs::Probe::kSupervise);
    supervise();
  });
}

void CoordinationAlgorithm::refresh_lease(std::size_t index) {
  if (!ft_active_) return;
  const auto now = ctx_.simulator->now();
  const double interval = now - lease_[index];
  if (interval > 0.0) {
    // EWMA of the observed inter-refresh cadence (auto-tuned lease windows).
    cadence_ewma_[index] = 0.75 * cadence_ewma_[index] + 0.25 * interval;
  }
  lease_[index] = now;
}

double CoordinationAlgorithm::effective_lease_window(std::size_t index) const {
  const auto& faults = config().robot_faults;
  if (!faults.lease_auto_tune) return faults.lease_window();
  return std::clamp(faults.lease_multiplier * cadence_ewma_[index],
                    2.0 * faults.heartbeat_period, faults.lease_window());
}

robot::RobotNode* CoordinationAlgorithm::closest_live_robot(geometry::Vec2 pos) {
  const obs::ScopedTimer probe(obs::Probe::kClosestLiveRobot);
  // The mobile grid holds every robot, dead ones too, where it stands.
  // nearest_euclid compares fl(sqrt(d2)) with ties to the lowest id, hence
  // the lowest index — an ascending scan with strict < over
  // geometry::distance(), even at ULP-coincident distances.
  const auto best = ctx_.medium->mobile_grid().nearest_euclid(pos, [this](NodeId id) {
    const std::size_t i = robot_index(id);
    return i < robot_count() && !presumed_dead(i);
  });
  return best ? &robot_at(robot_index(*best)) : nullptr;
}

std::optional<std::size_t> CoordinationAlgorithm::nearest_robot_index(
    geometry::Vec2 pos) {
  // d2 key, ties to the lowest id, hence the lowest index.
  const auto best = ctx_.medium->mobile_grid().nearest(
      pos, [this](NodeId id) { return robot_index(id) < robot_count(); });
  if (!best) return std::nullopt;
  return robot_index(*best);
}

void CoordinationAlgorithm::supervise() {
  const auto now = ctx_.simulator->now();
  const auto& faults = config().robot_faults;
  // Batched sweep: the smallest window any live robot could be held to
  // (auto-tune clamps to >= 2 heartbeats; fixed windows are uniform).
  // Every live lease is >= lease_floor_, so while the floor itself is
  // within that window no lease can have expired — skip the scan.
  const double min_window =
      faults.lease_auto_tune
          ? std::min(2.0 * faults.heartbeat_period, faults.lease_window())
          : faults.lease_window();
  if (now - lease_floor_ <= min_window) return;
  sim::SimTime floor = sim::kNever;
  for (std::size_t i = 0; i < robot_count(); ++i) {
    if (presumed_dead_[i]) continue;
    const double window = effective_lease_window(i);
    if (now - lease_[i] <= window) {
      floor = std::min(floor, lease_[i]);
      continue;
    }
    presumed_dead_[i] = true;
    emit({.time = now, .kind = obs::Kind::kLeaseExpiry, .node = robot_at(i).id()});
    // Clamped to >= 0: at the boundary sweep the raw difference is a
    // negative epsilon, which printed as "-0s ago" and broke trace greps.
    const double overdue = std::max(0.0, now - lease_[i] - window);
    trace::Logger::global().logf(
        trace::Level::kInfo, now, "fault",
        "robot %u presumed dead (lease expired %.0fs ago, window %.0fs)",
        robot_at(i).id(), overdue, window);
    on_robot_presumed_dead(i);
  }
  lease_floor_ = floor;
}

bool CoordinationAlgorithm::relay_adds_coverage(const wsn::SensorNode& sensor,
                                                NodeId from) const {
  const auto origin = sensor.table().position_of(from);
  if (!origin) return true;  // unknown transmitter: relay conservatively
  const double range = config().field.sensor_tx_range;
  for (const auto& e : sensor.table().entries()) {
    if (e.id == from) continue;
    if (geometry::distance(e.pos, *origin) > range &&
        geometry::distance(e.pos, sensor.position()) <= range) {
      return true;  // this neighbor missed the heard transmission
    }
  }
  return false;
}

std::unique_ptr<CoordinationAlgorithm> make_algorithm(const SimulationConfig& config) {
  switch (config.algorithm) {
    case Algorithm::kCentralized:
      return std::make_unique<CentralizedAlgorithm>();
    case Algorithm::kFixedDistributed:
      return std::make_unique<FixedDistributedAlgorithm>();
    case Algorithm::kDynamicDistributed:
      return std::make_unique<DynamicDistributedAlgorithm>();
  }
  throw std::invalid_argument("make_algorithm: unknown algorithm");
}

}  // namespace sensrep::core
