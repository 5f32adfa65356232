#include "wsn/sensor_node.hpp"

#include <algorithm>
#include <limits>

#include "trace/log.hpp"
#include "wsn/sensor_field.hpp"

namespace sensrep::wsn {

using geometry::Vec2;
using net::kBroadcastId;
using net::kNoNode;
using net::NodeId;
using net::Packet;
using net::PacketType;

SensorNode::SensorNode(NodeId id, Vec2 pos, SensorField& field)
    : id_(id), pos_(pos), field_(&field), router_(id, field.medium(), table_, pos_) {}

void SensorNode::add_guardee(NodeId id) {
  if (std::find(guardees_.begin(), guardees_.end(), id) == guardees_.end()) {
    guardees_.push_back(id);
  }
}

void SensorNode::remove_guardee(NodeId id) {
  guardees_.erase(std::remove(guardees_.begin(), guardees_.end(), id), guardees_.end());
}

namespace {

/// First entry with id >= robot (the table is sorted by id).
template <typename Vec>
auto robot_lower_bound(Vec& v, NodeId robot) {
  return std::lower_bound(v.begin(), v.end(), robot,
                          [](const KnownRobot& e, NodeId id) { return e.id < id; });
}

}  // namespace

bool SensorNode::learn_robot(NodeId robot, Vec2 loc, std::uint32_t seq) {
  auto it = robot_lower_bound(known_robots_, robot);
  const bool known = it != known_robots_.end() && it->id == robot;
  const bool fresh = !known || seq > it->info.seq;
  if (fresh) {
    const auto now = field_->simulator().now();
    if (known) {
      it->info = RobotKnowledge{loc, seq, now};
    } else {
      known_robots_.insert(it, KnownRobot{robot, RobotKnowledge{loc, seq, now}});
    }
    robots_heard_floor_ = std::min(robots_heard_floor_, now);
    // Keep the routing table's robot entry in sync: the robot is a usable
    // next hop only while inside this sensor's own transmission range.
    if (geometry::distance(pos_, loc) <= field_->config().sensor_tx_range) {
      table_.upsert(robot, loc);
    } else {
      table_.remove(robot);
    }
  }
  return fresh;
}

const RobotKnowledge* SensorNode::find_robot(NodeId robot) const {
  auto it = robot_lower_bound(known_robots_, robot);
  return it != known_robots_.end() && it->id == robot ? &it->info : nullptr;
}

std::optional<NodeId> SensorNode::closest_known_robot() const {
  // Ascending-id scan: on a distance tie the lowest id wins, exactly the
  // comparator the unordered predecessor implemented order-independently.
  std::optional<NodeId> best;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (const KnownRobot& kr : known_robots_) {
    const double d2 = geometry::distance2(pos_, kr.info.location);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = kr.id;
    }
  }
  return best;
}

bool SensorNode::already_relayed(NodeId robot, std::uint32_t seq) const {
  auto it = relayed_seq_.find(robot);
  return it != relayed_seq_.end() && it->second >= seq;
}

void SensorNode::mark_relayed(NodeId robot, std::uint32_t seq) {
  auto& slot = relayed_seq_[robot];
  slot = std::max(slot, seq);
}

void SensorNode::relay(const Packet& pkt) { field_->medium().broadcast(id_, pkt); }

void SensorNode::fail() {
  if (!alive_) return;
  alive_ = false;
  if (tick_timer_.valid()) {
    field_->simulator().cancel(tick_timer_);
    tick_timer_ = {};
  }
  // The dead unit's protocol state dies with it; the slot id survives.
  guardian_ = kNoNode;
  guardees_.clear();
  myrobot_ = kNoNode;
  known_robots_.clear();
  robots_heard_floor_ = sim::kNever;
  relayed_seq_.clear();
  watch_reported_.clear();
  heard_.clear();
  for (auto& [failed, pending] : pending_reports_) {
    field_->simulator().cancel(pending.retry_timer);
  }
  pending_reports_.clear();
  reported_pending_.clear();
  table_.clear();
}

void SensorNode::revive() {
  alive_ = true;
  ++incarnation_;
  field_->last_beacon_[id_] = field_->simulator().now();  // beacons from power-on
}

bool SensorNode::neighbor_is_stale(NodeId id) const {
  sim::SimTime last;
  if (field_->config().materialize_beacons) {
    // Honest mode: judged from the beacons this node actually received.
    const auto it = heard_.find(id);
    last = it == heard_.end() ? -sim::kNever : it->second;
  } else {
    // Analytic mode (DESIGN.md substitution 3): a neighbor's own beacon
    // timestamp is what a receiver in range would have heard.
    last = field_->last_beacon(id);
  }
  return last + field_->staleness_window() < field_->simulator().now();
}

void SensorNode::choose_guardian() {
  if (guardian_ != kNoNode || !alive_) return;
  // Candidates: fresh sensor neighbors, nearest first (paper §3.1: "picks its
  // nearest neighbor as its guardian"). Freshness is judged by the beacons
  // this node has heard — a recently-dead neighbor can legitimately be
  // picked and will be replaced at the next staleness check.
  std::vector<routing::NeighborEntry> candidates;
  for (const auto& e : table_.entries()) {
    if (!field_->is_sensor(e.id)) continue;  // robots are not guardians
    if (neighbor_is_stale(e.id)) continue;
    candidates.push_back(e);
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](const routing::NeighborEntry& a, const routing::NeighborEntry& b) {
              const double da = geometry::distance2(a.pos, pos_);
              const double db = geometry::distance2(b.pos, pos_);
              return da != db ? da < db : a.id < b.id;
            });
  for (const auto& cand : candidates) {
    Packet confirm;
    confirm.type = PacketType::kGuardianConfirm;
    confirm.src = id_;
    confirm.dst = cand.id;
    confirm.dst_location = cand.pos;
    confirm.payload = net::GuardianConfirmPayload{id_};
    if (field_->medium().unicast(id_, cand.id, confirm)) {
      guardian_ = cand.id;
      return;
    }
    table_.remove(cand.id);  // link dead: neighbor is gone
  }
  // No viable guardian: stay unguarded; tick() retries every period.
}

void SensorNode::tick() {
  if (!alive_) return;
  if (field_->config().materialize_beacons) {
    Packet beacon;
    beacon.type = PacketType::kBeacon;
    beacon.src = id_;
    beacon.dst = kBroadcastId;
    beacon.payload = net::BeaconPayload{pos_};
    field_->medium().broadcast(id_, beacon);  // counted by the medium
  } else {
    field_->medium().account(metrics::MessageCategory::kBeacon);
  }
  field_->last_beacon_[id_] = field_->simulator().now();

  // Honest mode: staleness also evicts silent neighbors from the routing
  // table locally (analytic mode schedules this at the field level).
  if (field_->config().materialize_beacons) {
    std::vector<NodeId> stale;
    for (const auto& e : table_.entries()) {
      if (field_->is_sensor(e.id) && neighbor_is_stale(e.id)) stale.push_back(e.id);
    }
    for (const NodeId id : stale) table_.remove(id);
  }

  // Guardee side: has my guardian gone silent? Re-pick if so (paper §3.1).
  if (guardian_ != kNoNode && neighbor_is_stale(guardian_)) {
    table_.remove(guardian_);
    guardian_ = kNoNode;
  }
  if (guardian_ == kNoNode) choose_guardian();

  // Guardian side: declare failed any guardee silent for the window.
  std::vector<NodeId> failed;
  for (const NodeId e : guardees_) {
    if (neighbor_is_stale(e)) failed.push_back(e);
  }
  for (const NodeId e : failed) {
    remove_guardee(e);
    report_guardee_failure(e);
  }

  // Robot fault tolerance: age out robots gone silent and re-send reports
  // for failures still unrepaired (both no-ops unless configured).
  const auto now = field_->simulator().now();
  if (field_->robot_lease_window() > 0.0) {
    age_robot_knowledge(now);
    rereport_stale_failures(now);
  }

  // Neighborhood watch (extension; see FieldConfig::neighborhood_watch):
  // report any silent static neighbor, once per silence episode. The
  // guardee path above already reported its subset this tick; the
  // watch_reported_ stamp below keeps this loop from repeating those.
  if (field_->config().neighborhood_watch) {
    for (const NodeId m : field_->static_neighbors(id_)) {
      if (!neighbor_is_stale(m)) continue;
      const sim::SimTime silent_since = field_->last_beacon(m);
      auto it = watch_reported_.find(m);
      if (it != watch_reported_.end() && it->second == silent_since) continue;
      watch_reported_[m] = silent_since;
      // Avoid double-reporting a neighbor the guardee path just handled.
      if (std::find(failed.begin(), failed.end(), m) != failed.end()) continue;
      report_guardee_failure(m);
    }
  }
}

void SensorNode::age_robot_knowledge(sim::SimTime now) {
  const double window = field_->robot_lease_window();
  // Batched aging: robots_heard_floor_ is a lower bound on
  // every entry's heard_at, so while the *oldest possible* entry is still
  // inside the window the scan can expire nothing — skip it. heard_at only
  // rises between scans, which keeps the bound conservative; a full scan
  // re-tightens it to the exact minimum.
  if (robots_heard_floor_ + window >= now) return;
  bool dropped_myrobot = false;
  sim::SimTime floor = sim::kNever;
  // In-place compaction over the flat table: one contiguous pass, keeping
  // survivors in id order.
  std::size_t keep = 0;
  for (KnownRobot& kr : known_robots_) {
    if (kr.info.heard_at + window < now) {
      if (kr.id == myrobot_) {
        myrobot_ = kNoNode;
        dropped_myrobot = true;
      }
      table_.remove(kr.id);
    } else {
      floor = std::min(floor, kr.info.heard_at);
      known_robots_[keep++] = kr;
    }
  }
  known_robots_.resize(keep);
  robots_heard_floor_ = floor;
  // Re-pick among the robots still believed alive (the dynamic algorithm's
  // "re-report to the next-closest robot" behavior; harmless elsewhere).
  if (dropped_myrobot) {
    if (const auto closest = closest_known_robot()) myrobot_ = *closest;
  }
}

void SensorNode::rereport_stale_failures(sim::SimTime now) {
  const double period = field_->robot_lease_window();
  std::vector<NodeId> due;
  for (auto it = reported_pending_.begin(); it != reported_pending_.end();) {
    if (!field_->open_failure(it->first)) {
      it = reported_pending_.erase(it);  // repaired; done nagging
    } else {
      if (it->second + period <= now) due.push_back(it->first);
      ++it;
    }
  }
  // The re-report resolves report_target() afresh, so it follows manager
  // failover, subarea adoption, and myrobot re-picks automatically.
  for (const NodeId slot : due) report_guardee_failure(slot);
}

void SensorNode::report_guardee_failure(NodeId failed) {
  field_->record_detection(failed);
  if (field_->robot_lease_window() > 0.0) {
    reported_pending_[failed] = field_->simulator().now();
  }
  const auto target = field_->policy().report_target(*this);
  if (!target || target->manager == kNoNode) {
    field_->note_unreported(failed);
    return;
  }
  Packet pkt;
  pkt.type = PacketType::kFailureReport;
  pkt.dst = target->manager;
  pkt.dst_location = target->location;
  // The router stamps every (re)transmission with a fresh originator-scoped
  // seq: receivers drop exact copies (link duplication) but process retries
  // and re-reports. The router lives with the slot, so a replacement unit
  // never reuses its predecessor's numbers.
  net::FailureReportPayload body;
  body.failed_node = failed;
  body.failed_location = field_->node(failed).position();
  const auto fid = field_->open_failure(failed);
  body.failure_id = fid ? *fid + 1 : 0;  // 0 = untagged
  body.reporter_location = pos_;
  pkt.payload = body;
  router_.send(std::move(pkt));

  if (field_->config().reliable_reports) arm_report_retry(failed);
}

void SensorNode::arm_report_retry(NodeId failed) {
  auto& pending = pending_reports_[failed];
  // A periodic re-report may race an armed retry for the same slot; disarm
  // the stale timer so the two paths never double-fire.
  if (pending.retry_timer.valid()) field_->simulator().cancel(pending.retry_timer);
  // Exponential backoff: the k-th wait is timeout * 2^(k-1), so a congested
  // or bursty network sees geometrically decaying re-report pressure instead
  // of a fixed-rate hammer that keeps colliding with the same burst.
  const int backoff_exp = std::min(pending.attempts - 1, 20);  // cap the doubling
  const double delay = field_->config().report_retry_timeout *
                       static_cast<double>(1u << backoff_exp);
  pending.retry_timer = field_->simulator().in(delay, [this, failed] {
    auto it = pending_reports_.find(failed);
    if (it == pending_reports_.end() || !alive_) return;
    if (it->second.attempts > field_->config().report_retries) {
      pending_reports_.erase(it);  // give up; tracked by delivery ratio
      return;
    }
    const int attempts = it->second.attempts + 1;
    pending_reports_.erase(it);
    // Pre-seed the attempt count so the re-arm inside report_guardee_failure
    // sees it and scales the next backoff window.
    pending_reports_[failed].attempts = attempts;
    report_guardee_failure(failed);  // re-resolves the manager too
  });
}

void SensorNode::on_report_ack(NodeId failed) {
  auto it = pending_reports_.find(failed);
  if (it == pending_reports_.end()) return;
  field_->simulator().cancel(it->second.retry_timer);
  pending_reports_.erase(it);
}

void SensorNode::rebuild_neighbor_table() {
  if (!alive_) return;
  // Every alive static neighbor beacons within one period of our power-on;
  // collecting those beacons yields exactly this table (substitution 3).
  table_.clear();
  for (const NodeId m : field_->static_neighbors(id_)) {
    if (field_->slot_alive(m)) {
      table_.upsert(m, field_->node(m).position());
      // Honest mode: a full beacon period has elapsed, so every alive
      // neighbor has been heard once by now.
      if (field_->config().materialize_beacons) {
        heard_[m] = field_->simulator().now();
      }
    }
  }
  // myrobot bootstrap: the new unit asks its nearest alive neighbor for the
  // current manager state (one query + one response, counted).
  auto nearest = table_.closest_to(pos_);
  while (nearest && !field_->is_sensor(nearest->id)) {
    table_.remove(nearest->id);  // cannot happen (table just rebuilt); guard
    nearest = table_.closest_to(pos_);
  }
  if (nearest) {
    field_->medium().account(metrics::MessageCategory::kReplacement, 2);
    const SensorNode& mentor = field_->node(nearest->id);
    known_robots_ = mentor.known_robots_;
    robots_heard_floor_ = mentor.robots_heard_floor_;
    myrobot_ = mentor.myrobot_;
  }
}

void SensorNode::on_packet(const Packet& pkt, NodeId from) {
  if (!alive_) return;
  switch (pkt.type) {
    case PacketType::kBeacon:
      // Only materialize_beacons mode delivers these frames.
      heard_[pkt.src] = field_->simulator().now();
      table_.upsert(pkt.src, std::get<net::BeaconPayload>(pkt.payload).location);
      break;
    case PacketType::kLocationAnnounce:
      table_.upsert(pkt.src, std::get<net::LocationAnnouncePayload>(pkt.payload).location);
      break;
    case PacketType::kReplacementAnnounce:
      table_.upsert(pkt.src,
                    std::get<net::ReplacementAnnouncePayload>(pkt.payload).location);
      break;
    case PacketType::kGuardianConfirm:
      if (pkt.dst == id_) add_guardee(pkt.src);
      break;
    case PacketType::kManagerHeartbeat:
      // Liveness flood seed from the (acting) manager: refresh its entry so
      // it stays usable as a forwarding hop.
      table_.upsert(pkt.src, std::get<net::ManagerHeartbeatPayload>(pkt.payload).location);
      break;
    case PacketType::kReportAck:
      if (router_.on_receive(pkt, from)) {
        on_report_ack(std::get<net::ReportAckPayload>(pkt.payload).failed_node);
      }
      break;
    case PacketType::kLocationUpdate:
      if (pkt.dst == kBroadcastId) {
        field_->policy().on_location_update(*this, pkt, from);
        break;
      }
      [[fallthrough]];
    case PacketType::kFailureReport:
    case PacketType::kRepairRequest:
    case PacketType::kData:
    case PacketType::kTaskComplete:
    case PacketType::kElection:
    case PacketType::kElectionAck:
    case PacketType::kOwnershipTransfer:
      // Geo-routed unicasts to managers and robots: sensors only forward
      // them. One that ends at a sensor was misrouted. Log, don't crash.
      if (router_.on_receive(pkt, from)) {
        trace::Logger::global().logf(trace::Level::kDebug, field_->simulator().now(), "wsn",
                                     "sensor %u received stray %s", id_,
                                     std::string(net::to_string(pkt.type)).c_str());
      }
      break;
  }
}

}  // namespace sensrep::wsn
