#include "robot/robot.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "trace/log.hpp"

namespace sensrep::robot {

using geometry::Vec2;
using net::NodeId;
using net::Packet;

RobotNode::RobotNode(NodeId id, Vec2 pos, const Config& config, sim::Simulator& simulator,
                     net::Medium& medium, wsn::SensorField& field, RobotPolicy& policy)
    : id_(id),
      pos_(pos),
      config_(config),
      sim_(&simulator),
      medium_(&medium),
      field_(&field),
      policy_(&policy),
      router_(id, medium, table_, pos_),
      spares_(config.spares) {
  if (config.speed <= 0.0) throw std::invalid_argument("RobotNode: speed must be positive");
  if (config.update_threshold <= 0.0) {
    throw std::invalid_argument("RobotNode: update_threshold must be positive");
  }
  medium_->attach(id_, pos_, config_.tx_range,
                  [this](const Packet& pkt, NodeId from) { on_packet(pkt, from); },
                  net::Mobility::kMobile);
}

void RobotNode::refresh_neighbor_table() {
  table_.clear();
  for (const NodeId n : medium_->nodes_near(pos_, config_.tx_range)) {
    if (n == id_) continue;
    table_.upsert(n, medium_->position_of(n));
  }
}

void RobotNode::on_packet(const Packet& pkt, NodeId from) {
  if (failed_) return;  // dead radio (the medium already drops RX; belt & braces)
  // Floods and one-hop announces (broadcast dst) are sensor-side traffic;
  // only geo-routed unicasts concern the robot's router.
  if (pkt.dst == net::kBroadcastId) return;
  refresh_neighbor_table();
  if (router_.on_receive(pkt, from)) policy_->on_robot_packet(*this, pkt);
}

void RobotNode::start_heartbeat(double period) {
  if (heartbeat_event_.valid() || failed_) return;
  heartbeat_event_ = sim_->every(period, [this] {
    policy_->on_robot_location_update(*this);
  });
}

std::size_t RobotNode::fail() {
  if (failed_) return 0;
  failed_ = true;
  std::size_t lost = current_ && !init_drive_ ? 1 : 0;
  // The in-flight task is stranded until redispatch (or never).
  if (lost != 0) emit_task(obs::Kind::kTaskStranded, *current_, task_travel_);
  while (const auto dropped = queue_.pop()) {
    ++lost;
    emit_task(obs::Kind::kTaskOrphaned, *dropped);
  }
  current_.reset();
  reloading_ = false;
  init_drive_ = false;
  if (move_event_.valid()) {
    sim_->cancel(move_event_);
    move_event_ = {};
  }
  if (heartbeat_event_.valid()) {
    sim_->cancel(heartbeat_event_);
    heartbeat_event_ = {};
  }
  medium_->set_alive(id_, false);
  trace::Logger::global().logf(trace::Level::kInfo, sim_->now(), "robot",
                               "robot %u failed; %zu queued task(s) lost", id_, lost);
  return lost;
}

void RobotNode::repair() {
  if (!failed_) return;
  failed_ = false;
  if (config_.depot) {
    pos_ = *config_.depot;
    spares_ = config_.spares;  // the repair happened at the depot: restocked
    medium_->set_position(id_, pos_);
  }
  medium_->set_alive(id_, true);
  refresh_neighbor_table();
  trace::Logger::global().logf(trace::Level::kInfo, sim_->now(), "robot",
                               "robot %u repaired; back in service at (%.0f, %.0f)", id_,
                               pos_.x, pos_.y);
  policy_->on_robot_repaired(*this);
}

void RobotNode::enqueue(const RepairTask& task) {
  if (failed_) return;  // dead robots accept no work
  if ((current_ && current_->slot == task.slot) || queue_.contains_slot(task.slot)) {
    return;  // already being handled
  }
  if (task.failure_id != 0) {
    auto& rec = field_->failure_log().at(task.failure_id - 1);
    if (!sim::is_valid_time(rec.dispatched_at)) rec.dispatched_at = sim_->now();
  }
  emit_task(obs::Kind::kTaskQueued, task);
  queue_.push(task);
  if (!current_) start_next_task();
}

void RobotNode::teleport(Vec2 pos) {
  if (busy()) throw std::logic_error("RobotNode::teleport: robot is busy");
  pos_ = pos;
  medium_->set_position(id_, pos_);
  refresh_neighbor_table();
}

void RobotNode::drive_to(Vec2 pos) {
  if (failed_) return;
  if (busy()) throw std::logic_error("RobotNode::drive_to: robot is busy");
  current_ = RepairTask{net::kNoNode, pos, 0, sim_->now()};
  init_drive_ = true;
  task_travel_ = 0.0;
  begin_leg_to(pos);
}

void RobotNode::start_next_task() {
  assert(!current_);
  const auto next = queue_.pop();
  if (!next) {
    policy_->on_robot_idle(*this);
    return;
  }
  current_ = *next;
  task_travel_ = 0.0;
  if (spares_ == 0 && !config_.depot) {
    ++orphaned_tasks_;  // surfaced as the orphaned_tasks result metric
    trace::Logger::global().logf(trace::Level::kWarn, sim_->now(), "robot",
                                 "robot %u has no spares and no depot; dropping task for %u",
                                 id_, current_->slot);
    emit_task(obs::Kind::kTaskOrphaned, *current_);
    current_.reset();
    start_next_task();
    return;
  }
  emit_task(obs::Kind::kTaskStarted, *current_);
  // Out of spares: detour to the depot first (reload happens on arrival).
  reloading_ = spares_ == 0;
  begin_leg_to(reloading_ ? *config_.depot : current_->location);
}

void RobotNode::emit_task(obs::Kind kind, const RepairTask& task,
                          std::optional<double> value) const {
  field_->events().emit({.time = sim_->now(), .kind = kind, .node = task.slot,
                         .actor = id_, .value = value, .failure_id = task.failure_id});
}

void RobotNode::begin_leg_to(Vec2 target) {
  target_ = target;
  step_movement();
}

void RobotNode::step_movement() {
  const double remaining = geometry::distance(pos_, target_);
  if (remaining <= 1e-9) {
    arrive();
    return;
  }
  const double step = std::min(config_.update_threshold, remaining);
  const Vec2 next = pos_ + geometry::normalized(target_ - pos_) * step;
  move_event_ = sim_->in(step / config_.speed, [this, next, step] {
    pos_ = next;
    medium_->set_position(id_, pos_);
    odometer_ += step;
    task_travel_ += step;
    refresh_neighbor_table();
    // Every threshold crossing emits the algorithm's location updates
    // (paper §3.1/§4.2); arrival emits too, via the same path.
    policy_->on_robot_location_update(*this);
    step_movement();
  });
}

void RobotNode::arrive() {
  assert(current_);
  if (reloading_) {
    reloading_ = false;
    spares_ = config_.spares;  // full restock at the depot
    begin_leg_to(current_->location);
    return;
  }
  const RepairTask task = *current_;
  if (init_drive_) {
    init_drive_ = false;
    current_.reset();
    start_next_task();
    return;
  }
  // The travel span closes on any arrival, including the duplicate-dispatch
  // one below: the robot drove either way, and leaving the span open would
  // misreport finished work as orphaned.
  emit_task(obs::Kind::kTaskArrived, task, task_travel_);
  // Duplicate dispatch (two watchers reported to two robots): whoever
  // arrives second finds the slot already alive and keeps its spare.
  if (field_->node(task.slot).alive()) {
    current_.reset();
    start_next_task();
    return;
  }
  // Unload a functional unit into the failed slot.
  if (spares_ != std::numeric_limits<std::size_t>::max()) {
    assert(spares_ > 0);
    --spares_;
  }
  if (task.failure_id != 0) {
    field_->failure_log().at(task.failure_id - 1).travel_distance = task_travel_;
  }
  field_->replace_slot(task.slot, id_);
  ++repairs_done_;
  current_.reset();
  last_completed_ = task;
  policy_->on_robot_task_complete(*this);
  start_next_task();
}

}  // namespace sensrep::robot
