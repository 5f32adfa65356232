#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "geometry/vec2.hpp"
#include "net/medium.hpp"
#include "net/packet.hpp"
#include "robot/task_queue.hpp"
#include "routing/geo_router.hpp"
#include "routing/neighbor_table.hpp"
#include "sim/simulator.hpp"
#include "wsn/sensor_field.hpp"

namespace sensrep::robot {

class RobotNode;

/// Algorithm-specific half of a robot's behavior (mirrors wsn::SensorPolicy).
///
/// The three coordination algorithms differ, on the robot side, in what a
/// location update is (unicast to the central manager / subarea flood /
/// Voronoi-scoped flood) and in who handles a delivered packet (forward to a
/// maintainer vs. enqueue locally as the subarea manager).
class RobotPolicy {
 public:
  virtual ~RobotPolicy() = default;

  /// The robot moved one update-threshold leg (or arrived): emit the
  /// algorithm's location updates now.
  virtual void on_robot_location_update(RobotNode& robot) = 0;

  /// A geo-routed packet was delivered to this robot.
  virtual void on_robot_packet(RobotNode& robot, const net::Packet& pkt) = 0;

  /// The robot finished a replacement (paper §2(c): "After replacing a
  /// failed node, the maintainer robot may need to update the manager or
  /// some sensors"). Default: nothing beyond the movement-leg updates.
  virtual void on_robot_task_complete(RobotNode& /*robot*/) {}

  /// The robot's queue drained (it is now idle). Policies may reposition it
  /// (drive_to) — the anticipatory-repositioning extension. Default: park.
  virtual void on_robot_idle(RobotNode& /*robot*/) {}

  /// The robot just died (fault injection): it has already stopped moving and
  /// dropped its queue. Ground-truth hook for bookkeeping only — recovery
  /// must wait for lease expiry, which is how the system *detects* the death.
  virtual void on_robot_failed(RobotNode& /*robot*/, std::size_t /*tasks_lost*/) {}

  /// The robot was repaired and rejoined service (MTTR model): its radio is
  /// back on and it is idle at its resurrection position. Policies restart
  /// the heartbeat and run the algorithm's rejoin path (re-admission,
  /// ownership return, reflood). Default: nothing.
  virtual void on_robot_repaired(RobotNode& /*robot*/) {}
};

/// A mobile maintainer: picks, carries, and unloads sensor units
/// (paper §1). Kinematic point robot at constant speed (Pioneer 3DX's 1 m/s),
/// with the paper's on-demand mobility model: it moves only when tasked.
///
/// While driving, it emits location updates every `update_threshold` meters
/// (20 m — under one third of the sensors' 63 m range, paper §4.2) through
/// its RobotPolicy. Tasks are served FCFS.
class RobotNode {
 public:
  struct Config {
    double speed = 1.0;             // m/s
    double tx_range = 250.0;        // robot/manager radio range, m
    double update_threshold = 20.0; // location-update distance, m
    /// Carried spare units; infinite by default (the paper does not model
    /// restocking). With finite spares set `depot`: the robot drives there
    /// to reload when empty.
    std::size_t spares = std::numeric_limits<std::size_t>::max();
    std::optional<geometry::Vec2> depot;
  };

  RobotNode(net::NodeId id, geometry::Vec2 pos, const Config& config,
            sim::Simulator& simulator, net::Medium& medium, wsn::SensorField& field,
            RobotPolicy& policy);

  RobotNode(const RobotNode&) = delete;
  RobotNode& operator=(const RobotNode&) = delete;

  // --- state ---------------------------------------------------------------

  [[nodiscard]] net::NodeId id() const noexcept { return id_; }
  [[nodiscard]] geometry::Vec2 position() const noexcept { return pos_; }
  [[nodiscard]] bool busy() const noexcept { return current_.has_value(); }
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  [[nodiscard]] const TaskQueue& queue() const noexcept { return queue_; }
  [[nodiscard]] double odometer() const noexcept { return odometer_; }
  [[nodiscard]] std::size_t repairs_done() const noexcept { return repairs_done_; }
  [[nodiscard]] std::size_t spares_left() const noexcept { return spares_; }

  /// Tasks this robot dropped because it had no spare and no depot (the
  /// formerly-silent drop in start_next_task; surfaced as `orphaned_tasks`).
  [[nodiscard]] std::size_t orphaned_tasks() const noexcept { return orphaned_tasks_; }

  /// Most recently completed repair (nullptr before the first). Set just
  /// before the on_robot_task_complete hook, so policies can learn which
  /// task finished (kTaskComplete needs the failure id).
  [[nodiscard]] const RepairTask* last_completed() const noexcept {
    return last_completed_ ? &*last_completed_ : nullptr;
  }
  [[nodiscard]] routing::GeoRouter& router() noexcept { return router_; }
  [[nodiscard]] routing::NeighborTable& table() noexcept { return table_; }

  /// Monotone sequence for this robot's location updates (flood dedup).
  [[nodiscard]] std::uint32_t next_update_seq() noexcept { return ++update_seq_; }
  [[nodiscard]] std::uint32_t current_update_seq() const noexcept { return update_seq_; }

  // --- control ---------------------------------------------------------------

  /// Accepts a replacement job (from a manager — possibly this robot itself
  /// in the distributed algorithms). Records dispatch metrics; duplicate
  /// slots already queued or being served are ignored.
  void enqueue(const RepairTask& task);

  /// Instantly relocates an idle robot (initialization: the fixed algorithm
  /// sends robots to their subarea centers before time starts; also tests).
  /// Throws if the robot is busy.
  void teleport(geometry::Vec2 pos);

  /// Drives an idle robot to `pos` (counted movement, emits location
  /// updates); used by the fixed algorithm's initialization when measuring
  /// init motion. No replacement happens on arrival.
  void drive_to(geometry::Vec2 pos);

  /// Refreshes the neighbor table from the medium (alive nodes within this
  /// robot's own TX range). See DESIGN.md: robot-side neighbor discovery is
  /// abstracted as an oracle over the robot's 250 m range.
  void refresh_neighbor_table();

  /// Medium receive entry.
  void on_packet(const net::Packet& pkt, net::NodeId from);

  /// Starts the periodic liveness heartbeat (robot fault tolerance): every
  /// `period` seconds the policy's on_robot_location_update fires as if the
  /// robot had crossed a movement threshold, so a parked robot keeps
  /// refreshing its lease. Stops permanently when the robot fails.
  void start_heartbeat(double period);

  /// Kills the robot (fault injection): cancels movement and heartbeats,
  /// detaches from the radio medium, and drops the current task plus the
  /// whole queue. Returns the number of tasks lost (served FCFS no more).
  /// Idempotent; a failed robot ignores enqueue/drive_to/packets.
  std::size_t fail();

  /// Resurrects a failed robot (MTTR model): the repaired unit comes back
  /// into service at its depot (if configured — the repair happened there,
  /// so spares are also restocked) or in place at its park position. The
  /// radio comes back up and the neighbor table is rebuilt; the policy's
  /// on_robot_repaired hook restarts heartbeats and runs the algorithm's
  /// rejoin path. Idempotent: a live robot ignores repair().
  void repair();

 private:
  void start_next_task();
  void step_movement();
  void arrive();
  void begin_leg_to(geometry::Vec2 target);
  /// Emits a task-stage transition (a span-only domain kind) for `task`.
  void emit_task(obs::Kind kind, const RepairTask& task,
                 std::optional<double> value = std::nullopt) const;

  net::NodeId id_;
  geometry::Vec2 pos_;
  Config config_;
  sim::Simulator* sim_;
  net::Medium* medium_;
  wsn::SensorField* field_;
  RobotPolicy* policy_;

  routing::NeighborTable table_;
  routing::GeoRouter router_;

  TaskQueue queue_;
  std::optional<RepairTask> current_;
  std::optional<RepairTask> last_completed_;
  geometry::Vec2 target_;
  bool reloading_ = false;   // current drive is a depot run
  bool init_drive_ = false;  // current drive is an init reposition
  double task_travel_ = 0.0;
  double odometer_ = 0.0;
  std::size_t spares_;
  std::size_t repairs_done_ = 0;
  std::size_t orphaned_tasks_ = 0;
  std::uint32_t update_seq_ = 0;
  bool failed_ = false;
  sim::EventId move_event_{};
  sim::EventId heartbeat_event_{};
};

}  // namespace sensrep::robot
