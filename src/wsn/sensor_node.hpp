#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "geometry/vec2.hpp"
#include "net/node_id.hpp"
#include "net/packet.hpp"
#include "routing/geo_router.hpp"
#include "routing/neighbor_table.hpp"
#include "sim/time.hpp"
#include "wsn/sensor_policy.hpp"

namespace sensrep::wsn {

class SensorField;

/// What a sensor knows about one robot (from location-update broadcasts).
struct RobotKnowledge {
  geometry::Vec2 location;
  std::uint32_t seq = 0;
  sim::SimTime heard_at = 0.0;  // when fresh knowledge last arrived (aging)
};

/// One entry of a sensor's robot-knowledge table. Stored as a flat vector
/// sorted by id: robot counts are tiny (4..1k), so binary search + contiguous
/// scans beat hashing, and the aging sweep walks one cache-friendly run.
struct KnownRobot {
  net::NodeId id = net::kNoNode;
  RobotKnowledge info;
};

/// One sensor slot: a deployed position that is occupied by a (possibly
/// replaced) sensor unit. The node id names the slot; replacement units keep
/// the id and bump `incarnation` (paper §2(d): replacements land at the same
/// location).
///
/// SensorNode implements the algorithm-independent mechanism:
///  * periodic beaconing (counted; see DESIGN.md substitution 3),
///  * guardian–guardee failure detection (3 missed beacons, paper §3.1),
///  * guardian re-selection when one's own guardian dies,
///  * geographic forwarding of reports/requests through its GeoRouter,
///  * robot-location bookkeeping and flood relaying, with the adopt/relay
///    decisions delegated to the simulation's SensorPolicy.
class SensorNode {
 public:
  SensorNode(net::NodeId id, geometry::Vec2 pos, SensorField& field);

  SensorNode(const SensorNode&) = delete;
  SensorNode& operator=(const SensorNode&) = delete;

  // --- identity & state -----------------------------------------------

  [[nodiscard]] net::NodeId id() const noexcept { return id_; }
  [[nodiscard]] geometry::Vec2 position() const noexcept { return pos_; }
  [[nodiscard]] bool alive() const noexcept { return alive_; }
  [[nodiscard]] std::uint32_t incarnation() const noexcept { return incarnation_; }

  [[nodiscard]] routing::NeighborTable& table() noexcept { return table_; }
  [[nodiscard]] const routing::NeighborTable& table() const noexcept { return table_; }
  [[nodiscard]] routing::GeoRouter& router() noexcept { return *router_; }

  [[nodiscard]] net::NodeId guardian() const noexcept { return guardian_; }
  [[nodiscard]] const std::vector<net::NodeId>& guardees() const noexcept { return guardees_; }
  void add_guardee(net::NodeId id);
  void remove_guardee(net::NodeId id);

  // --- robot knowledge (location service state) -------------------------

  [[nodiscard]] net::NodeId myrobot() const noexcept { return myrobot_; }
  void set_myrobot(net::NodeId robot) noexcept { myrobot_ = robot; }

  /// Records robot location knowledge if `seq` is fresh. Returns true when
  /// the knowledge was new (callers use this as the flood-dedup test for
  /// adoption; relaying has its own mark, see mark_relayed()).
  bool learn_robot(net::NodeId robot, geometry::Vec2 loc, std::uint32_t seq);

  [[nodiscard]] const RobotKnowledge* find_robot(net::NodeId robot) const;

  /// Known robot closest to this sensor (the dynamic algorithm's myrobot
  /// choice); nullopt when no robot is known.
  [[nodiscard]] std::optional<net::NodeId> closest_known_robot() const;

  [[nodiscard]] bool already_relayed(net::NodeId robot, std::uint32_t seq) const;
  void mark_relayed(net::NodeId robot, std::uint32_t seq);

  /// Re-broadcasts a flood packet unchanged (relay step of the distributed
  /// location-update schemes).
  void relay(const net::Packet& pkt);

  // --- lifecycle (driven by SensorField) --------------------------------

  /// The unit dies: stops transmitting and receiving.
  void fail();

  /// A replacement unit powers on in this slot.
  void revive();

  /// One beacon period elapsed: emit beacon, run staleness checks on this
  /// node's guardian and guardees.
  void tick();

  /// Repopulates the neighbor table from the beacons a freshly powered unit
  /// hears during its first beacon period (SensorField schedules this one
  /// period after revive()).
  void rebuild_neighbor_table();

  /// Picks the nearest fresh sensor neighbor as guardian and confirms the
  /// relationship (one counted transmission). No-op if a guardian is set.
  void choose_guardian();

  // --- medium entry ------------------------------------------------------

  void on_packet(const net::Packet& pkt, net::NodeId from);

  /// Field-level staleness eviction (a neighbor stopped beaconing).
  void remove_neighbor(net::NodeId id) { table_.remove(id); }

 private:
  friend class SensorField;

  void report_guardee_failure(net::NodeId failed);
  /// Robot fault tolerance (SensorField::robot_lease_window): drops robots
  /// not heard from within the window and re-picks myrobot if it was one.
  void age_robot_knowledge(sim::SimTime now);
  /// Robot fault tolerance (SensorField::robot_lease_window): re-sends
  /// reports for failures that are still unrepaired.
  void rereport_stale_failures(sim::SimTime now);
  /// reliable_reports: schedules a retransmission unless acked first.
  void arm_report_retry(net::NodeId failed);
  /// reliable_reports: a kReportAck for `failed` reached this node.
  void on_report_ack(net::NodeId failed);
  [[nodiscard]] bool neighbor_is_stale(net::NodeId id) const;

  net::NodeId id_;
  geometry::Vec2 pos_;
  SensorField* field_;

  bool alive_ = true;
  std::uint32_t incarnation_ = 0;

  routing::NeighborTable table_;
  std::unique_ptr<routing::GeoRouter> router_;

  net::NodeId guardian_ = net::kNoNode;
  std::vector<net::NodeId> guardees_;

  net::NodeId myrobot_ = net::kNoNode;
  std::vector<KnownRobot> known_robots_;  // sorted by robot id
  // Lower bound on min(heard_at) over known_robots_ (+inf when empty).
  // Entries only get fresher between scans, so while floor + window >= now
  // nothing can have expired and age_robot_knowledge() may skip its scan
  // entirely (batched aging).
  sim::SimTime robots_heard_floor_ = sim::kNever;
  std::unordered_map<net::NodeId, std::uint32_t> relayed_seq_;
  // Neighborhood-watch dedup: the neighbor's last-beacon timestamp at the
  // time this node reported it. A changed timestamp means the neighbor came
  // back (was replaced) and its next silence is a new failure.
  std::unordered_map<net::NodeId, sim::SimTime> watch_reported_;
  // materialize_beacons mode only: when this node last *heard* each
  // neighbor's beacon (the honest per-receiver freshness state).
  std::unordered_map<net::NodeId, sim::SimTime> heard_;
  // reliable_reports mode: unacknowledged reports awaiting retransmission,
  // keyed by the failed node.
  struct PendingReport {
    sim::EventId retry_timer;
    int attempts = 1;
  };
  std::unordered_map<net::NodeId, PendingReport> pending_reports_;
  // Robot fault tolerance: failures this node reported that are not
  // yet repaired, keyed by slot -> time of the last report sent.
  std::unordered_map<net::NodeId, sim::SimTime> reported_pending_;
  // Originator-scoped sequence stamped on outgoing failure reports (receiver
  // duplication dedup). Monotonic across incarnations: never reset.
  std::uint32_t report_seq_ = 0;

  sim::EventId tick_timer_{};
};

}  // namespace sensrep::wsn
