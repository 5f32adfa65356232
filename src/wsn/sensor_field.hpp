#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "geometry/rect.hpp"
#include "metrics/counters.hpp"
#include "obs/domain.hpp"
#include "metrics/failure_log.hpp"
#include "net/medium.hpp"
#include "routing/neighbor_table.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "wsn/failure_model.hpp"
#include "wsn/sensor_node.hpp"
#include "wsn/sensor_policy.hpp"

namespace sensrep::wsn {

/// Field-level knobs (paper §4.1 defaults).
struct FieldConfig {
  double sensor_tx_range = 63.0;   // sensors transmit 63 m to save power
  double beacon_period = 10.0;     // failure-detection beacon period, seconds
  int stale_beacon_count = 3;      // missed beacons before declaring failure
  LifetimeModel lifetime{};        // unit lifetime distribution (paper: Exp(T))
  bool spontaneous_failures = true;  // false: only explicit fail_slot() calls

  /// Validation mode: materialize every beacon as a real broadcast frame and
  /// drive neighbor-freshness from what each node actually *heard*, instead
  /// of the analytic shortcut of DESIGN.md substitution 3. Roughly 15x the
  /// event count at paper densities; the equivalence test
  /// (BeaconEquivalence.*) runs both modes and checks the observable
  /// behavior matches. Off in production runs.
  bool materialize_beacons = false;

  /// Extension: end-to-end reliable failure reports. The manager
  /// acknowledges each report (kReportAck, geo-routed back to the reporter);
  /// an unacknowledged report is retransmitted up to report_retries times,
  /// report_retry_timeout seconds apart. Recovers reports lost to packet
  /// loss or transient routing voids (E7 companion). Off by default — the
  /// paper assumes a clean channel.
  bool reliable_reports = false;
  int report_retries = 3;
  double report_retry_timeout = 5.0;

  /// Extension beyond the paper: every sensor watches *all* of its static
  /// neighbors, not just its confirmed guardees. The paper's guardian-guardee
  /// scheme assumes a guardian and its guardee rarely die together — true
  /// for independent wear-out, false for correlated (disaster) failures,
  /// where whole neighborhoods fall silent and nothing inside the hole is
  /// ever reported. Neighborhood watch trades duplicate reports (deduped at
  /// the robots) for detection that heals holes inward from the rim.
  bool neighborhood_watch = false;
};

/// The static sensor network: slots, their fixed adjacency, beacon/lifetime
/// clocks, failure bookkeeping and replacement mechanics.
///
/// Sensor node ids are dense [0, size()); robot/manager ids must be >= size()
/// (is_sensor() relies on this).
class SensorField {
 public:
  /// `robot_lease_window` > 0 arms robot fault tolerance on the sensor side:
  /// a sensor drops a robot it has not heard from for that long (stale
  /// `myrobot` aging), and a guardian re-reports a still-unrepaired failure
  /// that often, which routes repairs around dead robots because each
  /// re-report resolves the current manager/owner/closest robot. Simulation
  /// passes the robot lease window when the fault model is on, so sensor-side
  /// and manager-side beliefs expire together; 0 (the paper's robots never
  /// fail) disables both.
  SensorField(sim::Simulator& simulator, net::Medium& medium, SensorPolicy& policy,
              metrics::FailureLog& log, const FieldConfig& config, sim::Rng rng,
              double robot_lease_window = 0.0);
  ~SensorField();

  SensorField(const SensorField&) = delete;
  SensorField& operator=(const SensorField&) = delete;

  /// Creates one slot per position (ids 0..n-1) and attaches them to the
  /// medium. Call exactly once.
  void deploy(const std::vector<geometry::Vec2>& positions);

  /// Paper §3, initialization: every sensor broadcasts its location (counted)
  /// and establishes its guardian (confirmation messages are real unicasts).
  void initialize();

  /// Starts beacon/staleness ticks and the exponential lifetime clocks.
  void start();

  // --- topology & lookup --------------------------------------------------

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] bool is_sensor(net::NodeId id) const noexcept { return id < slots_.size(); }

  /// Slot ids within `range` of `center` (closed ball under the sqrt-based
  /// `distance(slot, center) <= range` test every call site has always
  /// used), in ascending id order. Answered from the medium's static grid.
  [[nodiscard]] std::vector<net::NodeId> slots_within(geometry::Vec2 center,
                                                      double range) const;
  [[nodiscard]] SensorNode& node(net::NodeId id);
  [[nodiscard]] const SensorNode& node(net::NodeId id) const;
  /// The sensors within sensor `id`'s TX range (closed ball d^2 <= r^2),
  /// dead ones included, in ascending id order: the sensor prefix of the
  /// medium's static receiver list. Valid until a static node is next
  /// attached, detached or moved on the medium.
  [[nodiscard]] std::span<const net::NodeId> static_neighbors(net::NodeId id) const;

  /// Timestamp of the node's most recent beacon; kNever for non-sensors.
  /// Reads a flat per-slot array (no SensorNode dereference) — this is the
  /// per-neighbor read inside every staleness check.
  [[nodiscard]] sim::SimTime last_beacon(net::NodeId id) const;

  /// Whether the slot's unit is alive; false for non-sensors.
  [[nodiscard]] bool slot_alive(net::NodeId id) const;

  /// Beacon-staleness window: stale_beacon_count * beacon_period.
  [[nodiscard]] double staleness_window() const noexcept {
    return static_cast<double>(config_.stale_beacon_count) * config_.beacon_period;
  }

  // --- shared services for nodes -------------------------------------------

  [[nodiscard]] sim::Simulator& simulator() noexcept { return *sim_; }
  [[nodiscard]] net::Medium& medium() noexcept { return *medium_; }
  [[nodiscard]] SensorPolicy& policy() noexcept { return *policy_; }
  [[nodiscard]] metrics::FailureLog& failure_log() noexcept { return *log_; }
  [[nodiscard]] const FieldConfig& config() const noexcept { return config_; }
  /// Robot fault tolerance's sensor-side window (see the constructor); 0 off.
  [[nodiscard]] double robot_lease_window() const noexcept { return robot_lease_window_; }

  /// The domain-event hook the field, the robots and the algorithm emit through.
  [[nodiscard]] obs::EventHook& events() noexcept { return events_; }

  // --- failure / replacement lifecycle -------------------------------------

  /// Kills a slot's unit now (lifetime clock or fault injection in tests).
  void fail_slot(net::NodeId slot);

  /// Robot `robot` unloads a functional unit into `slot` (paper: failure
  /// handling step 3). Announces the new unit, closes the failure record,
  /// restarts clocks and schedules neighbor-table/guardian re-establishment.
  void replace_slot(net::NodeId slot, net::NodeId robot);

  /// Metrics id of the open (unrepaired) failure on this slot, if any.
  [[nodiscard]] std::optional<metrics::FailureLog::FailureId> open_failure(
      net::NodeId slot) const;

  /// Records first detection of the slot's open failure.
  void record_detection(net::NodeId slot);

  /// A detection had no reachable manager; tracked for the delivery-ratio
  /// accounting (paper reports 100%; we verify).
  void note_unreported(net::NodeId slot);

  // --- diagnostics -----------------------------------------------------------

  [[nodiscard]] std::size_t alive_count() const noexcept;
  [[nodiscard]] std::size_t unreported_count() const noexcept { return unreported_; }
  [[nodiscard]] std::uint64_t router_drops() const noexcept;
  [[nodiscard]] std::size_t unguarded_count() const noexcept;

  /// Fraction of a uniform grid of sample points covered by >= 1 alive
  /// sensor with the given sensing radius (coverage-maintenance metric).
  [[nodiscard]] double coverage_fraction(const geometry::Rect& area, double sensing_radius,
                                         std::size_t grid_side = 64) const;

 private:
  friend class SensorNode;

  void activate_clocks(SensorNode& n);
  void schedule_lifetime(SensorNode& n);

  sim::Simulator* sim_;
  net::Medium* medium_;
  SensorPolicy* policy_;
  metrics::FailureLog* log_;
  FieldConfig config_;
  double robot_lease_window_;
  sim::Rng rng_;
  obs::EventHook events_;

  std::vector<std::unique_ptr<SensorNode>> slots_;
  /// Each slot's most recent beacon time, indexed by slot id (ids are
  /// dense), so staleness checks read one contiguous array instead of
  /// chasing per-node pointers. SensorNode::tick() and revive() write it.
  std::vector<sim::SimTime> last_beacon_;
  std::vector<std::optional<metrics::FailureLog::FailureId>> open_failure_;
  std::size_t unreported_ = 0;
};

}  // namespace sensrep::wsn
