#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "chaos/link_model.hpp"
#include "geometry/rect.hpp"
#include "geometry/vec2.hpp"
#include "metrics/counters.hpp"
#include "net/packet.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "spatial/uniform_grid.hpp"

namespace sensrep::net {

/// Radio / MAC parameters.
///
/// Stands in for GloMoSim's IEEE 802.11 stack (see DESIGN.md substitution 1):
/// unit-disk connectivity with per-transmitter range, serialization at the
/// nominal 11 Mbps bit-rate, uniform CSMA backoff jitter, and optional
/// Bernoulli loss with 802.11-style unicast retransmission.
struct RadioConfig {
  double bitrate_bps = 11e6;      // nominal 802.11b rate (paper §4.1)
  double max_backoff_s = 2e-3;    // CSMA contention jitter bound
  double propagation_s = 1e-6;    // ~300 m at light speed; effectively 0
  double loss_probability = 0.0;  // per-reception Bernoulli loss
  int unicast_retries = 3;        // extra attempts after a lost unicast

  /// Model collisions between overlapping *broadcast* frames at a receiver
  /// (two frames on air at once corrupt each other). Unicasts stay
  /// collision-free: 802.11 protects DATA with virtual carrier sense
  /// (RTS/CTS) and recovers residual losses with ARQ, which the
  /// loss_probability + unicast_retries knobs model. Off by default — the
  /// paper reports contention is negligible at its traffic load, and this
  /// flag exists to check that claim.
  bool model_collisions = false;

  /// Adversarial link behaviors (bursty loss, duplication, reorder jitter,
  /// partition windows). Inert by default; see chaos::ChaosConfig.
  chaos::ChaosConfig chaos;

  /// Throws std::invalid_argument on NaN / out-of-range probabilities,
  /// non-positive bitrate, negative delays/retries, or malformed chaos knobs.
  void validate() const;
};

/// Whether a transceiver moves. Declared at attach: sensors and the manager
/// are static, robots are mobile.
enum class Mobility : std::uint8_t { kStatic, kMobile };

/// The shared wireless medium.
///
/// Owns the ground-truth position/range/liveness of every transceiver and
/// performs packet delivery: a broadcast reaches every *alive* node within
/// the sender's transmission range; a unicast reaches only its target (with
/// link-layer ARQ under loss). Every radio send increments the per-category
/// transmission counter — the paper's messaging-overhead metric.
///
/// In-flight packets live in a pool of frames, each delivered by one
/// simulator event: a broadcast frame carries all of its surviving receivers,
/// so the queue holds one event per frame rather than one per receiver.
/// Frames whose receivers land at different instants or collide one by one
/// (collision model, chaos jitter or duplication) and unicasts are frames
/// with a single receiver, delivered by the same function.
///
/// Static transceivers never move, so each one's in-range static receivers
/// are kept as a precomputed list, built on first use and rebuilt after a
/// static node is attached, detached or moved. Mobile transceivers live in a
/// grid of their own. Liveness is a send-time filter, so failures and
/// replacements never touch a list. Const queries may build the lists or use
/// a scratch bitmap, so one Medium must not be queried from two threads.
class Medium {
 public:
  /// Called on packet reception: (packet, link-layer sender).
  using ReceiveFn = std::function<void(const Packet&, NodeId from)>;

  /// `bounds` is the field the transceivers live in and `cell_size_m` the
  /// spatial index's cell edge; the sensor TX range is a good choice. Nodes
  /// outside `bounds` are still indexed (clamped into the border cells) and
  /// reached exactly, only less cheaply. All references must outlive the
  /// medium.
  Medium(sim::Simulator& simulator, sim::Rng rng, RadioConfig config,
         geometry::Rect bounds, double cell_size_m);

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Registers a transceiver. `tx_range` is this node's transmission range.
  void attach(NodeId id, geometry::Vec2 pos, double tx_range, ReceiveFn rx,
              Mobility mobility = Mobility::kStatic);

  /// Unregisters a transceiver (node permanently removed, not just failed).
  void detach(NodeId id);

  /// Moves a transceiver (robots). A static node that moves is mobile from
  /// then on.
  void set_position(NodeId id, geometry::Vec2 pos);

  /// Marks a node dead (failed sensor: no TX, no RX) or alive again.
  void set_alive(NodeId id, bool alive);

  [[nodiscard]] bool attached(NodeId id) const noexcept;
  [[nodiscard]] bool alive(NodeId id) const;
  [[nodiscard]] geometry::Vec2 position_of(NodeId id) const;
  [[nodiscard]] double tx_range_of(NodeId id) const;

  /// True if `receiver` is within `sender`'s transmission range (asymmetric:
  /// the paper's robots transmit 250 m but sensors only 63 m).
  [[nodiscard]] bool in_range(NodeId sender, NodeId receiver) const;

  /// Alive nodes within the sender's TX range, excluding the sender,
  /// ascending id order.
  [[nodiscard]] std::vector<NodeId> neighbors_of(NodeId sender) const;

  /// Alive nodes within `radius` of `pos`, ascending id order. Throws
  /// std::invalid_argument on a negative or NaN radius.
  [[nodiscard]] std::vector<NodeId> nodes_near(geometry::Vec2 pos, double radius) const;

  /// The static nodes within static node `id`'s TX range, excluding `id`, in
  /// ascending id order, dead ones included. The span is valid until a
  /// static node is next attached, detached or moved. Throws
  /// std::invalid_argument for a mobile node.
  [[nodiscard]] std::span<const NodeId> static_receivers(NodeId id) const;

  /// The grid of static transceivers (sensors, the manager) and the grid of
  /// mobile ones (robots), always at their current positions, dead nodes
  /// included: the simulation's one spatial index of nodes.
  [[nodiscard]] const spatial::UniformGrid2D<NodeId>& static_grid() const noexcept {
    return static_index_;
  }
  [[nodiscard]] const spatial::UniformGrid2D<NodeId>& mobile_grid() const noexcept {
    return mobile_index_;
  }

  /// One-hop broadcast. Counts one transmission; draws loss and chaos per
  /// receiver now, and delivers to every surviving receiver still alive
  /// after serialization + backoff delay, in ascending id order.
  void broadcast(NodeId sender, Packet pkt);

  /// Link-layer unicast with ARQ. Counts one transmission per attempt.
  /// Returns true if the frame was accepted for delivery (target alive, in
  /// range, and not all attempts lost) — modeling the 802.11 ACK the sender
  /// observes synchronously at this abstraction level.
  bool unicast(NodeId sender, NodeId target, Packet pkt);

  /// Books transmissions that are modeled analytically rather than as
  /// delivered frames (beacons; see DESIGN.md substitution 3).
  void account(metrics::MessageCategory c, std::uint64_t n = 1) noexcept {
    counters().tx(c, n);
  }

  // Reads of the simulator's counter block, where the medium counts.

  /// Total frames handed to receivers (diagnostics).
  [[nodiscard]] std::uint64_t deliveries() const noexcept { return counters().received(); }

  /// Broadcast frames destroyed by collisions (model_collisions only).
  [[nodiscard]] std::uint64_t collisions() const noexcept {
    return counters().get(obs::Counter::kNetCollisions);
  }

  /// Receptions dropped by the chaos burst-loss model.
  [[nodiscard]] std::uint64_t chaos_drops() const noexcept {
    return counters().get(obs::Counter::kNetChaosDrops);
  }

  /// Duplicate copies injected by the chaos duplication model.
  [[nodiscard]] std::uint64_t chaos_duplicates() const noexcept {
    return counters().get(obs::Counter::kNetChaosDuplicates);
  }

  /// Send/receive opportunities suppressed by an active partition window.
  [[nodiscard]] std::uint64_t chaos_jams() const noexcept {
    return counters().get(obs::Counter::kNetChaosJams);
  }

  /// True when any adversarial link behavior is active.
  [[nodiscard]] bool chaos_active() const noexcept { return chaos_ != nullptr; }

  [[nodiscard]] sim::SimTime now() const noexcept { return sim_->now(); }

 private:
  struct Transceiver {
    geometry::Vec2 pos;
    double tx_range = 0.0;
    bool alive = true;
    bool attached = false;
    bool mobile = false;
    ReceiveFn rx;
  };

  /// A packet in flight: the packet one hop further along, its link-layer
  /// sender and the receivers it reaches, in ascending id order.
  struct Frame {
    Packet pkt;
    NodeId from = kNoNode;
    std::vector<NodeId> to;
    /// Set by an overlapping arrival (collision model only); shared with
    /// the receiver's pending_ window, which may outlive the frame.
    std::shared_ptr<bool> corrupted;
  };

  [[nodiscard]] obs::CounterBlock& counters() const noexcept { return sim_->counters(); }

  [[nodiscard]] const Transceiver& get(NodeId id) const;
  [[nodiscard]] Transceiver& get(NodeId id);
  [[nodiscard]] sim::Duration frame_delay(const Packet& pkt) noexcept;

  /// Rebuilds every static node's receiver list in one pass over the ids.
  void build_lists() const;

  /// Every node other than `sender` within its TX range, alive or not, in
  /// ascending id order.
  [[nodiscard]] std::vector<NodeId> in_range_of(NodeId sender, const Transceiver& s) const;

  /// The ids of both grids within the closed ball of radius `r` around `p`
  /// (fl(d2) <= fl(r*r)), in ascending id order. Hits are marked in a bitmap
  /// over the dense id space; reading the set bits yields them sorted and
  /// clears the bitmap.
  [[nodiscard]] std::vector<NodeId> collect_near(geometry::Vec2 p, double r) const;

  [[nodiscard]] sim::Duration serialization_time(const Packet& pkt) const noexcept;

  /// Takes a pool entry for `pkt` (hops incremented) sent by `from`, with no
  /// receivers yet.
  [[nodiscard]] std::uint32_t new_frame(Packet pkt, NodeId from);

  /// Schedules frame `f`'s delivery after `delay`. The event captures only
  /// the medium and the frame index.
  void send_frame(std::uint32_t f, sim::Duration delay);

  /// Sends a frame with the single receiver `to`; a `collidable` frame
  /// enters the collision model.
  void deliver_later(NodeId to, const Packet& pkt, NodeId from, sim::Duration delay,
                     bool collidable);

  /// Single-receiver front-end applying the chaos duplication/jitter
  /// models; falls through to deliver_later() unchanged when chaos is off.
  void deliver_chaotic(NodeId to, const Packet& pkt, NodeId from,
                       sim::Duration delay, bool collidable = false);

  /// Hands frame `f` to each receiver still attached and alive, then
  /// returns it to the pool. Broadcasts and unicasts alike end here.
  void deliver_frame(std::uint32_t f);

  /// True when `id` is jammed by an active partition window right now.
  [[nodiscard]] bool jammed_now(NodeId id, const Transceiver& t) const noexcept;

  /// A frame's on-air interval at one receiver, with the frame's corruption
  /// flag.
  struct PendingArrival {
    sim::SimTime start;
    sim::SimTime end;
    std::shared_ptr<bool> corrupted;
  };

  sim::Simulator* sim_;
  sim::Rng rng_;
  RadioConfig config_;
  /// Static and mobile transceivers, indexed apart so that moving a robot
  /// never touches the static side.
  spatial::UniformGrid2D<NodeId> static_index_;
  spatial::UniformGrid2D<NodeId> mobile_index_;
  /// Static receiver lists in compressed sparse rows: static node `id`'s
  /// list is list_ids_[list_begin_[id], list_begin_[id + 1]). Empty for
  /// mobile and unattached ids. Built lazily, hence mutable.
  mutable bool lists_stale_ = true;
  mutable std::vector<std::uint32_t> list_begin_;
  mutable std::vector<NodeId> list_ids_;
  /// collect_near()'s bitmap, one bit per id, all clear between calls.
  mutable std::vector<std::uint64_t> marks_;
  /// Dense table indexed by NodeId (ids are dense: sensors [0, n), robots and
  /// the manager right above). Hot delivery paths index straight into it
  /// instead of hashing per receiver.
  std::vector<Transceiver> nodes_;
  std::unordered_map<NodeId, std::vector<PendingArrival>> pending_;
  /// Frame pool. A deque, so a handler that sends while a frame is being
  /// delivered can grow the pool without moving the frame in flight.
  std::deque<Frame> frames_;
  std::vector<std::uint32_t> free_frames_;
  /// Receivers of one broadcast land at different instants or collide
  /// separately, so each gets its own single-receiver frame.
  bool frame_per_receiver_ = false;
  std::unique_ptr<chaos::LinkModel> chaos_;  // null unless chaos configured
};

}  // namespace sensrep::net
