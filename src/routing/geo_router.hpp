#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "net/medium.hpp"
#include "net/packet.hpp"
#include "routing/neighbor_table.hpp"
#include "routing/planarizer.hpp"

namespace sensrep::routing {

/// Reasons a geo-routed packet can be discarded (diagnostics & tests).
enum class DropReason {
  kTtlExpired,
  kNoNeighbors,
  kFaceLoop,     // perimeter walked back onto its first edge: unreachable
  kLinkFailure,  // every candidate next hop failed at the link layer
};

[[nodiscard]] std::string_view to_string(DropReason r) noexcept;

/// Per-node geographic router: greedy forwarding with face-routing recovery,
/// after GPSR (Karp & Kung 2000) / GFG (Bose et al. 1999) — the stack the
/// paper states it implements on GloMoSim (§4.2).
///
/// Every routable node (sensor, robot, manager) holds one by value. It reads
/// the owner's position and NeighborTable in place, transmits via the shared
/// Medium and face-routes on the Gabriel planarization. It reports instead of
/// calling back: on_receive() says whether a packet is this node's, and a
/// discarded packet is counted by reason and logged here. send() stamps the
/// originator-scoped seq that receivers deduplicate (src, seq) on, from a
/// counter that is never reset; a sensor slot's router outlives its units.
class GeoRouter {
 public:
  /// `position` and `table` are the owner's; both must outlive the router
  /// (owners are non-movable and update their position in place).
  GeoRouter(net::NodeId self, net::Medium& medium, NeighborTable& table,
            const geometry::Vec2& position);

  GeoRouter(const GeoRouter&) = delete;
  GeoRouter& operator=(const GeoRouter&) = delete;

  /// Originates a geo-routed packet. pkt.dst and pkt.dst_location must be
  /// set; pkt.src/seq are stamped here. Precondition: pkt.dst is another
  /// node (throws std::logic_error otherwise).
  void send(net::Packet pkt);

  /// Entry point for received geo-routed packets (called by the owning
  /// node's receive dispatch). Returns true when pkt.dst is this node, for
  /// the caller to handle; otherwise forwards or drops the packet.
  [[nodiscard]] bool on_receive(const net::Packet& pkt, net::NodeId from);

  /// Packets this router discarded, in total and for one reason.
  [[nodiscard]] std::uint64_t drops() const noexcept;
  [[nodiscard]] std::uint64_t drops(DropReason reason) const noexcept {
    return drops_[static_cast<std::size_t>(reason)];
  }

 private:
  void forward(net::Packet pkt, net::NodeId from);
  /// Attempts one greedy hop; returns false when no neighbor makes progress.
  bool greedy_hop(net::Packet& pkt);
  /// Attempts one perimeter hop; returns false on drop.
  bool perimeter_hop(net::Packet& pkt, net::NodeId from);
  void drop_packet(const net::Packet& pkt, DropReason reason);
  /// Unicast wrapper that evicts dead next hops and reports link success.
  bool try_unicast(net::NodeId next, const net::Packet& pkt);

  net::Medium& medium_;
  NeighborTable& table_;
  const geometry::Vec2& pos_;
  net::NodeId self_;
  std::uint32_t next_seq_ = 1;
  std::array<std::uint64_t, static_cast<std::size_t>(DropReason::kLinkFailure) + 1> drops_{};
};

}  // namespace sensrep::routing
