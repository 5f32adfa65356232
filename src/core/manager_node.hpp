#pragma once

#include <functional>

#include "geometry/vec2.hpp"
#include "net/medium.hpp"
#include "net/packet.hpp"
#include "routing/geo_router.hpp"
#include "routing/neighbor_table.hpp"

namespace sensrep::core {

/// The centralized algorithm's dedicated manager: a stationary robot-class
/// node at the field center (paper §3.1). It never moves and never repairs;
/// it only receives failure reports and forwards repair requests.
class ManagerNode {
 public:
  using DeliverFn = std::function<void(const net::Packet&)>;

  ManagerNode(net::NodeId id, geometry::Vec2 pos, double tx_range, net::Medium& medium,
              DeliverFn deliver);

  ManagerNode(const ManagerNode&) = delete;
  ManagerNode& operator=(const ManagerNode&) = delete;

  [[nodiscard]] net::NodeId id() const noexcept { return id_; }
  [[nodiscard]] geometry::Vec2 position() const noexcept { return pos_; }
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  [[nodiscard]] routing::GeoRouter& router() noexcept { return router_; }

  /// Kills the manager (fault injection): detaches it from the radio medium
  /// and stops packet handling. Idempotent. The fleet only notices when the
  /// manager's heartbeat lease expires.
  void fail();

  /// Resurrects a failed manager (MTTR model): reattaches it to the radio
  /// medium and rebuilds its neighbor view. The algorithm notices at the next
  /// supervision sweep and performs the acting-manager handback. Idempotent.
  void repair();

  /// Refreshes the manager's one-hop view (alive nodes within its TX range;
  /// oracle discovery, same abstraction as RobotNode — see DESIGN.md).
  void refresh_neighbor_table();

 private:
  void on_packet(const net::Packet& pkt, net::NodeId from);

  net::NodeId id_;
  geometry::Vec2 pos_;
  double tx_range_;
  net::Medium* medium_;
  routing::NeighborTable table_;
  routing::GeoRouter router_;
  DeliverFn deliver_;
  bool failed_ = false;
};

}  // namespace sensrep::core
