// Unit tests for geographic routing: neighbor tables, Gabriel/RNG
// planarization, right-hand-rule selection, greedy forwarding, and face
// (perimeter) recovery around voids.

#include <gtest/gtest.h>

#include <map>
#include <numbers>
#include <memory>
#include <vector>

#include "metrics/counters.hpp"
#include "net/medium.hpp"
#include "routing/face_routing.hpp"
#include "routing/geo_router.hpp"
#include "routing/neighbor_table.hpp"
#include "routing/planarizer.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace sensrep::routing {
namespace {

using geometry::Vec2;
using net::NodeId;
using net::Packet;

// --- NeighborTable -----------------------------------------------------------

TEST(NeighborTableTest, UpsertAndLookup) {
  NeighborTable t;
  t.upsert(1, {10, 0});
  t.upsert(2, {0, 10});
  EXPECT_TRUE(t.contains(1));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(*t.position_of(1), (Vec2{10, 0}));
  t.upsert(1, {20, 0});
  EXPECT_EQ(*t.position_of(1), (Vec2{20, 0}));
  EXPECT_EQ(t.size(), 2u);
}

TEST(NeighborTableTest, RemoveAndClear) {
  NeighborTable t;
  t.upsert(1, {1, 1});
  t.remove(1);
  EXPECT_FALSE(t.contains(1));
  EXPECT_FALSE(t.position_of(1).has_value());
  t.upsert(2, {2, 2});
  t.clear();
  EXPECT_TRUE(t.empty());
}

TEST(NeighborTableTest, EntriesSortedById) {
  NeighborTable t;
  t.upsert(9, {});
  t.upsert(1, {});
  t.upsert(5, {});
  const auto e = t.entries();
  ASSERT_EQ(e.size(), 3u);
  EXPECT_EQ(e[0].id, 1u);
  EXPECT_EQ(e[1].id, 5u);
  EXPECT_EQ(e[2].id, 9u);
}

TEST(NeighborTableTest, ClosestToPicksMinimum) {
  NeighborTable t;
  t.upsert(1, {100, 0});
  t.upsert(2, {50, 0});
  t.upsert(3, {80, 0});
  const auto c = t.closest_to({0, 0});
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->id, 2u);
}

TEST(NeighborTableTest, ClosestWithProgressRequiresStrictImprovement) {
  NeighborTable t;
  t.upsert(1, {60, 0});
  // Target at (100,0); we are 100 away; neighbor is 40 away -> progress.
  EXPECT_TRUE(t.closest_to_with_progress({100, 0}, 100.0).has_value());
  // We are 39 away -> neighbor (40 away) makes no progress.
  EXPECT_FALSE(t.closest_to_with_progress({100, 0}, 39.0).has_value());
  NeighborTable empty;
  EXPECT_FALSE(empty.closest_to_with_progress({0, 0}, 10.0).has_value());
}

// --- Planarization -------------------------------------------------------------

TEST(PlanarizerTest, GabrielKeepsEdgeWithoutWitness) {
  const std::vector<NeighborEntry> neighbors{{1, {10, 0}}, {2, {0, 10}}};
  EXPECT_TRUE(edge_survives(PlanarGraph::kGabriel, {0, 0}, neighbors[0], neighbors));
}

TEST(PlanarizerTest, GabrielKillsEdgeWithWitnessInDiameterCircle) {
  // Witness at the midpoint of the 0->(10,0) edge.
  const std::vector<NeighborEntry> neighbors{{1, {10, 0}}, {2, {5, 1}}};
  EXPECT_FALSE(edge_survives(PlanarGraph::kGabriel, {0, 0}, neighbors[0], neighbors));
}

TEST(PlanarizerTest, GabrielBoundaryWitnessKeepsEdge) {
  // Witness exactly on the diameter circle (distance |uv|/2 from midpoint).
  const std::vector<NeighborEntry> neighbors{{1, {10, 0}}, {2, {5, 5}}};
  EXPECT_TRUE(edge_survives(PlanarGraph::kGabriel, {0, 0}, neighbors[0], neighbors));
}

TEST(PlanarizerTest, RngIsSubsetOfGabriel) {
  sim::Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<NeighborEntry> neighbors;
    for (NodeId i = 1; i <= 12; ++i) {
      neighbors.push_back({i, {rng.uniform(-50, 50), rng.uniform(-50, 50)}});
    }
    const auto gg = planar_neighbors(PlanarGraph::kGabriel, {0, 0}, neighbors);
    const auto rngg =
        planar_neighbors(PlanarGraph::kRelativeNeighborhood, {0, 0}, neighbors);
    for (const auto& e : rngg) {
      const bool in_gg =
          std::any_of(gg.begin(), gg.end(), [&](const NeighborEntry& g) { return g.id == e.id; });
      EXPECT_TRUE(in_gg) << "RNG edge " << e.id << " missing from Gabriel graph";
    }
  }
}

TEST(PlanarizerTest, SquareLosesDiagonals) {
  // Unit square + center: Gabriel kills the long diagonals through center.
  const std::vector<NeighborEntry> neighbors{
      {1, {10, 0}}, {2, {10, 10}}, {3, {0, 10}}, {4, {5, 5}}};
  const auto planar = planar_neighbors(PlanarGraph::kGabriel, {0, 0}, neighbors);
  // Edge to 2 (the diagonal) must die: node 4 sits at its midpoint.
  for (const auto& e : planar) EXPECT_NE(e.id, 2u);
}

// --- Right-hand rule ------------------------------------------------------------

TEST(FaceRoutingTest, PicksFirstCounterclockwiseFromReference) {
  const std::vector<NeighborEntry> planar{
      {1, {10, 0}},    // 0 deg
      {2, {0, 10}},    // 90 deg
      {3, {-10, 0}},   // 180 deg
  };
  // Reference pointing at 45 deg: first CCW neighbor is the one at 90 deg.
  const auto next = right_hand_neighbor({0, 0}, {1, 1}, planar, net::kNoNode);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->id, 2u);
}

TEST(FaceRoutingTest, CollinearWithReferenceIsTakenFirst) {
  const std::vector<NeighborEntry> planar{{1, {10, 0}}, {2, {0, 10}}};
  const auto next = right_hand_neighbor({0, 0}, {1, 0}, planar, net::kNoNode);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->id, 1u);
}

TEST(FaceRoutingTest, IncomingEdgeIsLastResort) {
  const std::vector<NeighborEntry> planar{{1, {10, 0}}, {2, {0, 10}}};
  // Arrived from node 1 (reference toward it); node 2 must be chosen.
  const auto next = right_hand_neighbor({0, 0}, {10, 0}, planar, 1);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->id, 2u);
}

TEST(FaceRoutingTest, DeadEndWalksBack) {
  const std::vector<NeighborEntry> planar{{1, {10, 0}}};
  const auto next = right_hand_neighbor({0, 0}, {10, 0}, planar, 1);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->id, 1u);  // only option: return to sender
}

TEST(FaceRoutingTest, EmptyPlanarSetGivesNothing) {
  EXPECT_FALSE(right_hand_neighbor({0, 0}, {1, 0}, {}, net::kNoNode).has_value());
}

TEST(FaceRoutingTest, FaceChangeDetectedOnlyWithProgress) {
  // Edge crossing the Lp->dst line closer to dst than the face entry.
  const Vec2 lp{0, 0}, dst{100, 0};
  const auto hit = face_change_point({50, 10}, {50, -10}, lp, dst, lp);
  ASSERT_TRUE(hit.has_value());
  EXPECT_NEAR(hit->x, 50.0, 1e-9);
  // Same crossing but face entry already at x=80: no progress, no change.
  EXPECT_FALSE(face_change_point({50, 10}, {50, -10}, lp, dst, {80, 0}).has_value());
  // Edge not crossing at all.
  EXPECT_FALSE(face_change_point({50, 10}, {60, 10}, lp, dst, lp).has_value());
}

// --- GeoRouter on real topologies ------------------------------------------------

/// Harness: a set of static nodes with routers wired through a Medium.
class RoutingHarness {
 public:
  explicit RoutingHarness(double range = 15.0)
      : medium_(sim_, sim::Rng(5), net::RadioConfig{},
                geometry::Rect::sized(100.0, 100.0), range),
        range_(range) {}

  void add_node(NodeId id, Vec2 pos) {
    auto state = std::make_unique<NodeState>();
    state->pos = pos;
    NodeState* raw = state.get();
    GeoRouter::Callbacks cb;
    cb.deliver = [this, id](const Packet& pkt) { delivered_[id].push_back(pkt); };
    cb.drop = [this](const Packet& pkt, DropReason reason) {
      drops_.emplace_back(pkt, reason);
    };
    state->router = std::make_unique<GeoRouter>(
        id, medium_, state->table, [raw] { return raw->pos; }, std::move(cb));
    medium_.attach(id, pos, range_, [raw](const Packet& pkt, NodeId from) {
      raw->router->on_receive(pkt, from);
    });
    nodes_.emplace(id, std::move(state));
  }

  /// Fills every node's table with its in-range neighbors (bidirectional
  /// discovery as beaconing would produce).
  void build_tables() {
    for (auto& [id, state] : nodes_) {
      for (auto& [other, ostate] : nodes_) {
        if (other == id) continue;
        if (geometry::distance(state->pos, ostate->pos) <= range_) {
          state->table.upsert(other, ostate->pos);
        }
      }
    }
  }

  void send(NodeId from, NodeId to) { send_to_location(from, to, nodes_.at(to)->pos); }

  void send_to_location(NodeId from, NodeId to, Vec2 believed_location) {
    Packet pkt;
    pkt.type = net::PacketType::kFailureReport;
    pkt.payload = net::FailureReportPayload{};
    pkt.dst = to;
    pkt.dst_location = believed_location;
    nodes_.at(from)->router->send(std::move(pkt));
    sim_.run_all();
  }

  void send_with_ttl(NodeId from, NodeId to, std::uint32_t ttl) {
    Packet pkt;
    pkt.type = net::PacketType::kFailureReport;
    pkt.payload = net::FailureReportPayload{};
    pkt.dst = to;
    pkt.dst_location = nodes_.at(to)->pos;
    pkt.ttl = ttl;
    nodes_.at(from)->router->send(std::move(pkt));
    sim_.run_all();
  }

  [[nodiscard]] std::size_t delivered_to(NodeId id) const {
    auto it = delivered_.find(id);
    return it == delivered_.end() ? 0 : it->second.size();
  }

  [[nodiscard]] std::uint32_t last_hops(NodeId id) const {
    return delivered_.at(id).back().hops;
  }

  [[nodiscard]] const std::vector<std::pair<Packet, DropReason>>& drops() const {
    return drops_;
  }

 private:
  struct NodeState {
    Vec2 pos;
    NeighborTable table;
    std::unique_ptr<GeoRouter> router;
  };

  sim::Simulator sim_;
  net::Medium medium_;
  double range_;
  std::map<NodeId, std::unique_ptr<NodeState>> nodes_;
  std::map<NodeId, std::vector<Packet>> delivered_;
  std::vector<std::pair<Packet, DropReason>> drops_;
};

TEST(GeoRouterTest, DirectNeighborDelivery) {
  RoutingHarness h;
  h.add_node(1, {0, 0});
  h.add_node(2, {10, 0});
  h.build_tables();
  h.send(1, 2);
  EXPECT_EQ(h.delivered_to(2), 1u);
  EXPECT_EQ(h.last_hops(2), 1u);
}

TEST(GeoRouterTest, GreedyChainAlongALine) {
  RoutingHarness h;
  for (NodeId i = 0; i < 6; ++i) h.add_node(i, {static_cast<double>(i) * 10.0, 0});
  h.build_tables();
  h.send(0, 5);
  EXPECT_EQ(h.delivered_to(5), 1u);
  // 15 m range over 10 m spacing: greedy takes 10->20 m strides: 50/10..20.
  EXPECT_GE(h.last_hops(5), 3u);
  EXPECT_LE(h.last_hops(5), 5u);
}

TEST(GeoRouterTest, SendToSelfDeliversLocally) {
  RoutingHarness h;
  h.add_node(1, {0, 0});
  h.build_tables();
  h.send(1, 1);
  EXPECT_EQ(h.delivered_to(1), 1u);
}

TEST(GeoRouterTest, PerimeterRoutesAroundAVoid) {
  // A "C" shaped detour: greedy from 0 toward 9 dead-ends at node 1, whose
  // only neighbors point backwards/up. Face routing must climb around.
  //
  //        4 --- 5
  //        |     |
  //  0 --- 1     9        (gap between 1 and 9: the void)
  //
  RoutingHarness h(15.0);
  h.add_node(0, {0, 0});
  h.add_node(1, {12, 0});
  h.add_node(4, {12, 12});
  h.add_node(5, {24, 12});
  h.add_node(9, {30, 0});  // 18 m from node 1: outside range, the void
  h.build_tables();
  h.send(0, 9);
  EXPECT_EQ(h.delivered_to(9), 1u);
  EXPECT_TRUE(h.drops().empty());
  EXPECT_GE(h.last_hops(9), 4u);  // the detour via 4 and 5
}

TEST(GeoRouterTest, DisconnectedDestinationIsDroppedNotLooped) {
  RoutingHarness h(15.0);
  h.add_node(0, {0, 0});
  h.add_node(1, {10, 0});
  h.add_node(2, {10, 10});
  h.add_node(99, {500, 500});  // unreachable island
  h.build_tables();
  h.send(0, 99);
  EXPECT_EQ(h.delivered_to(99), 0u);
  ASSERT_FALSE(h.drops().empty());
}

TEST(GeoRouterTest, IsolatedSenderDropsWithNoNeighbors) {
  RoutingHarness h(15.0);
  h.add_node(0, {0, 0});
  h.add_node(9, {100, 0});
  h.build_tables();  // empty tables: out of range
  h.send(0, 9);
  ASSERT_EQ(h.drops().size(), 1u);
  EXPECT_EQ(h.drops()[0].second, DropReason::kNoNeighbors);
}

TEST(GeoRouterTest, RandomDenseNetworkAlwaysDelivers) {
  // Property: on a dense random connected unit-disk graph, greedy + face
  // routing delivers every packet (GFG guarantee).
  sim::Rng rng(4242);
  RoutingHarness h(25.0);
  std::vector<Vec2> pts;
  for (NodeId i = 0; i < 60; ++i) {
    const Vec2 p{rng.uniform(0, 100), rng.uniform(0, 100)};
    pts.push_back(p);
    h.add_node(i, p);
  }
  h.build_tables();
  int sent = 0;
  for (NodeId from = 0; from < 60; from += 7) {
    for (NodeId to = 3; to < 60; to += 11) {
      if (from == to) continue;
      h.send(from, to);
      ++sent;
    }
  }
  std::size_t got = 0;
  for (NodeId to = 3; to < 60; to += 11) got += h.delivered_to(to);
  EXPECT_EQ(got, static_cast<std::size_t>(sent));
  EXPECT_TRUE(h.drops().empty());
}

TEST(GeoRouterTest, GridWithVoidRoutesAround) {
  // 7x7 grid of 10 m spacing with a 3x3 void punched out of the middle:
  // straight-line greedy paths through the center must recover via faces.
  RoutingHarness h(15.0);
  NodeId id = 0;
  std::map<std::pair<int, int>, NodeId> at;
  for (int y = 0; y < 7; ++y) {
    for (int x = 0; x < 7; ++x) {
      if (x >= 2 && x <= 4 && y >= 2 && y <= 4) continue;  // the void
      at[{x, y}] = id;
      h.add_node(id++, {x * 10.0, y * 10.0});
    }
  }
  h.build_tables();
  // West edge center to east edge center: the direct line crosses the void.
  h.send(at[{0, 3}], at[{6, 3}]);
  EXPECT_EQ(h.delivered_to(at[{6, 3}]), 1u);
  EXPECT_TRUE(h.drops().empty());
  // Minimum detour is longer than the 6-hop straight line would have been.
  EXPECT_GE(h.last_hops(at[{6, 3}]), 7u);
}

TEST(GeoRouterTest, RingTopologyReachesAntipode) {
  // 12 nodes on a circle, each connected to ~2 neighbors: every route is
  // pure perimeter walking.
  RoutingHarness h(28.0);
  const double radius = 50.0;
  for (NodeId i = 0; i < 12; ++i) {
    const double a = 2.0 * std::numbers::pi * static_cast<double>(i) / 12.0;
    h.add_node(i, {radius * std::cos(a), radius * std::sin(a)});
  }
  h.build_tables();
  h.send(0, 6);  // antipodal
  EXPECT_EQ(h.delivered_to(6), 1u);
  EXPECT_GE(h.last_hops(6), 6u);  // half the ring
}

TEST(GeoRouterTest, TtlBoundsForwarding) {
  RoutingHarness h(15.0);
  for (NodeId i = 0; i < 10; ++i) h.add_node(i, {static_cast<double>(i) * 10.0, 0});
  h.build_tables();
  h.send_with_ttl(0, 9, 3);  // 90 m needs >= 5 hops; 3 is not enough
  EXPECT_EQ(h.delivered_to(9), 0u);
  ASSERT_FALSE(h.drops().empty());
  EXPECT_EQ(h.drops().back().second, DropReason::kTtlExpired);
}

TEST(GeoRouterTest, StaleDestinationLocationStillDeliversViaTableShortcut) {
  // The dst's advertised location is 25 m off (a moving robot's staleness);
  // the last forwarder holds a table entry for the dst and delivers anyway.
  RoutingHarness h(15.0);
  h.add_node(0, {0, 0});
  h.add_node(1, {10, 0});
  h.add_node(2, {20, 0});
  h.add_node(9, {30, 0});
  h.build_tables();
  h.send_to_location(0, 9, {55.0, 0.0});  // believed position: far east
  EXPECT_EQ(h.delivered_to(9), 1u);
}

TEST(GeoRouterDropReasonTest, Names) {
  EXPECT_EQ(to_string(DropReason::kTtlExpired), "ttl_expired");
  EXPECT_EQ(to_string(DropReason::kNoNeighbors), "no_neighbors");
  EXPECT_EQ(to_string(DropReason::kFaceLoop), "face_loop");
  EXPECT_EQ(to_string(DropReason::kLinkFailure), "link_failure");
}

}  // namespace
}  // namespace sensrep::routing
