// Unit tests for the wireless medium: attachment rules, asymmetric ranges,
// broadcast/unicast delivery, liveness filtering, loss + ARQ, accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <vector>

#include "brute_reference.hpp"
#include "metrics/counters.hpp"
#include "net/medium.hpp"
#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace sensrep::net {
namespace {

using geometry::Rect;
using geometry::Vec2;
using metrics::MessageCategory;

/// Spatial-index bounds for the media under test (nodes may lie outside).
constexpr geometry::Rect kArea = geometry::Rect::sized(200.0, 200.0);

struct Rx {
  std::vector<std::pair<Packet, NodeId>> got;
  Medium::ReceiveFn fn() {
    return [this](const Packet& p, NodeId from) { got.emplace_back(p, from); };
  }
};

class MediumTest : public ::testing::Test {
 protected:
  MediumTest() : medium_(sim_, sim::Rng(1), RadioConfig{}, kArea, 50.0) {}

  Packet beacon(NodeId src) {
    Packet p;
    p.type = PacketType::kBeacon;
    p.src = src;
    p.dst = kBroadcastId;
    return p;
  }

  sim::Simulator sim_;
  Medium medium_;
};

TEST_F(MediumTest, AttachRejectsDuplicatesAndReservedIds) {
  Rx rx;
  medium_.attach(1, {0, 0}, 50.0, rx.fn());
  EXPECT_THROW(medium_.attach(1, {0, 0}, 50.0, rx.fn()), std::invalid_argument);
  EXPECT_THROW(medium_.attach(kNoNode, {0, 0}, 50.0, rx.fn()), std::invalid_argument);
  EXPECT_THROW(medium_.attach(kBroadcastId, {0, 0}, 50.0, rx.fn()), std::invalid_argument);
  EXPECT_THROW(medium_.attach(2, {0, 0}, 0.0, rx.fn()), std::invalid_argument);
  EXPECT_THROW(medium_.attach(2, {0, 0}, std::numeric_limits<double>::quiet_NaN(), rx.fn()),
               std::invalid_argument);
}

TEST_F(MediumTest, BroadcastReachesOnlyNodesInSenderRange) {
  Rx near, far;
  medium_.attach(1, {0, 0}, 50.0, {});
  medium_.attach(2, {30, 0}, 50.0, near.fn());
  medium_.attach(3, {80, 0}, 50.0, far.fn());
  medium_.broadcast(1, beacon(1));
  sim_.run_all();
  EXPECT_EQ(near.got.size(), 1u);
  EXPECT_TRUE(far.got.empty());
}

TEST_F(MediumTest, AsymmetricRangesAreTransmitterBased) {
  // Robot (range 250) and sensor (range 63) 100 m apart: the robot reaches
  // the sensor, the sensor cannot reach the robot — exactly the paper's
  // asymmetry behind Fig. 3's report-vs-request hop difference.
  Rx robot_rx, sensor_rx;
  medium_.attach(10, {0, 0}, 250.0, robot_rx.fn());
  medium_.attach(20, {100, 0}, 63.0, sensor_rx.fn());
  EXPECT_TRUE(medium_.in_range(10, 20));
  EXPECT_FALSE(medium_.in_range(20, 10));

  medium_.broadcast(10, beacon(10));
  medium_.broadcast(20, beacon(20));
  sim_.run_all();
  EXPECT_EQ(sensor_rx.got.size(), 1u);
  EXPECT_TRUE(robot_rx.got.empty());
}

TEST_F(MediumTest, DeadNodesNeitherReceiveNorAppearAsNeighbors) {
  Rx rx;
  medium_.attach(1, {0, 0}, 50.0, {});
  medium_.attach(2, {10, 0}, 50.0, rx.fn());
  medium_.set_alive(2, false);
  medium_.broadcast(1, beacon(1));
  sim_.run_all();
  EXPECT_TRUE(rx.got.empty());
  EXPECT_TRUE(medium_.neighbors_of(1).empty());
  medium_.set_alive(2, true);
  EXPECT_EQ(medium_.neighbors_of(1), (std::vector<NodeId>{2}));
}

TEST_F(MediumTest, NodeDyingInFlightMissesDelivery) {
  Rx rx;
  medium_.attach(1, {0, 0}, 50.0, {});
  medium_.attach(2, {10, 0}, 50.0, rx.fn());
  medium_.broadcast(1, beacon(1));
  medium_.set_alive(2, false);  // dies before the frame lands
  sim_.run_all();
  EXPECT_TRUE(rx.got.empty());
}

TEST_F(MediumTest, UnicastDeliversOnlyToTarget) {
  Rx target, bystander;
  medium_.attach(1, {0, 0}, 50.0, {});
  medium_.attach(2, {10, 0}, 50.0, target.fn());
  medium_.attach(3, {10, 5}, 50.0, bystander.fn());
  EXPECT_TRUE(medium_.unicast(1, 2, beacon(1)));
  sim_.run_all();
  EXPECT_EQ(target.got.size(), 1u);
  EXPECT_TRUE(bystander.got.empty());
}

TEST_F(MediumTest, UnicastFailsOutOfRangeOrDead) {
  Rx rx;
  medium_.attach(1, {0, 0}, 50.0, {});
  medium_.attach(2, {100, 0}, 50.0, rx.fn());
  EXPECT_FALSE(medium_.unicast(1, 2, beacon(1)));  // out of range
  medium_.attach(3, {10, 0}, 50.0, rx.fn());
  medium_.set_alive(3, false);
  EXPECT_FALSE(medium_.unicast(1, 3, beacon(1)));  // dead
  sim_.run_all();
  EXPECT_TRUE(rx.got.empty());
}

TEST_F(MediumTest, HopsIncrementOnDelivery) {
  Rx rx;
  medium_.attach(1, {0, 0}, 50.0, {});
  medium_.attach(2, {10, 0}, 50.0, rx.fn());
  Packet p = beacon(1);
  p.hops = 3;
  medium_.unicast(1, 2, p);
  sim_.run_all();
  ASSERT_EQ(rx.got.size(), 1u);
  EXPECT_EQ(rx.got[0].first.hops, 4u);
  EXPECT_EQ(rx.got[0].second, 1u);  // link-layer sender
}

TEST_F(MediumTest, TransmissionsCountedByCategory) {
  medium_.attach(1, {0, 0}, 50.0, {});
  medium_.attach(2, {10, 0}, 50.0, {});
  medium_.broadcast(1, beacon(1));
  Packet report = beacon(1);
  report.type = PacketType::kFailureReport;
  report.payload = FailureReportPayload{};
  medium_.unicast(1, 2, report);
  EXPECT_EQ(sim_.counters().get(MessageCategory::kBeacon), 1u);
  EXPECT_EQ(sim_.counters().get(MessageCategory::kFailureReport), 1u);
}

TEST_F(MediumTest, CategoryOverrideRedirectsAccounting) {
  medium_.attach(1, {0, 0}, 50.0, {});
  Packet p = beacon(1);
  p.type = PacketType::kLocationUpdate;
  p.payload = LocationUpdatePayload{};
  p.category_override = MessageCategory::kInitialization;
  medium_.broadcast(1, p);
  EXPECT_EQ(sim_.counters().get(MessageCategory::kLocationUpdate), 0u);
  EXPECT_EQ(sim_.counters().get(MessageCategory::kInitialization), 1u);
}

TEST_F(MediumTest, DeliveryDelayIsPositiveAndBounded) {
  Rx rx;
  medium_.attach(1, {0, 0}, 50.0, {});
  medium_.attach(2, {10, 0}, 50.0, rx.fn());
  medium_.broadcast(1, beacon(1));
  EXPECT_TRUE(rx.got.empty());  // nothing delivered synchronously
  sim_.run_until(0.01);         // serialization + max 2 ms backoff
  EXPECT_EQ(rx.got.size(), 1u);
}

TEST_F(MediumTest, NeighborsSortedById) {
  medium_.attach(5, {0, 0}, 100.0, {});
  medium_.attach(9, {10, 0}, 50.0, {});
  medium_.attach(2, {20, 0}, 50.0, {});
  medium_.attach(7, {30, 0}, 50.0, {});
  EXPECT_EQ(medium_.neighbors_of(5), (std::vector<NodeId>{2, 7, 9}));
}

TEST_F(MediumTest, MovedNodeChangesNeighborhoods) {
  medium_.attach(1, {0, 0}, 50.0, {});
  medium_.attach(2, {200, 0}, 50.0, {});
  EXPECT_TRUE(medium_.neighbors_of(1).empty());
  medium_.set_position(2, {25, 0});
  EXPECT_EQ(medium_.neighbors_of(1), (std::vector<NodeId>{2}));
  EXPECT_EQ(medium_.position_of(2), (Vec2{25, 0}));
}

TEST_F(MediumTest, DetachRemovesCompletely) {
  medium_.attach(1, {0, 0}, 50.0, {});
  medium_.attach(2, {10, 0}, 50.0, {});
  medium_.detach(2);
  EXPECT_FALSE(medium_.attached(2));
  EXPECT_TRUE(medium_.neighbors_of(1).empty());
  EXPECT_THROW((void)medium_.position_of(2), std::out_of_range);
}

TEST_F(MediumTest, NodesNearQueriesArbitraryPositions) {
  medium_.attach(1, {0, 0}, 50.0, {});
  medium_.attach(2, {100, 0}, 50.0, {});
  medium_.attach(3, {105, 0}, 50.0, {});
  medium_.set_alive(3, false);
  EXPECT_EQ(medium_.nodes_near({100, 0}, 10.0), (std::vector<NodeId>{2}));
  EXPECT_EQ(medium_.nodes_near({50, 0}, 200.0), (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(medium_.tx_range_of(1), 50.0);
}

TEST_F(MediumTest, NodesNearRejectsNegativeAndNaNRadii) {
  medium_.attach(1, {0, 0}, 50.0, {});
  medium_.attach(2, {3, 0}, 50.0, {});
  EXPECT_THROW((void)medium_.nodes_near({0, 0}, -5.0), std::invalid_argument);
  EXPECT_THROW((void)medium_.nodes_near({0, 0}, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_EQ(medium_.nodes_near({0, 0}, 0.0), (std::vector<NodeId>{1}));
}

TEST_F(MediumTest, AccountBooksWithoutDelivering) {
  medium_.attach(1, {0, 0}, 50.0, {});
  medium_.account(MessageCategory::kBeacon, 41);
  EXPECT_EQ(sim_.counters().get(MessageCategory::kBeacon), 41u);
  EXPECT_EQ(medium_.deliveries(), 0u);
}

TEST_F(MediumTest, SerializationDelayGrowsWithPacketSize) {
  // A data packet (80 B) serializes slower than a beacon (40 B) at 11 Mbps;
  // with zero backoff the delivery times expose exactly that difference.
  sim::Simulator sim;
  RadioConfig cfg;
  cfg.max_backoff_s = 0.0;
  cfg.propagation_s = 0.0;
  Medium medium(sim, sim::Rng(1), cfg, kArea, 50.0);
  medium.attach(1, {0, 0}, 50.0, {});
  std::vector<double> arrival;
  medium.attach(2, {10, 0}, 50.0,
                [&](const Packet&, NodeId) { arrival.push_back(sim.now()); });
  Packet small;
  small.type = PacketType::kBeacon;
  small.dst = 2;
  Packet big;
  big.type = PacketType::kData;
  big.payload = DataPayload{};
  big.dst = 2;
  medium.unicast(1, 2, small);
  sim.run_all();
  medium.unicast(1, 2, big);
  sim.run_all();
  ASSERT_EQ(arrival.size(), 2u);
  const double small_delay = arrival[0];
  const double big_delay = arrival[1] - arrival[0];
  EXPECT_NEAR(small_delay, static_cast<double>(small.size_bytes()) * 8.0 / 11e6, 1e-12);
  EXPECT_NEAR(big_delay, static_cast<double>(big.size_bytes()) * 8.0 / 11e6, 1e-12);
  EXPECT_GT(big_delay, small_delay);
}

// Nodes attached or moved outside the spatial index's bounds — including at
// negative coordinates — are clamped into its border cells. Every query must
// still select exactly what a brute d^2 <= r^2 scan over the true positions
// selects, in ascending id order.
TEST(MediumIndexTest, OutOfFieldNodesAreReachedExactly) {
  sim::Simulator sim;
  RadioConfig cfg;
  cfg.max_backoff_s = 0.0;
  Medium medium(sim, sim::Rng(1), cfg, Rect{{0.0, 0.0}, {100.0, 100.0}}, 25.0);
  sim::Rng rng(77);
  const auto anywhere = [&rng] { return Vec2{rng.uniform(-300, 400), rng.uniform(-300, 400)}; };

  std::map<NodeId, Vec2> pos;
  std::vector<NodeId> heard;  // receivers of the current frame, in delivery order
  for (NodeId id = 0; id < 60; ++id) {
    pos[id] = anywhere();
    medium.attach(id, pos[id], rng.uniform(10, 150),
                  [&heard, id](const Packet&, NodeId) { heard.push_back(id); });
  }
  const auto alive_brute = [&] {
    reference::BruteIndex<NodeId> b;
    for (const auto& [id, p] : pos) {
      if (medium.alive(id)) b.pts.emplace_back(id, p);
    }
    return b;
  };

  Packet pkt;
  pkt.type = PacketType::kBeacon;
  pkt.dst = kBroadcastId;
  for (int round = 0; round < 20; ++round) {
    // Move a third of the nodes anywhere, and toggle a few alive bits.
    for (NodeId id = 0; id < 60; ++id) {
      if (rng.chance(1.0 / 3.0)) {
        pos[id] = anywhere();
        medium.set_position(id, pos[id]);
      }
      if (rng.chance(0.1)) medium.set_alive(id, !medium.alive(id));
    }
    const auto brute = alive_brute();
    for (const auto& [sender, p] : pos) {
      if (!medium.alive(sender)) continue;
      auto want = brute.within_radius(p, medium.tx_range_of(sender));
      std::erase(want, sender);
      EXPECT_EQ(medium.neighbors_of(sender), want) << "sender " << sender;
      heard.clear();
      medium.broadcast(sender, pkt);
      sim.run_all();
      EXPECT_EQ(heard, want) << "sender " << sender;
    }
    for (int k = 0; k < 10; ++k) {
      const Vec2 q = anywhere();
      const double r = rng.uniform(0, 200);
      EXPECT_EQ(medium.nodes_near(q, r), brute.within_radius(q, r));
    }
  }
}

// The static receiver lists must track every change that can move a static
// node's neighbourhood: a static node attached after the lists were built
// (the centralized manager), a static node's first move, and a detach. Mobile
// nodes moving in and out of static senders' ranges must be found from their
// own grid. After every step, every alive sender's broadcast receivers and
// neighbors_of(), and nodes_near() at random points, must equal a brute
// d^2 <= r^2 scan over the true positions, in ascending id order.
TEST(MediumIndexTest, StaticListsFollowAttachMoveAndDetach) {
  sim::Simulator sim;
  RadioConfig cfg;
  cfg.max_backoff_s = 0.0;
  Medium medium(sim, sim::Rng(1), cfg, Rect{{0.0, 0.0}, {300.0, 300.0}}, 60.0);
  sim::Rng rng(91);
  const auto anywhere = [&rng] { return Vec2{rng.uniform(-50, 350), rng.uniform(-50, 350)}; };

  std::map<NodeId, Vec2> pos;
  std::map<NodeId, double> range;
  std::vector<NodeId> heard;  // receivers of the current frame, in delivery order
  const auto attach = [&](NodeId id, double r, Mobility m) {
    pos[id] = anywhere();
    range[id] = r;
    medium.attach(id, pos[id], r, [&heard, id](const Packet&, NodeId) { heard.push_back(id); },
                  m);
  };
  const auto move = [&](NodeId id) {
    pos[id] = anywhere();
    medium.set_position(id, pos[id]);
  };
  Packet pkt;
  pkt.type = PacketType::kBeacon;
  pkt.dst = kBroadcastId;
  const auto check = [&](const char* step) {
    reference::BruteIndex<NodeId> brute;
    for (const auto& [id, p] : pos) {
      if (medium.alive(id)) brute.pts.emplace_back(id, p);
    }
    for (const auto& [sender, p] : pos) {
      if (!medium.alive(sender)) continue;
      auto want = brute.within_radius(p, range[sender]);
      std::erase(want, sender);
      ASSERT_EQ(medium.neighbors_of(sender), want) << step << ", sender " << sender;
      heard.clear();
      medium.broadcast(sender, pkt);
      sim.run_all();
      ASSERT_EQ(heard, want) << step << ", sender " << sender;
    }
    for (int k = 0; k < 10; ++k) {
      const Vec2 q = anywhere();
      const double r = rng.uniform(0, 250);
      ASSERT_EQ(medium.nodes_near(q, r), brute.within_radius(q, r)) << step;
    }
  };

  for (NodeId id = 0; id < 80; ++id) attach(id, rng.uniform(20, 120), Mobility::kStatic);
  check("static field");
  for (NodeId id = 200; id < 206; ++id) attach(id, 250.0, Mobility::kMobile);
  check("robots attached");
  for (int round = 0; round < 10; ++round) {
    for (NodeId id = 200; id < 206; ++id) move(id);
    if (round % 3 == 0) medium.set_alive(200, !medium.alive(200));
    check("robots moved");
  }
  attach(150, 250.0, Mobility::kStatic);
  check("static node attached after the lists were built");
  move(7);
  check("static node's first move");
  move(7);
  check("moved static node moves again");
  medium.detach(12);
  pos.erase(12);
  medium.detach(203);
  pos.erase(203);
  check("static and mobile nodes detached");
  medium.set_alive(20, false);
  check("static node died");
  // static_receivers() lists static nodes only, dead ones included.
  const auto list = medium.static_receivers(150);
  EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
  EXPECT_EQ(std::count_if(list.begin(), list.end(), [](NodeId id) { return id >= 200; }), 0);
  EXPECT_THROW((void)medium.static_receivers(200), std::invalid_argument);
}

// --- Loss model ---------------------------------------------------------------

TEST(MediumLossTest, UnicastArqRetriesUntilSuccess) {
  sim::Simulator sim;
  const obs::CounterBlock& counters = sim.counters();
  RadioConfig cfg;
  cfg.loss_probability = 0.5;
  cfg.unicast_retries = 10;
  Medium medium(sim, sim::Rng(3), cfg, kArea, 50.0);
  int delivered = 0;
  medium.attach(1, {0, 0}, 50.0, {});
  medium.attach(2, {10, 0}, 50.0, [&](const Packet&, NodeId) { ++delivered; });

  int acked = 0;
  const int kTries = 200;
  Packet p;
  p.type = PacketType::kBeacon;
  p.dst = 2;
  for (int i = 0; i < kTries; ++i) acked += medium.unicast(1, 2, p) ? 1 : 0;
  sim.run_all();
  // With 11 attempts at 50% loss, failure odds are ~0.05%: all should ack.
  EXPECT_EQ(acked, kTries);
  EXPECT_EQ(delivered, kTries);
  // And retries must have cost extra transmissions (~2x on average).
  EXPECT_GT(counters.get(MessageCategory::kBeacon), static_cast<std::uint64_t>(kTries) * 3 / 2);
}

TEST(MediumLossTest, BroadcastLosesSomeReceivers) {
  sim::Simulator sim;
  RadioConfig cfg;
  cfg.loss_probability = 0.4;
  Medium medium(sim, sim::Rng(9), cfg, kArea, 50.0);
  medium.attach(1, {0, 0}, 50.0, {});
  int delivered = 0;
  for (NodeId n = 2; n < 42; ++n) {
    medium.attach(n, {10, static_cast<double>(n)}, 50.0,
                  [&](const Packet&, NodeId) { ++delivered; });
  }
  Packet p;
  p.type = PacketType::kBeacon;
  p.dst = kBroadcastId;
  for (int i = 0; i < 25; ++i) medium.broadcast(1, p);
  sim.run_all();
  const int expected = 25 * 40 * 6 / 10;  // 60% of 1000
  EXPECT_NEAR(delivered, expected, 60);
}

// Pins the ARQ accounting contract: exactly one counted transmission per
// attempt, and the futile-retry early-out when the channel is lossless.
// Regression guard — downstream metrics (Fig. 3/4 overhead) depend on it.
TEST(MediumLossTest, UnicastCountsOneTransmissionPerAttempt) {
  sim::Simulator sim;
  const obs::CounterBlock& counters = sim.counters();
  RadioConfig cfg;
  cfg.loss_probability = 1.0;  // every attempt lost
  cfg.unicast_retries = 4;
  Medium medium(sim, sim::Rng(3), cfg, kArea, 50.0);
  medium.attach(1, {0, 0}, 50.0, {});
  int delivered = 0;
  medium.attach(2, {10, 0}, 50.0, [&](const Packet&, NodeId) { ++delivered; });
  Packet p;
  p.type = PacketType::kBeacon;
  p.dst = 2;
  EXPECT_FALSE(medium.unicast(1, 2, p));
  sim.run_all();
  EXPECT_EQ(delivered, 0);
  // Initial attempt + 4 retries, each on air and counted.
  EXPECT_EQ(counters.get(MessageCategory::kBeacon), 5u);
}

TEST(MediumLossTest, LosslessUnreachableUnicastFailsAfterOneTransmission) {
  sim::Simulator sim;
  const obs::CounterBlock& counters = sim.counters();
  RadioConfig cfg;
  cfg.unicast_retries = 7;  // must NOT be burned: retrying is futile at loss=0
  Medium medium(sim, sim::Rng(3), cfg, kArea, 50.0);
  medium.attach(1, {0, 0}, 50.0, {});
  medium.attach(2, {200, 0}, 50.0, {});  // out of range
  Packet p;
  p.type = PacketType::kBeacon;
  p.dst = 2;
  EXPECT_FALSE(medium.unicast(1, 2, p));
  EXPECT_EQ(counters.get(MessageCategory::kBeacon), 1u);
}

// --- Collision model -------------------------------------------------------------

TEST(MediumCollisionTest, OverlappingBroadcastsCorruptEachOther) {
  sim::Simulator sim;
  RadioConfig cfg;
  cfg.model_collisions = true;
  cfg.max_backoff_s = 0.0;  // no jitter: frames overlap deterministically
  Medium medium(sim, sim::Rng(1), cfg, kArea, 50.0);
  int delivered = 0;
  medium.attach(1, {0, 0}, 50.0, {});
  medium.attach(2, {20, 0}, 50.0, {});
  medium.attach(3, {10, 0}, 50.0, [&](const Packet&, NodeId) { ++delivered; });

  Packet p;
  p.type = PacketType::kBeacon;
  p.dst = kBroadcastId;
  medium.broadcast(1, p);  // same instant, zero backoff: guaranteed overlap
  medium.broadcast(2, p);
  sim.run_all();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(medium.collisions(), 2u);
}

TEST(MediumCollisionTest, SeparatedBroadcastsBothArrive) {
  sim::Simulator sim;
  RadioConfig cfg;
  cfg.model_collisions = true;
  cfg.max_backoff_s = 0.0;
  Medium medium(sim, sim::Rng(1), cfg, kArea, 50.0);
  int delivered = 0;
  medium.attach(1, {0, 0}, 50.0, {});
  medium.attach(2, {20, 0}, 50.0, {});
  medium.attach(3, {10, 0}, 50.0, [&](const Packet&, NodeId) { ++delivered; });

  Packet p;
  p.type = PacketType::kBeacon;
  p.dst = kBroadcastId;
  medium.broadcast(1, p);
  sim.run_until(1.0);  // first frame long gone
  medium.broadcast(2, p);
  sim.run_all();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(medium.collisions(), 0u);
}

TEST(MediumCollisionTest, BackoffJitterMostlySeparatesContenders) {
  // With the default 2 ms backoff and ~46 us frames, two contending
  // broadcasts collide rarely — the CSMA stand-in works.
  sim::Simulator sim;
  RadioConfig cfg;
  cfg.model_collisions = true;
  Medium medium(sim, sim::Rng(5), cfg, kArea, 50.0);
  int delivered = 0;
  medium.attach(1, {0, 0}, 50.0, {});
  medium.attach(2, {20, 0}, 50.0, {});
  medium.attach(3, {10, 0}, 50.0, [&](const Packet&, NodeId) { ++delivered; });
  Packet p;
  p.type = PacketType::kBeacon;
  p.dst = kBroadcastId;
  for (int round = 0; round < 100; ++round) {
    medium.broadcast(1, p);
    medium.broadcast(2, p);
    sim.run_all();
  }
  // 200 frames sent to node 3; expect >85% to survive the contention.
  EXPECT_GT(delivered, 170);
  EXPECT_LT(medium.collisions(), 60u);
}

TEST(MediumCollisionTest, UnicastsAreProtected) {
  sim::Simulator sim;
  RadioConfig cfg;
  cfg.model_collisions = true;
  cfg.max_backoff_s = 0.0;
  Medium medium(sim, sim::Rng(1), cfg, kArea, 50.0);
  int delivered = 0;
  medium.attach(1, {0, 0}, 50.0, {});
  medium.attach(2, {20, 0}, 50.0, {});
  medium.attach(3, {10, 0}, 50.0, [&](const Packet&, NodeId) { ++delivered; });
  Packet p;
  p.type = PacketType::kBeacon;
  p.dst = 3;
  EXPECT_TRUE(medium.unicast(1, 3, p));  // RTS/CTS-protected: no collision
  EXPECT_TRUE(medium.unicast(2, 3, p));
  sim.run_all();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(medium.collisions(), 0u);
}

// --- Frame delivery ------------------------------------------------------------
//
// A broadcast frame is one simulator event that hands the packet to each
// surviving receiver in ascending id order. Per-receiver events would have
// shared its instant and held consecutive sequence numbers, so these tests
// pin what makes the two designs equivalent: liveness is re-checked per
// receiver, and nothing a handler schedules runs before the frame is done.

/// A sender (id 1) at the origin and receivers 2..(1 + n) in its range.
struct FrameRig {
  explicit FrameRig(RadioConfig cfg = {}, int receivers = 3)
      : medium(sim, sim::Rng(11), cfg, kArea, 50.0) {
    medium.attach(1, {0, 0}, 50.0, {});
    for (NodeId id = 2; id < static_cast<NodeId>(2 + receivers); ++id) {
      medium.attach(id, {10, static_cast<double>(id)}, 50.0,
                    [this, id](const Packet& p, NodeId from) {
                      log.push_back(id);
                      if (auto it = on_rx.find(id); it != on_rx.end()) it->second(p, from);
                    });
    }
  }

  static Packet beacon() {
    Packet p;
    p.type = PacketType::kBeacon;
    p.src = 1;
    p.dst = kBroadcastId;
    return p;
  }

  sim::Simulator sim;
  Medium medium;
  std::vector<NodeId> log;  // receptions in order; kNoNode marks a timer
  std::map<NodeId, Medium::ReceiveFn> on_rx;
};

TEST(MediumFrameTest, ReceiverKilledOrDetachedMidFrameMissesIt) {
  FrameRig rig({}, 4);  // receivers 2, 3, 4, 5
  rig.on_rx[2] = [&](const Packet&, NodeId) {
    rig.medium.set_alive(4, false);
    rig.medium.detach(5);
  };
  rig.medium.broadcast(1, FrameRig::beacon());
  rig.sim.run_all();
  EXPECT_EQ(rig.log, (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(rig.medium.deliveries(), 2u);
}

TEST(MediumFrameTest, ZeroDelayEventFromAReceiverRunsAfterTheWholeFrame) {
  FrameRig rig;
  rig.on_rx[2] = [&](const Packet&, NodeId) {
    rig.sim.in(0.0, [&] { rig.log.push_back(kNoNode); });
  };
  rig.medium.broadcast(1, FrameRig::beacon());
  rig.sim.run_all();
  EXPECT_EQ(rig.log, (std::vector<NodeId>{2, 3, 4, kNoNode}));
}

TEST(MediumFrameTest, ReentrantBroadcastsGrowingThePoolLeaveTheFrameInFlightIntact) {
  FrameRig rig;
  std::vector<std::pair<NodeId, NodeId>> heard;  // (receiver, packet src)
  bool relayed = false;
  const auto record = [&](NodeId self) {
    return [&, self](const Packet& p, NodeId from) {
      EXPECT_EQ(from, p.src);
      EXPECT_EQ(p.hops, 1u);
      heard.emplace_back(self, p.src);
    };
  };
  rig.on_rx[3] = record(3);
  rig.on_rx[4] = record(4);
  rig.on_rx[2] = [&](const Packet& p, NodeId) {
    if (relayed) return;
    relayed = true;
    // Each echo takes a fresh pool entry while the original frame is still
    // being delivered. Under ASan, a pool that moved the frame in flight as
    // it grew would fault on the reads below and in the later receivers.
    for (int i = 0; i < 200; ++i) {
      Packet echo = p;
      echo.src = 2;
      echo.hops = 0;
      rig.medium.broadcast(2, echo);
    }
    EXPECT_EQ(p.src, 1u);
    EXPECT_EQ(p.hops, 1u);
  };
  rig.medium.broadcast(1, FrameRig::beacon());
  rig.sim.run_all();
  // The original frame reaches 3 and 4 first; then each echo does.
  ASSERT_EQ(heard.size(), 2u + 2u * 200u);
  EXPECT_EQ(heard[0], (std::pair<NodeId, NodeId>{3, 1}));
  EXPECT_EQ(heard[1], (std::pair<NodeId, NodeId>{4, 1}));
  for (std::size_t i = 2; i < heard.size(); ++i) EXPECT_EQ(heard[i].second, 2u);
}

TEST(MediumFrameTest, LossSurvivorsMatchAReferenceFilterOnTheSameSeed) {
  RadioConfig cfg;
  cfg.loss_probability = 0.3;
  FrameRig rig(cfg, 12);  // receivers 2..13
  rig.medium.set_alive(7, false);  // skipped before any loss draw
  // The medium's stream, replayed: one backoff draw per frame, then one loss
  // draw per live candidate in ascending id order.
  sim::Rng reference(11);
  for (int frame = 0; frame < 30; ++frame) {
    (void)reference.uniform(0.0, cfg.max_backoff_s);
    std::vector<NodeId> want;
    for (NodeId id = 2; id <= 13; ++id) {
      if (id == 7) continue;
      if (!reference.chance(cfg.loss_probability)) want.push_back(id);
    }
    rig.log.clear();
    rig.medium.broadcast(1, FrameRig::beacon());
    rig.sim.run_all();
    EXPECT_EQ(rig.log, want) << "frame " << frame;
  }
}

TEST(MediumFrameTest, OneEventPerFrameUnlessReceiversNeedTheirOwn) {
  const auto events_for = [](RadioConfig cfg) {
    FrameRig rig(cfg, 5);
    rig.medium.broadcast(1, FrameRig::beacon());
    rig.sim.run_all();
    EXPECT_GE(rig.log.size(), 5u);  // every receiver heard the frame
    return rig.sim.executed();
  };
  EXPECT_EQ(events_for({}), 1u);

  RadioConfig burst;  // chaos that draws per receiver but keeps one instant
  burst.chaos.burst.enabled = true;
  burst.chaos.burst.loss_bad = 0.0;
  EXPECT_EQ(events_for(burst), 1u);

  RadioConfig collisions;
  collisions.model_collisions = true;
  EXPECT_EQ(events_for(collisions), 5u);

  RadioConfig jitter;
  jitter.chaos.jitter.enabled = true;
  jitter.chaos.jitter.probability = 1.0;
  EXPECT_EQ(events_for(jitter), 5u);

  RadioConfig dup;
  dup.chaos.duplication.enabled = true;
  dup.chaos.duplication.probability = 1.0;
  EXPECT_EQ(events_for(dup), 10u);  // each receiver's copy and its duplicate

  FrameRig rig;
  EXPECT_TRUE(rig.medium.unicast(1, 3, FrameRig::beacon()));
  rig.sim.run_all();
  EXPECT_EQ(rig.log, (std::vector<NodeId>{3}));
  EXPECT_EQ(rig.sim.executed(), 1u);
}

// --- Packet ------------------------------------------------------------------------

TEST(PacketTest, SizeDependsOnType) {
  Packet a, b;
  a.type = PacketType::kBeacon;
  b.type = PacketType::kFailureReport;
  EXPECT_GT(b.size_bytes(), a.size_bytes());
  EXPECT_GE(a.size_bytes(), 32u);  // at least the IP + option headers
}

TEST(PacketTest, CategoryMappingCoversAllTypes) {
  EXPECT_EQ(category_of(PacketType::kBeacon), MessageCategory::kBeacon);
  EXPECT_EQ(category_of(PacketType::kLocationAnnounce), MessageCategory::kInitialization);
  EXPECT_EQ(category_of(PacketType::kGuardianConfirm), MessageCategory::kGuardianConfirm);
  EXPECT_EQ(category_of(PacketType::kFailureReport), MessageCategory::kFailureReport);
  EXPECT_EQ(category_of(PacketType::kRepairRequest), MessageCategory::kRepairRequest);
  EXPECT_EQ(category_of(PacketType::kLocationUpdate), MessageCategory::kLocationUpdate);
  EXPECT_EQ(category_of(PacketType::kReplacementAnnounce), MessageCategory::kReplacement);
}

TEST(PacketTest, NodeIdPredicates) {
  EXPECT_TRUE(is_real_node(0));
  EXPECT_TRUE(is_real_node(12345));
  EXPECT_FALSE(is_real_node(kNoNode));
  EXPECT_FALSE(is_real_node(kBroadcastId));
}

}  // namespace
}  // namespace sensrep::net
