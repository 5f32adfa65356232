// Property-based suites (parameterized gtest): invariants that must hold
// across randomized topologies, seeds, densities and algorithms —
// the GFG delivery guarantee, Voronoi tiling, failure-record timeline
// monotonicity, transmission-accounting conservation, and replay determinism.

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "core/simulation.hpp"
#include "geometry/voronoi.hpp"
#include "net/medium.hpp"
#include "routing/geo_router.hpp"
#include "routing/planarizer.hpp"
#include "sim/rng.hpp"
#include "wsn/deployment.hpp"

namespace sensrep {
namespace {

using geometry::Rect;
using geometry::Vec2;
using net::NodeId;
using net::Packet;

// --- GFG delivery guarantee across densities and seeds -----------------------------

struct TopologyParam {
  std::uint64_t seed;
  std::size_t nodes;
  double range;
};

class GeoRoutingProperty : public ::testing::TestWithParam<TopologyParam> {};

/// Union-find over the unit-disk graph to know ground-truth connectivity.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) x = parent_[x] = parent_[parent_[x]];
    return x;
  }
  void unite(std::size_t a, std::size_t b) { parent_[find(a)] = find(b); }

 private:
  std::vector<std::size_t> parent_;
};

TEST_P(GeoRoutingProperty, DeliversIffConnected) {
  const auto p = GetParam();
  sim::Rng rng(p.seed);
  const Rect area = Rect::sized(300, 300);
  const auto pts = wsn::uniform_deployment(rng, area, p.nodes);

  UnionFind uf(p.nodes);
  for (std::size_t i = 0; i < p.nodes; ++i) {
    for (std::size_t j = i + 1; j < p.nodes; ++j) {
      if (geometry::distance(pts[i], pts[j]) <= p.range) uf.unite(i, j);
    }
  }

  sim::Simulator simulator;
  net::Medium medium(simulator, sim::Rng(p.seed + 1), {}, area, p.range);

  struct Node {
    Vec2 pos;
    routing::NeighborTable table;
    std::unique_ptr<routing::GeoRouter> router;
    std::size_t delivered = 0;
  };
  std::vector<std::unique_ptr<Node>> nodes;
  for (NodeId i = 0; i < p.nodes; ++i) {
    auto n = std::make_unique<Node>();
    n->pos = pts[i];
    Node* raw = n.get();
    routing::GeoRouter::Callbacks cb;
    cb.deliver = [raw](const Packet&) { ++raw->delivered; };
    n->router = std::make_unique<routing::GeoRouter>(
        i, medium, n->table, [raw] { return raw->pos; }, std::move(cb));
    medium.attach(i, pts[i], p.range, [raw](const Packet& pkt, NodeId from) {
      raw->router->on_receive(pkt, from);
    });
    nodes.push_back(std::move(n));
  }
  for (std::size_t i = 0; i < p.nodes; ++i) {
    for (std::size_t j = 0; j < p.nodes; ++j) {
      if (i != j && geometry::distance(pts[i], pts[j]) <= p.range) {
        nodes[i]->table.upsert(static_cast<NodeId>(j), pts[j]);
      }
    }
  }

  // Sample src/dst pairs; every *connected* pair must deliver (GFG
  // guarantee on the Gabriel-planarized unit-disk graph); disconnected
  // pairs must not.
  sim::Rng pick(p.seed + 2);
  std::size_t expected = 0, attempted = 0;
  std::vector<std::size_t> before(p.nodes);
  for (int trial = 0; trial < 40; ++trial) {
    const auto src = static_cast<std::size_t>(pick.below(p.nodes));
    const auto dst = static_cast<std::size_t>(pick.below(p.nodes));
    if (src == dst) continue;
    Packet pkt;
    pkt.type = net::PacketType::kFailureReport;
    pkt.payload = net::FailureReportPayload{};
    pkt.dst = static_cast<NodeId>(dst);
    pkt.dst_location = pts[dst];
    pkt.ttl = 4 * static_cast<std::uint32_t>(p.nodes);
    before[dst] = nodes[dst]->delivered;
    nodes[src]->router->send(std::move(pkt));
    simulator.run_all();
    const bool connected = uf.find(src) == uf.find(dst);
    const bool delivered = nodes[dst]->delivered > before[dst];
    EXPECT_EQ(delivered, connected)
        << "src=" << src << " dst=" << dst << " seed=" << p.seed;
    ++attempted;
    expected += connected ? 1 : 0;
  }
  ASSERT_GT(attempted, 0);
  (void)expected;
}

INSTANTIATE_TEST_SUITE_P(
    DensitiesAndSeeds, GeoRoutingProperty,
    ::testing::Values(TopologyParam{1, 40, 40.0},   // sparse: perimeter-heavy
                      TopologyParam{2, 40, 40.0},
                      TopologyParam{3, 80, 40.0},   // medium
                      TopologyParam{4, 80, 40.0},
                      TopologyParam{5, 150, 40.0},  // dense: mostly greedy
                      TopologyParam{6, 60, 30.0},   // likely partitioned
                      TopologyParam{7, 60, 30.0}),
    [](const ::testing::TestParamInfo<TopologyParam>& param_info) {
      return "seed" + std::to_string(param_info.param.seed) + "_n" +
             std::to_string(param_info.param.nodes) + "_r" +
             std::to_string(static_cast<int>(param_info.param.range));
    });

// --- Gabriel planarization preserves connectivity -----------------------------------

class PlanarConnectivity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PlanarConnectivity, GabrielSubgraphStaysConnected) {
  sim::Rng rng(GetParam());
  const std::size_t n = 80;
  const double range = 45.0;
  const auto pts = wsn::uniform_deployment(rng, Rect::sized(300, 300), n);

  // Full unit-disk graph components.
  UnionFind full(n);
  // Gabriel subgraph components (symmetric local test at each endpoint).
  UnionFind gabriel(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<routing::NeighborEntry> witnesses;
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && geometry::distance(pts[i], pts[j]) <= range) {
        witnesses.push_back({static_cast<NodeId>(j), pts[j]});
      }
    }
    for (const auto& w : witnesses) {
      full.unite(i, w.id);
      if (routing::edge_survives(routing::PlanarGraph::kGabriel, pts[i], w, witnesses)) {
        gabriel.unite(i, w.id);
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (full.find(i) == full.find(j)) {
        EXPECT_EQ(gabriel.find(i), gabriel.find(j))
            << "Gabriel planarization disconnected " << i << " and " << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanarConnectivity,
                         ::testing::Values(11u, 12u, 13u, 14u, 15u));

// --- Voronoi tiling across random site sets ----------------------------------------

class VoronoiProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VoronoiProperty, CellsTileAndAgreeWithNearestSite) {
  sim::Rng rng(GetParam());
  const Rect bounds = Rect::sized(500, 400);
  std::vector<Vec2> sites;
  const auto count = 2 + rng.below(14);
  for (std::uint64_t i = 0; i < count; ++i) {
    sites.push_back({rng.uniform(0, 500), rng.uniform(0, 400)});
  }
  const geometry::VoronoiDiagram vd(sites, bounds);

  double total = 0.0;
  for (std::size_t i = 0; i < vd.site_count(); ++i) total += vd.cell(i).area();
  EXPECT_NEAR(total, bounds.area(), 1e-6);

  for (int t = 0; t < 200; ++t) {
    const Vec2 p{rng.uniform(0, 500), rng.uniform(0, 400)};
    EXPECT_TRUE(vd.in_cell(vd.nearest_site(p), p));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VoronoiProperty,
                         ::testing::Values(21u, 22u, 23u, 24u, 25u, 26u));

// --- Failure-record timeline monotonicity across full runs ---------------------------

struct RunParam {
  core::Algorithm algorithm;
  std::uint64_t seed;
};

class TimelineProperty : public ::testing::TestWithParam<RunParam> {};

TEST_P(TimelineProperty, RecordsAreChronologicallyConsistent) {
  core::SimulationConfig cfg;
  cfg.algorithm = GetParam().algorithm;
  cfg.robots = 4;
  cfg.seed = GetParam().seed;
  cfg.sim_duration = 6000.0;
  core::Simulation s(cfg);
  s.run();

  for (const auto& rec : s.failure_log().records()) {
    EXPECT_TRUE(sim::is_valid_time(rec.failed_at));
    if (rec.detected()) {
      EXPECT_GE(rec.detected_at, rec.failed_at);
    }
    if (sim::is_valid_time(rec.reported_at)) {
      EXPECT_TRUE(rec.detected());
      EXPECT_GE(rec.reported_at, rec.detected_at);
    }
    if (sim::is_valid_time(rec.dispatched_at)) {
      EXPECT_GE(rec.dispatched_at, rec.reported_at - 1e-9);
    }
    if (rec.repaired()) {
      EXPECT_TRUE(sim::is_valid_time(rec.dispatched_at));
      EXPECT_GE(rec.repaired_at, rec.dispatched_at);
      EXPECT_GE(rec.travel_distance, 0.0);
      ASSERT_TRUE(rec.robot_id.has_value());
      EXPECT_GE(*rec.robot_id, s.config().robot_base_id());
    }
  }
}

TEST_P(TimelineProperty, TransmissionAccountingIsConserved) {
  core::SimulationConfig cfg;
  cfg.algorithm = GetParam().algorithm;
  cfg.robots = 4;
  cfg.seed = GetParam().seed;
  cfg.sim_duration = 6000.0;
  core::Simulation s(cfg);
  s.run();

  const auto& c = s.counters();
  // Beacons dominate: ~200 sensors x 600 periods, minus dead time.
  const auto beacons = c.get(metrics::MessageCategory::kBeacon);
  EXPECT_GT(beacons, 80000u);
  EXPECT_LT(beacons, 121000u);
  // Every category the run uses must be represented; nothing in kOther.
  EXPECT_EQ(c.get(metrics::MessageCategory::kOther), 0u);
  EXPECT_GT(c.get(metrics::MessageCategory::kInitialization), 0u);
  EXPECT_GT(c.get(metrics::MessageCategory::kGuardianConfirm), 0u);
  if (!s.failure_log().records().empty()) {
    EXPECT_GT(c.get(metrics::MessageCategory::kFailureReport), 0u);
    EXPECT_GT(c.get(metrics::MessageCategory::kLocationUpdate), 0u);
    EXPECT_GT(c.get(metrics::MessageCategory::kReplacement), 0u);
  }
  // Repair requests exist iff centralized.
  if (GetParam().algorithm == core::Algorithm::kCentralized) {
    EXPECT_GT(c.get(metrics::MessageCategory::kRepairRequest), 0u);
  } else {
    EXPECT_EQ(c.get(metrics::MessageCategory::kRepairRequest), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndSeeds, TimelineProperty,
    ::testing::Values(RunParam{core::Algorithm::kCentralized, 31},
                      RunParam{core::Algorithm::kFixedDistributed, 32},
                      RunParam{core::Algorithm::kDynamicDistributed, 33},
                      RunParam{core::Algorithm::kCentralized, 34},
                      RunParam{core::Algorithm::kFixedDistributed, 35},
                      RunParam{core::Algorithm::kDynamicDistributed, 36}),
    [](const ::testing::TestParamInfo<RunParam>& param_info) {
      return std::string(to_string(param_info.param.algorithm)) + "_seed" +
             std::to_string(param_info.param.seed);
    });

// --- Reliable reports: eventual delivery under Bernoulli loss ------------------------

class ReliableDeliveryProperty : public ::testing::TestWithParam<RunParam> {};

TEST_P(ReliableDeliveryProperty, EveryDetectedFailureIsEventuallyReported) {
  // With end-to-end acks and a retry budget that outlasts the loss process,
  // every detected failure's report must eventually reach a manager — the
  // whole point of the reliable_reports extension. Failures detected in the
  // final retry-horizon of the run are excluded: their retransmission window
  // is cut short by the simulation end, not by the protocol.
  core::SimulationConfig cfg;
  cfg.algorithm = GetParam().algorithm;
  cfg.robots = 4;
  cfg.seed = GetParam().seed;
  cfg.sim_duration = 8000.0;
  cfg.radio.loss_probability = 0.15;
  cfg.field.reliable_reports = true;
  cfg.field.report_retries = 50;  // retry budget >> E[attempts to succeed]
  core::Simulation s(cfg);
  s.run();

  const double grace =
      (cfg.field.report_retries + 1) * cfg.field.report_retry_timeout;
  std::size_t checked = 0;
  for (const auto& rec : s.failure_log().records()) {
    if (!rec.detected() || rec.detected_at > cfg.sim_duration - grace) continue;
    ++checked;
    EXPECT_TRUE(sim::is_valid_time(rec.reported_at))
        << "slot " << rec.node_id << " detected at " << rec.detected_at
        << " but its report never got through";
  }
  ASSERT_GT(checked, 10u);  // the property was actually exercised
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsAndSeeds, ReliableDeliveryProperty,
    ::testing::Values(RunParam{core::Algorithm::kCentralized, 51},
                      RunParam{core::Algorithm::kFixedDistributed, 52},
                      RunParam{core::Algorithm::kDynamicDistributed, 53},
                      RunParam{core::Algorithm::kDynamicDistributed, 54}),
    [](const ::testing::TestParamInfo<RunParam>& param_info) {
      return std::string(to_string(param_info.param.algorithm)) + "_seed" +
             std::to_string(param_info.param.seed);
    });

// --- Per-robot bookkeeping consistency -----------------------------------------------

TEST(BookkeepingProperty, OdometerCoversAttributedTravel) {
  for (const auto algo :
       {core::Algorithm::kCentralized, core::Algorithm::kFixedDistributed,
        core::Algorithm::kDynamicDistributed}) {
    core::SimulationConfig cfg;
    cfg.algorithm = algo;
    cfg.robots = 9;
    cfg.seed = 41;
    cfg.sim_duration = 6000.0;
    core::Simulation s(cfg);
    s.run();

    std::map<NodeId, double> attributed;
    for (const auto& rec : s.failure_log().records()) {
      if (rec.repaired()) attributed[*rec.robot_id] += rec.travel_distance;
    }
    for (const auto& robot : s.robots()) {
      // A robot's odometer includes unfinished drives, so >= attributed sum.
      EXPECT_GE(robot->odometer() + 1e-6, attributed[robot->id()])
          << to_string(algo) << " robot " << robot->id();
    }
  }
}

}  // namespace
}  // namespace sensrep
