// E10 — localization-error sensitivity (tests the paper's §2a assumption).
//
// The paper assumes perfect self-localization. Real deployments localize a
// 90% majority of nodes by multilaterating noisy ranges to a 10% anchor
// population, and geographic routing then runs on *estimated* coordinates
// while radio reachability is governed by *true* positions. This bench
// sweeps ranging noise and measures what survives: report delivery ratio
// and hop stretch over a paper-scale field.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "geometry/localization.hpp"
#include "metrics/counters.hpp"
#include "net/medium.hpp"
#include "routing/geo_router.hpp"
#include "wsn/deployment.hpp"

namespace {

using sensrep::geometry::LocalizationConfig;
using sensrep::geometry::Rect;
using sensrep::geometry::Vec2;
using sensrep::net::NodeId;
using sensrep::net::Packet;

struct Outcome {
  double delivery_ratio = 0.0;
  double avg_hops = 0.0;
  double mean_position_error = 0.0;
};

/// Routes 300 random sensor->sensor reports over a 450-node, 600x600 m field
/// (the paper's 9-robot density) with positions estimated at the given
/// ranging noise. Radio truth vs routing belief are kept separate.
Outcome run_noise(double range_noise) {
  static std::map<long long, Outcome> cache;
  const auto key = static_cast<long long>(range_noise * 100);
  if (auto it = cache.find(key); it != cache.end()) return it->second;

  const std::size_t n = 450;
  const double range = 63.0;
  sensrep::sim::Rng deploy_rng(1);
  const auto truth =
      sensrep::wsn::uniform_deployment(deploy_rng, Rect::sized(600, 600), n);

  LocalizationConfig lcfg;
  lcfg.range_noise_stddev = range_noise;
  sensrep::sim::Rng loc_rng(2);
  const auto loc = localize_field(truth, lcfg, loc_rng);

  sensrep::sim::Simulator simulator;
  sensrep::net::Medium medium(simulator, sensrep::sim::Rng(3), {},
                              Rect::sized(600, 600), range);

  struct Node {
    Node(NodeId id, Vec2 believed_pos, sensrep::net::Medium& radio)
        : believed(believed_pos), router(id, radio, table, believed) {}
    Vec2 believed;
    sensrep::routing::NeighborTable table;
    sensrep::routing::GeoRouter router;
    std::size_t delivered = 0;
    std::uint64_t hops = 0;
  };
  std::vector<std::unique_ptr<Node>> nodes;
  for (NodeId i = 0; i < n; ++i) {
    auto node = std::make_unique<Node>(i, loc.estimated[i], medium);
    Node* raw = node.get();
    // Radio truth: attached at the TRUE position.
    medium.attach(i, truth[i], range, [raw](const Packet& pkt, NodeId from) {
      if (raw->router.on_receive(pkt, from)) {
        ++raw->delivered;
        raw->hops += pkt.hops;
      }
    });
    nodes.push_back(std::move(node));
  }
  // Tables carry believed coordinates of truly-in-range neighbors (what
  // location announcements would deliver).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && distance(truth[i], truth[j]) <= range) {
        nodes[i]->table.upsert(static_cast<NodeId>(j), loc.estimated[j]);
      }
    }
  }

  sensrep::sim::Rng pick(4);
  std::size_t sent = 0, delivered_total = 0;
  std::uint64_t hops_total = 0;
  for (int t = 0; t < 300; ++t) {
    const auto src = static_cast<std::size_t>(pick.below(n));
    const auto dst = static_cast<std::size_t>(pick.below(n));
    if (src == dst) continue;
    Packet pkt;
    pkt.type = sensrep::net::PacketType::kFailureReport;
    pkt.payload = sensrep::net::FailureReportPayload{};
    pkt.dst = static_cast<NodeId>(dst);
    pkt.dst_location = loc.estimated[dst];  // believed target position
    pkt.ttl = 256;
    const auto before = nodes[dst]->delivered;
    const auto hops_before = nodes[dst]->hops;
    nodes[src]->router.send(std::move(pkt));
    simulator.run_all();
    ++sent;
    if (nodes[dst]->delivered > before) {
      ++delivered_total;
      hops_total += nodes[dst]->hops - hops_before;
    }
  }

  Outcome out;
  out.delivery_ratio = static_cast<double>(delivered_total) / static_cast<double>(sent);
  out.avg_hops = delivered_total == 0
                     ? 0.0
                     : static_cast<double>(hops_total) / static_cast<double>(delivered_total);
  out.mean_position_error = loc.mean_error;
  cache[key] = out;
  return out;
}

void BM_Localization(benchmark::State& state) {
  const double noise = static_cast<double>(state.range(0));
  for (auto _ : state) {
    const auto o = run_noise(noise);
    state.counters["delivery_ratio"] = o.delivery_ratio;
    state.counters["avg_hops"] = o.avg_hops;
    state.counters["pos_error_m"] = o.mean_position_error;
  }
}

void print_figure() {
  std::puts("\n=== E10: geographic routing vs localization error (450 nodes, 10% anchors) ===");
  std::puts("range_noise(m)  pos_error(m)  delivery  avg_hops");
  for (const double noise : {0.0, 2.0, 5.0, 10.0, 20.0}) {
    const auto o = run_noise(noise);
    std::printf("%14.0f  %12.2f  %8.3f  %8.2f\n", noise, o.mean_position_error,
                o.delivery_ratio, o.avg_hops);
  }
  std::puts(
      "greedy+face routing degrades gracefully: position errors well below the 63 m\n"
      "radio range cost a little stretch; errors comparable to the range break the\n"
      "paper's location-service assumption");
}

}  // namespace

BENCHMARK(BM_Localization)->Arg(0)->Arg(2)->Arg(5)->Arg(10)->Arg(20)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_figure();
  return 0;
}
