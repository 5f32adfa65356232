#include "routing/geo_router.hpp"

#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/profiler.hpp"
#include "routing/face_routing.hpp"
#include "trace/log.hpp"

namespace sensrep::routing {

using geometry::Vec2;
using net::GeoMode;
using net::kNoNode;
using net::NodeId;
using net::Packet;

std::string_view to_string(DropReason r) noexcept {
  switch (r) {
    case DropReason::kTtlExpired: return "ttl_expired";
    case DropReason::kNoNeighbors: return "no_neighbors";
    case DropReason::kFaceLoop: return "face_loop";
    case DropReason::kLinkFailure: return "link_failure";
  }
  return "?";
}

GeoRouter::GeoRouter(NodeId self, net::Medium& medium, NeighborTable& table,
                     const Vec2& position)
    : medium_(medium), table_(table), pos_(position), self_(self) {}

void GeoRouter::send(Packet pkt) {
  if (pkt.dst == self_) throw std::logic_error("GeoRouter::send: packet addressed to self");
  pkt.src = self_;
  pkt.seq = next_seq_++;
  forward(std::move(pkt), kNoNode);
}

bool GeoRouter::on_receive(const Packet& pkt, NodeId from) {
  if (pkt.dst == self_) return true;
  forward(pkt, from);
  return false;
}

std::uint64_t GeoRouter::drops() const noexcept {
  return std::accumulate(drops_.begin(), drops_.end(), std::uint64_t{0});
}

void GeoRouter::drop_packet(const Packet& pkt, DropReason reason) {
  ++drops_[static_cast<std::size_t>(reason)];
  trace::Logger::global().logf(trace::Level::kDebug, medium_.now(), "routing",
                               "node %u dropped %s: %s", self_,
                               std::string(net::to_string(pkt.type)).c_str(),
                               std::string(to_string(reason)).c_str());
}

bool GeoRouter::try_unicast(NodeId next, const Packet& pkt) {
  if (medium_.unicast(self_, next, pkt)) return true;
  // The link is down (neighbor died or moved away): evict so the next
  // candidate computation does not pick it again.
  table_.remove(next);
  return false;
}

void GeoRouter::forward(Packet pkt, NodeId from) {
  // Safe to time the whole call: transmission is asynchronous (the medium
  // delivers via the simulator), so forward() never re-enters itself.
  const obs::ScopedTimer probe(obs::Probe::kRouterNextHop);
  if (pkt.ttl == 0) {
    drop_packet(pkt, DropReason::kTtlExpired);
    return;
  }
  pkt.ttl -= 1;

  // Direct shortcut: the destination itself is a known one-hop neighbor.
  // Robots announce themselves to nearby sensors, so the final hop to a
  // moving robot resolves here even when the advertised dst_location lags
  // its true position by up to the 20 m update threshold.
  while (table_.contains(pkt.dst)) {
    if (try_unicast(pkt.dst, pkt)) return;
  }

  // Alternate greedy/perimeter until the packet is transmitted or dropped.
  // Mode flips are strictly bounded: greedy -> perimeter happens at most once
  // per node (no progress), perimeter -> greedy only with strict progress
  // over the perimeter entry point.
  for (int flips = 0; flips < 4; ++flips) {
    if (pkt.geo.mode == GeoMode::kGreedy) {
      if (greedy_hop(pkt)) return;
      if (table_.empty()) {
        drop_packet(pkt, DropReason::kNoNeighbors);
        return;
      }
      // Enter perimeter mode at this node (GPSR: record Lp and reset face
      // state; the first edge is chosen by the right-hand rule from the
      // line self->dst).
      pkt.geo.mode = GeoMode::kPerimeter;
      pkt.geo.entry_loc = pos_;
      pkt.geo.face_entry = pos_;
      pkt.geo.first_edge_from = kNoNode;
      pkt.geo.first_edge_to = kNoNode;
      from = kNoNode;  // the sweep reference is the dst line, not an edge
      continue;
    }
    // Perimeter mode: resume greedy once strictly closer than the entry.
    if (geometry::distance(pos_, pkt.dst_location) <
        geometry::distance(pkt.geo.entry_loc, pkt.dst_location)) {
      pkt.geo.mode = GeoMode::kGreedy;
      continue;
    }
    perimeter_hop(pkt, from);
    return;
  }
  // Unreachable: the flip bound above cannot be exceeded by the transitions
  // described. Guard anyway.
  drop_packet(pkt, DropReason::kNoNeighbors);
}

bool GeoRouter::greedy_hop(Packet& pkt) {
  const Vec2 here = pos_;
  for (;;) {
    const double my_d = geometry::distance(here, pkt.dst_location);
    const auto cand = table_.closest_to_with_progress(pkt.dst_location, my_d);
    if (!cand) return false;
    if (try_unicast(cand->id, pkt)) return true;
    // Link failed; entry was evicted — try the next best candidate.
  }
}

bool GeoRouter::perimeter_hop(Packet& pkt, NodeId from) {
  const Vec2 here = pos_;
  for (;;) {
    const auto planar = planar_neighbors(PlanarGraph::kGabriel, here, table_.entries());
    if (planar.empty()) {
      drop_packet(pkt, DropReason::kNoNeighbors);
      return false;
    }

    // Reference direction: incoming edge when known, else the dst line
    // (perimeter entry at this node).
    Vec2 ref;
    if (from != kNoNode) {
      if (const auto fpos = table_.position_of(from)) {
        ref = *fpos - here;
      } else {
        ref = pkt.dst_location - here;
      }
    } else {
      ref = pkt.dst_location - here;
    }

    auto cand = right_hand_neighbor(here, ref, planar, from);
    if (!cand) {
      drop_packet(pkt, DropReason::kNoNeighbors);
      return false;
    }

    // Face changes: while the candidate edge crosses LpD strictly closer to
    // dst than the current face entry, hop to the next face and re-sweep
    // from the dst line. Each iteration strictly shrinks d(Lf, dst), so the
    // loop terminates; bound it defensively by the planar degree.
    for (std::size_t i = 0; i <= planar.size(); ++i) {
      const auto cross = face_change_point(here, cand->pos, pkt.geo.entry_loc,
                                           pkt.dst_location, pkt.geo.face_entry);
      if (!cross) break;
      pkt.geo.face_entry = *cross;
      auto next = right_hand_neighbor(here, pkt.dst_location - here, planar, from);
      if (!next || next->id == cand->id) break;
      cand = next;
    }

    // Loop detection: re-traversing the recorded first perimeter edge means
    // the destination region is unreachable in this planar face structure.
    if (pkt.geo.first_edge_from == self_ && pkt.geo.first_edge_to == cand->id) {
      drop_packet(pkt, DropReason::kFaceLoop);
      return false;
    }
    if (pkt.geo.first_edge_from == kNoNode) {
      pkt.geo.first_edge_from = self_;
      pkt.geo.first_edge_to = cand->id;
    }

    if (try_unicast(cand->id, pkt)) return true;
    if (table_.empty()) {
      drop_packet(pkt, DropReason::kLinkFailure);
      return false;
    }
    // Candidate evicted after link failure; recompute on the shrunken table.
  }
}

}  // namespace sensrep::routing
