#include "core/manager_node.hpp"

#include "trace/log.hpp"

namespace sensrep::core {

using net::NodeId;
using net::Packet;

ManagerNode::ManagerNode(NodeId id, geometry::Vec2 pos, double tx_range,
                         sim::Simulator& simulator, net::Medium& medium, DeliverFn deliver)
    : id_(id), pos_(pos), tx_range_(tx_range), medium_(&medium), deliver_(std::move(deliver)) {
  routing::GeoRouter::Callbacks cb;
  cb.deliver = [this](const Packet& pkt) { deliver_(pkt); };
  cb.drop = [&simulator, id](const Packet& pkt, routing::DropReason reason) {
    trace::Logger::global().logf(trace::Level::kDebug, simulator.now(), "manager",
                                 "manager %u dropped %s: %s", id,
                                 std::string(net::to_string(pkt.type)).c_str(),
                                 std::string(to_string(reason)).c_str());
  };
  router_ = std::make_unique<routing::GeoRouter>(
      id_, medium, table_, [this] { return pos_; }, std::move(cb));
  medium_->attach(id_, pos_, tx_range_,
                  [this](const Packet& pkt, NodeId from) { on_packet(pkt, from); });
}

void ManagerNode::refresh_neighbor_table() {
  table_.clear();
  for (const NodeId n : medium_->neighbors_of(id_)) {
    table_.upsert(n, medium_->position_of(n));
  }
}

void ManagerNode::on_packet(const Packet& pkt, NodeId from) {
  if (failed_) return;  // dead node (the medium already drops RX; belt & braces)
  if (pkt.dst == net::kBroadcastId) return;  // sensor-side flood traffic
  refresh_neighbor_table();
  router_->on_receive(pkt, from);
}

void ManagerNode::fail() {
  if (failed_) return;
  failed_ = true;
  medium_->set_alive(id_, false);
}

void ManagerNode::repair() {
  if (!failed_) return;
  failed_ = false;
  medium_->set_alive(id_, true);
  refresh_neighbor_table();
}

}  // namespace sensrep::core
