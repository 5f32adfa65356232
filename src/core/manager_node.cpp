#include "core/manager_node.hpp"

namespace sensrep::core {

using net::NodeId;
using net::Packet;

ManagerNode::ManagerNode(NodeId id, geometry::Vec2 pos, double tx_range,
                         net::Medium& medium, DeliverFn deliver)
    : id_(id),
      pos_(pos),
      tx_range_(tx_range),
      medium_(&medium),
      router_(id, medium, table_, pos_),
      deliver_(std::move(deliver)) {
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
  if (router_.on_receive(pkt, from)) deliver_(pkt);
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
