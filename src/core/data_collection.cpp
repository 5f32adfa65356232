#include "core/data_collection.hpp"

namespace sensrep::core {

using net::NodeId;
using net::Packet;
using net::PacketType;

DataCollection::DataCollection(Simulation& simulation, const Config& config)
    : sim_(&simulation),
      config_(config),
      rng_(sim::Rng(simulation.config().seed).fork("data-collection")) {
  // Sink: robot-class radio at the field center, one id above the manager's
  // slot so the two coexist under the centralized algorithm.
  const NodeId sink_id = simulation.config().manager_id() + 1;
  sink_ = std::make_unique<ManagerNode>(
      sink_id, simulation.config().field_area().center(),
      simulation.config().robot_tx_range, simulation.medium(),
      [this](const Packet& pkt) {
        if (pkt.type != PacketType::kData) return;
        ++delivered_;
        ++window_delivered_;
      });
  refresh_sink_neighbors();
  simulation.simulator().every(config_.sink_announce_period,
                               [this] { refresh_sink_neighbors(); });

  for (NodeId s = 0; s < simulation.field().size(); ++s) start_sensor_timer(s);
}

void DataCollection::refresh_sink_neighbors() {
  // The sink beacons like any node (one counted transmission); sensors in
  // *their own* TX range of it keep a final-hop table entry. This restores
  // entries on replacement units near the sink.
  sim_->medium().account(metrics::MessageCategory::kData);
  auto& field = sim_->field();
  const double range = sim_->config().field.sensor_tx_range;
  for (NodeId s = 0; s < field.size(); ++s) {
    auto& sensor = field.node(s);
    if (!sensor.alive()) continue;
    if (geometry::distance(sensor.position(), sink_->position()) <= range) {
      sensor.table().upsert(sink_->id(), sink_->position());
    }
  }
}

void DataCollection::start_sensor_timer(NodeId sensor) {
  const double phase = rng_.uniform(0.0, config_.report_period);
  sim_->simulator().every(phase, config_.report_period,
                          [this, sensor] { generate_report(sensor); });
}

void DataCollection::generate_report(NodeId sensor) {
  // Every slot owes one sample per period: a dead sensor's missing sample
  // *is* the service degradation the yield measures (holes are lost data,
  // not a smaller denominator).
  ++generated_;
  ++window_generated_;
  auto& node = sim_->field().node(sensor);
  if (!node.alive()) return;
  Packet pkt;
  pkt.type = PacketType::kData;
  pkt.dst = sink_->id();
  pkt.dst_location = sink_->position();
  pkt.payload = net::DataPayload{sensor, ++sample_seq_};
  node.router().send(std::move(pkt));
}

void DataCollection::sample_yield_every(double window) {
  auto& simulator = sim_->simulator();
  simulator.every(window, [this, &simulator] {
    const double y = window_generated_ == 0
                         ? 1.0
                         : static_cast<double>(window_delivered_) /
                               static_cast<double>(window_generated_);
    yield_series_.add(simulator.now(), y);
    window_generated_ = 0;
    window_delivered_ = 0;
  });
}

}  // namespace sensrep::core
