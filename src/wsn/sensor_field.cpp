#include "wsn/sensor_field.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "obs/metrics_registry.hpp"
#include "spatial/uniform_grid.hpp"
#include "trace/log.hpp"

namespace sensrep::wsn {

using geometry::Vec2;
using net::kBroadcastId;
using net::NodeId;
using net::Packet;
using net::PacketType;

SensorField::SensorField(sim::Simulator& simulator, net::Medium& medium,
                         SensorPolicy& policy, metrics::FailureLog& log,
                         const FieldConfig& config, sim::Rng rng,
                         double robot_lease_window)
    : sim_(&simulator),
      medium_(&medium),
      policy_(&policy),
      log_(&log),
      config_(config),
      robot_lease_window_(robot_lease_window),
      rng_(rng),
      events_(simulator.counters()) {
  if (config.beacon_period <= 0.0) {
    throw std::invalid_argument("SensorField: beacon_period must be positive");
  }
  if (config.stale_beacon_count < 1) {
    throw std::invalid_argument("SensorField: stale_beacon_count must be >= 1");
  }
}

SensorField::~SensorField() = default;

void SensorField::deploy(const std::vector<Vec2>& positions) {
  if (!slots_.empty()) throw std::logic_error("SensorField::deploy: already deployed");
  slots_.reserve(positions.size());
  for (std::size_t i = 0; i < positions.size(); ++i) {
    const auto id = static_cast<NodeId>(i);
    slots_.push_back(std::make_unique<SensorNode>(id, positions[i], *this));
    SensorNode* n = slots_.back().get();
    medium_->attach(id, positions[i], config_.sensor_tx_range,
                    [n](const Packet& pkt, NodeId from) { n->on_packet(pkt, from); });
  }
  open_failure_.assign(slots_.size(), std::nullopt);
  last_beacon_.assign(slots_.size(), 0.0);
}

std::vector<NodeId> SensorField::slots_within(Vec2 center, double range) const {
  std::vector<NodeId> out;
  // Candidate cells are a superset of the ball; the exact sqrt-form
  // predicate decides. The manager is static too, hence the sensor filter;
  // candidates arrive cell-major, hence the sort.
  medium_->static_grid().for_each_candidate(center, range, [&](NodeId id, Vec2 pos) {
    if (is_sensor(id) && geometry::distance(pos, center) <= range) out.push_back(id);
  });
  std::sort(out.begin(), out.end());
  return out;
}

void SensorField::initialize() {
  // Step 1 (paper §3.1 init): every sensor broadcasts its location once.
  // The broadcasts are accounted; their observable effect — each sensor's
  // neighbor table holding its one-hop neighbors — is applied directly.
  medium_->account(metrics::MessageCategory::kInitialization,
                   static_cast<std::uint64_t>(slots_.size()));
  for (const auto& s : slots_) {
    for (const NodeId m : static_neighbors(s->id())) {
      s->table().upsert(m, slots_[m]->position());
      // Honest-beacon mode: the init broadcast is what primes heard_.
      if (config_.materialize_beacons) s->heard_[m] = sim_->now();
    }
  }
  // Step 2: guardian selection + confirmation (real counted unicasts).
  for (const auto& s : slots_) s->choose_guardian();
}

void SensorField::start() {
  for (const auto& s : slots_) {
    activate_clocks(*s);
  }
}

void SensorField::activate_clocks(SensorNode& n) {
  // Beacon phase is drawn per activation so replacement units do not stay
  // synchronized with their predecessors.
  const double phase = rng_.uniform(0.0, config_.beacon_period);
  // Names its node to the event queue, which prefetches it a few ticks ahead.
  struct Tick {
    SensorNode* node;
    void operator()() const { node->tick(); }
    [[nodiscard]] const void* prefetch_target() const noexcept { return node; }
  };
  n.tick_timer_ = sim_->every(phase, config_.beacon_period, Tick{&n});
  schedule_lifetime(n);
}

void SensorField::schedule_lifetime(SensorNode& n) {
  if (!config_.spontaneous_failures) return;
  const double lifetime = config_.lifetime.draw(rng_);
  const NodeId id = n.id();
  const std::uint32_t inc = n.incarnation();
  sim_->in(lifetime, [this, id, inc] {
    SensorNode& node_ref = node(id);
    if (node_ref.alive() && node_ref.incarnation() == inc) fail_slot(id);
  });
}

SensorNode& SensorField::node(NodeId id) {
  if (!is_sensor(id)) throw std::out_of_range("SensorField::node: not a sensor id");
  return *slots_[id];
}

const SensorNode& SensorField::node(NodeId id) const {
  if (!is_sensor(id)) throw std::out_of_range("SensorField::node: not a sensor id");
  return *slots_[id];
}

std::span<const NodeId> SensorField::static_neighbors(NodeId id) const {
  if (!is_sensor(id)) throw std::out_of_range("SensorField::static_neighbors: not a sensor id");
  // Sensor ids lie below every robot and manager id.
  const std::span<const NodeId> all = medium_->static_receivers(id);
  return all.first(static_cast<std::size_t>(
      std::lower_bound(all.begin(), all.end(), slots_.size()) - all.begin()));
}

sim::SimTime SensorField::last_beacon(NodeId id) const {
  if (!is_sensor(id)) return sim::kNever;
  return last_beacon_[id];
}

bool SensorField::slot_alive(NodeId id) const { return is_sensor(id) && slots_[id]->alive(); }

void SensorField::fail_slot(NodeId slot) {
  SensorNode& n = node(slot);
  if (!n.alive()) return;
  const sim::SimTime now = sim_->now();
  n.fail();
  medium_->set_alive(slot, false);
  open_failure_[slot] = log_->open(slot, now);
  // One trace per failure, keyed by the non-zero failure id carried in
  // reports and tasks (FailureLog index + 1).
  events_.emit({.time = now, .kind = obs::Kind::kFailure, .node = slot,
                .location = n.position(), .failure_id = *open_failure_[slot] + 1});

  // Neighbor-table staleness: every neighbor stops considering this node a
  // forwarding candidate exactly one staleness window after its last beacon
  // (equivalent to per-beacon refresh; DESIGN.md substitution 3). In honest-
  // beacon mode each node evicts locally from its own heard_ timestamps.
  if (config_.materialize_beacons) return;
  const std::uint32_t inc = n.incarnation();
  sim_->in(staleness_window() + 1e-6, [this, slot, inc] {
    SensorNode& dead = node(slot);
    if (dead.alive() && dead.incarnation() != inc) return;  // already replaced
    for (const NodeId m : static_neighbors(slot)) node(m).remove_neighbor(slot);
  });
}

void SensorField::replace_slot(NodeId slot, NodeId robot) {
  SensorNode& n = node(slot);
  if (n.alive()) {
    trace::Logger::global().logf(trace::Level::kWarn, sim_->now(), "wsn",
                                 "replace_slot(%u): slot already alive", slot);
    return;
  }
  const sim::SimTime now = sim_->now();
  n.revive();
  medium_->set_alive(slot, true);

  // The new unit announces itself so neighbors restore their table entries
  // (paper §4.2(a)); a real counted broadcast.
  Packet announce;
  announce.type = PacketType::kReplacementAnnounce;
  announce.src = slot;
  announce.dst = kBroadcastId;
  announce.payload = net::ReplacementAnnouncePayload{n.position(), slot};
  medium_->broadcast(slot, announce);

  std::uint64_t failure_id = 0;
  if (open_failure_[slot]) {
    auto& rec = log_->at(*open_failure_[slot]);
    rec.repaired_at = now;
    rec.robot_id = robot;
    obs::Metrics::observe(obs::Hist::kRepairLatency,
                          rec.repaired_at - rec.failed_at);
    failure_id = *open_failure_[slot] + 1;
    open_failure_[slot].reset();
  }
  events_.emit({.time = now, .kind = obs::Kind::kReplacement, .node = slot,
                .actor = robot, .location = n.position(), .failure_id = failure_id});

  // Within one beacon period the new unit has heard all alive neighbors and
  // can pick a guardian (paper §4.2: "the neighbors send beacons containing
  // their own locations").
  const std::uint32_t inc = n.incarnation();
  sim_->in(config_.beacon_period, [this, slot, inc] {
    SensorNode& fresh = node(slot);
    if (!fresh.alive() || fresh.incarnation() != inc) return;
    fresh.rebuild_neighbor_table();
    policy_->on_sensor_reset(fresh);
    fresh.choose_guardian();
  });

  activate_clocks(n);
}

std::optional<metrics::FailureLog::FailureId> SensorField::open_failure(NodeId slot) const {
  if (!is_sensor(slot)) return std::nullopt;
  return open_failure_[slot];
}

void SensorField::record_detection(NodeId slot) {
  const auto fid = open_failure(slot);
  if (!fid) return;
  auto& rec = log_->at(*fid);
  if (!rec.detected()) {
    rec.detected_at = sim_->now();
    events_.emit({.time = rec.detected_at, .kind = obs::Kind::kDetection, .node = slot,
                  .location = node(slot).position(),
                  .value = rec.detected_at - rec.failed_at, .failure_id = *fid + 1});
  }
}

void SensorField::note_unreported(NodeId slot) {
  ++unreported_;
  trace::Logger::global().logf(trace::Level::kInfo, sim_->now(), "wsn",
                               "failure of %u detected but no manager known", slot);
}

std::size_t SensorField::alive_count() const noexcept {
  std::size_t n = 0;
  for (const auto& s : slots_) n += s->alive() ? 1 : 0;
  return n;
}

std::uint64_t SensorField::router_drops() const noexcept {
  std::uint64_t n = 0;
  for (const auto& s : slots_) n += s->router_.drops();
  return n;
}

std::size_t SensorField::unguarded_count() const noexcept {
  std::size_t n = 0;
  for (const auto& s : slots_) {
    if (s->alive() && s->guardian() == net::kNoNode) ++n;
  }
  return n;
}

double SensorField::coverage_fraction(const geometry::Rect& area, double sensing_radius,
                                      std::size_t grid_side) const {
  assert(grid_side > 0);
  spatial::UniformGrid2D<NodeId> alive(area, sensing_radius);
  for (const auto& s : slots_) {
    if (s->alive()) alive.insert(s->id(), s->position());
  }
  std::size_t covered = 0;
  const double dx = area.width() / static_cast<double>(grid_side);
  const double dy = area.height() / static_cast<double>(grid_side);
  for (std::size_t gy = 0; gy < grid_side; ++gy) {
    for (std::size_t gx = 0; gx < grid_side; ++gx) {
      const Vec2 p{area.min.x + (static_cast<double>(gx) + 0.5) * dx,
                   area.min.y + (static_cast<double>(gy) + 0.5) * dy};
      if (!alive.within_radius(p, sensing_radius).empty()) ++covered;
    }
  }
  return static_cast<double>(covered) / static_cast<double>(grid_side * grid_side);
}

}  // namespace sensrep::wsn
