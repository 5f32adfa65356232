#include "net/medium.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace sensrep::net {

using geometry::Vec2;

// obs cannot see metrics::MessageCategory (sensrep_metrics links against
// sensrep_obs, not the reverse), so its label table is a mirror. This TU sees
// both headers: pin the sizes together; metrics_plane_test pins the names.
static_assert(obs::kNetCategories ==
                  static_cast<std::size_t>(metrics::MessageCategory::kCount),
              "obs::kCategoryLabel must mirror metrics::MessageCategory");

namespace {
inline std::size_t cat_index(const Packet& pkt) noexcept {
  return static_cast<std::size_t>(pkt.category());
}
}  // namespace

void RadioConfig::validate() const {
  // Negated comparisons so NaN fails every test.
  if (!(bitrate_bps > 0.0) || !std::isfinite(bitrate_bps)) {
    throw std::invalid_argument("RadioConfig: bitrate must be positive and finite");
  }
  if (!(max_backoff_s >= 0.0) || !std::isfinite(max_backoff_s)) {
    throw std::invalid_argument("RadioConfig: max_backoff must be finite and non-negative");
  }
  if (!(propagation_s >= 0.0) || !std::isfinite(propagation_s)) {
    throw std::invalid_argument("RadioConfig: propagation delay must be finite and non-negative");
  }
  if (!(loss_probability >= 0.0 && loss_probability <= 1.0)) {
    throw std::invalid_argument("RadioConfig: loss probability must be in [0, 1]");
  }
  if (unicast_retries < 0) {
    throw std::invalid_argument("RadioConfig: unicast retries must be non-negative");
  }
  chaos.validate();
}

Medium::Medium(sim::Simulator& simulator, sim::Rng rng, RadioConfig config,
               metrics::TransmissionCounters& counters, geometry::Rect bounds,
               double cell_size_m)
    : sim_(&simulator),
      rng_(rng),
      config_(config),
      counters_(&counters),
      index_(bounds, cell_size_m) {
  config_.validate();
  if (config_.chaos.any_enabled()) {
    // fork() is a pure function of (seed, name): instantiating the chaos
    // model never perturbs the medium's existing backoff/loss draw streams.
    chaos_ = std::make_unique<chaos::LinkModel>(config_.chaos, rng_);
  }
  frame_per_receiver_ = config_.model_collisions || config_.chaos.jitter.enabled ||
                        config_.chaos.duplication.enabled;
}

void Medium::attach(NodeId id, Vec2 pos, double tx_range, ReceiveFn rx) {
  if (!is_real_node(id)) throw std::invalid_argument("Medium::attach: reserved id");
  if (tx_range <= 0.0) throw std::invalid_argument("Medium::attach: non-positive range");
  if (id >= nodes_.size()) nodes_.resize(id + 1);
  if (nodes_[id].attached) throw std::invalid_argument("Medium::attach: duplicate id");
  nodes_[id] = Transceiver{pos, tx_range, true, true, std::move(rx)};
  index_.insert(id, pos);
}

void Medium::detach(NodeId id) {
  if (id < nodes_.size()) nodes_[id] = Transceiver{};
  index_.remove(id);
}

const Medium::Transceiver& Medium::get(NodeId id) const {
  if (id >= nodes_.size() || !nodes_[id].attached) {
    throw std::out_of_range("Medium: unknown node");
  }
  return nodes_[id];
}

Medium::Transceiver& Medium::get(NodeId id) {
  if (id >= nodes_.size() || !nodes_[id].attached) {
    throw std::out_of_range("Medium: unknown node");
  }
  return nodes_[id];
}

void Medium::set_position(NodeId id, Vec2 pos) {
  get(id).pos = pos;
  index_.move(id, pos);
}

void Medium::set_alive(NodeId id, bool alive_flag) { get(id).alive = alive_flag; }

bool Medium::attached(NodeId id) const noexcept {
  return id < nodes_.size() && nodes_[id].attached;
}

bool Medium::alive(NodeId id) const { return get(id).alive; }

Vec2 Medium::position_of(NodeId id) const { return get(id).pos; }

double Medium::tx_range_of(NodeId id) const { return get(id).tx_range; }

bool Medium::in_range(NodeId sender, NodeId receiver) const {
  const Transceiver& s = get(sender);
  const Transceiver& r = get(receiver);
  return geometry::distance2(s.pos, r.pos) <= s.tx_range * s.tx_range;
}

std::vector<NodeId> Medium::neighbors_of(NodeId sender) const {
  const Transceiver& s = get(sender);
  std::vector<NodeId> out;
  for (const NodeId id : index_.within_radius(s.pos, s.tx_range)) {
    if (id == sender) continue;
    if (!nodes_[id].alive) continue;
    out.push_back(id);
  }
  return out;
}

std::vector<NodeId> Medium::nodes_near(Vec2 pos, double radius) const {
  std::vector<NodeId> out;
  for (const NodeId id : index_.within_radius(pos, radius)) {
    if (nodes_[id].alive) out.push_back(id);
  }
  return out;
}

sim::Duration Medium::serialization_time(const Packet& pkt) const noexcept {
  return static_cast<double>(pkt.size_bytes()) * 8.0 / config_.bitrate_bps;
}

sim::Duration Medium::frame_delay(const Packet& pkt) noexcept {
  const double backoff = rng_.uniform(0.0, config_.max_backoff_s);
  return serialization_time(pkt) + config_.propagation_s + backoff;
}

std::uint32_t Medium::new_frame(Packet pkt, NodeId from) {
  std::uint32_t f;
  if (free_frames_.empty()) {
    f = static_cast<std::uint32_t>(frames_.size());
    frames_.emplace_back();
  } else {
    f = free_frames_.back();
    free_frames_.pop_back();
  }
  Frame& frame = frames_[f];
  frame.pkt = std::move(pkt);
  frame.pkt.hops += 1;
  frame.from = from;
  frame.to.clear();
  frame.corrupted.reset();
  return f;
}

void Medium::send_frame(std::uint32_t f, sim::Duration delay) {
  sim_->in(delay, [this, f] { deliver_frame(f); });
}

void Medium::deliver_later(NodeId to, const Packet& pkt, NodeId from,
                           sim::Duration delay, bool collidable) {
  const std::uint32_t f = new_frame(pkt, from);
  Frame& frame = frames_[f];
  frame.to.push_back(to);
  if (config_.model_collisions && collidable) {
    // The frame occupies the receiver's channel for its serialization time,
    // ending at the delivery instant. Any overlapping frame corrupts both.
    const sim::SimTime end = sim_->now() + delay;
    const sim::SimTime start = end - serialization_time(frame.pkt);
    frame.corrupted = std::make_shared<bool>(false);
    auto& slots = pending_[to];
    // Prune expired windows while scanning for overlaps.
    std::erase_if(slots, [now = sim_->now()](const PendingArrival& a) {
      return a.end < now;
    });
    for (PendingArrival& a : slots) {
      if (a.start < end && start < a.end) {
        *a.corrupted = true;
        *frame.corrupted = true;
      }
    }
    slots.push_back({start, end, frame.corrupted});
  }
  send_frame(f, delay);
}

bool Medium::jammed_now(NodeId id, const Transceiver& t) const noexcept {
  return chaos_ && chaos_->jammed(sim_->now(), id, t.pos);
}

void Medium::deliver_chaotic(NodeId to, const Packet& pkt, NodeId from,
                             sim::Duration delay, bool collidable) {
  if (!chaos_) {
    deliver_later(to, pkt, from, delay, collidable);
    return;
  }
  const sim::Duration jittered = delay + chaos_->jitter();
  deliver_later(to, pkt, from, jittered, collidable);
  if (chaos_->duplicate()) {
    // A duplicate is a reception artifact (stale frame, reflection), not a
    // retransmission: it costs no counted transmission and lands late enough
    // to reorder against subsequent traffic.
    ++chaos_duplicates_;
    obs::Metrics::inc(obs::Counter::kNetChaosDuplicates);
    deliver_later(to, pkt, from, jittered + chaos_->duplicate_delay(), collidable);
  }
}

void Medium::deliver_frame(std::uint32_t f) {
  // frames_ is a deque: a handler that sends grows it without moving this
  // frame, and the frame is not recycled before the loop ends.
  const Frame& frame = frames_[f];
  if (frame.corrupted && *frame.corrupted) {
    ++collisions_;
    obs::Metrics::inc(obs::Counter::kNetCollisions);
  } else {
    for (const NodeId to : frame.to) {
      if (to >= nodes_.size()) continue;
      const Transceiver& r = nodes_[to];
      if (!r.attached || !r.alive) continue;  // detached or died in flight
      ++deliveries_;
      obs::Metrics::net_rx(cat_index(frame.pkt));
      if (r.rx) r.rx(frame.pkt, frame.from);
    }
  }
  free_frames_.push_back(f);
}

void Medium::broadcast(NodeId sender, Packet pkt) {
  const Transceiver& s = get(sender);
  assert(s.alive && "dead node cannot transmit");
  counters_->add(pkt.category());
  obs::Metrics::net_tx(cat_index(pkt));
  if (jammed_now(sender, s)) {
    // A jammed sender still burns the transmission; nobody hears it.
    ++chaos_jams_;
    obs::Metrics::inc(obs::Counter::kNetChaosJams);
    return;
  }
  const sim::Duration delay = frame_delay(pkt);
  // Survivors are filtered in place; the draws are taken at send time.
  std::vector<NodeId> heard = index_.within_radius(s.pos, s.tx_range);
  std::size_t kept = 0;
  for (const NodeId id : heard) {
    if (id == sender) continue;
    const Transceiver& r = nodes_[id];
    if (!r.alive) continue;
    if (config_.loss_probability > 0.0 && rng_.chance(config_.loss_probability)) {
      obs::Metrics::inc(obs::Counter::kNetLossDrops);
      continue;
    }
    if (chaos_) {
      if (jammed_now(id, r)) {
        ++chaos_jams_;
        obs::Metrics::inc(obs::Counter::kNetChaosJams);
        continue;
      }
      if (chaos_->burst_drop()) {
        ++chaos_drops_;
        obs::Metrics::inc(obs::Counter::kNetChaosDrops);
        continue;
      }
    }
    heard[kept++] = id;
  }
  heard.resize(kept);
  if (heard.empty()) return;
  if (frame_per_receiver_) {
    // Jitter and duplication draw from their own streams, so taking them
    // after the filter leaves every draw as it was.
    for (const NodeId id : heard) deliver_chaotic(id, pkt, sender, delay, /*collidable=*/true);
    return;
  }
  // Every receiver shares the frame's arrival instant, so one event hands it
  // to all of them: their per-receiver events would have held consecutive
  // sequence numbers at that instant, leaving nothing to run in between.
  const std::uint32_t f = new_frame(std::move(pkt), sender);
  frames_[f].to = std::move(heard);
  send_frame(f, delay);
}

bool Medium::unicast(NodeId sender, NodeId target, Packet pkt) {
  const Transceiver& s = get(sender);
  assert(s.alive && "dead node cannot transmit");
  (void)s;
  const Transceiver* t =
      target < nodes_.size() && nodes_[target].attached ? &nodes_[target] : nullptr;
  const bool reachable = t != nullptr && t->alive && in_range(sender, target);

  // An active partition behaves like loss = 1, not like a missing node: every
  // ARQ attempt is still burned (and counted) before the sender gives up.
  bool jammed = false;
  if (chaos_ &&
      (jammed_now(sender, s) || (t != nullptr && jammed_now(target, *t)))) {
    jammed = true;
    ++chaos_jams_;
    obs::Metrics::inc(obs::Counter::kNetChaosJams);
  }

  // 802.11-style ARQ: each attempt is one counted transmission; the sender
  // learns of success/failure via the (implicit) link-layer ACK. A missing
  // ACK (unreachable target or loss) triggers a retry up to the budget.
  const int attempts = 1 + config_.unicast_retries;
  for (int a = 0; a < attempts; ++a) {
    counters_->add(pkt.category());
    obs::Metrics::net_tx(cat_index(pkt));
    bool lost =
        config_.loss_probability > 0.0 && rng_.chance(config_.loss_probability);
    if (lost) obs::Metrics::inc(obs::Counter::kNetLossDrops);
    if (chaos_ && chaos_->burst_drop()) {  // advances the GE chain per attempt
      ++chaos_drops_;
      obs::Metrics::inc(obs::Counter::kNetChaosDrops);
      lost = true;
    }
    if (reachable && !jammed && !lost) {
      deliver_chaotic(target, pkt, sender, frame_delay(pkt));
      return true;
    }
    if (!reachable && config_.loss_probability == 0.0) return false;  // deterministic: retrying is futile
  }
  return false;
}

}  // namespace sensrep::net
