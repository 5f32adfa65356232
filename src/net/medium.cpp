#include "net/medium.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <utility>

namespace sensrep::net {

using geometry::Vec2;

// The medium counts per category into the cells the obs label table names:
// pin the sizes together; metrics_plane_test pins the names.
static_assert(obs::kNetCategories ==
                  static_cast<std::size_t>(metrics::MessageCategory::kCount),
              "obs::kCategoryLabel must name every metrics::MessageCategory");

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
               geometry::Rect bounds, double cell_size_m)
    : sim_(&simulator),
      rng_(rng),
      config_(config),
      static_index_(bounds, cell_size_m),
      mobile_index_(bounds, cell_size_m) {
  config_.validate();
  if (config_.chaos.any_enabled()) {
    // fork() is a pure function of (seed, name): instantiating the chaos
    // model never perturbs the medium's existing backoff/loss draw streams.
    chaos_ = std::make_unique<chaos::LinkModel>(config_.chaos, rng_);
  }
  frame_per_receiver_ = config_.model_collisions || config_.chaos.jitter.enabled ||
                        config_.chaos.duplication.enabled;
}

void Medium::attach(NodeId id, Vec2 pos, double tx_range, ReceiveFn rx,
                    Mobility mobility) {
  if (!is_real_node(id)) throw std::invalid_argument("Medium::attach: reserved id");
  // Negated so that a NaN range is rejected too.
  if (!(tx_range > 0.0)) throw std::invalid_argument("Medium::attach: non-positive range");
  if (id >= nodes_.size()) {
    nodes_.resize(id + 1);
    marks_.resize(nodes_.size() / 64 + 1);
  }
  if (nodes_[id].attached) throw std::invalid_argument("Medium::attach: duplicate id");
  const bool mobile = mobility == Mobility::kMobile;
  nodes_[id] = Transceiver{pos, tx_range, true, true, mobile, std::move(rx)};
  if (mobile) {
    mobile_index_.insert(id, pos);
  } else {
    static_index_.insert(id, pos);
    lists_stale_ = true;
  }
}

void Medium::detach(NodeId id) {
  if (id >= nodes_.size() || !nodes_[id].attached) return;
  if (nodes_[id].mobile) {
    mobile_index_.remove(id);
  } else {
    static_index_.remove(id);
    lists_stale_ = true;
  }
  nodes_[id] = Transceiver{};
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
  Transceiver& t = get(id);
  t.pos = pos;
  if (t.mobile) {
    mobile_index_.move(id, pos);
    return;
  }
  // A static node that moves leaves every list for the mobile grid.
  t.mobile = true;
  static_index_.remove(id);
  mobile_index_.insert(id, pos);
  lists_stale_ = true;
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

void Medium::build_lists() const {
  list_begin_.assign(nodes_.size() + 1, 0);
  list_ids_.clear();
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    list_begin_[id] = static_cast<std::uint32_t>(list_ids_.size());
    const Transceiver& t = nodes_[id];
    if (!t.attached || t.mobile) continue;
    const auto first = static_cast<std::ptrdiff_t>(list_ids_.size());
    const double r2 = t.tx_range * t.tx_range;
    static_index_.for_each_candidate(t.pos, t.tx_range, [&](NodeId m, Vec2 p) {
      if (m != id && geometry::distance2(p, t.pos) <= r2) list_ids_.push_back(m);
    });
    // Candidates arrive cell-major.
    std::sort(list_ids_.begin() + first, list_ids_.end());
  }
  list_begin_[nodes_.size()] = static_cast<std::uint32_t>(list_ids_.size());
  lists_stale_ = false;
}

std::span<const NodeId> Medium::static_receivers(NodeId id) const {
  if (get(id).mobile) throw std::invalid_argument("Medium::static_receivers: mobile node");
  if (lists_stale_) build_lists();
  return {list_ids_.data() + list_begin_[id], list_ids_.data() + list_begin_[id + 1]};
}

std::vector<NodeId> Medium::collect_near(Vec2 p, double r) const {
  std::vector<NodeId> out;
  const double r2 = r * r;
  std::size_t lo = std::numeric_limits<std::size_t>::max();
  std::size_t hi = 0;
  const auto mark = [&](NodeId id, Vec2 q) {
    if (geometry::distance2(q, p) > r2) return;
    const std::size_t w = id / 64;
    marks_[w] |= std::uint64_t{1} << (id % 64);
    lo = std::min(lo, w);
    hi = std::max(hi, w);
  };
  static_index_.for_each_candidate(p, r, mark);
  mobile_index_.for_each_candidate(p, r, mark);
  for (std::size_t w = lo; w <= hi; ++w) {
    for (std::uint64_t bits = std::exchange(marks_[w], 0); bits != 0; bits &= bits - 1) {
      out.push_back(static_cast<NodeId>(w * 64 + std::countr_zero(bits)));
    }
  }
  return out;
}

std::vector<NodeId> Medium::in_range_of(NodeId sender, const Transceiver& s) const {
  if (s.mobile) {
    std::vector<NodeId> out = collect_near(s.pos, s.tx_range);
    std::erase(out, sender);
    return out;
  }
  const std::span<const NodeId> list = static_receivers(sender);
  // Usually empty, and then allocates nothing.
  const std::vector<NodeId> mobile = mobile_index_.within_radius(s.pos, s.tx_range);
  std::vector<NodeId> out;
  out.reserve(list.size() + mobile.size());
  std::merge(list.begin(), list.end(), mobile.begin(), mobile.end(), std::back_inserter(out));
  return out;
}

std::vector<NodeId> Medium::neighbors_of(NodeId sender) const {
  std::vector<NodeId> out = in_range_of(sender, get(sender));
  std::erase_if(out, [this](NodeId id) { return !nodes_[id].alive; });
  return out;
}

std::vector<NodeId> Medium::nodes_near(Vec2 pos, double radius) const {
  if (!(radius >= 0.0)) {
    throw std::invalid_argument("Medium::nodes_near: radius must be non-negative");
  }
  std::vector<NodeId> out = collect_near(pos, radius);
  std::erase_if(out, [this](NodeId id) { return !nodes_[id].alive; });
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
    counters().inc(obs::Counter::kNetChaosDuplicates);
    deliver_later(to, pkt, from, jittered + chaos_->duplicate_delay(), collidable);
  }
}

void Medium::deliver_frame(std::uint32_t f) {
  // frames_ is a deque: a handler that sends grows it without moving this
  // frame, and the frame is not recycled before the loop ends.
  const Frame& frame = frames_[f];
  if (frame.corrupted && *frame.corrupted) {
    counters().inc(obs::Counter::kNetCollisions);
  } else {
    obs::CounterBlock& counted = counters();
    const metrics::MessageCategory category = frame.pkt.category();
    for (const NodeId to : frame.to) {
      if (to >= nodes_.size()) continue;
      const Transceiver& r = nodes_[to];
      if (!r.attached || !r.alive) continue;  // detached or died in flight
      counted.rx(category);
      if (r.rx) r.rx(frame.pkt, frame.from);
    }
  }
  free_frames_.push_back(f);
}

void Medium::broadcast(NodeId sender, Packet pkt) {
  const Transceiver& s = get(sender);
  assert(s.alive && "dead node cannot transmit");
  counters().tx(pkt.category());
  if (jammed_now(sender, s)) {
    // A jammed sender still burns the transmission; nobody hears it.
    counters().inc(obs::Counter::kNetChaosJams);
    return;
  }
  const sim::Duration delay = frame_delay(pkt);
  // Survivors are filtered in place; the draws are taken at send time.
  std::vector<NodeId> heard = in_range_of(sender, s);
  std::size_t kept = 0;
  for (const NodeId id : heard) {
    const Transceiver& r = nodes_[id];
    if (!r.alive) continue;
    if (config_.loss_probability > 0.0 && rng_.chance(config_.loss_probability)) {
      counters().inc(obs::Counter::kNetLossDrops);
      continue;
    }
    if (chaos_) {
      if (jammed_now(id, r)) {
        counters().inc(obs::Counter::kNetChaosJams);
        continue;
      }
      if (chaos_->burst_drop()) {
        counters().inc(obs::Counter::kNetChaosDrops);
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
    counters().inc(obs::Counter::kNetChaosJams);
  }

  // 802.11-style ARQ: each attempt is one counted transmission; the sender
  // learns of success/failure via the (implicit) link-layer ACK. A missing
  // ACK (unreachable target or loss) triggers a retry up to the budget.
  const int attempts = 1 + config_.unicast_retries;
  for (int a = 0; a < attempts; ++a) {
    counters().tx(pkt.category());
    bool lost =
        config_.loss_probability > 0.0 && rng_.chance(config_.loss_probability);
    if (lost) counters().inc(obs::Counter::kNetLossDrops);
    if (chaos_ && chaos_->burst_drop()) {  // advances the GE chain per attempt
      counters().inc(obs::Counter::kNetChaosDrops);
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
