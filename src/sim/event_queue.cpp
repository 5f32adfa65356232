#include "sim/event_queue.hpp"

namespace sensrep::sim {

namespace {

/// How far ahead of a lane pop the prefetches reach. A slot is fetched
/// kSlotLookahead pops early, and the first kTargetLines cache lines of the
/// object its callable touches kTargetLookahead pops early: reading the
/// target pointer needs the slot, so the slot leads by the difference.
/// Measured on field_100k (100k beacon series in one lane; Release
/// perfbench, --seconds 20, 3 rotated runs per build, EXPERIMENTS.md E24):
/// with two lines, the distances 4/2, 8/4, 16/8 and 32/16 gave medians of
/// 143-151 sim_s/s, within the runs' spread; one line gave 129, no prefetch
/// 96. A beacon tick reads the first 112 bytes of its node, hence two lines.
constexpr std::size_t kSlotLookahead = 16;
constexpr std::size_t kTargetLookahead = 8;
constexpr std::size_t kTargetLines = 2;

/// A cache-line hint: it has no observable effect.
inline void prefetch_for_write(const void* p) noexcept { __builtin_prefetch(p, 1, 3); }

}  // namespace

EventQueue::~EventQueue() {
  // Destroy callables the pool still owns. kPopped slots belong to an
  // outstanding Popped handle, which must not outlive the queue (run loops
  // destroy the handle before returning, so this holds everywhere).
  // (kCancelled slots already destroyed their callable; kPopped belong to
  // the handle.)
  for (auto& chunk : chunks_) {
    for (std::uint32_t i = 0; i < kChunkSlots; ++i) {
      Slot& s = chunk[i];
      if (s.state == SlotState::kLive) s.ops->destroy(s);
    }
  }
}

bool EventQueue::cancel(EventId id) noexcept {
  if (!id.valid()) return false;
  const auto index = static_cast<std::uint32_t>(id.value >> 32);
  if (index >= pool_slots()) return false;
  Slot& s = slot_at(index);
  if (s.gen != static_cast<std::uint32_t>(id.value)) return false;
  if (s.state == SlotState::kPopped && s.period > 0.0) {
    s.period = 0.0;  // a series cancelled from its own run: release, don't re-arm
    return true;
  }
  if (s.state != SlotState::kLive) return false;
  s.ops->destroy(s);
  s.ops = nullptr;
  // Park the slot: its seq must stay readable while the heap or lane entry
  // is still comparable; skim()/maybe_compact() recycle it on discard.
  s.state = SlotState::kCancelled;
  --live_count_;
  count(obs::Counter::kEventsCancelled);
  ++dead_entries_;
  maybe_compact();
  return true;
}

SimTime EventQueue::next_time() const {
  // Logically const: discards already-cancelled entries so the reported
  // time is the one the next pop() will deliver, even right after a
  // cancel-of-top.
  const std::size_t source = const_cast<EventQueue*>(this)->select();
  assert(source != kNoSource);
  return head_time(source);
}

EventQueue::Popped EventQueue::pop() {
  const obs::ScopedTimer probe(obs::Probe::kEventPop);
  const std::size_t source = select();
  assert(source != kNoSource);
  return take(source);
}

std::optional<EventQueue::Popped> EventQueue::pop_due(SimTime horizon) {
  const obs::ScopedTimer probe(obs::Probe::kEventPop);
  const std::size_t source = select();
  if (source == kNoSource || head_time(source) > horizon) return std::nullopt;
  return take(source);
}

std::size_t EventQueue::select() {
  skim();
  std::size_t best = heap_times_.empty() ? kNoSource : kHeapSource;
  SimTime best_t = best == kNoSource ? 0.0 : heap_times_.front();
  std::uint64_t best_key = best == kNoSource ? 0 : heap_keys_.front();
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    Lane& lane = lanes_[i];
    skim(lane);
    if (lane.count == 0) continue;
    const HeapEntry& head = lane.front();
    if (best == kNoSource || pops_later(best_t, best_key, head.time, head.key)) {
      best = i;
      best_t = head.time;
      best_key = head.key;
    }
  }
  return best;
}

EventQueue::Popped EventQueue::take(std::size_t source) {
  HeapEntry top;
  if (source == kHeapSource) {
    top = HeapEntry{heap_times_.front(), heap_keys_.front()};
    heap_pop_front();
  } else {
    Lane& lane = lanes_[source];
    top = lane.front();
    lane.pop_front();
    prefetch_ahead(lane);
  }
  const auto index = static_cast<std::uint32_t>(top.key >> 32);
  slot_at(index).state = SlotState::kPopped;
  --live_count_;
  return Popped(top.time, EventId{top.key}, this, index);
}

void EventQueue::prefetch_ahead(const Lane& lane) const noexcept {
  if (lane.count > kSlotLookahead) {
    const auto index = static_cast<std::uint32_t>(lane.at(kSlotLookahead).key >> 32);
    prefetch_for_write(&slot_at(index));
  }
  if (lane.count > kTargetLookahead) {
    const std::uint64_t key = lane.at(kTargetLookahead).key;
    if (is_live(key)) {
      const Slot& s = slot_at(static_cast<std::uint32_t>(key >> 32));
      if (s.ops->target != nullptr) {
        const auto* target = static_cast<const char*>(s.ops->target(s));
        for (std::size_t line = 0; line < kTargetLines; ++line) {
          prefetch_for_write(target + 64 * line);
        }
      }
    }
  }
}

EventQueue::Popped::~Popped() {
  if (queue_ != nullptr && slot_ != kNoSlot) queue_->release_popped(slot_);
}

void EventQueue::Popped::callback() {
  Slot& s = queue_->slot_at(slot_);
  s.ops->invoke(s);
  if (s.period > 0.0) {
    queue_->rearm(slot_, time + s.period);
    slot_ = kNoSlot;  // the queue owns the slot again
  }
}

void EventQueue::rearm(std::uint32_t index, SimTime t) {
  if (!is_valid_time(t)) throw std::invalid_argument("EventQueue::schedule: invalid time");
  const obs::ScopedTimer probe(obs::Probe::kEventPush);
  count(obs::Counter::kEventsScheduled);
  Slot& s = slot_at(index);
  s.seq = next_seq_++;
  s.state = SlotState::kLive;
  ++live_count_;
  const HeapEntry e{t, (static_cast<std::uint64_t>(index) << 32) | s.gen};
  // The new seq exceeds every pending one, so a time at or after the lane's
  // tail keeps the lane sorted by (time, seq).
  if (Lane* lane = lane_for(s.period, t)) {
    lane->push_back(e);
  } else {
    heap_push(e);
  }
}

EventQueue::Lane* EventQueue::lane_for(Duration period, SimTime t) {
  Lane* spare = nullptr;
  for (Lane& lane : lanes_) {
    if (lane.period == period) {
      return lane.count == 0 || lane.back().time <= t ? &lane : nullptr;
    }
    if (spare == nullptr && lane.count == 0) spare = &lane;
  }
  if (spare == nullptr) {
    if (lanes_.size() == kMaxLanes) return nullptr;
    spare = &lanes_.emplace_back();
  }
  spare->period = period;
  return spare;
}

void EventQueue::Lane::push_back(const HeapEntry& e) {
  if (count == ring.size()) {
    // Grow to the next power of two, unwrapping the ring into order.
    std::vector<HeapEntry> grown(ring.empty() ? 16 : 2 * ring.size());
    for (std::size_t i = 0; i < count; ++i) grown[i] = at(i);
    ring = std::move(grown);
    head = 0;
  }
  ring[(head + count) & (ring.size() - 1)] = e;
  ++count;
}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ == kNoSlot) {
    const auto base = static_cast<std::uint32_t>(pool_slots());
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    // Chunk growth is rare (amortized), so the occupancy gauge rides on it.
    obs::Metrics::set_gauge(obs::Gauge::kEventPoolSlots,
                            static_cast<double>(pool_slots()));
    // Thread the fresh chunk onto the free list in increasing-index order so
    // slot assignment stays deterministic.
    for (std::uint32_t i = kChunkSlots; i-- > 0;) {
      chunks_.back()[i].next_free = free_head_;
      free_head_ = base + i;
    }
  }
  const std::uint32_t index = free_head_;
  Slot& s = slot_at(index);
  free_head_ = s.next_free;
  s.next_free = kNoSlot;
  return index;
}

void EventQueue::recycle_slot(std::uint32_t index) noexcept {
  Slot& s = slot_at(index);
  s.ops = nullptr;
  s.seq = 0;
  s.period = 0.0;
  if (++s.gen == 0) s.gen = 1;  // generation 0 would make EventId::value 0 (invalid)
  s.state = SlotState::kFree;
  s.next_free = free_head_;
  free_head_ = index;
}

void EventQueue::release_popped(std::uint32_t index) noexcept {
  Slot& s = slot_at(index);
  assert(s.state == SlotState::kPopped);
  s.ops->destroy(s);
  recycle_slot(index);
}

bool EventQueue::is_live(std::uint64_t key) const noexcept {
  const auto index = static_cast<std::uint32_t>(key >> 32);
  if (index >= pool_slots()) return false;
  const Slot& s = slot_at(index);
  return s.state == SlotState::kLive && s.gen == static_cast<std::uint32_t>(key);
}

/// Recycles the parked slot backing a dead heap or lane entry.
void EventQueue::drop_dead_key(std::uint64_t key) noexcept {
  const auto index = static_cast<std::uint32_t>(key >> 32);
  [[maybe_unused]] const Slot& s = slot_at(index);
  assert(s.state == SlotState::kCancelled &&
         s.gen == static_cast<std::uint32_t>(key));
  recycle_slot(index);
}

void EventQueue::skim() {
  while (!heap_times_.empty() && !is_live(heap_keys_.front())) {
    drop_dead_key(heap_keys_.front());
    heap_pop_front();
    --dead_entries_;
  }
}

void EventQueue::skim(Lane& lane) noexcept {
  while (lane.count != 0 && !is_live(lane.front().key)) {
    drop_dead_key(lane.front().key);
    lane.pop_front();
    --dead_entries_;
  }
}

void EventQueue::maybe_compact() noexcept {
  const std::size_t total = heap_size();
  if (total < kCompactFloor) return;
  if (dead_entries_ <= total - dead_entries_) return;
  std::size_t keep = 0;
  const std::size_t n = heap_times_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = heap_keys_[i];
    if (is_live(key)) {
      heap_times_[keep] = heap_times_[i];
      heap_keys_[keep] = key;
      ++keep;
    } else {
      drop_dead_key(key);
    }
  }
  heap_times_.resize(keep);
  heap_keys_.resize(keep);
  heap_rebuild();
  // Lanes are filtered in place, in order, so they stay sorted. Entries
  // move only towards the head, onto positions already read.
  for (Lane& lane : lanes_) {
    const std::size_t mask = lane.ring.size() - 1;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < lane.count; ++i) {
      const HeapEntry e = lane.at(i);
      if (is_live(e.key)) {
        lane.ring[(lane.head + kept) & mask] = e;
        ++kept;
      } else {
        drop_dead_key(e.key);
      }
    }
    lane.count = kept;
  }
  dead_entries_ = 0;
}

void EventQueue::heap_push(const HeapEntry& e) {
  std::size_t i = heap_times_.size();
  // Placeholders; overwritten by the hole shuffle below.
  heap_times_.push_back(e.time);
  heap_keys_.push_back(e.key);
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!pops_later(heap_times_[parent], heap_keys_[parent], e.time, e.key)) break;
    heap_times_[i] = heap_times_[parent];
    heap_keys_[i] = heap_keys_[parent];
    i = parent;
  }
  heap_times_[i] = e.time;
  heap_keys_[i] = e.key;
}

std::size_t EventQueue::heap_sift_down(std::size_t i, HeapEntry e) noexcept {
  const std::size_t n = heap_times_.size();
  for (;;) {
    const std::size_t first = kHeapArity * i + 1;
    if (first >= n) break;
    // Min-of-children scan on the dense timestamp array; keys are only
    // consulted on an exact timestamp tie.
    std::size_t best = first;
    SimTime best_t = heap_times_[first];
    const std::size_t last = std::min(first + kHeapArity, n);
    for (std::size_t c = first + 1; c < last; ++c) {
      const SimTime ct = heap_times_[c];
      if (ct != best_t ? ct < best_t
                       : seq_of(heap_keys_[best]) > seq_of(heap_keys_[c])) {
        best = c;
        best_t = ct;
      }
    }
    if (!pops_later(e.time, e.key, best_t, heap_keys_[best])) break;
    heap_times_[i] = best_t;
    heap_keys_[i] = heap_keys_[best];
    i = best;
  }
  heap_times_[i] = e.time;
  heap_keys_[i] = e.key;
  return i;
}

void EventQueue::heap_pop_front() noexcept {
  const HeapEntry last{heap_times_.back(), heap_keys_.back()};
  heap_times_.pop_back();
  heap_keys_.pop_back();
  if (!heap_times_.empty()) (void)heap_sift_down(0, last);
}

void EventQueue::heap_rebuild() noexcept {
  if (heap_times_.size() < 2) return;
  for (std::size_t i = (heap_times_.size() - 2) / kHeapArity + 1; i-- > 0;) {
    (void)heap_sift_down(i, HeapEntry{heap_times_[i], heap_keys_[i]});
  }
}

}  // namespace sensrep::sim
