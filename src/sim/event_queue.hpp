#pragma once

#include <algorithm>
#include <cassert>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"
#include "sim/time.hpp"

namespace sensrep::sim {

/// Opaque handle identifying a scheduled event; usable to cancel it.
struct EventId {
  std::uint64_t value = 0;

  [[nodiscard]] bool valid() const noexcept { return value != 0; }
  friend bool operator==(EventId, EventId) = default;
};

/// A scheduled callable that names the object its run will touch (a beacon
/// tick names its sensor node), so that the queue can prefetch it a few
/// pops ahead. Purely a hint: it never changes what runs or when.
template <typename Fn>
concept NamesPrefetchTarget = requires(const Fn& f) {
  { f.prefetch_target() } -> std::convertible_to<const void*>;
};

/// Priority queue of timestamped callbacks with O(log n) schedule/pop and
/// O(1) cancellation.
///
/// Ordering invariant: events pop in nondecreasing time order; events with
/// equal timestamps pop in schedule order (monotone sequence number). This
/// makes simulation runs bit-reproducible for a fixed seed.
///
/// Storage is allocation-free on the hot path: callbacks live in
/// slab-allocated slots recycled through a free list, and every callable is
/// constructed in place — one that does not fit kInlineBytes is a compile
/// error, never a heap allocation.
/// EventIds carry (slot index, generation); a recycled slot bumps its
/// generation so stale ids can never cancel or observe a later tenant.
///
/// Cancellation is lazy: cancel() destroys the callback immediately
/// (dropping captured resources right away, exactly like the old map erase)
/// and parks the slot until the heap entry is discarded — the slot keeps the
/// sequence number a parked entry still tie-breaks with. To keep
/// lazily-cancelled entries from outnumbering live ones unboundedly under
/// cancel/reschedule churn (acked report retry timers, the timers of failed
/// sensors and robots), the heap is compacted in place whenever dead entries
/// exceed live ones.
///
/// A periodic event (schedule() with period > 0) is one slot for its whole
/// life: after each run, Popped::callback() pushes the same slot back at
/// time + period with the next sequence number — exactly what a callback
/// re-scheduling itself as its last act would get — so its EventId never
/// changes and cancel() stops the series, also from inside its own run.
///
/// Re-arms do not enter the heap when they can avoid it: each period in use
/// (up to kMaxLanes of them) has a FIFO lane, and a re-arm at or after its
/// lane's tail is appended there. Every lane is therefore sorted by (time,
/// seq), and pop() takes the least of the heap top and the lane heads, so the
/// pop order is the heap's own. In a Simulator, where pops come in time
/// order, every re-arm lands in its lane; a re-arm that would not (a raw
/// queue popped out of order) goes to the heap. A lane's upcoming entries
/// are known, so a lane pop prefetches the slots and the objects
/// (prefetch_target()) that the next pops will touch.
///
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Inline storage per slot. Packets wait in the medium's frame pool, so
  /// no scheduled closure carries one: the largest captures are a few
  /// pointers and ids, or a std::function (32 bytes) plus two pointers
  /// (sampled timelines). 48 bytes holds all of them and keeps a slot (with
  /// its bookkeeping) at 96 bytes. A bigger callable does not compile:
  /// capture a pointer to its state instead.
  static constexpr std::size_t kInlineBytes = 48;

  /// Schedules and cancels are counted into `counters` (the owning
  /// simulator's block); a standalone queue (null) counts nothing.
  explicit EventQueue(obs::CounterBlock* counters = nullptr) : counters_(counters) {}
  ~EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `cb` at absolute time `t`, and with `period` > 0 again every
  /// `period` seconds after each run until cancelled. Requires
  /// is_valid_time(t) and, for callables testable for null (std::function,
  /// function pointers), a non-null callable.
  template <typename F>
  EventId schedule(SimTime t, F&& cb, Duration period = 0.0) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_v<Fn&>, "EventQueue callback must be invocable");
    if (!is_valid_time(t)) throw std::invalid_argument("EventQueue::schedule: invalid time");
    if constexpr (std::is_constructible_v<bool, const Fn&>) {
      if (!static_cast<bool>(cb)) {
        throw std::invalid_argument("EventQueue::schedule: null callback");
      }
    }
    const obs::ScopedTimer probe(obs::Probe::kEventPush);
    count(obs::Counter::kEventsScheduled);
    const EventId id{store(std::forward<F>(cb), next_seq_++, period)};
    heap_push(HeapEntry{t, id.value});
    return id;
  }

  /// Cancels a pending event. Returns false if the event already fired,
  /// was already cancelled, or the id was never issued. The callback (and
  /// everything it captured) is destroyed immediately; the heap entry is
  /// discarded lazily, bounded by compaction. Called on a periodic event
  /// from inside its own run, it ends the series: the slot is released
  /// instead of re-armed.
  bool cancel(EventId id) noexcept;

  /// True if there is at least one live (non-cancelled) event pending.
  [[nodiscard]] bool empty() const noexcept { return live_count_ == 0; }

  /// Number of live pending events.
  [[nodiscard]] std::size_t size() const noexcept { return live_count_; }

  /// Timestamp of the earliest live event. Requires !empty(). Always skims
  /// cancelled entries off the top first, so the value agrees with what the
  /// next pop() will return even right after a cancel of the previous top.
  [[nodiscard]] SimTime next_time() const;

  /// Handle to the earliest live event, extracted from the queue. Invoke the
  /// callback with callback(); the pooled slot (and the captures inside it)
  /// is released when the Popped handle is destroyed, which must happen
  /// before the queue itself is destroyed.
  class Popped {
   public:
    Popped(Popped&& other) noexcept
        : time(other.time), id(other.id), queue_(other.queue_), slot_(other.slot_) {
      other.queue_ = nullptr;
      other.slot_ = kNoSlot;
    }
    Popped& operator=(Popped&&) = delete;
    Popped(const Popped&) = delete;
    Popped& operator=(const Popped&) = delete;
    ~Popped();

    SimTime time = 0.0;
    EventId id{};

    /// Invokes the popped event's callback; a periodic event is then re-armed
    /// in its slot (which this handle no longer owns).
    void callback();

   private:
    friend class EventQueue;
    Popped(SimTime t, EventId i, EventQueue* q, std::uint32_t slot)
        : time(t), id(i), queue_(q), slot_(slot) {}

    EventQueue* queue_ = nullptr;
    std::uint32_t slot_;
  };

  /// Pops the earliest live event. Requires !empty().
  Popped pop();

  /// Pops the earliest live event if there is one due at or before
  /// `horizon`: next_time() and pop() in one selection (the run loop's step).
  std::optional<Popped> pop_due(SimTime horizon);

  // --- diagnostics (tests, regression guards) -------------------------------

  /// Entries currently held in the heap and the lanes, live and
  /// lazily-cancelled alike. The compaction invariant keeps this
  /// <= 2 * size() + 1 between operations (beyond the small compaction floor).
  [[nodiscard]] std::size_t heap_size() const noexcept {
    return heap_times_.size() + lane_entries();
  }

  /// Entries (live or cancelled) held in the periodic lanes; the rest of
  /// heap_size() is in the heap.
  [[nodiscard]] std::size_t lane_entries() const noexcept {
    std::size_t n = 0;
    for (const Lane& lane : lanes_) n += lane.count;
    return n;
  }

  /// Lazily-cancelled entries still parked in the heap or a lane.
  [[nodiscard]] std::size_t dead_entries() const noexcept { return dead_entries_; }

  /// Slots ever materialized by the pool. Bounded by the
  /// peak number of simultaneously pending-or-parked entries (itself bounded
  /// by compaction), not by throughput.
  [[nodiscard]] std::size_t pool_slots() const noexcept {
    return chunks_.size() * kChunkSlots;
  }

 private:
  /// An in-flight (time, key) pair being pushed or sifted. The resident heap
  /// itself is stored structure-of-arrays (heap_times_ / heap_keys_): the
  /// heap is the hot loop's biggest array (hundreds of thousands of entries)
  /// and sift comparisons only need timestamps, so keeping the times densely
  /// packed — 4 children in 32 bytes — halves the comparison traffic. Keys
  /// are touched only when an entry moves or on a timestamp tie, which
  /// jittered delivery times make rare.
  struct HeapEntry {
    SimTime time;
    std::uint64_t key;  // EventId::value: (slot index << 32) | generation
  };

  /// Schedule sequence number behind a heap key; it lives in the slot.
  [[nodiscard]] std::uint64_t seq_of(std::uint64_t key) const noexcept {
    return slot_at(static_cast<std::uint32_t>(key >> 32)).seq;
  }

  /// True if (ta, ka) pops after (tb, kb) (min-heap order on (time, seq)).
  /// The seq fetch is short-circuited away except on a timestamp tie.
  [[nodiscard]] bool pops_later(SimTime ta, std::uint64_t ka, SimTime tb,
                                std::uint64_t kb) const noexcept {
    if (ta != tb) return ta > tb;
    return seq_of(ka) > seq_of(kb);
  }

  /// Heap arity. (time, seq) is a strict total order, so the pop sequence is
  /// the same for any correct heap; 4-ary halves the tree depth and keeps a
  /// node's children in adjacent cache lines, which measurably cuts both
  /// sift directions at simulation-sized queues (hundreds of thousands of
  /// pending events).
  static constexpr std::size_t kHeapArity = 4;

  /// Appends `e` and sifts it up (4-ary).
  void heap_push(const HeapEntry& e);
  /// Removes heap_.front() and restores the heap property (4-ary).
  void heap_pop_front() noexcept;
  /// Sifts `e` down from index `i`; returns its final resting index.
  [[nodiscard]] std::size_t heap_sift_down(std::size_t i, HeapEntry e) noexcept;
  /// Floyd heapify of the whole vector (compaction).
  void heap_rebuild() noexcept;

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::uint32_t kChunkSlots = 256;
  /// Compaction kicks in only past this many heap and lane entries, so tiny
  /// queues never churn their heap.
  static constexpr std::size_t kCompactFloor = 64;

  /// kCancelled: callback destroyed, but the slot is parked (not on the
  /// free list) until skim/compaction drops the heap entry, keeping `seq`
  /// stable for tie-break comparisons against the parked entry.
  enum class SlotState : std::uint8_t { kFree, kLive, kPopped, kCancelled };

  struct Slot;

  /// What a slot's type-erased callable can do, one static table per
  /// callable type. `target` is null unless the callable names, through a
  /// prefetch_target() member, the object its run will touch.
  struct Ops {
    using Target = const void* (*)(const Slot&) noexcept;
    void (*invoke)(Slot&);
    void (*destroy)(Slot&);
    Target target;
  };

  struct Slot {
    alignas(std::max_align_t) unsigned char buf[kInlineBytes];
    const Ops* ops = nullptr;  // null while the slot holds no callable
    std::uint64_t seq = 0;
    Duration period = 0.0;  // > 0: re-armed at time + period after each run
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNoSlot;
    SlotState state = SlotState::kFree;
  };
  static_assert(sizeof(Slot) <= 96, "a slot should stay within 1.5 cache lines");

  template <typename Fn>
  struct InlineOps {
    static Fn& ref(Slot& s) noexcept {
      return *std::launder(reinterpret_cast<Fn*>(s.buf));
    }
    static const Fn& ref(const Slot& s) noexcept {
      return *std::launder(reinterpret_cast<const Fn*>(s.buf));
    }
    static void invoke(Slot& s) { ref(s)(); }
    static void destroy(Slot& s) { ref(s).~Fn(); }
    static const void* target(const Slot& s) noexcept {
      if constexpr (NamesPrefetchTarget<Fn>) return ref(s).prefetch_target();
      return nullptr;
    }
    static constexpr Ops kOps{&invoke, &destroy,
                              NamesPrefetchTarget<Fn> ? &target : nullptr};
  };

  [[nodiscard]] Slot& slot_at(std::uint32_t index) noexcept {
    return chunks_[index / kChunkSlots][index % kChunkSlots];
  }
  [[nodiscard]] const Slot& slot_at(std::uint32_t index) const noexcept {
    return chunks_[index / kChunkSlots][index % kChunkSlots];
  }

  /// Type-erases `cb` into a pooled slot; returns the EventId value
  /// ((slot index << 32) | generation, never 0 since generations start at 1).
  template <typename F>
  std::uint64_t store(F&& cb, std::uint64_t seq, Duration period) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t),
                  "EventQueue callback must fit a slot's inline buffer");
    const std::uint32_t index = acquire_slot();
    Slot& s = slot_at(index);
    try {
      ::new (static_cast<void*>(s.buf)) Fn(std::forward<F>(cb));
      s.ops = &InlineOps<Fn>::kOps;
    } catch (...) {
      recycle_slot(index);  // nothing constructed; just rejoin the free list
      throw;
    }
    s.seq = seq;
    s.period = period;
    s.state = SlotState::kLive;
    ++live_count_;
    return (static_cast<std::uint64_t>(index) << 32) | s.gen;
  }

  [[nodiscard]] std::uint32_t acquire_slot();
  /// Returns a slot (already destroyed / never constructed) to the free
  /// list, bumping its generation so outstanding ids go stale.
  void recycle_slot(std::uint32_t index) noexcept;
  /// Popped-handle release: destroys the callable, then recycles.
  void release_popped(std::uint32_t index) noexcept;
  void count(obs::Counter c) noexcept {
    if (counters_ != nullptr) counters_->inc(c);
  }

  /// Pushes a popped periodic slot back at `t` as a fresh schedule: onto the
  /// tail of its period's lane when that keeps the lane sorted, else into
  /// the heap.
  void rearm(std::uint32_t index, SimTime t);

  [[nodiscard]] bool is_live(std::uint64_t key) const noexcept;

  /// Recycles the parked slot behind a dead heap entry being discarded.
  void drop_dead_key(std::uint64_t key) noexcept;

  /// Discards cancelled entries from the top of the heap.
  void skim();

  /// Rebuilds the heap and filters the lanes without their dead entries once
  /// they outnumber the live ones (the cancel/reschedule-churn bound).
  void maybe_compact() noexcept;

  /// A FIFO of re-armed entries of one period, sorted by (time, seq): a ring
  /// buffer whose power-of-two capacity grows with its live entries.
  struct Lane {
    Duration period = 0.0;
    std::vector<HeapEntry> ring;
    std::size_t head = 0;
    std::size_t count = 0;

    [[nodiscard]] const HeapEntry& at(std::size_t i) const noexcept {
      return ring[(head + i) & (ring.size() - 1)];
    }
    [[nodiscard]] const HeapEntry& front() const noexcept { return ring[head]; }
    [[nodiscard]] const HeapEntry& back() const noexcept { return at(count - 1); }
    void push_back(const HeapEntry& e);
    void pop_front() noexcept {
      head = (head + 1) & (ring.size() - 1);
      --count;
    }
  };

  /// Distinct periods with a lane of their own. The simulation runs a
  /// handful (beacon ticks, heartbeats, supervision, telemetry); every pop
  /// scans all lane heads, so the scan stays a few compares. Series of
  /// further periods re-arm through the heap; an emptied lane is reused.
  static constexpr std::size_t kMaxLanes = 8;

  /// Lane a re-arm at `t` of a `period` series can append to, or null.
  [[nodiscard]] Lane* lane_for(Duration period, SimTime t);

  /// Discards cancelled entries from the head of `lane`.
  void skim(Lane& lane) noexcept;

  /// Where the earliest live entry sits, after skimming: kHeapSource, a lane
  /// index, or kNoSource when nothing is pending.
  static constexpr std::size_t kHeapSource = kMaxLanes;
  static constexpr std::size_t kNoSource = kMaxLanes + 1;
  [[nodiscard]] std::size_t select();
  /// Time of the entry at the head of `source` (not kNoSource).
  [[nodiscard]] SimTime head_time(std::size_t source) const noexcept {
    return source == kHeapSource ? heap_times_.front() : lanes_[source].front().time;
  }

  /// Removes the entry select() chose and hands its slot to a Popped.
  Popped take(std::size_t source);

  /// Warms the cache for the pops after a lane pop: the slots of entries a
  /// little ahead in `lane`, and the objects their callables will touch.
  void prefetch_ahead(const Lane& lane) const noexcept;

  // 4-ary min-heap under pops_later, structure-of-arrays: entry i is
  // (heap_times_[i], heap_keys_[i]); the two vectors move in lockstep.
  std::vector<SimTime> heap_times_;
  std::vector<std::uint64_t> heap_keys_;
  std::vector<Lane> lanes_;  // at most kMaxLanes
  std::uint64_t next_seq_ = 1;
  std::size_t dead_entries_ = 0;  // cancelled, in the heap or a lane

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_count_ = 0;
  obs::CounterBlock* counters_;
};

}  // namespace sensrep::sim
