#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sensrep::obs {

enum class Kind : std::uint16_t;  // obs/domain.hpp

/// Fixed binary flight record; 24 bytes, no pointers, trivially copyable.
struct FlightRecord {
  double t = 0.0;       // virtual-clock seconds
  std::uint32_t a = 0;  // the event's node
  std::uint32_t b = 0;  // the event's actor, 0 when it has none
  std::uint16_t kind = 0;  // obs::Kind ordinal
  std::uint16_t pad = 0;
};
static_assert(sizeof(FlightRecord) == 24, "keep flight records fixed-size");

/// Process-wide allocation-free ring buffer of the last N domain events
/// whose kind names the flight sink ("the last 64k events before it went wrong").
///
/// The ring is allocated once by enable(); note() is then allocation-free:
/// one relaxed enabled load, one relaxed fetch_add on the head, one slot
/// write. Recording never touches the virtual clock or RNG streams, so an
/// enabled recorder cannot change simulation results.
///
/// dump() reads slots non-atomically and is meant for quiescent callers
/// (the violation handler, the daemon command loop, end of run) — it is not
/// safe concurrently with note() from *other* threads.
class FlightRecorder {
 public:
  /// Arms the recorder with a ring of `capacity` records (rounded up to a
  /// power of two, min 16). Re-enabling with the same capacity keeps the
  /// existing ring; a different capacity reallocates and clears.
  static void enable(std::size_t capacity = kDefaultCapacity);
  static void disable() noexcept;
  [[nodiscard]] static bool enabled() noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  static void note(double t, Kind kind, std::uint32_t a = 0,
                   std::uint32_t b = 0) noexcept {
    if (!enabled()) return;
    const std::uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed);
    FlightRecord& r = ring_[seq & mask_];
    r.t = t;
    r.a = a;
    r.b = b;
    r.kind = static_cast<std::uint16_t>(kind);
  }

  /// Total records ever noted (may exceed capacity; the ring keeps the tail).
  [[nodiscard]] static std::uint64_t recorded() noexcept {
    return head_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] static std::size_t capacity() noexcept { return ring_.size(); }

  /// Clears the ring without resizing (start of a measured run).
  static void reset() noexcept;

  /// Retained records, oldest first.
  [[nodiscard]] static std::vector<FlightRecord> dump();

  /// JSONL rendering of dump(): one object per line,
  /// {"seq":…,"t":…,"kind":"…","a":…,"b":…}. seq is the global note index,
  /// so consumers can see how many records the ring evicted.
  [[nodiscard]] static std::string dump_jsonl();

  /// Writes dump_jsonl() to `path` and bumps Counter::kFlightRecDumps.
  /// Returns false if the file could not be written.
  static bool dump_to_file(const std::string& path);

  static constexpr std::size_t kDefaultCapacity = 65536;

 private:
  static std::atomic<bool> enabled_;
  static std::atomic<std::uint64_t> head_;
  static std::vector<FlightRecord> ring_;
  static std::size_t mask_;
};

}  // namespace sensrep::obs
