#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

namespace sensrep::obs {

/// Instrumented hot-path sites. Timings are inclusive: a probe that runs
/// inside another probe's scope (kPlanarizer fires inside kRouterNextHop)
/// contributes to both counters.
enum class Probe : std::uint8_t {
  kEventPush,         // sim::EventQueue::schedule
  kEventPop,          // sim::EventQueue::pop/pop_due (lane and heap selection, not callbacks)
  kRouterNextHop,     // routing::GeoRouter::forward (next-hop selection + tx)
  kPlanarizer,        // routing::planar_neighbors (Gabriel/RNG pruning)
  kSupervise,         // lease supervision sweep (per-algorithm override incl.)
  kClosestLiveRobot,  // CoordinationAlgorithm::closest_live_robot
  kCount,
};

[[nodiscard]] std::string_view to_string(Probe p) noexcept;

/// Process-wide wall-clock profiler for the simulation's hot paths.
///
/// Strictly opt-in: while disabled (the default) every probe site costs one
/// relaxed atomic load and a predictable branch — no clock reads, no stores.
/// When enabled, ScopedTimer accumulates steady-clock nanoseconds into
/// per-probe atomic cells, so concurrent simulations on runner worker
/// threads profile safely into the same registry.
///
/// The profiler only *observes* wall time; it never touches the virtual
/// clock, RNG streams, or event ordering, so enabling it cannot change any
/// simulation result.
class Profiler {
 public:
  struct Snapshot {
    std::uint64_t count = 0;  // times the probe scope ran
    std::uint64_t ns = 0;     // total wall nanoseconds inside the scope
  };

  static void enable(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] static bool enabled() noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  static void add(Probe p, std::uint64_t ns) noexcept {
    Cell& c = cells_[static_cast<std::size_t>(p)];
    c.count.fetch_add(1, std::memory_order_relaxed);
    c.ns.fetch_add(ns, std::memory_order_relaxed);
  }

  /// Zeroes every cell (start of a profiled run).
  static void reset() noexcept;

  [[nodiscard]] static Snapshot snapshot(Probe p) noexcept;

  /// Human-readable per-probe table: calls, total ms, ns/call, share of the
  /// summed probe time. Probes that never fired are omitted.
  [[nodiscard]] static std::string report();

  /// Machine-readable rows (`probe,calls,total_ns`, header included). Every
  /// probe is emitted — zeros too — so downstream regression tooling sees a
  /// stable row set across runs.
  [[nodiscard]] static std::string report_csv();

 private:
  struct Cell {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> ns{0};
  };

  static std::atomic<bool> enabled_;
  static std::array<Cell, static_cast<std::size_t>(Probe::kCount)> cells_;
};

/// RAII probe: times its enclosing scope into one Profiler cell. The
/// enabled() check is hoisted into the constructor so a disabled profiler
/// never reads the clock.
class ScopedTimer {
 public:
  explicit ScopedTimer(Probe p) noexcept : probe_(p), active_(Profiler::enabled()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedTimer() {
    if (active_) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
      Profiler::add(probe_, static_cast<std::uint64_t>(ns < 0 ? 0 : ns));
    }
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Probe probe_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace sensrep::obs
