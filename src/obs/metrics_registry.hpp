#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sensrep::obs {

/// Unlabeled monotone counters. One enum value = one Prometheus series
/// `sensrep_<name>_total` / one Influx field. Keep the catalog in
/// docs/OBSERVABILITY.md in sync when adding entries.
enum class Counter : std::uint16_t {
  // repair pipeline and robot faults; "kind k": the domain kind's counter sink
  kSensorFailures,    // kind failure
  kSensorRepairs,     // kind replacement
  kReportsArrived,    // CoordinationAlgorithm::record_report_arrival (fresh copy)
  kReportsDeduped,    // record_report_arrival (duplicate suppressed)
  kDispatches,        // kind dispatch
  kRedispatches,      // kind redispatch
  kRobotFailures,     // kind robot_failure
  kRobotRepairs,      // kind robot_repair
  kLeaseExpiries,     // kind lease_expiry
  kTasksLost,         // CoordinationAlgorithm::on_robot_failed (tasks per crash)
  kFailovers,         // kind failover
  kElections,         // kind election
  kHandbacks,         // kind handback
  kOwnershipTransfers,// task table ownership transfers
  kAdoptions,         // kind adoption
  // net::Medium (per-transmission; category-labeled families are separate)
  kNetLossDrops,      // Bernoulli per-receiver losses
  kNetChaosDrops,     // Gilbert-Elliott burst / partition drops
  kNetChaosDuplicates,// chaos duplicated deliveries
  kNetChaosJams,      // jam-window suppressions
  kNetCollisions,     // listener busy at delivery
  // sim kernel
  kEventsScheduled,   // EventQueue::schedule
  kEventsExecuted,    // EventQueue::pop delivering a live event
  kEventsCancelled,   // EventQueue::cancel
  // service plane
  kServiceCommands,       // kind command
  kServiceCommandErrors,  // daemon protocol parse/apply errors
  kTelemetrySamples,      // TelemetryExporter ticks
  kJsonlDropped,          // JsonlSink lines dropped (backpressure/close)
  // oracle / flight recorder
  kInvariantViolations,   // kind violation
  kFlightRecDumps,        // flight recorder dumps written
  kCount,
};

/// Last-write-wins gauges (not sharded; plain relaxed store).
enum class Gauge : std::uint16_t {
  kAliveSensors,      // set at telemetry tick
  kLiveRobots,        // set at telemetry tick
  kOpenFailures,      // set at telemetry tick
  kPendingEvents,     // set at telemetry tick (EventQueue::size)
  kEventPoolSlots,    // set when the pooled queue grows a chunk
  kSimClock,          // virtual-clock seconds, set at telemetry tick
  kCount,
};

/// Fixed-bucket histograms (cumulative `le` buckets, Prometheus-style).
enum class Hist : std::uint16_t {
  kRepairLatency,     // seconds from sensor failure to replacement
  kDispatchDistance,  // meters from dispatched robot to failure site
  kCount,
};

inline constexpr std::size_t kHistBuckets = 8;  // finite edges; +Inf is implicit

/// Mirror of metrics::MessageCategory label names for the kNetTx/kNetRx
/// families. src/obs cannot include metrics/counters.hpp (sensrep_metrics
/// links *against* sensrep_obs), so the table is duplicated here;
/// net/medium.cpp static_asserts the count and metrics_plane_test asserts
/// each name against metrics::to_string.
inline constexpr std::size_t kNetCategories = 10;
inline constexpr const char* kCategoryLabel[kNetCategories] = {
    "initialization", "beacon",           "guardian_confirm", "failure_report",
    "repair_request", "location_update",  "replacement",      "data",
    "fault_tolerance", "other",
};

[[nodiscard]] std::string_view to_string(Counter c) noexcept;
[[nodiscard]] std::string_view to_string(Gauge g) noexcept;
[[nodiscard]] std::string_view to_string(Hist h) noexcept;
[[nodiscard]] std::string_view counter_help(Counter c) noexcept;
/// Finite bucket upper bounds for a histogram (kHistBuckets entries).
[[nodiscard]] const std::array<double, kHistBuckets>& hist_edges(Hist h) noexcept;

/// Consistent point-in-time-ish view of the registry (per-cell relaxed
/// loads; each cell is monotone, so repeated snapshots are monotone per
/// series even while writers run).
struct MetricsSnapshot {
  std::array<std::uint64_t, static_cast<std::size_t>(Counter::kCount)> counters{};
  std::array<std::uint64_t, kNetCategories> net_tx{};
  std::array<std::uint64_t, kNetCategories> net_rx{};
  std::array<double, static_cast<std::size_t>(Gauge::kCount)> gauges{};
  struct HistSnapshot {
    std::array<std::uint64_t, kHistBuckets> buckets{};  // non-cumulative
    std::uint64_t count = 0;
    double sum = 0.0;
  };
  std::array<HistSnapshot, static_cast<std::size_t>(Hist::kCount)> hists{};
};

/// Process-wide lock-free metrics registry.
///
/// Strictly opt-in like obs::Profiler: while disabled (the default) every
/// instrumentation site costs one relaxed atomic load and a predictable
/// branch. When enabled, increments go to per-thread-sharded cache-line-
/// aligned rows of relaxed atomic cells — concurrent simulations on runner
/// worker threads never contend on a cell — and scrapes aggregate the
/// shards. The registry only observes; it never touches the virtual clock,
/// RNG streams, or event ordering, so enabling it cannot change results.
class Metrics {
 public:
  static constexpr std::size_t kShards = 8;  // power of two

  static void enable(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] static bool enabled() noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  static void inc(Counter c, std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    cell(counter_cell(c)).fetch_add(n, std::memory_order_relaxed);
  }
  static void net_tx(std::size_t category, std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    cell(net_tx_cell(category)).fetch_add(n, std::memory_order_relaxed);
  }
  static void net_rx(std::size_t category, std::uint64_t n = 1) noexcept {
    if (!enabled()) return;
    cell(net_rx_cell(category)).fetch_add(n, std::memory_order_relaxed);
  }
  static void set_gauge(Gauge g, double v) noexcept {
    if (!enabled()) return;
    gauges_[static_cast<std::size_t>(g)].store(v, std::memory_order_relaxed);
  }
  static void observe(Hist h, double v) noexcept;

  /// Zeroes every cell (tests, start of a measured run). Not safe
  /// concurrently with writers that must sum exactly.
  static void reset() noexcept;

  [[nodiscard]] static MetricsSnapshot snapshot();

  /// Sharded cell total for one counter — test hook.
  [[nodiscard]] static std::uint64_t counter_value(Counter c) noexcept;

 private:
  // Flat cell index space: [counters][net_tx][net_rx][hist buckets+count+sum].
  static constexpr std::size_t kCounterBase = 0;
  static constexpr std::size_t kNetTxBase =
      kCounterBase + static_cast<std::size_t>(Counter::kCount);
  static constexpr std::size_t kNetRxBase = kNetTxBase + kNetCategories;
  static constexpr std::size_t kHistBase = kNetRxBase + kNetCategories;
  static constexpr std::size_t kHistStride = kHistBuckets + 2;  // + count + sum
  static constexpr std::size_t kCells =
      kHistBase + kHistStride * static_cast<std::size_t>(Hist::kCount);

  static constexpr std::size_t counter_cell(Counter c) noexcept {
    return kCounterBase + static_cast<std::size_t>(c);
  }
  static constexpr std::size_t net_tx_cell(std::size_t category) noexcept {
    return kNetTxBase + category;
  }
  static constexpr std::size_t net_rx_cell(std::size_t category) noexcept {
    return kNetRxBase + category;
  }
  static constexpr std::size_t hist_cell(Hist h, std::size_t off) noexcept {
    return kHistBase + kHistStride * static_cast<std::size_t>(h) + off;
  }

  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kCells> v{};
  };

  /// Per-thread shard row; threads round-robin over rows so runner workers
  /// land on distinct cache lines.
  [[nodiscard]] static std::atomic<std::uint64_t>& cell(std::size_t idx) noexcept {
    return shards_[shard_index()].v[idx];
  }
  [[nodiscard]] static std::size_t shard_index() noexcept {
    thread_local const std::size_t idx =
        next_shard_.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
    return idx;
  }
  [[nodiscard]] static std::uint64_t sum_cell(std::size_t idx) noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v[idx].load(std::memory_order_relaxed);
    return total;
  }

  // Histogram sums are stored in fixed-point micro-units so they fit the
  // same u64 fetch_add cells as everything else.
  static constexpr double kSumScale = 1e6;

  static std::atomic<bool> enabled_;
  static std::atomic<std::size_t> next_shard_;
  static std::array<Shard, kShards> shards_;
  static std::array<std::atomic<double>, static_cast<std::size_t>(Gauge::kCount)> gauges_;
};

}  // namespace sensrep::obs
