#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/counters.hpp"

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
  kEventsExecuted,    // Simulator::run, after the event's callback returned
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

/// Per-simulation gauges, held in each CounterBlock and set by its one
/// writer; opt-in like histograms. A scrape sums the live blocks' values,
/// except kSimClock, which takes their maximum.
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

/// Label names of the kNetTx/kNetRx families, indexed by
/// metrics::MessageCategory. This is the one name table:
/// metrics::to_string(MessageCategory) reads it, net/medium.cpp
/// static_asserts the count and metrics_plane_test pins each entry.
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

/// Point-in-time view of the registry. Taken under the registry lock, which
/// also covers a destroyed block's move into the retired total; every cell
/// only grows, so repeated snapshots are monotone per counter series even
/// while simulations run and die.
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

/// One simulation's counters: every obs::Counter plus transmissions and
/// receptions per message category, and its gauges. sim::Simulator owns one,
/// and every layer counts into it through the simulator it holds. Single
/// writer (the thread running the simulation): a write is a relaxed load and
/// store, as cheap as a plain increment, and a scrape on another thread
/// loads relaxed. A block joins the Metrics registry on construction and
/// folds its counters into the retired total on destruction, so scraped
/// counters never decrease. Its gauges drop out with it: they are not
/// monotone, so they never fold into the retired total.
class CounterBlock {
 public:
  CounterBlock();
  ~CounterBlock();
  CounterBlock(const CounterBlock&) = delete;
  CounterBlock& operator=(const CounterBlock&) = delete;

  void inc(Counter c, std::uint64_t n = 1) noexcept { bump(counters_[at(c)], n); }
  /// One radio send (the paper's Fig. 4 metric): a packet relayed over h
  /// hops costs h transmissions.
  void tx(metrics::MessageCategory c, std::uint64_t n = 1) noexcept {
    bump(tx_[at(c)], n);
  }
  /// One frame handed to one receiver.
  void rx(metrics::MessageCategory c) noexcept { bump(rx_[at(c)], 1); }
  /// Sets a gauge; a no-op unless Metrics is enabled.
  void set(Gauge g, double v) noexcept;

  [[nodiscard]] std::uint64_t get(Counter c) const noexcept {
    return load(counters_[at(c)]);
  }
  /// Transmissions of one category, and of all of them.
  [[nodiscard]] std::uint64_t get(metrics::MessageCategory c) const noexcept {
    return load(tx_[at(c)]);
  }
  [[nodiscard]] std::uint64_t total() const noexcept { return sum(tx_); }
  /// Receptions of every category.
  [[nodiscard]] std::uint64_t received() const noexcept { return sum(rx_); }

  /// Adds every cell to the counter and net fields of `s`.
  void add_to(MetricsSnapshot& s) const noexcept;
  /// Merges the gauges into `s`: sums them, and takes the maximum clock.
  void add_gauges_to(MetricsSnapshot& s) const noexcept;

 private:
  using Cell = std::atomic<std::uint64_t>;

  template <typename E>
  static constexpr std::size_t at(E e) noexcept {
    return static_cast<std::size_t>(e);
  }
  static void bump(Cell& cell, std::uint64_t n) noexcept {
    cell.store(cell.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }
  static std::uint64_t load(const Cell& cell) noexcept {
    return cell.load(std::memory_order_relaxed);
  }
  static std::uint64_t sum(const std::array<Cell, kNetCategories>& cells) noexcept;

  std::array<Cell, static_cast<std::size_t>(Counter::kCount)> counters_{};
  std::array<Cell, kNetCategories> tx_{};
  std::array<Cell, kNetCategories> rx_{};
  std::array<std::atomic<double>, static_cast<std::size_t>(Gauge::kCount)> gauges_{};
};

/// The process's view of every counter block, plus opt-in histograms. A
/// scrape sums the live blocks, the retired total of destroyed ones and a
/// process block for the counts no simulation owns (flight-recorder dumps,
/// JSONL drops); gauges come from the live blocks alone. Histograms and
/// gauges stay behind enable(): while disabled (the default) each probe
/// costs one relaxed load. Nothing here touches the virtual clock, RNG
/// streams or event ordering.
class Metrics {
 public:
  /// Switches histograms and gauges on or off; counters ignore it.
  static void enable(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] static bool enabled() noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Counts into the process block: for counters no simulation owns. Safe
  /// from any thread.
  static void inc(Counter c, std::uint64_t n = 1) noexcept {
    process_[static_cast<std::size_t>(c)].fetch_add(n, std::memory_order_relaxed);
  }
  static void observe(Hist h, double v) noexcept;

  /// Zeroes the retired total, the process block and histograms (tests,
  /// start of a measured run). Live blocks belong to their simulations and
  /// keep their counts and gauges.
  static void reset() noexcept;

  [[nodiscard]] static MetricsSnapshot snapshot();

  /// One counter's process total (snapshot().counters[c]) — test hook.
  [[nodiscard]] static std::uint64_t counter_value(Counter c);

 private:
  friend class CounterBlock;

  // The live blocks and the retired total (its counter and net fields).
  static std::mutex mu_;
  static std::vector<const CounterBlock*> live_;
  static MetricsSnapshot retired_;

  // Histogram cells: [bucket 0..kHistBuckets) [count] [sum]. Sums are stored
  // in fixed-point micro-units so they fit the same u64 fetch_add cells.
  static constexpr std::size_t kHistStride = kHistBuckets + 2;
  static constexpr double kSumScale = 1e6;

  static std::atomic<bool> enabled_;
  static std::array<std::atomic<std::uint64_t>, static_cast<std::size_t>(Counter::kCount)>
      process_;
  static std::array<std::atomic<std::uint64_t>,
                    kHistStride * static_cast<std::size_t>(Hist::kCount)>
      hists_;
};

}  // namespace sensrep::obs
