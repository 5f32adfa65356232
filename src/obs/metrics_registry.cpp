#include "obs/metrics_registry.hpp"

#include <algorithm>
#include <iterator>
#include <mutex>

namespace sensrep::obs {

std::atomic<bool> Metrics::enabled_{false};
std::array<std::atomic<std::uint64_t>, static_cast<std::size_t>(Counter::kCount)>
    Metrics::process_{};
std::array<std::atomic<std::uint64_t>,
           Metrics::kHistStride * static_cast<std::size_t>(Hist::kCount)>
    Metrics::hists_{};

std::mutex Metrics::mu_;
std::vector<const CounterBlock*> Metrics::live_;
MetricsSnapshot Metrics::retired_;

CounterBlock::CounterBlock() {
  const std::lock_guard lock(Metrics::mu_);
  Metrics::live_.push_back(this);
}

CounterBlock::~CounterBlock() {
  const std::lock_guard lock(Metrics::mu_);
  add_to(Metrics::retired_);
  auto& live = Metrics::live_;
  live.erase(std::find(live.begin(), live.end(), this));
}

std::uint64_t CounterBlock::sum(const std::array<Cell, kNetCategories>& cells) noexcept {
  std::uint64_t total = 0;
  for (const Cell& c : cells) total += load(c);
  return total;
}

void CounterBlock::add_to(MetricsSnapshot& s) const noexcept {
  for (std::size_t i = 0; i < counters_.size(); ++i) s.counters[i] += load(counters_[i]);
  for (std::size_t i = 0; i < kNetCategories; ++i) {
    s.net_tx[i] += load(tx_[i]);
    s.net_rx[i] += load(rx_[i]);
  }
}

void CounterBlock::set(Gauge g, double v) noexcept {
  if (Metrics::enabled()) gauges_[at(g)].store(v, std::memory_order_relaxed);
}

void CounterBlock::add_gauges_to(MetricsSnapshot& s) const noexcept {
  for (std::size_t i = 0; i < gauges_.size(); ++i) {
    const double v = gauges_[i].load(std::memory_order_relaxed);
    double& out = s.gauges[i];
    out = static_cast<Gauge>(i) == Gauge::kSimClock ? std::max(out, v) : out + v;
  }
}

namespace {

/// Name and help text of each Counter, in enum order.
struct CounterRow {
  std::string_view name;
  std::string_view help;
};
constexpr CounterRow kCounterRows[] = {
    {"sensor_failures", "Sensor slots that failed"},
    {"sensor_repairs", "Sensor slots replaced by a robot"},
    {"reports_arrived", "Fresh failure reports at a manager"},
    {"reports_deduped", "Duplicate failure reports suppressed"},
    {"dispatches", "Robot dispatch decisions"},
    {"redispatches", "Tasks re-dispatched after robot loss"},
    {"robot_failures", "Robot crash injections"},
    {"robot_repairs", "Robot repair completions"},
    {"lease_expiries", "Robots presumed dead by lease expiry"},
    {"tasks_lost", "In-flight tasks lost to robot crashes"},
    {"failovers", "Robots taking over for a dead manager or robot"},
    {"elections", "Manager elections started"},
    {"handbacks", "Repaired managers or robots taking their role back"},
    {"ownership_transfers", "Task-table ownership transfers"},
    {"adoptions", "Orphan adoptions (fixed-distributed)"},
    {"net_loss_drops", "Per-receiver Bernoulli link losses"},
    {"net_chaos_drops", "Burst/partition chaos drops"},
    {"net_chaos_duplicates", "Chaos duplicated deliveries"},
    {"net_chaos_jams", "Jam-window suppressed transmissions"},
    {"net_collisions", "Deliveries lost to busy listeners"},
    {"events_scheduled", "Events pushed into the queue"},
    {"events_executed", "Events whose callback ran to completion"},
    {"events_cancelled", "Events cancelled before firing"},
    {"service_commands", "Daemon protocol commands accepted"},
    {"service_command_errors", "Daemon protocol command errors"},
    {"telemetry_samples", "Telemetry exporter ticks"},
    {"jsonl_dropped", "JSONL sink lines dropped"},
    {"invariant_violations", "Invariant oracle violations"},
    {"flightrec_dumps", "Flight recorder dumps written"},
};
static_assert(std::size(kCounterRows) == static_cast<std::size_t>(Counter::kCount));

}  // namespace

std::string_view to_string(Counter c) noexcept {
  const auto i = static_cast<std::size_t>(c);
  return i < std::size(kCounterRows) ? kCounterRows[i].name : "?";
}

std::string_view counter_help(Counter c) noexcept {
  const auto i = static_cast<std::size_t>(c);
  return i < std::size(kCounterRows) ? kCounterRows[i].help : "?";
}

std::string_view to_string(Gauge g) noexcept {
  switch (g) {
    case Gauge::kAliveSensors: return "alive_sensors";
    case Gauge::kLiveRobots: return "live_robots";
    case Gauge::kOpenFailures: return "open_failures";
    case Gauge::kPendingEvents: return "pending_events";
    case Gauge::kEventPoolSlots: return "event_pool_slots";
    case Gauge::kSimClock: return "sim_clock_seconds";
    case Gauge::kCount: break;
  }
  return "?";
}

std::string_view to_string(Hist h) noexcept {
  switch (h) {
    case Hist::kRepairLatency: return "repair_latency_seconds";
    case Hist::kDispatchDistance: return "dispatch_distance_meters";
    case Hist::kCount: break;
  }
  return "?";
}

const std::array<double, kHistBuckets>& hist_edges(Hist h) noexcept {
  // Repair latency: the fig3-style replacement delay runs tens of seconds to
  // tens of minutes depending on field size and fleet; doubling edges.
  static const std::array<double, kHistBuckets> repair = {30,   60,   120,  240,
                                                          480,  960,  1920, 3840};
  // Dispatch distance: default fields are a few hundred meters across.
  static const std::array<double, kHistBuckets> dist = {25,  50,  100, 200,
                                                        400, 800, 1600, 3200};
  switch (h) {
    case Hist::kRepairLatency: return repair;
    case Hist::kDispatchDistance: return dist;
    case Hist::kCount: break;
  }
  return repair;
}

void Metrics::observe(Hist h, double v) noexcept {
  if (!enabled()) return;
  const auto& edges = hist_edges(h);
  std::size_t b = 0;
  while (b < kHistBuckets && v > edges[b]) ++b;
  auto* cells = &hists_[kHistStride * static_cast<std::size_t>(h)];
  // b == kHistBuckets means the implicit +Inf bucket: only count/sum move.
  if (b < kHistBuckets) cells[b].fetch_add(1, std::memory_order_relaxed);
  cells[kHistBuckets].fetch_add(1, std::memory_order_relaxed);
  const double scaled = v * kSumScale;
  const auto micros =
      scaled <= 0 ? 0 : static_cast<std::uint64_t>(scaled + 0.5);
  cells[kHistBuckets + 1].fetch_add(micros, std::memory_order_relaxed);
}

void Metrics::reset() noexcept {
  {
    const std::lock_guard lock(mu_);
    retired_ = {};
  }
  for (auto& c : process_) c.store(0, std::memory_order_relaxed);
  for (auto& c : hists_) c.store(0, std::memory_order_relaxed);
}

std::uint64_t Metrics::counter_value(Counter c) {
  return snapshot().counters[static_cast<std::size_t>(c)];
}

MetricsSnapshot Metrics::snapshot() {
  MetricsSnapshot out;
  {
    const std::lock_guard lock(mu_);
    out = retired_;
    for (const CounterBlock* b : live_) {
      b->add_to(out);
      b->add_gauges_to(out);
    }
  }
  for (std::size_t i = 0; i < out.counters.size(); ++i) {
    out.counters[i] += process_[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < out.hists.size(); ++i) {
    const auto* cells = &hists_[kHistStride * i];
    auto& hs = out.hists[i];
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      hs.buckets[b] = cells[b].load(std::memory_order_relaxed);
    }
    hs.count = cells[kHistBuckets].load(std::memory_order_relaxed);
    const auto micros = cells[kHistBuckets + 1].load(std::memory_order_relaxed);
    hs.sum = static_cast<double>(micros) / kSumScale;
  }
  return out;
}

}  // namespace sensrep::obs
