#include "obs/metrics_registry.hpp"

namespace sensrep::obs {

std::atomic<bool> Metrics::enabled_{false};
std::atomic<std::size_t> Metrics::next_shard_{0};
std::array<Metrics::Shard, Metrics::kShards> Metrics::shards_{};
std::array<std::atomic<double>, static_cast<std::size_t>(Gauge::kCount)>
    Metrics::gauges_{};

std::string_view to_string(Counter c) noexcept {
  switch (c) {
    case Counter::kSensorFailures: return "sensor_failures";
    case Counter::kSensorRepairs: return "sensor_repairs";
    case Counter::kReportsArrived: return "reports_arrived";
    case Counter::kReportsDeduped: return "reports_deduped";
    case Counter::kDispatches: return "dispatches";
    case Counter::kRedispatches: return "redispatches";
    case Counter::kRobotFailures: return "robot_failures";
    case Counter::kRobotRepairs: return "robot_repairs";
    case Counter::kLeaseExpiries: return "lease_expiries";
    case Counter::kTasksLost: return "tasks_lost";
    case Counter::kFailovers: return "failovers";
    case Counter::kElections: return "elections";
    case Counter::kHandbacks: return "handbacks";
    case Counter::kOwnershipTransfers: return "ownership_transfers";
    case Counter::kAdoptions: return "adoptions";
    case Counter::kNetLossDrops: return "net_loss_drops";
    case Counter::kNetChaosDrops: return "net_chaos_drops";
    case Counter::kNetChaosDuplicates: return "net_chaos_duplicates";
    case Counter::kNetChaosJams: return "net_chaos_jams";
    case Counter::kNetCollisions: return "net_collisions";
    case Counter::kEventsScheduled: return "events_scheduled";
    case Counter::kEventsExecuted: return "events_executed";
    case Counter::kEventsCancelled: return "events_cancelled";
    case Counter::kServiceCommands: return "service_commands";
    case Counter::kServiceCommandErrors: return "service_command_errors";
    case Counter::kTelemetrySamples: return "telemetry_samples";
    case Counter::kJsonlDropped: return "jsonl_dropped";
    case Counter::kInvariantViolations: return "invariant_violations";
    case Counter::kFlightRecDumps: return "flightrec_dumps";
    case Counter::kCount: break;
  }
  return "?";
}

std::string_view counter_help(Counter c) noexcept {
  switch (c) {
    case Counter::kSensorFailures: return "Sensor slots that failed";
    case Counter::kSensorRepairs: return "Sensor slots replaced by a robot";
    case Counter::kReportsArrived: return "Fresh failure reports at a manager";
    case Counter::kReportsDeduped: return "Duplicate failure reports suppressed";
    case Counter::kDispatches: return "Robot dispatch decisions";
    case Counter::kRedispatches: return "Tasks re-dispatched after robot loss";
    case Counter::kRobotFailures: return "Robot crash injections";
    case Counter::kRobotRepairs: return "Robot repair completions";
    case Counter::kLeaseExpiries: return "Robots presumed dead by lease expiry";
    case Counter::kTasksLost: return "In-flight tasks lost to robot crashes";
    case Counter::kFailovers: return "Robots taking over for a dead manager or robot";
    case Counter::kElections: return "Manager elections started";
    case Counter::kHandbacks: return "Repaired managers or robots taking their role back";
    case Counter::kOwnershipTransfers: return "Task-table ownership transfers";
    case Counter::kAdoptions: return "Orphan adoptions (fixed-distributed)";
    case Counter::kNetLossDrops: return "Per-receiver Bernoulli link losses";
    case Counter::kNetChaosDrops: return "Burst/partition chaos drops";
    case Counter::kNetChaosDuplicates: return "Chaos duplicated deliveries";
    case Counter::kNetChaosJams: return "Jam-window suppressed transmissions";
    case Counter::kNetCollisions: return "Deliveries lost to busy listeners";
    case Counter::kEventsScheduled: return "Events pushed into the queue";
    case Counter::kEventsExecuted: return "Live events delivered by pop";
    case Counter::kEventsCancelled: return "Events cancelled before firing";
    case Counter::kServiceCommands: return "Daemon protocol commands accepted";
    case Counter::kServiceCommandErrors: return "Daemon protocol command errors";
    case Counter::kTelemetrySamples: return "Telemetry exporter ticks";
    case Counter::kJsonlDropped: return "JSONL sink lines dropped";
    case Counter::kInvariantViolations: return "Invariant oracle violations";
    case Counter::kFlightRecDumps: return "Flight recorder dumps written";
    case Counter::kCount: break;
  }
  return "?";
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
  // b == kHistBuckets means the implicit +Inf bucket: only count/sum move.
  if (b < kHistBuckets) {
    cell(hist_cell(h, b)).fetch_add(1, std::memory_order_relaxed);
  }
  cell(hist_cell(h, kHistBuckets)).fetch_add(1, std::memory_order_relaxed);
  const double scaled = v * kSumScale;
  const auto micros =
      scaled <= 0 ? 0 : static_cast<std::uint64_t>(scaled + 0.5);
  cell(hist_cell(h, kHistBuckets + 1)).fetch_add(micros, std::memory_order_relaxed);
}

void Metrics::reset() noexcept {
  for (Shard& s : shards_) {
    for (auto& c : s.v) c.store(0, std::memory_order_relaxed);
  }
  for (auto& g : gauges_) g.store(0.0, std::memory_order_relaxed);
}

std::uint64_t Metrics::counter_value(Counter c) noexcept {
  return sum_cell(counter_cell(c));
}

MetricsSnapshot Metrics::snapshot() {
  MetricsSnapshot out;
  for (std::size_t i = 0; i < out.counters.size(); ++i) {
    out.counters[i] = sum_cell(counter_cell(static_cast<Counter>(i)));
  }
  for (std::size_t i = 0; i < kNetCategories; ++i) {
    out.net_tx[i] = sum_cell(net_tx_cell(i));
    out.net_rx[i] = sum_cell(net_rx_cell(i));
  }
  for (std::size_t i = 0; i < out.gauges.size(); ++i) {
    out.gauges[i] = gauges_[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < out.hists.size(); ++i) {
    const auto h = static_cast<Hist>(i);
    auto& hs = out.hists[i];
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
      hs.buckets[b] = sum_cell(hist_cell(h, b));
    }
    hs.count = sum_cell(hist_cell(h, kHistBuckets));
    hs.sum = static_cast<double>(sum_cell(hist_cell(h, kHistBuckets + 1))) / kSumScale;
  }
  return out;
}

}  // namespace sensrep::obs
