#include "service/telemetry.hpp"

#include <ostream>
#include <stdexcept>
#include <utility>

#include "metrics/summary.hpp"
#include "trace/format.hpp"

namespace sensrep::service {

// --- TelemetrySample ---------------------------------------------------------

std::string TelemetrySample::protocol_line() const {
  std::string line = trace::strfmt(
      "telemetry t=%.3f failures=%llu repaired=%llu open=%llu pending=%llu "
      "live_robots=%llu events=%llu repairs_per_sec=%.6f availability=%.6f",
      t, static_cast<unsigned long long>(failures),
      static_cast<unsigned long long>(repaired),
      static_cast<unsigned long long>(open_failures),
      static_cast<unsigned long long>(pending_tasks),
      static_cast<unsigned long long>(live_robots),
      static_cast<unsigned long long>(events), repairs_per_sec, availability);
  for (const StagePercentiles& s : stages) {
    const std::string name(obs::to_string(s.stage));
    line += trace::strfmt(" %s_n=%zu %s_p50=%.3f %s_p90=%.3f %s_p99=%.3f",
                          name.c_str(), s.count, name.c_str(), s.p50, name.c_str(),
                          s.p90, name.c_str(), s.p99);
  }
  return line;
}

std::string TelemetrySample::json_line() const {
  std::string line = trace::strfmt(
      R"({"t":%.3f,"failures":%llu,"repaired":%llu,"open":%llu,"pending":%llu)"
      R"(,"live_robots":%llu,"events":%llu,"repairs_per_sec":%.6f,"availability":%.6f)",
      t, static_cast<unsigned long long>(failures),
      static_cast<unsigned long long>(repaired),
      static_cast<unsigned long long>(open_failures),
      static_cast<unsigned long long>(pending_tasks),
      static_cast<unsigned long long>(live_robots),
      static_cast<unsigned long long>(events), repairs_per_sec, availability);
  if (!stages.empty()) {
    line += R"(,"stages":{)";
    bool first = true;
    for (const StagePercentiles& s : stages) {
      if (!first) line += ',';
      first = false;
      line += trace::strfmt(R"("%s":{"n":%zu,"p50":%.3f,"p90":%.3f,"p99":%.3f})",
                            std::string(obs::to_string(s.stage)).c_str(), s.count,
                            s.p50, s.p90, s.p99);
    }
    line += '}';
  }
  line += '}';
  return line;
}

// --- JsonlSink ---------------------------------------------------------------

JsonlSink::JsonlSink(std::ostream& out, std::size_t capacity, bool drop_when_full)
    : out_(out),
      capacity_(capacity == 0 ? 1 : capacity),
      drop_when_full_(drop_when_full),
      writer_([this] { writer_loop(); }) {}

JsonlSink::~JsonlSink() { close(); }

void JsonlSink::count_drop() noexcept {
  dropped_.fetch_add(1, std::memory_order_relaxed);
  obs::Metrics::inc(obs::Counter::kJsonlDropped);
}

void JsonlSink::push(std::string line) {
  std::unique_lock lock(mu_);
  if (drop_when_full_ && queue_.size() >= capacity_ && !closing_) {
    count_drop();  // shed rather than stall the producer (the event loop)
    return;
  }
  not_full_.wait(lock, [this] { return queue_.size() < capacity_ || closing_; });
  if (closing_) {  // shutting down; the producer's line is dropped
    count_drop();
    return;
  }
  queue_.push_back(std::move(line));
  not_empty_.notify_one();
}

void JsonlSink::close() {
  {
    const std::lock_guard lock(mu_);
    closing_ = true;
  }
  not_empty_.notify_all();
  not_full_.notify_all();
  if (writer_.joinable()) writer_.join();
}

void JsonlSink::writer_loop() {
  std::deque<std::string> batch;
  for (;;) {
    {
      std::unique_lock lock(mu_);
      not_empty_.wait(lock, [this] { return !queue_.empty() || closing_; });
      if (queue_.empty() && closing_) break;
      batch.swap(queue_);
      not_full_.notify_all();
    }
    for (const std::string& line : batch) {
      out_ << line << '\n';
      written_.fetch_add(1, std::memory_order_relaxed);
    }
    batch.clear();
  }
  out_.flush();
}

// --- TelemetryExporter -------------------------------------------------------

TelemetryExporter::TelemetryExporter(core::Simulation& sim, Options options)
    : sim_(sim), options_(options) {
  if (!(options_.period > 0.0)) {
    throw std::invalid_argument("TelemetryExporter: period must be > 0");
  }
}

void TelemetryExporter::start() {
  if (started_) throw std::logic_error("TelemetryExporter: start() called twice");
  started_ = true;
  sim_.simulator().every(options_.period, [this] { tick(); });
}

TelemetrySample TelemetryExporter::sample_now() const {
  const core::StateDigest d = sim_.digest();
  TelemetrySample s;
  s.t = d.clock;
  s.failures = d.failures;
  s.repaired = d.repaired;
  s.open_failures = d.failures - d.repaired;
  s.pending_tasks = d.pending_tasks;
  s.live_robots = d.live_robots;
  s.events = d.events_executed;
  const double dt = d.clock - last_t_;
  s.repairs_per_sec = dt > 0.0
      ? static_cast<double>(d.repaired - last_repaired_) / dt
      : 0.0;
  const auto deployed = static_cast<double>(sim_.config().sensor_count());
  s.availability = deployed > 0.0
      ? 1.0 - static_cast<double>(s.open_failures) / deployed
      : 1.0;
  if (const obs::Tracer* tracer = sim_.field().events().tracer()) {
    for (std::size_t i = 0; i < static_cast<std::size_t>(obs::Stage::kCount); ++i) {
      const auto stage = static_cast<obs::Stage>(i);
      const auto durations = tracer->stage_durations(stage);
      if (durations.empty()) continue;
      metrics::Summary summary;
      for (const double v : durations) summary.add(v);
      StagePercentiles p;
      p.stage = stage;
      p.count = summary.count();
      p.p50 = summary.percentile(0.50);
      p.p90 = summary.percentile(0.90);
      p.p99 = summary.percentile(0.99);
      s.stages.push_back(p);
    }
  }
  return s;
}

void TelemetryExporter::tick() {
  const TelemetrySample s = sample_now();
  last_t_ = s.t;
  last_repaired_ = s.repaired;
  ++samples_;
  // Registry state (not an emission): gauges track the latest sample even
  // while muted, so a post-restore scrape shows live values immediately.
  obs::CounterBlock& block = sim_.simulator().counters();
  block.inc(obs::Counter::kTelemetrySamples);
  const auto deployed = static_cast<double>(sim_.config().sensor_count());
  block.set(obs::Gauge::kAliveSensors, deployed - static_cast<double>(s.open_failures));
  block.set(obs::Gauge::kLiveRobots, static_cast<double>(s.live_robots));
  block.set(obs::Gauge::kOpenFailures, static_cast<double>(s.open_failures));
  block.set(obs::Gauge::kPendingEvents, static_cast<double>(sim_.simulator().pending()));
  block.set(obs::Gauge::kSimClock, s.t);
  if (options_.retention_window > 0.0) {
    if (obs::Tracer* tracer = sim_.field().events().tracer()) {
      tracer->compact(s.t - options_.retention_window);
    }
  }
  if (muted_) return;
  if (line_sink_) line_sink_(s.protocol_line());
  if (jsonl_ != nullptr) jsonl_->push(s.json_line());
  for (obs::Exporter* e : metrics_exporters_) e->on_tick(s.t);
}

}  // namespace sensrep::service
