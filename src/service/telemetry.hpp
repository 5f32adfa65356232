#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/simulation.hpp"
#include "obs/exporters.hpp"
#include "obs/tracer.hpp"

namespace sensrep::service {

/// p50/p90/p99 of one repair-lifecycle stage over the retained trace window.
struct StagePercentiles {
  obs::Stage stage = obs::Stage::kRepair;
  std::size_t count = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
};

/// One telemetry observation, taken on the *virtual* clock — the stream is
/// a pure function of the simulation, so two runs with identical journals
/// emit byte-identical telemetry (the restore differential test relies on
/// this).
struct TelemetrySample {
  double t = 0.0;
  std::uint64_t failures = 0;       // sensor failures opened so far
  std::uint64_t repaired = 0;       // closed by a replacement
  std::uint64_t open_failures = 0;  // failures - repaired
  std::uint64_t pending_tasks = 0;  // queued + in-service repair tasks
  std::uint64_t live_robots = 0;
  std::uint64_t events = 0;         // simulator events executed
  double repairs_per_sec = 0.0;     // over the last sampling window
  double availability = 0.0;        // live sensors / deployed sensors
  std::vector<StagePercentiles> stages;  // only stages with closed spans

  /// Protocol stream form: "telemetry t=... failures=... ..." one line.
  [[nodiscard]] std::string protocol_line() const;

  /// One JSON object, one line (the --telemetry-jsonl sink format; checked
  /// by `trace_check --telemetry`).
  [[nodiscard]] std::string json_line() const;
};

/// Bounded-queue JSONL writer with a background flush thread, so telemetry
/// file I/O never stalls the simulation's event loop. By default push()
/// applies backpressure (blocks) when the queue is full rather than dropping
/// or growing without bound; with `drop_when_full` it sheds the line instead
/// (metrics bodies are periodic snapshots, so losing one is recoverable —
/// stalling the event loop is not). Every shed line — full-queue or
/// after-close — lands in dropped() and the kJsonlDropped registry counter,
/// so backpressure is observable rather than silent. close() drains
/// everything and joins; the destructor closes implicitly. The target stream
/// is written exclusively by the writer thread until close() returns.
class JsonlSink {
 public:
  explicit JsonlSink(std::ostream& out, std::size_t capacity = 4096,
                     bool drop_when_full = false);
  ~JsonlSink();

  JsonlSink(const JsonlSink&) = delete;
  JsonlSink& operator=(const JsonlSink&) = delete;

  /// Enqueues one line (no trailing newline; the sink adds it). Blocks
  /// while the queue is full (unless drop_when_full); after close() the
  /// line is dropped.
  void push(std::string line);

  /// Drains the queue, flushes, and joins the writer. Idempotent.
  void close();

  /// Lines flushed to the stream so far.
  [[nodiscard]] std::uint64_t written() const noexcept {
    return written_.load(std::memory_order_relaxed);
  }

  /// Lines dropped instead of written (push after close, or a full queue in
  /// drop_when_full mode).
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  void writer_loop();
  void count_drop() noexcept;

  std::ostream& out_;
  std::size_t capacity_;
  bool drop_when_full_;
  std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<std::string> queue_;
  bool closing_ = false;
  std::atomic<std::uint64_t> written_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::thread writer_;
};

/// Periodic telemetry on the virtual clock. Each tick samples the
/// simulation's digest (plus per-stage percentiles when a tracer is
/// attached), sets the simulation's gauges, applies the retention window
/// (Tracer::compact) so a soak holds bounded memory, and emits the sample to
/// the line sink / JSONL sink. Muting suppresses emission only — sampling
/// and window state still advance, which is how a restore replay
/// reconverges on the original exporter state without re-printing history.
class TelemetryExporter {
 public:
  struct Options {
    double period = 60.0;           // sim seconds between samples (> 0)
    double retention_window = 0.0;  // 0 = keep everything
  };

  TelemetryExporter(core::Simulation& sim, Options options);

  void set_jsonl(JsonlSink* sink) noexcept { jsonl_ = sink; }
  /// Registers a metrics exporter (Influx/webhook) to drive on each tick —
  /// batched on the same virtual-clock cadence as the telemetry stream.
  /// Not owned; muting suppresses exporter ticks like every other emission.
  void add_metrics_exporter(obs::Exporter* exporter) {
    if (exporter != nullptr) metrics_exporters_.push_back(exporter);
  }
  void set_line_sink(std::function<void(const std::string&)> sink) {
    line_sink_ = std::move(sink);
  }
  void set_muted(bool muted) noexcept { muted_ = muted; }

  /// Schedules the periodic tick (first sample at now()+period). Call once.
  void start();

  /// Builds a sample at the current virtual time without touching the
  /// exporter's window state (the `telemetry` command — a read, not a tick).
  [[nodiscard]] TelemetrySample sample_now() const;

  [[nodiscard]] std::uint64_t samples_taken() const noexcept { return samples_; }

 private:
  void tick();

  core::Simulation& sim_;
  Options options_;
  JsonlSink* jsonl_ = nullptr;
  std::vector<obs::Exporter*> metrics_exporters_;
  std::function<void(const std::string&)> line_sink_;
  bool muted_ = false;
  bool started_ = false;

  double last_t_ = 0.0;
  std::uint64_t last_repaired_ = 0;
  std::uint64_t samples_ = 0;
};

}  // namespace sensrep::service
