#pragma once

#include <fstream>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/simulation.hpp"
#include "obs/exporters.hpp"
#include "obs/tracer.hpp"
#include "service/options.hpp"
#include "service/protocol.hpp"
#include "service/snapshot.hpp"
#include "service/telemetry.hpp"

namespace sensrep::service {

/// The long-running service around one core::Simulation: ingests protocol
/// commands as live event injections, streams telemetry, and can snapshot
/// itself for a deterministic restore (docs/SERVICE.md).
///
/// Determinism contract: the daemon's observable state is a pure function
/// of (DaemonOptions, journal of applied mutations). Mutations journal the
/// virtual time they took effect; restore replays the journal against a
/// fresh Simulation and verifies the snapshot's StateDigest, throwing on
/// divergence. Commands are applied strictly between simulator steps —
/// the daemon is single-threaded apart from the JSONL writer.
class Daemon {
 public:
  /// Fresh service at t=0.
  explicit Daemon(const DaemonOptions& options);

  /// Restore: rebuilds the simulation from the snapshot's genesis options,
  /// replays its journal (telemetry muted so history is not re-emitted),
  /// and verifies the digest. Throws std::runtime_error on divergence.
  explicit Daemon(const Snapshot& snapshot);

  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Handles one protocol line. Returns the reply ("ok ..." / "err ...",
  /// possibly multi-line) or nullopt for blank lines and '#' comments.
  /// Never throws on bad input — malformed commands become `err` replies.
  std::optional<std::string> handle_line(std::string_view line);

  /// Line loop: read commands from `in`, write replies (and interleaved
  /// telemetry) to `out`, flush per line. Ends on `quit`, EOF, or
  /// service::shutdown_requested(); always prints a final
  /// "bye <digest>" line.
  void serve(std::istream& in, std::ostream& out);

  [[nodiscard]] Snapshot make_snapshot() const;

  /// The state digest, one line (the payload of an `ok status` reply).
  [[nodiscard]] std::string status_line() const { return sim_->digest().to_string(); }

  [[nodiscard]] bool quit_requested() const noexcept { return quit_; }
  [[nodiscard]] const DaemonOptions& options() const noexcept { return opts_; }
  [[nodiscard]] const std::vector<JournalEntry>& journal() const noexcept {
    return journal_;
  }
  [[nodiscard]] core::Simulation& simulation() noexcept { return *sim_; }
  [[nodiscard]] TelemetryExporter* exporter() noexcept { return exporter_.get(); }

 private:
  /// A process-wide observability switch (obs::Metrics, obs::FlightRecorder)
  /// that this daemon arms. It holds the switch only if it found it off or
  /// held by another daemon; the last holder to go disarms it, and a switch
  /// armed by anyone else (sensrep_cli, perfbench, a test) stays as it was.
  struct SwitchHold {
    enum Switch { kMetrics, kFlightRecorder } which;
    bool held = false;
    void acquire();  // before arming the switch
    ~SwitchHold();
  };

  void construct();
  void arm_interrupt();
  std::string apply_mutation(const Command& c);
  std::string dispatch_query(const Command& c);

  DaemonOptions opts_;
  SwitchHold metrics_hold_{SwitchHold::kMetrics};  // released after all below
  SwitchHold flightrec_hold_{SwitchHold::kFlightRecorder};
  obs::Tracer tracer_;  // before sim_: attached spans must outlive the run
  std::ofstream jsonl_file_;
  std::unique_ptr<JsonlSink> jsonl_;
  std::unique_ptr<obs::InfluxExporter> influx_;
  std::ofstream webhook_file_;
  std::unique_ptr<JsonlSink> webhook_sink_;  // before webhook_: its target
  std::unique_ptr<obs::WebhookExporter> webhook_;
  std::unique_ptr<core::Simulation> sim_;
  std::unique_ptr<TelemetryExporter> exporter_;
  std::vector<JournalEntry> journal_;
  bool quit_ = false;
};

}  // namespace sensrep::service
