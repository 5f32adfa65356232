#pragma once

#include <cstdint>
#include <string>

#include "core/config.hpp"

namespace sensrep::service {

/// Genesis configuration of a service-mode run: the daemon-settable subset
/// of core::SimulationConfig plus the telemetry knobs. This is what a
/// snapshot persists — restoring reconstructs the Simulation from exactly
/// these values and replays the journal, so every field here must round-trip
/// through the snapshot text format bitwise.
struct DaemonOptions {
  core::Algorithm algorithm = core::Algorithm::kCentralized;
  std::size_t robots = 4;
  std::uint64_t seed = 1;

  /// Service-mode horizon (core::SimulationConfig::sim_duration). A service
  /// has no natural end, so the default is effectively "forever"; `advance`
  /// past it is rejected.
  double horizon = 1e9;

  /// E[sensor unit lifetime] seconds (ignored when !spontaneous_failures).
  double mean_lifetime = 16000.0;

  /// Per-reception Bernoulli loss probability.
  double loss = 0.0;

  /// False: sensors only die via injected `fail` commands — the pure
  /// externally-driven service. True: the paper's Exp(mean_lifetime) churn
  /// runs underneath the injected events.
  bool spontaneous_failures = true;

  /// Telemetry sampling period in sim seconds; 0 disables the exporter.
  /// Sampling runs on the virtual clock so the stream is deterministic.
  double telemetry_period = 0.0;

  /// Sliding retention window in sim seconds for closed trace spans; 0
  /// keeps everything (fine for short sessions, not for soaks with
  /// trace_stages — see docs/SERVICE.md §5).
  double retention_window = 0.0;

  /// Attach an obs::Tracer and report per-stage p50/p90/p99 in telemetry.
  bool trace_stages = false;

  /// Local sink for telemetry JSONL ("" = none). Deliberately NOT part of
  /// the snapshot: where a restored daemon writes its telemetry is the
  /// restorer's choice, not simulation state.
  std::string telemetry_jsonl;

  // --- Observability sinks -------------------------------------------------
  // Like telemetry_jsonl, none of these are part of the snapshot: a restored
  // daemon picks its own sinks, and enabling any of them never changes the
  // simulation's observable state.

  /// Arms the process-wide metrics registry (obs::Metrics) for the daemon's
  /// lifetime. sensrep_serve sets this implicitly when any metrics
  /// endpoint/sink flag is given.
  bool metrics = false;

  /// InfluxDB line-protocol sink: a file path or "tcp://host:port"
  /// ("" = off). Batched on the telemetry cadence, so it requires
  /// telemetry_period > 0.
  std::string metrics_influx;

  /// Webhook sink: a file path receiving one POST body (JSONL) per flushed
  /// batch ("" = off). Shares the JsonlSink writer-thread design in
  /// drop-when-full mode; requires telemetry_period > 0.
  std::string metrics_webhook;

  /// Logical URL stamped into each webhook POST body.
  std::string webhook_url = "http://localhost/metrics";

  /// Flight-recorder ring capacity in records; 0 disables. Always on by
  /// default in service mode — the ring is fixed-size and a disabled-or-
  /// enabled note() costs one relaxed load plus one relaxed fetch_add.
  /// Armed for the daemon's lifetime (see Daemon::SwitchHold).
  std::size_t flightrec_capacity = 65536;

  /// Where SIGUSR1 dumps the flight recorder.
  std::string flightrec_dump = "flightrec.jsonl";

  /// The corresponding simulation config. Always arms the robot-fault
  /// machinery (FaultConfig::external) so injected crash-robot events are
  /// detected and recovered even though no fault source is pre-scheduled.
  [[nodiscard]] core::SimulationConfig simulation_config() const {
    core::SimulationConfig cfg;
    cfg.algorithm = algorithm;
    cfg.robots = robots;
    cfg.seed = seed;
    cfg.sim_duration = horizon;
    cfg.field.lifetime.mean = mean_lifetime;
    cfg.field.spontaneous_failures = spontaneous_failures;
    cfg.radio.loss_probability = loss;
    cfg.robot_faults.external = true;
    return cfg;
  }
};

}  // namespace sensrep::service
