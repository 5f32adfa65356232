#include "service/daemon.hpp"

#include <array>
#include <istream>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "service/signal.hpp"
#include "trace/format.hpp"

namespace sensrep::service {

Daemon::Daemon(const DaemonOptions& options) : opts_(options) {
  construct();
  arm_interrupt();
}

Daemon::Daemon(const Snapshot& snapshot) : opts_(snapshot.options) {
  construct();
  // Replay with telemetry muted: the exporter still samples every period —
  // reconverging its window state on the original's — but re-emits nothing.
  if (exporter_) exporter_->set_muted(true);
  for (const JournalEntry& e : snapshot.journal) {
    // Strictly-greater guard: an injection at exactly the current clock must
    // not trigger a run_until(now) here, which would execute events at this
    // instant that the original run only executed *after* the injection.
    if (e.t > sim_->simulator().now()) sim_->run_until(e.t);
    switch (e.command.kind) {
      case CommandKind::kFail:
        sim_->inject_sensor_failure(static_cast<net::NodeId>(e.command.id));
        break;
      case CommandKind::kCrashRobot:
        sim_->inject_robot_crash(e.command.id);
        break;
      case CommandKind::kRepairRobot:
        sim_->inject_robot_repair(e.command.id);
        break;
      case CommandKind::kAdvance:
        break;  // the run_until above is the whole effect
      default:
        throw std::runtime_error("snapshot: non-mutation command in journal");
    }
  }
  if (snapshot.clock > sim_->simulator().now()) sim_->run_until(snapshot.clock);
  const core::StateDigest replayed = sim_->digest();
  if (!(replayed == snapshot.digest)) {
    throw std::runtime_error("snapshot restore diverged from the recorded run\n  want " +
                             snapshot.digest.to_string() + "\n  got  " +
                             replayed.to_string());
  }
  journal_ = snapshot.journal;
  if (exporter_) exporter_->set_muted(false);
  arm_interrupt();
}

Daemon::~Daemon() {
  if (webhook_) webhook_->close();          // flushes the partial batch...
  if (webhook_sink_) webhook_sink_->close();  // ...which this drains to disk
  if (influx_) influx_->close();
  if (jsonl_) jsonl_->close();
}

namespace {

std::mutex switch_mutex;
std::array<int, 2> switch_holders{};  // live daemons holding each switch

}  // namespace

void Daemon::SwitchHold::acquire() {
  const std::lock_guard lock(switch_mutex);
  const bool armed =
      which == kMetrics ? obs::Metrics::enabled() : obs::FlightRecorder::enabled();
  if (switch_holders[which] == 0 && armed) return;  // someone else's switch
  ++switch_holders[which];
  held = true;
}

Daemon::SwitchHold::~SwitchHold() {
  if (!held) return;
  const std::lock_guard lock(switch_mutex);
  if (--switch_holders[which] > 0) return;
  if (which == kMetrics) {
    obs::Metrics::enable(false);
  } else {
    obs::FlightRecorder::disable();
  }
}

void Daemon::construct() {
  if (opts_.metrics) {
    metrics_hold_.acquire();
    obs::Metrics::enable(true);
  }
  if (opts_.flightrec_capacity > 0) {
    flightrec_hold_.acquire();
    obs::FlightRecorder::enable(opts_.flightrec_capacity);
  }
  core::SimulationConfig cfg = opts_.simulation_config();
  cfg.validate();
  sim_ = std::make_unique<core::Simulation>(cfg);
  if (opts_.trace_stages) sim_->attach_tracer(tracer_);
  if (opts_.telemetry_period > 0.0) {
    exporter_ = std::make_unique<TelemetryExporter>(
        *sim_, TelemetryExporter::Options{opts_.telemetry_period,
                                          opts_.retention_window});
    if (!opts_.telemetry_jsonl.empty()) {
      jsonl_file_.open(opts_.telemetry_jsonl);
      if (!jsonl_file_) {
        throw std::runtime_error("cannot open telemetry sink '" + opts_.telemetry_jsonl +
                                 "'");
      }
      jsonl_ = std::make_unique<JsonlSink>(jsonl_file_);
      exporter_->set_jsonl(jsonl_.get());
    }
    exporter_->start();
  }
  // Metrics exporters ride the telemetry tick (the virtual-clock batching
  // cadence), so they require an exporter to drive them.
  if (!opts_.metrics_influx.empty()) {
    if (!exporter_) {
      throw std::runtime_error("influx sink requires telemetry (--telemetry-period)");
    }
    influx_ = std::make_unique<obs::InfluxExporter>(opts_.metrics_influx);
    if (!influx_->ok()) {
      throw std::runtime_error("cannot open influx sink '" + opts_.metrics_influx + "'");
    }
    exporter_->add_metrics_exporter(influx_.get());
  }
  if (!opts_.metrics_webhook.empty()) {
    if (!exporter_) {
      throw std::runtime_error("webhook sink requires telemetry (--telemetry-period)");
    }
    webhook_file_.open(opts_.metrics_webhook);
    if (!webhook_file_) {
      throw std::runtime_error("cannot open webhook sink '" + opts_.metrics_webhook + "'");
    }
    // Drop-when-full: a shed metrics batch is recoverable (the next one is a
    // fresh snapshot); stalling the event loop on body I/O is not.
    webhook_sink_ = std::make_unique<JsonlSink>(webhook_file_, /*capacity=*/1024,
                                                /*drop_when_full=*/true);
    webhook_ = std::make_unique<obs::WebhookExporter>(
        [sink = webhook_sink_.get()](const std::string& body) { sink->push(body); },
        /*batch_ticks=*/8, opts_.webhook_url);
    exporter_->add_metrics_exporter(webhook_.get());
  }
}

void Daemon::arm_interrupt() {
  sim_->simulator().set_interrupt([] { return shutdown_requested(); });
}

std::optional<std::string> Daemon::handle_line(std::string_view line) {
  std::optional<Command> cmd;
  try {
    cmd = parse_command(line);
  } catch (const std::exception& e) {
    sim_->simulator().counters().inc(obs::Counter::kServiceCommandErrors);
    return std::string("err ") + e.what();
  }
  if (!cmd) return std::nullopt;
  sim_->field().events().emit({.time = sim_->simulator().now(),
                               .kind = obs::Kind::kCommand,
                               .node = static_cast<std::uint32_t>(cmd->kind)});
  std::string reply = is_mutation(cmd->kind) ? apply_mutation(*cmd) : dispatch_query(*cmd);
  if (reply.rfind("err", 0) == 0) {
    sim_->simulator().counters().inc(obs::Counter::kServiceCommandErrors);
  }
  return reply;
}

std::string Daemon::dispatch_query(const Command& c) {
  switch (c.kind) {
    case CommandKind::kStatus: {
      std::string reply = "ok " + status_line();
      // Sink backpressure rides on status (NOT on the digest itself, whose
      // token set is frozen by the snapshot format).
      if (jsonl_) {
        reply += trace::strfmt(" jsonl_dropped=%llu",
                               static_cast<unsigned long long>(jsonl_->dropped()));
      }
      return reply;
    }
    case CommandKind::kTelemetry: {
      if (!exporter_) return std::string("err telemetry disabled (--telemetry-period)");
      return exporter_->sample_now().protocol_line() + "\nok telemetry";
    }
    case CommandKind::kSnapshot: {
      if (!make_snapshot().save(c.path)) {
        return "err snapshot: cannot write '" + c.path + "'";
      }
      return "ok snapshot " + c.path;
    }
    case CommandKind::kDumpFlightRec: {
      if (!obs::FlightRecorder::enabled()) {
        return std::string("err flight recorder disabled (--flightrec-capacity)");
      }
      if (!obs::FlightRecorder::dump_to_file(c.path)) {
        return "err dump-flightrec: cannot write '" + c.path + "'";
      }
      return "ok dump-flightrec " + c.path;
    }
    case CommandKind::kQuit:
      quit_ = true;
      return std::string("ok quit");
    default:
      return std::string("err unhandled command");
  }
}

std::string Daemon::apply_mutation(const Command& c) {
  const double now = sim_->simulator().now();
  try {
    switch (c.kind) {
      case CommandKind::kFail: {
        if (!sim_->inject_sensor_failure(static_cast<net::NodeId>(c.id))) {
          return trace::strfmt("err sensor %llu already dead",
                               static_cast<unsigned long long>(c.id));
        }
        journal_.push_back({now, c});
        return trace::strfmt("ok fail %llu", static_cast<unsigned long long>(c.id));
      }
      case CommandKind::kCrashRobot: {
        if (!sim_->inject_robot_crash(c.id)) {
          return trace::strfmt("err robot %llu already dead",
                               static_cast<unsigned long long>(c.id));
        }
        journal_.push_back({now, c});
        return trace::strfmt("ok crash-robot %llu",
                             static_cast<unsigned long long>(c.id));
      }
      case CommandKind::kRepairRobot: {
        if (!sim_->inject_robot_repair(c.id)) {
          return trace::strfmt("err robot %llu already alive",
                               static_cast<unsigned long long>(c.id));
        }
        journal_.push_back({now, c});
        return trace::strfmt("ok repair-robot %llu",
                             static_cast<unsigned long long>(c.id));
      }
      case CommandKind::kAdvance: {
        const double target = now + c.seconds;
        if (target > opts_.horizon) {
          return trace::strfmt("err advance: %.17g is beyond the horizon %.17g", target,
                               opts_.horizon);
        }
        sim_->run_until(target);
        const bool interrupted = sim_->simulator().interrupted();
        const double reached = sim_->simulator().now();
        if (interrupted) {
          // Land on a replayable boundary: finish everything scheduled at
          // exactly the interruption instant with the probe disarmed, so a
          // journal replay's run_until(reached) reproduces this state.
          sim_->simulator().set_interrupt({});
          sim_->run_until(reached);
          arm_interrupt();
        }
        if (reached > now) {
          Command done = c;
          done.seconds = reached - now;
          journal_.push_back({reached, done});
        }
        return interrupted ? trace::strfmt("ok advance %.17g interrupted", reached)
                           : trace::strfmt("ok advance %.17g", reached);
      }
      default:
        return std::string("err unhandled mutation");
    }
  } catch (const std::exception& e) {
    return std::string("err ") + e.what();
  }
}

void Daemon::serve(std::istream& in, std::ostream& out) {
  if (exporter_) {
    exporter_->set_line_sink([&out](const std::string& line) {
      out << line << '\n';
      out.flush();
    });
  }
  std::string line;
  while (!quit_ && !shutdown_requested() && std::getline(in, line)) {
    // A SIGUSR1 that arrived while blocked in getline (SA_RESTART keeps the
    // read going) is serviced here, at the next protocol step.
    if (usr1_requested()) {
      clear_usr1();
      if (obs::FlightRecorder::enabled() && !opts_.flightrec_dump.empty() &&
          obs::FlightRecorder::dump_to_file(opts_.flightrec_dump)) {
        out << "flightrec " << opts_.flightrec_dump << '\n';
        out.flush();
      }
    }
    const auto reply = handle_line(line);
    if (reply) {
      out << *reply << '\n';
      out.flush();
    }
  }
  out << "bye " << status_line() << '\n';
  out.flush();
  if (exporter_) exporter_->set_line_sink(nullptr);
}

Snapshot Daemon::make_snapshot() const {
  Snapshot snap;
  snap.options = opts_;
  // Sinks are the restorer's choice, not simulation state.
  snap.options.telemetry_jsonl.clear();
  snap.options.metrics = false;
  snap.options.metrics_influx.clear();
  snap.options.metrics_webhook.clear();
  snap.journal = journal_;
  snap.clock = sim_->simulator().now();
  snap.digest = sim_->digest();
  return snap;
}

}  // namespace sensrep::service
