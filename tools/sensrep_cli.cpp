// sensrep_cli — experiment driver exposing the whole configuration surface.
//
//   sensrep_cli [flags]
//
//   --algorithm=centralized|fixed|dynamic   coordination algorithm (default: dynamic)
//   --robots=N          maintenance robots (default 4; field scales with it)
//   --seed=N            master seed (default 1)
//   --duration=S        simulated seconds (default 64000, the paper's horizon)
//   --replications=N    run N seeds and report mean +- 95% CI (default 1)
//   --jobs=N            worker threads for --replications (default: all cores)
//   --loss=P            per-reception Bernoulli loss probability (default 0)
//   --chaos-burst=pEnter,pExit,lossBad[,lossGood]  Gilbert-Elliott bursty loss
//   --chaos-dup=P[,extraDelay]   duplicate delivered receptions with prob. P
//   --chaos-jitter=P,maxExtra    reorder-inducing extra delay with prob. P
//   --chaos-partition=t0,t1[,x0,y0,x1,y1]  jam window (rect zone or global)
//   --check-invariants  run the chaos::InvariantChecker oracle during and
//                       after the run; any violation fails the run
//   --invariant-report=PATH  with --check-invariants: collect violations
//                       instead of failing fast and write the report to PATH
//                       (exit 3 when violations were found)
//   --partition=square|hexagon              fixed algorithm subarea shape
//   --fringe=M          dynamic relay fringe in meters (default 20)
//   --lifetime=exponential|weibull:K|battery:J   lifetime distribution
//   --mean-lifetime=S   E[lifetime] seconds (default 16000)
//   --queue-aware       enable queue-aware centralized dispatch (E9)
//   --efficient-broadcast  enable Wu-Li self-pruning relays (E6)
//   --neighborhood-watch   enable the correlated-failure detection extension
//   --reliable-reports  end-to-end acked failure reports with retransmission
//   --idle-reposition   idle robots return to their region centroid (E12)
//   --robot-mtbf=S      mean time between robot failures, seconds ("inf"
//                       disables — the default; enables the fault-tolerance
//                       subsystem: heartbeats, leases, recovery)
//   --robot-fault-dist=exponential|weibull:K   robot TTF distribution
//   --robot-crash=I:T[,I:T...]  deterministic crashes: robot index I at time T
//   --manager-crash=T   kill the centralized manager at time T (failover test)
//   --robot-mttr=S      mean time to repair a failed robot, seconds ("inf"
//                       disables — the default; failed robots never return)
//   --robot-repair-dist=exponential|weibull:K   robot TTR distribution
//   --robot-repair=I:T[,I:T...]  deterministic repairs: robot I returns at T
//   --manager-repair=T  resurrect the centralized manager at time T (handback)
//   --heartbeat=S       robot liveness heartbeat period (default 60)
//   --lease-multiplier=M  lease expires after M heartbeat periods (default 3)
//   --lease-auto-tune   tune each robot's lease window from its observed
//                       update cadence (EWMA; clamped to the configured window)
//   --collisions        model broadcast-frame collisions at receivers
//   --csv=PATH          append one result row per run to a CSV file
//   --trace=PATH        write the failure-lifecycle event log as JSON lines
//   --trace-out=PATH    write repair-lifecycle spans as Chrome trace_event
//                       JSON (load in chrome://tracing or Perfetto)
//   --trace-jsonl=PATH  write repair-lifecycle spans as JSON lines
//   --stage-csv=PATH    write per-stage latency percentiles (p50/p90/p99) CSV
//   --timeseries-out=PATH  sample live robots / pending tasks / unrepaired
//                       failures periodically and write them as a wide CSV
//   --profile           profile hot paths (event queue, routing, supervision)
//                       and print a wall-clock report; sim results unchanged
//   --profile-csv=PATH  like --profile, but also write the per-probe counters
//                       as CSV (probe,calls,total_ns) — the CI regression
//                       artifacts
//   --metrics-out=PATH  enable the registry's histograms and gauges and write
//                       its final state (counters included) as Prometheus
//                       text exposition (trace_check --prometheus
//                       validates it)
//   --influx-out=PATH   as --metrics-out, but write the final snapshot as
//                       InfluxDB line protocol, timestamped at the final
//                       virtual clock (trace_check --influx validates it)
//   --flightrec-dump=PATH  enable the flight recorder and dump the ring as
//                       JSONL at end of run — or at the moment of an
//                       invariant violation when --check-invariants is on,
//                       so the dump's tail leads into the breach
//   --flightrec-capacity=N  ring size in records (default 65536)
//   --sabotage-robot=T  testing hook: kill robot 0 at time T *behind the
//                       coordination layer's back* (no ledger entry), which
//                       the invariant oracle must flag as robot-bookkeeping
//   --log-level=off|debug|info|warn|error   global logger threshold
//                       (default warn)
//   --histogram         print an ASCII histogram of repair latencies
//   --quiet             print only the CSV/summary line
//
// Examples:
//   sensrep_cli --algorithm=dynamic --robots=16
//   sensrep_cli --algorithm=centralized --robots=9 --replications=5
//   sensrep_cli --lifetime=weibull:4 --duration=32000 --csv=results.csv

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "chaos/invariant_checker.hpp"
#include "core/replication.hpp"
#include "core/simulation.hpp"
#include "runner/executor.hpp"
#include "metrics/csv.hpp"
#include "metrics/histogram.hpp"
#include "metrics/summary.hpp"
#include "metrics/timeline.hpp"
#include "obs/exporters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"
#include "obs/tracer.hpp"
#include "service/signal.hpp"
#include "tools/args.hpp"
#include "obs/event_log.hpp"
#include "trace/log.hpp"

namespace {

using namespace sensrep;

core::Algorithm parse_algorithm(const std::string& s) {
  if (s == "centralized") return core::Algorithm::kCentralized;
  if (s == "fixed") return core::Algorithm::kFixedDistributed;
  if (s == "dynamic") return core::Algorithm::kDynamicDistributed;
  throw std::invalid_argument("--algorithm: expected centralized|fixed|dynamic, got " + s);
}

void parse_lifetime(const std::string& s, wsn::LifetimeModel& model) {
  const auto colon = s.find(':');
  const std::string kind = s.substr(0, colon);
  const std::string param = colon == std::string::npos ? "" : s.substr(colon + 1);
  if (kind == "exponential") {
    model.distribution = wsn::LifetimeDistribution::kExponential;
  } else if (kind == "weibull") {
    model.distribution = wsn::LifetimeDistribution::kWeibull;
    if (!param.empty()) model.weibull_shape = std::stod(param);
  } else if (kind == "battery") {
    model.distribution = wsn::LifetimeDistribution::kBatteryLinear;
    if (!param.empty()) model.battery_jitter = std::stod(param);
  } else {
    throw std::invalid_argument(
        "--lifetime: expected exponential|weibull:K|battery:J, got " + s);
  }
}

// "0:5000,2:12000" -> {robot 0, t=5000s}, {robot 2, t=12000s}. Shared by
// --robot-crash (deaths) and --robot-repair (resurrections); `flag` names the
// option in error messages.
std::vector<std::pair<std::size_t, double>> parse_robot_times(const std::string& flag,
                                                              const std::string& s) {
  std::vector<std::pair<std::size_t, double>> events;
  std::size_t start = 0;
  while (start < s.size()) {
    auto end = s.find(',', start);
    if (end == std::string::npos) end = s.size();
    const std::string item = s.substr(start, end - start);
    const auto colon = item.find(':');
    if (colon == std::string::npos) {
      throw std::invalid_argument("--" + flag + ": expected I:T pairs, got '" + item + "'");
    }
    try {
      events.emplace_back(std::stoul(item.substr(0, colon)),
                          std::stod(item.substr(colon + 1)));
    } catch (const std::invalid_argument&) {
      throw std::invalid_argument("--" + flag + ": bad pair '" + item + "'");
    }
    start = end + 1;
  }
  return events;
}

void parse_dist(const std::string& flag, const std::string& s,
                robot::FaultDistribution& dist, double& shape) {
  const auto colon = s.find(':');
  const std::string kind = s.substr(0, colon);
  if (kind == "exponential") {
    dist = robot::FaultDistribution::kExponential;
  } else if (kind == "weibull") {
    dist = robot::FaultDistribution::kWeibull;
    if (colon != std::string::npos) shape = std::stod(s.substr(colon + 1));
  } else {
    throw std::invalid_argument("--" + flag + ": expected exponential|weibull:K, got " + s);
  }
}

/// Per-stage latency percentiles out of the tracer's closed spans. Returned
/// as (stage name, summary) in stage order; stages with no closed span are
/// skipped.
std::vector<std::pair<std::string, metrics::Summary>> stage_summaries(
    const obs::Tracer& tracer) {
  std::vector<std::pair<std::string, metrics::Summary>> out;
  for (std::size_t i = 0; i < static_cast<std::size_t>(obs::Stage::kCount); ++i) {
    const auto stage = static_cast<obs::Stage>(i);
    const auto durations = tracer.stage_durations(stage);
    if (durations.empty()) continue;
    metrics::Summary s;
    for (const double d : durations) s.add(d);
    out.emplace_back(std::string(obs::to_string(stage)), std::move(s));
  }
  return out;
}

void append_csv(const std::string& path, const core::SimulationConfig& cfg,
                const core::ExperimentResult& r) {
  const bool fresh = !std::ifstream(path).good();
  std::ofstream out(path, std::ios::app);
  metrics::CsvWriter csv(out);
  if (fresh) {
    csv.row({"algorithm", "robots", "seed", "duration_s", "loss", "failures", "repaired",
             "travel_m_per_failure", "report_hops", "request_hops",
             "update_tx_per_failure", "repair_latency_s", "p95_latency_s",
             "delivery_ratio", "motion_energy_kj", "robot_failures", "tasks_lost",
             "orphaned_tasks", "redispatches", "failover_events", "adoptions",
             "robot_repairs", "elections", "handbacks", "ownership_transfers"});
  }
  csv.row(std::string(to_string(cfg.algorithm)), cfg.robots, r.seed, cfg.sim_duration,
          cfg.radio.loss_probability, r.failures, r.repaired, r.avg_travel_per_repair,
          r.avg_report_hops, r.avg_request_hops, r.location_update_tx_per_repair,
          r.avg_repair_latency, r.p95_repair_latency, r.delivery_ratio,
          r.motion_energy_j / 1000.0, r.robot_failures, r.tasks_lost, r.orphaned_tasks,
          r.redispatches, r.failover_events, r.adoptions, r.robot_repairs, r.elections,
          r.handbacks, r.ownership_transfers);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    tools::Args args(argc, argv);
    if (args.has("help")) {
      std::cout << "see the header of tools/sensrep_cli.cpp for flag documentation\n";
      return 0;
    }
    const auto log_level = args.get_string("log-level", "");
    if (!log_level.empty()) {
      trace::Logger::global().set_threshold(tools::parse_log_level(log_level));
    }

    core::SimulationConfig cfg;
    cfg.algorithm = parse_algorithm(args.get_string("algorithm", "dynamic"));
    cfg.robots = args.get_u64("robots", 4);
    cfg.seed = args.get_u64("seed", 1);
    cfg.sim_duration = args.get_double("duration", 64000.0);
    cfg.radio.loss_probability = args.get_double_in("loss", 0.0, 0.0, 1.0);
    tools::apply_chaos_flags(args, cfg.radio.chaos);
    cfg.dynamic_fringe = args.get_double("fringe", 20.0);
    cfg.field.lifetime.mean = args.get_double("mean-lifetime", 16000.0);
    parse_lifetime(args.get_string("lifetime", "exponential"), cfg.field.lifetime);
    const std::string partition = args.get_string("partition", "square");
    if (partition == "hexagon") {
      cfg.partition = core::PartitionShape::kHexagon;
    } else if (partition != "square") {
      throw std::invalid_argument("--partition: expected square|hexagon");
    }
    cfg.queue_aware_dispatch = args.has("queue-aware");
    cfg.efficient_broadcast = args.has("efficient-broadcast");
    cfg.field.neighborhood_watch = args.has("neighborhood-watch");
    cfg.field.reliable_reports = args.has("reliable-reports");
    cfg.idle_reposition = args.has("idle-reposition");
    cfg.radio.model_collisions = args.has("collisions");

    const double inf = std::numeric_limits<double>::infinity();
    auto& faults = cfg.robot_faults;
    faults.mtbf = args.get_double_in("robot-mtbf", inf, 1.0, inf);
    parse_dist("robot-fault-dist", args.get_string("robot-fault-dist", "exponential"),
               faults.distribution, faults.weibull_shape);
    const auto crash_spec = args.get_string("robot-crash", "");
    for (const auto& [i, t] : parse_robot_times("robot-crash", crash_spec)) {
      faults.crashes.push_back(robot::ScheduledCrash{i, t});
    }
    if (args.has("manager-crash")) {
      faults.manager_crash_at = args.get_double_in("manager-crash", 0.0, 0.0, inf);
    }
    faults.mttr = args.get_double_in("robot-mttr", inf, 1.0, inf);
    parse_dist("robot-repair-dist", args.get_string("robot-repair-dist", "exponential"),
               faults.repair_distribution, faults.repair_weibull_shape);
    const auto repair_spec = args.get_string("robot-repair", "");
    for (const auto& [i, t] : parse_robot_times("robot-repair", repair_spec)) {
      faults.repairs.push_back(robot::ScheduledRepair{i, t});
    }
    if (args.has("manager-repair")) {
      faults.manager_repair_at = args.get_double_in("manager-repair", 0.0, 0.0, inf);
    }
    faults.heartbeat_period = args.get_double_in("heartbeat", 60.0, 1.0, inf);
    faults.lease_multiplier = args.get_double_in("lease-multiplier", 3.0, 1.0, 100.0);
    faults.lease_auto_tune = args.has("lease-auto-tune");

    // Fault events scheduled at or past the horizon would silently never
    // fire — reject the misconfiguration instead of running "fault-free".
    {
      std::vector<double> crash_times;
      for (const auto& c : faults.crashes) crash_times.push_back(c.at);
      tools::validate_crash_times("robot-crash", crash_times, cfg.sim_duration);
      std::vector<double> repair_times;
      for (const auto& rep : faults.repairs) repair_times.push_back(rep.at);
      tools::validate_crash_times("robot-repair", repair_times, cfg.sim_duration);
      if (faults.manager_crash_at) {
        tools::validate_crash_times("manager-crash", {*faults.manager_crash_at},
                                    cfg.sim_duration);
      }
      if (faults.manager_repair_at) {
        tools::validate_crash_times("manager-repair", {*faults.manager_repair_at},
                                    cfg.sim_duration);
      }
    }

    const auto replications = args.get_u64("replications", 1);
    const auto jobs = args.get_u64("jobs", 0);  // 0 = hardware concurrency
    const auto csv_path = args.get_string("csv", "");
    const auto trace_path = args.get_string("trace", "");
    const auto trace_out = args.get_string("trace-out", "");
    const auto trace_jsonl = args.get_string("trace-jsonl", "");
    const auto stage_csv = args.get_string("stage-csv", "");
    const auto timeseries_path = args.get_string("timeseries-out", "");
    const auto profile_csv = args.get_string("profile-csv", "");
    const bool profile = args.has("profile") || !profile_csv.empty();
    const bool histogram = args.has("histogram");
    const bool quiet = args.has("quiet");
    const bool check_invariants = args.has("check-invariants");
    const auto invariant_report = args.get_string("invariant-report", "");
    const auto metrics_out = args.get_string("metrics-out", "");
    const auto influx_out = args.get_string("influx-out", "");
    const auto flightrec_dump = args.get_string("flightrec-dump", "");
    const bool flightrec_capacity_given = args.has("flightrec-capacity");
    const auto flightrec_capacity = args.get_u64("flightrec-capacity", 65536);
    const bool sabotage_given = args.has("sabotage-robot");
    const auto sabotage_at = args.get_double_in("sabotage-robot", 0.0, 0.0, inf);
    args.reject_unknown();
    cfg.validate();
    if (sabotage_given) {
      tools::validate_crash_times("sabotage-robot", {sabotage_at}, cfg.sim_duration);
    }
    if (!invariant_report.empty() && !check_invariants) {
      throw std::invalid_argument("--invariant-report requires --check-invariants");
    }

    const bool tracing = !trace_out.empty() || !trace_jsonl.empty() || !stage_csv.empty();
    if (replications > 1 &&
        (tracing || !timeseries_path.empty() || check_invariants || sabotage_given ||
         !flightrec_dump.empty())) {
      throw std::invalid_argument(
          "--trace-out/--trace-jsonl/--stage-csv/--timeseries-out/--check-invariants/"
          "--sabotage-robot/--flightrec-dump follow a single run; drop --replications "
          "to use them");
    }
    if (profile) {
      obs::Profiler::reset();
      obs::Profiler::enable(true);
    }
    // Counters are always on; histograms, gauges and the recorder are
    // opt-in, like the profiler: without these flags each of their probes
    // is one relaxed load.
    if (!metrics_out.empty() || !influx_out.empty()) {
      obs::Metrics::reset();
      obs::Metrics::enable(true);
    }
    const bool flightrec_on =
        !flightrec_dump.empty() || (flightrec_capacity_given && flightrec_capacity > 0);
    if (flightrec_on) {
      obs::FlightRecorder::enable(static_cast<std::size_t>(
          flightrec_capacity == 0 ? 65536 : flightrec_capacity));
    }

    // Ctrl-C/SIGTERM interrupt the event loop cooperatively: single runs
    // stop at the next probe and still report partials; replicated batches
    // cancel their remaining seeds.
    service::install_signal_handlers();

    if (replications > 1) {
      // Seeds are independent runs, so multi-seed mode goes through the
      // parallel runner (same seed schedule and aggregation as the serial
      // core::run_replicated).
      runner::ExecutorOptions options;
      options.jobs = jobs;
      options.cancelled = [] { return service::shutdown_requested(); };
      try {
        const auto rep = runner::run_replicated(cfg, replications, options);
        std::cout << rep.summary();
      } catch (const std::runtime_error&) {
        if (service::shutdown_requested()) {
          std::cerr << "sensrep_cli: interrupted\n";
          return 130;
        }
        throw;
      }
      if (profile) {
        obs::Profiler::enable(false);
        std::cout << obs::Profiler::report();
        if (!profile_csv.empty()) {
          std::ofstream out(profile_csv);
          out << obs::Profiler::report_csv();
          if (!out) {
            std::cerr << "sensrep_cli: failed to write " << profile_csv << "\n";
            return 2;
          }
        }
      }
      return 0;
    }

    core::Simulation simulation(cfg);
    obs::EventLog events;
    if (!trace_path.empty()) simulation.attach_event_log(events);
    obs::Tracer tracer;
    if (tracing) simulation.attach_tracer(tracer);

    // The oracle self-arms its periodic check on construction; the tracer is
    // handed over only when tracing is on from t=0 (span balance would
    // false-positive on a partial trace).
    std::unique_ptr<chaos::InvariantChecker> checker;
    if (check_invariants) {
      chaos::InvariantCheckerOptions opts;
      opts.fail_fast = invariant_report.empty();
      opts.flightrec_dump = flightrec_dump;  // dump the ring at the breach
      checker = std::make_unique<chaos::InvariantChecker>(
          simulation, opts, tracing ? &tracer : nullptr);
    }

    if (sabotage_given) {
      // Kill a robot behind the coordination layer's back: ground truth then
      // disagrees with the injection ledger, which the oracle must flag.
      simulation.simulator().at(sabotage_at, [&simulation] {
        simulation.robots()[0]->fail();
      });
    }

    // Periodic fleet/backlog telemetry, sampled on the virtual clock. 200
    // samples across the horizon keeps files small at any duration.
    metrics::TimeSeries live_robots, pending_tasks, unrepaired_failures;
    if (!timeseries_path.empty()) {
      const double period = std::max(1.0, cfg.sim_duration / 200.0);
      auto& simulator = simulation.simulator();
      metrics::sample_periodically(simulator, period, live_robots, [&simulation] {
        double alive = 0;
        for (const auto& r : simulation.robots()) alive += r->failed() ? 0 : 1;
        return alive;
      });
      metrics::sample_periodically(simulator, period, pending_tasks, [&simulation] {
        double pending = 0;
        for (const auto& r : simulation.robots()) {
          pending += static_cast<double>(r->queue().size()) + (r->busy() ? 1 : 0);
        }
        return pending;
      });
      metrics::sample_periodically(simulator, period, unrepaired_failures, [&simulation] {
        double open = 0;
        for (const auto& rec : simulation.failure_log().records()) {
          open += rec.repaired() ? 0 : 1;
        }
        return open;
      });
    }

    simulation.simulator().set_interrupt([] { return service::shutdown_requested(); });
    simulation.run();
    const bool interrupted = simulation.simulator().interrupted();
    if (checker && !interrupted) checker->check_final();
    const auto result = simulation.result();
    if (interrupted && !quiet) {
      std::cout << "interrupted at t=" << simulation.simulator().now()
                << " s — metrics below cover the completed portion\n";
    }
    if (!quiet) std::cout << result.summary();
    if (histogram) {
      std::vector<double> latencies;
      for (const auto& rec : simulation.failure_log().records()) {
        if (rec.repaired()) latencies.push_back(rec.repair_latency());
      }
      if (!latencies.empty()) {
        const double hi =
            *std::max_element(latencies.begin(), latencies.end()) * 1.001;
        metrics::Histogram h(0.0, hi, 12);
        h.add_all(latencies);
        std::cout << "repair latency distribution (s):\n" << h.ascii();
      }
    }
    if (!csv_path.empty()) {
      append_csv(csv_path, cfg, result);
      if (!quiet) std::cout << "appended to " << csv_path << "\n";
    }
    if (!trace_path.empty()) {
      if (!events.save_jsonl(trace_path)) {
        std::cerr << "sensrep_cli: failed to write " << trace_path << "\n";
        return 2;
      }
      if (!quiet) {
        std::cout << "wrote " << events.size() << " events to " << trace_path << "\n";
      }
    }
    if (tracing) {
      const auto stages = stage_summaries(tracer);
      if (!quiet && !stages.empty()) {
        std::cout << "repair-lifecycle stage latencies (s):\n";
        std::printf("  %-10s %8s %10s %10s %10s\n", "stage", "count", "p50", "p90",
                    "p99");
        for (const auto& [name, s] : stages) {
          std::printf("  %-10s %8zu %10.1f %10.1f %10.1f\n", name.c_str(), s.count(),
                      s.percentile(0.50), s.percentile(0.90), s.percentile(0.99));
        }
        std::size_t complete = 0, repaired = 0;
        const auto& records = simulation.failure_log().records();
        for (std::size_t fid = 0; fid < records.size(); ++fid) {
          if (!records[fid].repaired()) continue;
          ++repaired;
          complete += tracer.has_complete_chain(fid + 1) ? 1 : 0;
        }
        std::cout << "  complete chains: " << complete << "/" << repaired
                  << " repaired failures; open spans at end: " << tracer.open_count()
                  << "\n";
      }
      if (!stage_csv.empty()) {
        std::ofstream out(stage_csv);
        metrics::CsvWriter csv(out);
        csv.row({"algorithm", "stage", "count", "p50_s", "p90_s", "p99_s"});
        for (const auto& [name, s] : stages) {
          csv.row(std::string(to_string(cfg.algorithm)), name, s.count(),
                  s.percentile(0.50), s.percentile(0.90), s.percentile(0.99));
        }
        if (!out) {
          std::cerr << "sensrep_cli: failed to write " << stage_csv << "\n";
          return 2;
        }
      }
      if (!trace_jsonl.empty() && !tracer.save_jsonl(trace_jsonl)) {
        std::cerr << "sensrep_cli: failed to write " << trace_jsonl << "\n";
        return 2;
      }
      if (!trace_out.empty()) {
        if (!tracer.save_chrome_trace(trace_out)) {
          std::cerr << "sensrep_cli: failed to write " << trace_out << "\n";
          return 2;
        }
        if (!quiet) {
          std::cout << "wrote " << tracer.spans().size() << " spans to " << trace_out
                    << "\n";
        }
      }
    }
    if (!timeseries_path.empty()) {
      std::ofstream out(timeseries_path);
      metrics::CsvWriter csv(out);
      csv.row({"t_s", "live_robots", "pending_tasks", "unrepaired_failures"});
      const std::size_t n = std::min({live_robots.size(), pending_tasks.size(),
                                      unrepaired_failures.size()});
      for (std::size_t i = 0; i < n; ++i) {
        csv.row(live_robots.points()[i].first, live_robots.points()[i].second,
                pending_tasks.points()[i].second,
                unrepaired_failures.points()[i].second);
      }
      if (!out) {
        std::cerr << "sensrep_cli: failed to write " << timeseries_path << "\n";
        return 2;
      }
    }
    if (profile) {
      obs::Profiler::enable(false);
      std::cout << obs::Profiler::report();
      if (!profile_csv.empty()) {
        std::ofstream out(profile_csv);
        out << obs::Profiler::report_csv();
        if (!out) {
          std::cerr << "sensrep_cli: failed to write " << profile_csv << "\n";
          return 2;
        }
      }
    }
    if (!metrics_out.empty() || !influx_out.empty()) {
      const obs::MetricsSnapshot msnap = obs::Metrics::snapshot();
      if (!metrics_out.empty()) {
        std::ofstream out(metrics_out);
        out << obs::prometheus_text(msnap);
        if (!out) {
          std::cerr << "sensrep_cli: failed to write " << metrics_out << "\n";
          return 2;
        }
        if (!quiet) std::cout << "wrote Prometheus metrics to " << metrics_out << "\n";
      }
      if (!influx_out.empty()) {
        std::ofstream out(influx_out);
        out << obs::influx_lines(msnap, simulation.simulator().now());
        if (!out) {
          std::cerr << "sensrep_cli: failed to write " << influx_out << "\n";
          return 2;
        }
        if (!quiet) std::cout << "wrote influx lines to " << influx_out << "\n";
      }
    }
    // A violation already dumped the ring at the breach (the tail must lead
    // into the violation) — don't overwrite it with the end-of-run state.
    if (flightrec_on && !flightrec_dump.empty() && !(checker && !checker->ok())) {
      if (!obs::FlightRecorder::dump_to_file(flightrec_dump)) {
        std::cerr << "sensrep_cli: failed to write " << flightrec_dump << "\n";
        return 2;
      }
      if (!quiet) {
        std::cout << "wrote flight recorder dump to " << flightrec_dump << "\n";
      }
    }
    if (checker) {
      if (!quiet) {
        std::cout << "invariant oracle: " << checker->checks_run() << " check(s), "
                  << checker->violations().size() << " violation(s)\n";
      }
      if (!invariant_report.empty()) {
        if (!checker->write_report(invariant_report)) {
          std::cerr << "sensrep_cli: failed to write " << invariant_report << "\n";
          return 2;
        }
        if (!checker->ok()) {
          std::cerr << "sensrep_cli: invariant violations recorded in "
                    << invariant_report << "\n";
          return 3;
        }
      }
    }
    return interrupted ? 130 : 0;
  } catch (const std::exception& e) {
    std::cerr << "sensrep_cli: " << e.what() << "\n";
    return 2;
  }
}
