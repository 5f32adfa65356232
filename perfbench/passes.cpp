// One pass of a workload: construct, warm up, run the steady window, check.
// Every layer is measured from outside, by timing calls into public
// functions and reading public counters.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <random>
#include <stdexcept>

#include "bench.hpp"
#include "chaos/invariant_checker.hpp"
#include "service/daemon.hpp"

namespace perfbench {

// --- counters ----------------------------------------------------------------

Counts Counts::read(core::Simulation* sim) {
  Counts c;
  if (sim != nullptr) {
    c.executed = sim->simulator().executed();
    c.deliveries = sim->medium().deliveries();
    for (std::size_t i = 0; i < kCategories; ++i) {
      c.tx[i] = sim->counters().get(static_cast<sensrep::metrics::MessageCategory>(i));
    }
  }
  const obs::MetricsSnapshot m = obs::Metrics::snapshot();
  c.counters = m.counters;
  c.rx = m.net_rx;
  for (std::size_t i = 0; i < kProbes; ++i) {
    const auto p = obs::Profiler::snapshot(static_cast<obs::Probe>(i));
    c.probe_calls[i] = p.count;
    c.probe_ns[i] = p.ns;
  }
  return c;
}

namespace {

template <typename T, std::size_t N>
void add(std::array<T, N>& a, const std::array<T, N>& b) {
  for (std::size_t i = 0; i < N; ++i) a[i] += b[i];
}

template <typename T, std::size_t N>
void sub(std::array<T, N>& a, const std::array<T, N>& b) {
  for (std::size_t i = 0; i < N; ++i) a[i] -= b[i];
}

}  // namespace

Counts& Counts::operator+=(const Counts& o) {
  executed += o.executed;
  deliveries += o.deliveries;
  add(tx, o.tx);
  add(counters, o.counters);
  add(rx, o.rx);
  add(probe_calls, o.probe_calls);
  add(probe_ns, o.probe_ns);
  return *this;
}

Counts operator-(Counts a, const Counts& b) {
  a.executed -= b.executed;
  a.deliveries -= b.deliveries;
  sub(a.tx, b.tx);
  sub(a.counters, b.counters);
  sub(a.rx, b.rx);
  sub(a.probe_calls, b.probe_calls);
  sub(a.probe_ns, b.probe_ns);
  return a;
}

std::uint64_t Counts::tx_total() const {
  std::uint64_t n = 0;
  for (const auto v : tx) n += v;
  return n;
}

Work& Work::operator+=(const Work& o) {
  events += o.events;
  deliveries += o.deliveries;
  ticks += o.ticks;
  add(tx, o.tx);
  dispatches += o.dispatches;
  return *this;
}

std::string Work::to_json() const {
  std::string s = "{\"events\": " + std::to_string(events) +
                  ", \"deliveries\": " + std::to_string(deliveries) +
                  ", \"ticks\": " + std::to_string(ticks) +
                  ", \"dispatches\": " + std::to_string(dispatches) + ", \"tx\": {";
  for (std::size_t i = 0; i < kCategories; ++i) {
    if (i != 0) s += ", ";
    s += '"';
    s += sensrep::metrics::to_string(static_cast<sensrep::metrics::MessageCategory>(i));
    s += "\": ";
    s += std::to_string(tx[i]);
  }
  return s + "}}";
}

// --- traced stepping -----------------------------------------------------------

void StepClassifier::attach(core::Simulation& sim, StepMix& mix) {
  sim_ = &sim;
  into = &mix;
  mark();
  sim.simulator().set_interrupt(
      [this] {
        account();
        return false;
      },
      1);
}

void StepClassifier::detach() { sim_->simulator().set_interrupt({}); }

void StepClassifier::mark() {
  deliveries_ = sim_->medium().deliveries();
  beacons_ = sim_->counters().get(sensrep::metrics::MessageCategory::kBeacon);
  tx_ = sim_->counters().total();
  last_ = Clock::now();
}

void StepClassifier::account() {
  const std::uint64_t deliveries = sim_->medium().deliveries();
  const std::uint64_t beacons =
      sim_->counters().get(sensrep::metrics::MessageCategory::kBeacon);
  const std::uint64_t tx = sim_->counters().total();
  StepClass c = kOther;
  if (deliveries != deliveries_) {
    c = kDelivery;
  } else if (beacons != beacons_ && tx - tx_ == beacons - beacons_) {
    c = kTick;
  }
  const auto now = Clock::now();
  into->wall_s[c] += seconds_between(last_, now);
  ++into->steps[c];
  pending_peak = std::max(pending_peak, sim_->simulator().pending());
  deliveries_ = deliveries;
  beacons_ = beacons;
  tx_ = tx;
  last_ = now;
}

void Trace::span(std::string name, std::string parent, Clock::time_point a,
                 Clock::time_point b) {
  spans.push_back(
      {std::move(name), std::move(parent), seconds_between(epoch, a),
       seconds_between(epoch, b)});
}

// --- results ---------------------------------------------------------------------

std::string result_line(const core::ExperimentResult& r) {
  char buf[2048];
  int n = std::snprintf(
      buf, sizeof buf,
      "algorithm=%s robots=%zu seed=%" PRIu64
      " travel_per_repair=%.17g report_hops=%.17g request_hops=%.17g"
      " lu_tx_per_repair=%.17g failures=%zu detected=%zu reported=%zu repaired=%zu"
      " unreported=%zu router_drops=%" PRIu64
      " delivery_ratio=%.17g detection_latency=%.17g repair_latency=%.17g"
      " p95_repair_latency=%.17g robot_distance=%.17g init_motion=%.17g"
      " motion_energy=%.17g mission_energy=%.17g robot_failures=%zu tasks_lost=%zu"
      " orphaned=%zu redispatches=%zu failovers=%zu adoptions=%zu robot_repairs=%zu"
      " elections=%zu handbacks=%zu ownership_transfers=%zu",
      std::string(core::to_string(r.algorithm)).c_str(), r.robots, r.seed,
      r.avg_travel_per_repair, r.avg_report_hops, r.avg_request_hops,
      r.location_update_tx_per_repair, r.failures, r.detected, r.reported, r.repaired,
      r.unreported, r.router_drops, r.delivery_ratio, r.avg_detection_latency,
      r.avg_repair_latency, r.p95_repair_latency, r.total_robot_distance, r.init_motion,
      r.motion_energy_j, r.mission_energy_j, r.robot_failures, r.tasks_lost,
      r.orphaned_tasks, r.redispatches, r.failover_events, r.adoptions, r.robot_repairs,
      r.elections, r.handbacks, r.ownership_transfers);
  if (n < 0 || static_cast<std::size_t>(n) >= sizeof buf) {
    throw std::logic_error("result_line: buffer too small");
  }
  std::string s(buf, static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < kCategories; ++i) {
    s += " tx.";
    s += sensrep::metrics::to_string(static_cast<sensrep::metrics::MessageCategory>(i));
    s += '=';
    s += std::to_string(r.transmissions[i]);
  }
  return s;
}

double PassResult::total_wall_s() const {
  double s = warmup_s + steady_wall_s;
  for (const double v : setup_s) s += v;
  return s;
}

void PassResult::fail(std::string what) {
  ++failed;
  errors.push_back(std::move(what));
}

namespace {

Work work_of(const Counts& before, const Counts& after) {
  Work w;
  w.events = after.executed;
  w.deliveries = after.deliveries;
  w.ticks = after.beacons();
  w.tx = after.tx;
  w.dispatches = after.counter(obs::Counter::kDispatches) -
                 before.counter(obs::Counter::kDispatches);
  return w;
}

/// Clock readings and counter readings at the phase boundaries of one
/// simulation: construction, warm-up, steady window.
struct Marks {
  Clock::time_point t0, t1, t2, t3;  // construct, constructed, steady start, steady end
  Counts before, s0, s1;             // before construction, steady start, steady end
};

/// Books one finished simulation into `out` and, when traced, `trace`.
void record(const std::string& label, core::Simulation& sim, double steady_sim_s,
            const Marks& m, PassResult& out, Trace* trace) {
  out.setup_s.push_back(seconds_between(m.t0, m.t1));
  out.warmup_s += seconds_between(m.t1, m.t2);
  out.steady_wall_s += seconds_between(m.t2, m.t3);
  out.steady_sim_s += steady_sim_s;
  const core::ExperimentResult r = sim.result();
  out.results.push_back(label + " " + result_line(r));
  out.robot_distance_m += r.total_robot_distance;
  out.work += work_of(m.before, m.s1);
  if (trace != nullptr) {
    trace->warmup_counts += m.s0 - m.before;
    trace->steady_counts += m.s1 - m.s0;
    trace->span("setup", label, m.t0, m.t1);
    trace->span("warmup", label, m.t1, m.t2);
    trace->span("steady", label, m.t2, m.t3);
    trace->span(label, "traced_pass", m.t0, m.t3);
  }
}

// --- simulation jobs ---------------------------------------------------------------

/// Advances from `from` to `to` in `step`-second advances; times each one
/// into `latency_ms` when given.
void advance_window(core::Simulation& sim, double from, double to, double step,
                    StepClassifier* cls, std::vector<double>* latency_ms) {
  const auto n = static_cast<std::size_t>((to - from) / step + 0.5);
  for (std::size_t k = 1; k <= n; ++k) {
    const double t = k == n ? to : from + static_cast<double>(k) * step;
    if (cls != nullptr) cls->mark();
    const auto a = Clock::now();
    sim.run_until(t);
    if (latency_ms != nullptr) {
      latency_ms->push_back(seconds_between(a, Clock::now()) * 1e3);
    }
  }
}

void run_job(const SimJob& job, Pass pass, Trace* trace, PassResult& out) {
  Marks m;
  m.before = Counts::read(nullptr);
  m.t0 = Clock::now();
  core::Simulation sim(job.cfg);
  m.t1 = Clock::now();

  std::optional<sensrep::chaos::InvariantChecker> checker;
  if (pass == Pass::kReference) checker.emplace(sim);  // fail-fast by default
  StepClassifier* cls = trace != nullptr ? &trace->classifier : nullptr;
  if (cls != nullptr) cls->attach(sim, trace->warmup);

  advance_window(sim, 0.0, job.warmup_end, job.step, cls, nullptr);
  m.t2 = Clock::now();
  m.s0 = Counts::read(&sim);
  if (cls != nullptr) cls->into = &trace->steady;
  advance_window(sim, job.warmup_end, job.end, job.step, cls, &out.advance_ms);
  m.t3 = Clock::now();
  m.s1 = Counts::read(&sim);

  if (cls != nullptr) cls->detach();

  if (checker) checker->check_final();
  record(job.label, sim, job.end - job.warmup_end, m, out, trace);
}

// --- service soak ----------------------------------------------------------------------

/// The closed-loop client: decides each round's commands from the daemon's
/// current state, drawing slots from its own seeded stream (never the
/// simulation's).
class SoakFeed {
 public:
  SoakFeed(const SoakSpec& spec, std::uint64_t seed)
      : spec_(spec), rng_(seed ^ 0x50a4u) {}

  std::vector<std::string> round(std::size_t r, core::Simulation& sim) {
    std::vector<std::string> cmds;
    const auto slots = sim.config().sensor_count();
    std::uniform_int_distribution<std::uint64_t> pick(0, slots - 1);
    for (int attempt = 0; attempt < 8; ++attempt) {
      const auto slot = pick(rng_);
      if (sim.field().slot_alive(static_cast<sensrep::net::NodeId>(slot))) {
        cmds.push_back("fail " + std::to_string(slot));
        break;
      }
    }
    if (down_ && r == down_since_ + spec_.repair_after) {
      cmds.push_back("repair-robot " + std::to_string(robot_));
      robot_ = (robot_ + 1) % spec_.opts.robots;
      down_ = false;
    } else if (!down_ && r % spec_.crash_every == spec_.crash_every - 1 &&
               !sim.robots()[robot_]->failed()) {
      cmds.push_back("crash-robot " + std::to_string(robot_));
      down_ = true;
      down_since_ = r;
    }
    if (r % spec_.reads_every == 0) {
      cmds.emplace_back("status");
      cmds.emplace_back("telemetry");
    }
    char adv[64];
    std::snprintf(adv, sizeof adv, "advance %.17g", spec_.advance_s);
    cmds.emplace_back(adv);
    return cmds;
  }

 private:
  const SoakSpec& spec_;
  std::mt19937_64 rng_;
  std::size_t robot_ = 0;
  bool down_ = false;
  std::size_t down_since_ = 0;
};

void run_soak(const SoakSpec& spec, Pass pass, Trace* trace, PassResult& out) {
  Marks m;
  m.before = Counts::read(nullptr);
  m.t0 = Clock::now();
  sensrep::service::Daemon daemon(spec.opts);
  m.t1 = Clock::now();
  core::Simulation& sim = daemon.simulation();

  std::optional<sensrep::chaos::InvariantChecker> checker;
  if (pass == Pass::kReference) checker.emplace(sim);
  StepClassifier* cls = trace != nullptr ? &trace->classifier : nullptr;
  if (cls != nullptr) cls->attach(sim, trace->warmup);

  SoakFeed feed(spec, spec.opts.seed);
  for (std::size_t r = 0; r < spec.warmup_rounds + spec.steady_rounds; ++r) {
    const bool steady = r >= spec.warmup_rounds;
    if (r == spec.warmup_rounds) {
      m.t2 = Clock::now();
      m.s0 = Counts::read(&sim);
      if (cls != nullptr) cls->into = &trace->steady;
    }
    for (const std::string& line : feed.round(r, sim)) {
      ++out.attempted;
      if (cls != nullptr) cls->mark();
      const auto a = Clock::now();
      const auto reply = daemon.handle_line(line);
      const auto b = Clock::now();
      const bool advance = line.rfind("advance", 0) == 0;
      if (steady) {
        if (advance) {
          out.advance_ms.push_back(seconds_between(a, b) * 1e3);
        } else {
          out.command_us.push_back(seconds_between(a, b) * 1e6);
        }
      }
      if (trace != nullptr) {
        trace->span(line.substr(0, line.find(' ')),
                    spec.label + (steady ? ".steady" : ".warmup"), a, b);
      }
      if (!reply || reply->rfind("err", 0) == 0 ||
          (advance && reply->find("interrupted") != std::string::npos)) {
        ++out.err_replies;
        out.fail("'" + line + "' -> " + (reply ? *reply : std::string("<no reply>")));
      }
    }
  }
  m.t3 = Clock::now();
  m.s1 = Counts::read(&sim);
  if (cls != nullptr) cls->detach();

  ++out.attempted;  // the result check
  if (checker) checker->check_final();
  const double steady_sim_s = spec.advance_s * static_cast<double>(spec.steady_rounds);
  record(spec.label, sim, steady_sim_s, m, out, trace);
}

}  // namespace

PassResult run_pass(const Workload& w, Pass pass, Trace* trace) {
  PassResult out;
  for (const SimJob& job : w.jobs) {
    ++out.attempted;
    try {
      run_job(job, pass, trace, out);
    } catch (const std::exception& e) {
      out.fail(job.label + ": " + e.what());
    }
  }
  for (const SoakSpec& spec : w.soaks) {
    try {
      run_soak(spec, pass, trace, out);
    } catch (const std::exception& e) {
      ++out.attempted;
      out.fail(spec.label + ": " + e.what());
    }
  }
  return out;
}

double extra_setup_s(const Workload& w) {
  const auto t0 = Clock::now();
  for (const SimJob& job : w.jobs) {
    const core::Simulation sim(job.cfg);
  }
  for (const SoakSpec& spec : w.soaks) {
    const sensrep::service::Daemon daemon(spec.opts);
  }
  return seconds_between(t0, Clock::now());
}

}  // namespace perfbench
