// perfbench — one workload per process, single-threaded.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--size full|tiny] [--write-expected] [--spans PATH]
//
// Every run first makes an untimed reference pass under the fail-fast
// chaos::InvariantChecker; at the workload's default seed (full size) its
// results must equal perfbench/expected/<workload>.txt, relative to the
// working directory (--write-expected writes that file instead and exits). Untraced runs (--trace 0) then repeat timed passes
// while the next one fits in S seconds (at least three passes) and report
// the end-to-end metrics. Traced runs (--trace 1) make one untraced and one
// traced pass and report the per-layer metrics. Every pass must reproduce
// the reference results and the work counts exactly. The last stdout line
// is one JSON object: correct, attempted, failed, metrics.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "obs/flight_recorder.hpp"

namespace perfbench {
namespace {

constexpr const char* kExpectedDir = "perfbench/expected";

struct Options {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool write_expected = false;
  std::string spans;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-expected") {
      o.write_expected = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = v == "1";
    } else if (flag == "--size") {
      if (v != "full" && v != "tiny") {
        throw std::invalid_argument("--size takes full|tiny");
      }
      o.tiny = v == "tiny";
    } else if (flag == "--spans") {
      o.spans = v;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Metrics in emission order, each with its unit.
class MetricSet {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] std::string to_json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      char buf[64];
      const double v = std::isfinite(items_[i].value) ? items_[i].value : 0.0;
      std::snprintf(buf, sizeof buf, "%.17g", v);
      if (i != 0) s += ", ";
      s += "\"" + items_[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           items_[i].unit + "\"}";
    }
    return s + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Pass bookkeeping shared by both modes.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void absorb(const PassResult& p, const char* what) {
    attempted += p.attempted;
    failed += p.failed;
    for (const auto& e : p.errors) {
      std::cerr << "perfbench: " << what << ": " << e << "\n";
    }
  }
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::cerr << "perfbench: " << what << "\n";
    }
  }
};

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// The simulation's own work, without the obs-registry dispatch count (the
/// registry is off in untraced passes of some workloads).
bool same_simulation_work(Work a, Work b) {
  a.dispatches = b.dispatches = 0;
  return a == b;
}

std::string mix_json(const char* phase, const StepMix& mix, const Counts& c) {
  std::string s = std::string("{\"event_mix\": {\"phase\": \"") + phase +
                  "\", \"delivery\": " + std::to_string(mix.steps[kDelivery]) +
                  ", \"tick\": " + std::to_string(mix.steps[kTick]) +
                  ", \"other\": " + std::to_string(mix.steps[kOther]) + ", \"rx\": {";
  for (std::size_t i = 0; i < obs::kNetCategories; ++i) {
    if (i != 0) s += ", ";
    s += std::string("\"") + obs::kCategoryLabel[i] + "\": " + std::to_string(c.rx[i]);
  }
  return s + "}}}";
}

void write_spans(const std::string& path, const Trace& t) {
  std::ofstream out(path);
  for (const Span& s : t.spans) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "\"start_s\": %.9f, \"end_s\": %.9f", s.start_s,
                  s.end_s);
    out << "{\"name\": \"" << s.name << "\", \"parent\": \"" << s.parent << "\", " << buf
        << "}\n";
  }
  if (!out) std::cerr << "perfbench: cannot write spans to " << path << "\n";
}

double per_call_ns(const Counts& c, obs::Probe p) {
  const auto i = static_cast<std::size_t>(p);
  return ratio(static_cast<double>(c.probe_ns[i]), static_cast<double>(c.probe_calls[i]));
}

void untraced(const Workload& w, const Options& o, const PassResult& ref, Tally& tally,
              MetricSet& m) {
  std::vector<double> setups;
  const auto setup_of = [](const PassResult& p) {
    double s = 0.0;
    for (const double v : p.setup_s) s += v;
    return s;
  };
  setups.push_back(setup_of(ref));
  for (std::size_t i = 0; i < w.extra_setups; ++i) setups.push_back(extra_setup_s(w));

  std::vector<double> rates, warmups, advances;
  std::optional<Work> work;
  double measured = 0.0;
  std::size_t reps = 0;
  // Stop before a pass would end past the budget (judged by the mean pass).
  while (reps < w.min_reps ||
         measured + measured / static_cast<double>(reps) <= o.seconds) {
    const PassResult p = run_pass(w, Pass::kTimed, nullptr);
    ++reps;
    tally.absorb(p, "timed pass");
    tally.check(p.results == ref.results,
                "timed pass results differ from the reference pass");
    if (!work) work = p.work;
    tally.check(p.work == *work, "work counts differ between timed passes");
    measured += p.total_wall_s();
    setups.push_back(setup_of(p));
    rates.push_back(p.steady_sim_s / p.steady_wall_s);
    std::printf("pass %zu: setup %.6f s, warm-up %.6f s, sim_rate %.3f sim_s/s\n", reps,
                setup_of(p), p.warmup_s, rates.back());
    warmups.push_back(p.warmup_s);
    advances.insert(advances.end(), p.advance_ms.begin(), p.advance_ms.end());
  }
  std::cout << "{\"work\": " << work->to_json() << "}\n";
  const double n_adv = static_cast<double>(advances.size());
  const auto above_p99 =
      advances.size() - static_cast<std::size_t>(std::ceil(0.99 * n_adv));
  std::printf("%s: %zu timed passes, %zu set-ups, %zu advances (%zu above p99)\n",
              w.name.c_str(), reps, setups.size(), advances.size(), above_p99);
  m.add("sim_rate", median(rates), "sim_s/s");
  m.add("setup_s", median(setups), "s");
  m.add("warmup_s", median(warmups), "s");
  m.add("peak_rss_mib", peak_rss_mib(), "MiB");
  m.add("advance_p50_ms", percentile(advances, 0.50), "ms");
  m.add("advance_p99_ms", percentile(advances, 0.99), "ms");
}

void traced(const Workload& w, const Options& o, const PassResult& ref, Tally& tally,
            MetricSet& m) {
  const PassResult u = run_pass(w, Pass::kTimed, nullptr);
  tally.absorb(u, "untraced pass");
  tally.check(u.results == ref.results,
              "untraced pass results differ from the reference pass");

  obs::Metrics::enable(true);
  obs::Profiler::enable(true);
  Trace trace;
  const PassResult t = run_pass(w, Pass::kTraced, &trace);
  obs::Profiler::enable(false);
  if (!w.obs_plane) obs::Metrics::enable(false);
  tally.absorb(t, "traced pass");
  tally.check(t.results == u.results,
              "traced pass results differ from the untraced pass");
  tally.check(same_simulation_work(t.work, u.work),
              "traced pass work counts differ from the untraced pass");
  if (!o.spans.empty()) write_spans(o.spans, trace);

  std::cout << "{\"work\": " << t.work.to_json() << "}\n";
  std::cout << mix_json("warmup", trace.warmup, trace.warmup_counts) << "\n";
  std::cout << mix_json("steady", trace.steady, trace.steady_counts) << "\n";

  const Counts& c = trace.steady_counts;
  const StepMix& mix = trace.steady;
  const double sim_s = t.steady_sim_s;
  const auto per_sim_s = [sim_s](std::uint64_t n) {
    return ratio(static_cast<double>(n), sim_s);
  };
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  double steps = 0.0, classed_s = 0.0;
  for (std::size_t k = 0; k < kClasses; ++k) {
    steps += count(mix.steps[k]);
    classed_s += mix.wall_s[k];
  }
  Counts whole = trace.warmup_counts;
  whole += c;
  const auto rx = [&whole](sensrep::metrics::MessageCategory cat) {
    return static_cast<double>(whole.rx[static_cast<std::size_t>(cat)]);
  };
  using Cat = sensrep::metrics::MessageCategory;
  using obs::Counter;
  using obs::Probe;

  m.add("sim.events_per_sim_s", per_sim_s(c.executed), "1/sim_s");
  m.add("sim.scheduled_per_sim_s", per_sim_s(c.counter(Counter::kEventsScheduled)),
        "1/sim_s");
  m.add("sim.cancelled_per_sim_s", per_sim_s(c.counter(Counter::kEventsCancelled)),
        "1/sim_s");
  m.add("sim.pending_peak", count(trace.classifier.pending_peak), "count");
  m.add("sim.push_ns", per_call_ns(c, Probe::kEventPush), "ns");
  m.add("sim.pop_ns", per_call_ns(c, Probe::kEventPop), "ns");
  m.add("sim.other_s", mix.wall_s[kOther], "s");
  m.add("net.deliveries_per_sim_s", per_sim_s(c.deliveries), "1/sim_s");
  m.add("net.tx_per_sim_s", per_sim_s(c.tx_total()), "1/sim_s");
  m.add("net.rx_per_tx", ratio(count(c.deliveries), count(c.tx_total())), "ratio");
  m.add("net.deliver_s", mix.wall_s[kDelivery], "s");
  m.add("net.deliver_ns", ratio(mix.wall_s[kDelivery] * 1e9, count(mix.steps[kDelivery])),
        "ns");
  m.add("net.rx.initialization", rx(Cat::kInitialization), "count");
  m.add("net.rx.location_update", rx(Cat::kLocationUpdate), "count");
  m.add("net.rx.failure_report", rx(Cat::kFailureReport), "count");
  m.add("net.rx.fault_tolerance", rx(Cat::kFaultTolerance), "count");
  m.add("net.drops",
        count(c.counter(Counter::kNetLossDrops) + c.counter(Counter::kNetChaosDrops)),
        "count");
  m.add("net.chaos_duplicates", count(c.counter(Counter::kNetChaosDuplicates)), "count");
  m.add("wsn.ticks_per_sim_s", per_sim_s(c.beacons()), "1/sim_s");
  m.add("wsn.tick_s", mix.wall_s[kTick], "s");
  m.add("routing.next_hop_calls",
        count(c.probe_calls[static_cast<std::size_t>(Probe::kRouterNextHop)]), "count");
  m.add("routing.next_hop_ns", per_call_ns(c, Probe::kRouterNextHop), "ns");
  m.add("routing.planarizer_ns", per_call_ns(c, Probe::kPlanarizer), "ns");
  m.add("core.dispatches", count(c.counter(Counter::kDispatches)), "count");
  m.add("core.reports_deduped", count(c.counter(Counter::kReportsDeduped)), "count");
  m.add("core.redispatches", count(c.counter(Counter::kRedispatches)), "count");
  m.add("core.lease_expiries", count(c.counter(Counter::kLeaseExpiries)), "count");
  m.add("core.supervise_ns", per_call_ns(c, Probe::kSupervise), "ns");
  m.add("core.closest_live_robot_ns", per_call_ns(c, Probe::kClosestLiveRobot), "ns");
  m.add("robot.distance_m", t.robot_distance_m, "m");
  m.add("service.cmd_us", percentile(u.command_us, 0.99), "us");
  m.add("service.err", count(ref.err_replies + u.err_replies + t.err_replies), "count");
  m.add("obs.trace_overhead", ratio(t.steady_wall_s, u.steady_wall_s), "ratio");
  m.add("mix.delivery_share", ratio(count(mix.steps[kDelivery]), steps), "ratio");
  m.add("mix.tick_share", ratio(count(mix.steps[kTick]), steps), "ratio");
  m.add("mix.other_share", ratio(count(mix.steps[kOther]), steps), "ratio");
  tally.check(t.steady_wall_s - classed_s <= t.steady_wall_s - u.steady_wall_s,
              "per-class times miss the traced steady window by more than the "
              "stepping overhead");
  m.add("trace.window_s", t.steady_wall_s, "s");
  m.add("trace.unattributed_s", t.steady_wall_s - classed_s, "s");
  m.add("trace.step_overhead_s", t.steady_wall_s - u.steady_wall_s, "s");
}

int run(const Options& o) {
  const Workload w = make_workload(o.workload, o.seed, o.tiny);
  if (w.obs_plane) {
    obs::Metrics::enable(true);
    obs::FlightRecorder::enable();
  }
  Tally tally;
  const PassResult ref = run_pass(w, Pass::kReference, nullptr);
  tally.absorb(ref, "reference pass");

  const std::string expected = std::string(kExpectedDir) + "/" + w.name + ".txt";
  if (o.write_expected) {
    if (o.tiny || w.seed != w.default_seed || ref.failed != 0) {
      throw std::invalid_argument(
          "--write-expected needs a clean full-size run at the default seed");
    }
    std::ofstream out(expected);
    for (const auto& line : ref.results) out << line << "\n";
    if (!out) throw std::runtime_error("cannot write " + expected);
    std::cerr << "perfbench: wrote " << expected << "\n";
    return 0;
  }
  if (!o.tiny && w.seed == w.default_seed) {
    tally.check(read_lines(expected) == ref.results,
                "reference results differ from " + expected);
  }

  MetricSet m;
  if (o.trace) {
    traced(w, o, ref, tally, m);
  } else {
    untraced(w, o, ref, tally, m);
  }
  std::cout << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << m.to_json() << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
