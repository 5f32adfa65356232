// soak_replay — load generator for the service daemon, used by the CI soak
// smoke: drives an in-process service::Daemon with a long synthetic command
// stream (injected sensor failures, periodic robot crash/repair cycles,
// interleaved advances) and verifies the process holds bounded memory.
//
//   soak_replay --events=100000 --robots=9 --retention-window=3600
//               --max-rss-growth-mb=256
//
// Flags:
//   --algorithm=centralized|fixed|dynamic   (alias: --algo; default dynamic)
//   --robots=N            maintenance robots (default 9)
//   --seed=N              master seed (default 1)
//   --events=N            injected failure events (default 100000)
//   --batch=N             failures per advance (default 4)
//   --advance=S           sim seconds per advance step (default 60; the
//                         defaults inject at roughly the fleet's repair
//                         capacity, so the field stays mostly alive and the
//                         soak exercises the steady state, not a dead field)
//   --crash-every=N       crash a robot every N injected failures, repair it
//                         on the following advance (0 = never; default 5000)
//   --telemetry-period=S  telemetry sampling period (default 300)
//   --retention-window=S  closed trace span retention (default 3600)
//   --trace-stages        attach the span tracer (heavier; the retention
//                         window is what keeps it bounded)
//   --max-rss-growth-mb=M fail (exit 1) if RSS grows more than M MiB between
//                         the 10%% warm-up mark and the end (0 = report only)
//   --quiet               print only the final report
//
// Failure slots are picked by a tool-local RNG (not the simulation's
// streams); slots already dead simply count as no-ops, mirroring what a real
// external event feed would produce.

#include <cstdint>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <string>

#include "service/daemon.hpp"
#include "service/options.hpp"
#include "tools/args.hpp"
#include "trace/format.hpp"

namespace {

using namespace sensrep;

core::Algorithm parse_algorithm(const std::string& s) {
  if (s == "centralized") return core::Algorithm::kCentralized;
  if (s == "fixed") return core::Algorithm::kFixedDistributed;
  if (s == "dynamic") return core::Algorithm::kDynamicDistributed;
  throw std::invalid_argument("--algorithm: expected centralized|fixed|dynamic, got " + s);
}

/// Resident set size in KiB from /proc/self/status, or -1 where unavailable
/// (non-Linux); the RSS bound is then skipped.
long rss_kib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream in(line.substr(6));
      long kib = -1;
      in >> kib;
      return kib;
    }
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    tools::Args args(argc, argv);
    if (args.has("help")) {
      std::cout << "see the header of tools/soak_replay.cpp for flags\n";
      return 0;
    }
    service::DaemonOptions opts;
    opts.algorithm =
        parse_algorithm(args.get_string("algo", args.get_string("algorithm", "dynamic")));
    opts.robots = args.get_u64("robots", 9);
    opts.seed = args.get_u64("seed", 1);
    opts.spontaneous_failures = false;  // the generator is the failure source
    opts.telemetry_period = args.get_double_in("telemetry-period", 300.0, 1.0, 1e18);
    opts.retention_window = args.get_double_in("retention-window", 3600.0, 0.0, 1e18);
    opts.trace_stages = args.has("trace-stages");
    const auto events = args.get_u64("events", 100000);
    const auto batch = args.get_u64("batch", 4);
    const auto advance_s = args.get_double_in("advance", 60.0, 1e-3, 1e9);
    const auto crash_every = args.get_u64("crash-every", 5000);
    const auto max_growth_mb = args.get_u64("max-rss-growth-mb", 0);
    const bool quiet = args.has("quiet");
    args.reject_unknown();
    if (batch == 0) throw std::invalid_argument("--batch must be >= 1");

    service::Daemon daemon(opts);
    const auto slots = daemon.simulation().config().sensor_count();
    std::mt19937_64 rng(opts.seed ^ 0x50a4u);
    std::uniform_int_distribution<std::uint64_t> pick(0, slots - 1);

    long rss_baseline = -1;
    std::uint64_t injected = 0, noops = 0, crashes = 0;
    std::size_t crash_cursor = 0;
    bool robot_down = false;
    for (std::uint64_t e = 0; e < events; ++e) {
      // Prefer a live slot (bounded retries) so the stream stays mostly
      // effective even when the field saturates; an exhausted search still
      // sends the dead slot, exercising the daemon's no-op path exactly the
      // way a duplicate event from a real external feed would.
      std::uint64_t slot = pick(rng);
      for (int attempt = 0; attempt < 8; ++attempt) {
        if (daemon.simulation().field().node(static_cast<net::NodeId>(slot)).alive()) break;
        slot = pick(rng);
      }
      const auto reply = daemon.handle_line(
          trace::strfmt("fail %llu", static_cast<unsigned long long>(slot)));
      if (reply && reply->rfind("ok", 0) == 0) {
        ++injected;
      } else {
        ++noops;  // slot already dead — a plausible external feed duplicate
      }
      if (crash_every != 0 && (e + 1) % crash_every == 0) {
        if (robot_down) {
          daemon.handle_line(trace::strfmt("repair-robot %zu", crash_cursor));
          crash_cursor = (crash_cursor + 1) % opts.robots;
          robot_down = false;
        } else {
          const auto r = daemon.handle_line(trace::strfmt("crash-robot %zu", crash_cursor));
          robot_down = r && r->rfind("ok", 0) == 0;
          crashes += robot_down ? 1 : 0;
        }
      }
      if ((e + 1) % batch == 0) {
        const auto r = daemon.handle_line(trace::strfmt("advance %g", advance_s));
        if (!r || r->rfind("ok", 0) != 0) {
          std::cerr << "soak_replay: advance failed: " << (r ? *r : "<no reply>") << "\n";
          return 2;
        }
      }
      // Baseline after warm-up: allocator pools, spatial index, and telemetry
      // windows reach steady state in the first stretch; growth past this
      // mark is what a leak (or an unbounded journal/trace) looks like.
      if (e == events / 10) rss_baseline = rss_kib();
    }
    const auto status = daemon.handle_line("status");

    const long rss_end = rss_kib();
    const long growth_kib =
        (rss_baseline > 0 && rss_end > 0) ? rss_end - rss_baseline : -1;
    std::cout << "soak_replay: " << injected << " failures injected (" << noops
              << " duplicate no-ops), " << crashes << " robot crash/repair cycles\n";
    if (status) std::cout << "soak_replay: final " << *status << "\n";
    std::cout << trace::strfmt("soak_replay: rss baseline=%ld KiB end=%ld KiB growth=%ld KiB\n",
                               rss_baseline, rss_end, growth_kib);
    if (!quiet) {
      std::cout << "soak_replay: journal entries: " << daemon.journal().size() << "\n";
    }
    if (max_growth_mb != 0 && growth_kib >= 0 &&
        static_cast<std::uint64_t>(growth_kib) > max_growth_mb * 1024) {
      std::cerr << "soak_replay: RSS grew " << growth_kib / 1024 << " MiB > bound "
                << max_growth_mb << " MiB\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "soak_replay: " << e.what() << "\n";
    return 2;
  }
}
