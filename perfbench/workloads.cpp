// The four workloads. README.md records why each exists and which layer
// metrics are expected to move which end-to-end metric on it.

#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace perfbench {
namespace {

/// The paper's §4.1 setting: 50 sensors and 200x200 m^2 per robot,
/// Exp(16000 s) unit lifetimes, 63 m sensor range — the SimulationConfig
/// defaults — at `robots` robots.
core::SimulationConfig paper_config(core::Algorithm algorithm, std::size_t robots,
                                    std::uint64_t seed) {
  core::SimulationConfig cfg;
  cfg.algorithm = algorithm;
  cfg.robots = robots;
  cfg.seed = seed;
  return cfg;
}

/// Seed of replication `k` of a workload seed: the seed itself, then
/// golden-ratio strides, so nearby workload seeds share no replication.
std::uint64_t replication_seed(std::uint64_t seed, std::size_t k) {
  return seed + static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ull;
}

SimJob job(std::string label, core::SimulationConfig cfg, double warmup_end, double end,
           double step) {
  cfg.sim_duration = end;
  return SimJob{std::move(label), std::move(cfg), warmup_end, end, step};
}

/// Fixed-distributed at 100k sensors (2000 robots). The warm-up holds the
/// t=0 initialization flood and the first three beacon periods; the steady
/// window is dominated by beacon ticks and location-update receptions.
Workload field_100k(std::uint64_t seed, bool tiny) {
  Workload w;
  const std::size_t robots = tiny ? 40 : 2000;
  const auto cfg = paper_config(core::Algorithm::kFixedDistributed, robots, seed);
  w.jobs.push_back(job("fixed#0", cfg, 30.0, tiny ? 50.0 : 130.0, tiny ? 1.0 : 0.1));
  return w;
}

/// The paper's figure runs: centralized, fixed and dynamic at 16 robots,
/// one after another in one process, each replicated over four seeds the way
/// the figure benches average replications.
Workload paper_16r(std::uint64_t seed, bool tiny) {
  Workload w;
  w.extra_setups = 10;
  const std::size_t robots = tiny ? 4 : 16;
  const double end = tiny ? 1400.0 : 2000.0;
  for (std::size_t k = 0; k < (tiny ? 1 : 4); ++k) {
    for (const auto a :
         {core::Algorithm::kCentralized, core::Algorithm::kFixedDistributed,
          core::Algorithm::kDynamicDistributed}) {
      w.jobs.push_back(job(std::string(core::to_string(a)) + "#" + std::to_string(k),
                           paper_config(a, robots, replication_seed(seed, k)), 400.0, end,
                           10.0));
    }
  }
  return w;
}

/// Centralized at 16 robots under burst loss, duplication and jitter, robot
/// MTBF/MTTR with a manager crash (leases, failover, redispatch) and
/// reliable reports, with the metrics plane and flight recorder on.
Workload chaos_16r(std::uint64_t seed, bool tiny) {
  Workload w;
  w.obs_plane = true;
  w.extra_setups = 10;
  const double end = tiny ? 2400.0 : 8400.0;
  auto cfg = paper_config(core::Algorithm::kCentralized, tiny ? 4 : 16, seed);
  cfg.field.reliable_reports = true;
  auto& chaos = cfg.radio.chaos;
  chaos.burst.enabled = true;
  chaos.burst.p_enter_bad = 0.08;
  chaos.burst.p_exit_bad = 0.3;
  chaos.burst.loss_bad = 0.5;
  chaos.duplication.enabled = true;
  chaos.duplication.probability = 0.2;
  chaos.jitter.enabled = true;
  chaos.jitter.probability = 0.2;
  chaos.jitter.max_extra_s = 4e-3;
  auto& faults = cfg.robot_faults;
  faults.mtbf = 20000.0;
  faults.mttr = 3000.0;
  faults.manager_crash_at = 1500.0;
  faults.manager_repair_at = 2100.0;
  w.jobs.push_back(job("centralized#0", cfg, 400.0, end, 10.0));
  return w;
}

/// One daemon of the soak: `algorithm` at 16 robots.
SoakSpec soak_spec(std::string label, core::Algorithm algorithm, std::uint64_t seed,
                   bool tiny) {
  SoakSpec s;
  s.label = std::move(label);
  s.opts.algorithm = algorithm;
  s.opts.robots = tiny ? 4 : 16;
  s.opts.seed = seed;
  s.opts.loss = 0.05;
  s.opts.spontaneous_failures = false;  // the feed is the failure source
  s.opts.telemetry_period = 300.0;
  s.opts.retention_window = 3600.0;
  s.opts.metrics = true;
  s.warmup_rounds = 20;
  s.steady_rounds = 100;
  s.advance_s = 15.0;
  s.crash_every = 50;
  s.repair_after = 20;
  s.reads_every = 10;
  return s;
}

/// A service::Daemon fed by one closed-loop client: live-slot failures at
/// about the fleet's repair capacity, robot crash/repair cycles, status and
/// telemetry reads, and advances; loss, telemetry and metrics on. Daemons of
/// the three algorithms, each over two replication seeds, run one after
/// another, so the centralized daemon's multi-hop geo-routing is measured
/// here too.
Workload service_soak(std::uint64_t seed, bool tiny) {
  Workload w;
  w.extra_setups = 10;
  for (std::size_t k = 0; k < (tiny ? 1 : 2); ++k) {
    for (const auto a :
         {core::Algorithm::kCentralized, core::Algorithm::kFixedDistributed,
          core::Algorithm::kDynamicDistributed}) {
      w.soaks.push_back(soak_spec(std::string(core::to_string(a)) + "#" + std::to_string(k),
                                  a, replication_seed(seed, w.soaks.size()), tiny));
    }
  }
  return w;
}

}  // namespace

Workload make_workload(std::string_view name, std::optional<std::uint64_t> seed,
                       bool tiny) {
  struct Entry {
    std::string_view name;
    std::uint64_t default_seed;
    Workload (*build)(std::uint64_t seed, bool tiny);
  };
  static constexpr Entry kWorkloads[] = {
      {"field_100k", 2026, field_100k},
      {"paper_16r", 1, paper_16r},
      {"chaos_16r", 2026, chaos_16r},
      {"service_soak", 1, service_soak},
  };
  for (const Entry& e : kWorkloads) {
    if (e.name != name) continue;
    Workload w = e.build(seed.value_or(e.default_seed), tiny);
    w.name = std::string(name);
    w.seed = seed.value_or(e.default_seed);
    w.default_seed = e.default_seed;
    if (tiny) w.min_reps = 1;
    return w;
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

}  // namespace perfbench
