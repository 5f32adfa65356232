// perfbench — phase-split, layer-attributed benchmark of sensrep.
//
// Shared types of the harness. See README.md for the workloads, the metrics
// and which layer metric is expected to move which end-to-end metric.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/simulation.hpp"
#include "metrics/counters.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"
#include "service/options.hpp"

namespace perfbench {

namespace core = sensrep::core;
namespace obs = sensrep::obs;

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline constexpr std::size_t kCategories =
    static_cast<std::size_t>(sensrep::metrics::MessageCategory::kCount);
inline constexpr std::size_t kCounters = static_cast<std::size_t>(obs::Counter::kCount);
inline constexpr std::size_t kProbes = static_cast<std::size_t>(obs::Probe::kCount);

// --- workloads ---------------------------------------------------------------

/// One Simulation driven through a warm-up window (which holds the
/// initialization flood) and a timed steady window, advanced `step` simulated
/// seconds at a time.
struct SimJob {
  std::string label;
  core::SimulationConfig cfg;
  double warmup_end = 0.0;  // sim s
  double end = 0.0;         // sim s
  double step = 0.0;        // sim s per advance
};

/// Closed-loop command feed against an in-process service::Daemon. Every
/// round sends its writes and reads, then one `advance`.
struct SoakSpec {
  std::string label;
  sensrep::service::DaemonOptions opts;
  std::size_t warmup_rounds = 0;
  std::size_t steady_rounds = 0;
  double advance_s = 0.0;      // sim s per advance command
  std::size_t crash_every = 0;   // rounds between robot crashes
  std::size_t repair_after = 0;  // rounds a crashed robot stays down
  std::size_t reads_every = 0;   // rounds between status/telemetry reads
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  std::uint64_t default_seed = 0;
  /// obs::Metrics and the flight recorder stay on in every pass, the way
  /// sensrep_serve runs them.
  bool obs_plane = false;
  /// Extra construct-and-destroy set-ups of the whole workload per run, so
  /// setup_s is a median of many samples where one set-up takes milliseconds.
  std::size_t extra_setups = 0;
  std::size_t min_reps = 3;
  std::vector<SimJob> jobs;
  std::vector<SoakSpec> soaks;
};

/// Builds workload `name` at `seed` (its default seed when absent); `tiny`
/// shrinks it for the self-test. Throws std::invalid_argument on an unknown
/// name.
[[nodiscard]] Workload make_workload(std::string_view name,
                                     std::optional<std::uint64_t> seed, bool tiny);

// --- counters ----------------------------------------------------------------

/// One reading of every public counter the benchmark uses. Simulation-owned
/// counters start at zero on construction; the obs registries are process-
/// wide and cumulative, so windows are always differences of two readings.
struct Counts {
  std::uint64_t executed = 0;
  std::uint64_t deliveries = 0;
  std::array<std::uint64_t, kCategories> tx{};
  std::array<std::uint64_t, kCounters> counters{};
  std::array<std::uint64_t, obs::kNetCategories> rx{};
  std::array<std::uint64_t, kProbes> probe_calls{};
  std::array<std::uint64_t, kProbes> probe_ns{};

  /// `sim` may be null (before construction): simulation fields read zero.
  [[nodiscard]] static Counts read(core::Simulation* sim);
  Counts& operator+=(const Counts& o);
  friend Counts operator-(Counts a, const Counts& b);

  [[nodiscard]] std::uint64_t counter(obs::Counter c) const {
    return counters[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t beacons() const {
    return tx[static_cast<std::size_t>(sensrep::metrics::MessageCategory::kBeacon)];
  }
  [[nodiscard]] std::uint64_t tx_total() const;
};

/// Deterministic work of one pass: two passes with the same seed must agree
/// exactly. `dispatches` reads obs::Metrics and is zero when it is off.
struct Work {
  std::uint64_t events = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t ticks = 0;  // one counted beacon per tick
  std::array<std::uint64_t, kCategories> tx{};
  std::uint64_t dispatches = 0;

  Work& operator+=(const Work& o);
  friend bool operator==(const Work&, const Work&) = default;
  [[nodiscard]] std::string to_json() const;
};

// --- traced stepping -----------------------------------------------------------

enum StepClass : std::size_t { kDelivery, kTick, kOther, kClasses };

/// Wall time and step counts per class for one phase of a traced pass.
struct StepMix {
  std::array<double, kClasses> wall_s{};
  std::array<std::uint64_t, kClasses> steps{};
};

/// Times single simulator events from outside and classifies each by which
/// public counter it moved: Medium::deliveries() -> delivery; only beacon
/// transmissions -> tick; anything else -> other. It rides on the
/// simulator's interrupt probe at stride 1, which run_until evaluates after
/// every event.
class StepClassifier {
 public:
  /// Installs the probe on `sim` and charges events to `mix`.
  void attach(core::Simulation& sim, StepMix& mix);
  /// Uninstalls the probe.
  void detach();
  /// Starts an interval: the next account() charges the time from here.
  void mark();
  /// Charges the time since the last mark/account to one class of `into`.
  void account();

  StepMix* into = nullptr;
  std::size_t pending_peak = 0;

 private:
  core::Simulation* sim_ = nullptr;
  Clock::time_point last_{};
  std::uint64_t deliveries_ = 0;
  std::uint64_t beacons_ = 0;
  std::uint64_t tx_ = 0;
};

/// A named wall-clock interval, kept in memory and written out at the end.
struct Span {
  std::string name;
  std::string parent;
  double start_s = 0.0;  // since Trace::epoch
  double end_s = 0.0;
};

/// Traced-pass state: the classifier, per-phase mixes, the steady-window
/// counter deltas and the spans.
struct Trace {
  StepClassifier classifier;
  StepMix warmup;
  StepMix steady;
  Counts warmup_counts;  // summed over jobs' set-up and warm-up
  Counts steady_counts;  // summed over jobs' steady windows
  std::vector<Span> spans;
  Clock::time_point epoch = Clock::now();

  void span(std::string name, std::string parent, Clock::time_point a,
            Clock::time_point b);
};

// --- passes ----------------------------------------------------------------------

enum class Pass {
  kReference,  // untimed, under the fail-fast chaos::InvariantChecker
  kTimed,      // untraced: run_until / handle_line only
  kTraced,     // every event timed, obs::Metrics and obs::Profiler on
};

struct PassResult {
  std::vector<double> setup_s;  // one per construction
  double warmup_s = 0.0;
  double steady_wall_s = 0.0;
  double steady_sim_s = 0.0;
  std::vector<double> advance_ms;
  std::vector<double> command_us;  // service commands other than advance
  std::vector<std::string> results;  // one ExperimentResult line per job
  double robot_distance_m = 0.0;     // Fig. 2 numerator, summed over jobs
  Work work;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t err_replies = 0;
  std::vector<std::string> errors;

  [[nodiscard]] double total_wall_s() const;
  void fail(std::string what);
};

/// Runs one pass of `w`. `trace` must be non-null exactly for Pass::kTraced.
[[nodiscard]] PassResult run_pass(const Workload& w, Pass pass, Trace* trace);

/// Wall seconds of one set-up of `w` (every job constructed, then destroyed).
[[nodiscard]] double extra_setup_s(const Workload& w);

/// Canonical one-line form of the fields the correctness gate compares: the
/// figure fields, the failure-pipeline counts and the per-category
/// transmissions (never events_executed / pending_events).
[[nodiscard]] std::string result_line(const core::ExperimentResult& r);

}  // namespace perfbench
