#pragma once

#include <functional>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace sensrep::metrics {

/// Append-only (time, value) series with step semantics: the recorded value
/// holds until the next sample. Used for coverage-over-time, queue depths,
/// alive counts — anything the examples plot against the virtual clock.
///
/// Samples must be added in nondecreasing time order (enforced).
class TimeSeries {
 public:
  void add(sim::SimTime t, double value);

  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
  [[nodiscard]] bool empty() const noexcept { return points_.empty(); }
  [[nodiscard]] const std::vector<std::pair<sim::SimTime, double>>& points() const noexcept {
    return points_;
  }

  /// Value in force at time t (the last sample at or before t).
  /// Requires !empty() and t >= first sample time.
  [[nodiscard]] double value_at(sim::SimTime t) const;

  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  /// Time-weighted mean over [t0, t1] under step semantics.
  /// Requires t0 < t1 and samples covering t0.
  [[nodiscard]] double time_weighted_mean(sim::SimTime t0, sim::SimTime t1) const;

  /// Writes "t,<name>" rows (with header) as CSV.
  void write_csv(std::ostream& out, std::string_view name) const;

 private:
  std::vector<std::pair<sim::SimTime, double>> points_;
};

/// Samples `probe` every `period` seconds into `series` (first sample at
/// now()+period). Cancel with the returned id. All references must outlive
/// the sampling.
sim::EventId sample_periodically(sim::Simulator& simulator, sim::Duration period,
                                 TimeSeries& series, std::function<double()> probe);

}  // namespace sensrep::metrics
