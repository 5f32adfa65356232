#include "metrics/timeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace sensrep::metrics {

void TimeSeries::add(sim::SimTime t, double value) {
  if (!points_.empty() && t < points_.back().first) {
    throw std::invalid_argument("TimeSeries::add: time went backwards");
  }
  points_.emplace_back(t, value);
}

double TimeSeries::value_at(sim::SimTime t) const {
  if (empty()) throw std::logic_error("TimeSeries::value_at: empty series");
  if (t < points_.front().first) {
    throw std::invalid_argument("TimeSeries::value_at: before first sample");
  }
  // Last sample with time <= t.
  auto it = std::upper_bound(
      points_.begin(), points_.end(), t,
      [](sim::SimTime lhs, const auto& p) { return lhs < p.first; });
  return std::prev(it)->second;
}

double TimeSeries::min() const {
  if (empty()) throw std::logic_error("TimeSeries::min: empty series");
  double m = points_.front().second;
  for (const auto& [t, v] : points_) m = std::min(m, v);
  return m;
}

double TimeSeries::max() const {
  if (empty()) throw std::logic_error("TimeSeries::max: empty series");
  double m = points_.front().second;
  for (const auto& [t, v] : points_) m = std::max(m, v);
  return m;
}

double TimeSeries::time_weighted_mean(sim::SimTime t0, sim::SimTime t1) const {
  if (t0 >= t1) throw std::invalid_argument("TimeSeries::time_weighted_mean: t0 >= t1");
  double area = 0.0;
  sim::SimTime cursor = t0;
  double current = value_at(t0);
  for (const auto& [t, v] : points_) {
    if (t <= t0) continue;
    if (t >= t1) break;
    area += current * (t - cursor);
    cursor = t;
    current = v;
  }
  area += current * (t1 - cursor);
  return area / (t1 - t0);
}

void TimeSeries::write_csv(std::ostream& out, std::string_view name) const {
  out << "t," << name << '\n';
  for (const auto& [t, v] : points_) out << t << ',' << v << '\n';
}

sim::EventId sample_periodically(sim::Simulator& simulator, sim::Duration period,
                                 TimeSeries& series, std::function<double()> probe) {
  return simulator.every(period, [sim_ptr = &simulator, series_ptr = &series,
                                  probe = std::move(probe)] {
    series_ptr->add(sim_ptr->now(), probe());
  });
}

}  // namespace sensrep::metrics
