// Disaster-response scenario: the workload the paper's introduction
// motivates — a sensor network in a hazard field where an event knocks out
// a cluster of sensors at once, on top of background wear-out failures.
//
// A burst of correlated failures hits a hotspot at t=2000 s. Robots carry
// unlimited spares (the paper's model; SimulationConfig::robot_spares and
// robot_depot add restocking). The example tracks sensing coverage over
// time, showing the dip and the robots healing it back.
//
//   ./build/examples/disaster_response [robots] [seed]

#include <cstdlib>
#include <iostream>
#include <vector>

#include "core/simulation.hpp"
#include "trace/format.hpp"

int main(int argc, char** argv) {
  using namespace sensrep;

  std::size_t robots = 4;
  std::uint64_t seed = 7;
  if (argc > 1) robots = static_cast<std::size_t>(std::strtoull(argv[1], nullptr, 10));
  if (argc > 2) seed = std::strtoull(argv[2], nullptr, 10);

  core::SimulationConfig cfg;
  cfg.algorithm = core::Algorithm::kDynamicDistributed;
  cfg.robots = robots;
  cfg.seed = seed;
  cfg.sim_duration = 12000.0;
  cfg.field.lifetime.mean = 48000.0;  // background wear-out, slower than default
  // The paper's guardian-guardee detection assumes a guardian and guardee
  // rarely die together — false in a disaster, where the blast kills whole
  // neighborhoods (watchers included) and interior failures stay silent.
  // The neighborhood-watch extension heals the hole inward from its rim.
  cfg.field.neighborhood_watch = true;

  core::Simulation simulation(cfg);
  const auto area = cfg.field_area();
  const double sensing_radius = 40.0;

  // The disaster: at t=2000 s every sensor within 120 m of the hotspot dies.
  const geometry::Vec2 hotspot = geometry::lerp(area.min, area.max, 0.3);
  simulation.simulator().at(2000.0, [&] {
    std::size_t killed = 0;
    for (net::NodeId id = 0; id < simulation.field().size(); ++id) {
      auto& node = simulation.field().node(id);
      if (node.alive() && geometry::distance(node.position(), hotspot) <= 120.0) {
        simulation.field().fail_slot(id);
        ++killed;
      }
    }
    std::cout << trace::strfmt("[%7.0fs] *** disaster at (%.0f, %.0f): %zu sensors down\n",
                               simulation.simulator().now(), hotspot.x, hotspot.y, killed);
  });

  std::cout << trace::strfmt(
      "disaster_response: %zu robots, %zu sensors, dynamic algorithm, hotspot burst at "
      "t=2000s\n\n",
      robots, cfg.sensor_count());
  std::cout << trace::strfmt("%9s %9s %10s %9s %8s\n", "time(s)", "alive", "coverage",
                             "repaired", "queued");

  for (double t = 1000.0; t <= cfg.sim_duration; t += 1000.0) {
    simulation.run_until(t);
    std::size_t queued = 0;
    std::size_t repairs = 0;
    for (const auto& r : simulation.robots()) {
      queued += r->queue().size() + (r->busy() ? 1 : 0);
      repairs += r->repairs_done();
    }
    std::cout << trace::strfmt(
        "%9.0f %9zu %9.1f%% %9zu %8zu\n", t, simulation.field().alive_count(),
        simulation.field().coverage_fraction(area, sensing_radius) * 100.0, repairs,
        queued);
  }

  const auto result = simulation.result();
  std::cout << "\n" << result.summary();

  // The headline: did the robots heal the disaster dip?
  const double final_coverage = simulation.field().coverage_fraction(area, sensing_radius);
  std::cout << trace::strfmt("\nfinal coverage %.1f%%, %zu of %zu failures repaired\n",
                             final_coverage * 100.0, result.repaired, result.failures);
  return result.repaired * 10 >= result.failures * 9 ? 0 : 1;
}
