#include "core/simulation.hpp"

#include <cmath>
#include <sstream>

#include "metrics/summary.hpp"
#include "trace/format.hpp"
#include "wsn/deployment.hpp"

namespace sensrep::core {

Simulation::Simulation(const SimulationConfig& config) : config_(config) {
  config_.validate();
  sim::Rng master(config_.seed);

  medium_ = std::make_unique<net::Medium>(sim_, master.fork("medium"), config_.radio,
                                          config_.field_area(),
                                          config_.field.sensor_tx_range);
  algo_ = make_algorithm(config_);
  // Robot fault tolerance: sensors age robot knowledge and guardians
  // re-report unrepaired failures on the window the lease machinery uses.
  const double robot_lease_window =
      config_.robot_faults.enabled() ? config_.robot_faults.lease_window() : 0.0;
  field_ = std::make_unique<wsn::SensorField>(sim_, *medium_, *algo_, log_, config_.field,
                                              master.fork("field"), robot_lease_window);

  auto deploy_rng = master.fork("sensor-deploy");
  field_->deploy(wsn::uniform_deployment(deploy_rng, config_.field_area(),
                                         config_.sensor_count()));

  auto robot_rng = master.fork("robot-deploy");
  const auto robot_positions =
      wsn::uniform_deployment(robot_rng, config_.field_area(), config_.robots);
  robot::RobotNode::Config rc;
  rc.speed = config_.robot_speed;
  rc.tx_range = config_.robot_tx_range;
  rc.update_threshold = config_.update_threshold;
  rc.spares = config_.robot_spares;
  rc.depot = config_.robot_depot;
  robots_.reserve(config_.robots);
  for (std::size_t i = 0; i < config_.robots; ++i) {
    robots_.push_back(std::make_unique<robot::RobotNode>(
        config_.robot_id(i), robot_positions[i], rc, sim_, *medium_, *field_, *algo_));
  }

  SystemContext ctx;
  ctx.simulator = &sim_;
  ctx.medium = medium_.get();
  ctx.field = field_.get();
  ctx.log = &log_;
  ctx.robots = &robots_;
  ctx.config = &config_;
  algo_->bind(ctx);

  field_->initialize();
  algo_->initialize();
  field_->start();

  // Fault injection: schedule robot deaths (one spontaneous draw per robot
  // plus any scheduled crashes), repairs (MTTR draws ride along with each
  // death; scheduled repairs are fixed times), and the optional manager
  // crash/repair. Everything here — including the RNG forks — happens only
  // when the fault model is enabled, so the default configuration replays
  // byte-identical traces.
  const auto& faults = config_.robot_faults;
  if (faults.enabled()) {
    algo_->start_fault_tolerance();
    if (std::isfinite(faults.mttr)) repair_rng_.emplace(master.fork("robot-repairs"));
    if (faults.spontaneous()) {
      fault_rng_.emplace(master.fork("robot-faults"));
      for (std::size_t i = 0; i < config_.robots; ++i) {
        const double at = faults.draw(*fault_rng_);
        if (at < config_.sim_duration) sim_.at(at, [this, i] { kill_robot(i); });
      }
    }
    for (const auto& crash : faults.crashes) {
      const std::size_t i = crash.robot;
      sim_.at(crash.at, [this, i] { kill_robot(i); });
    }
    for (const auto& rep : faults.repairs) {
      const std::size_t i = rep.robot;
      sim_.at(rep.at, [this, i] { revive_robot(i); });
    }
    if (faults.manager_crash_at) {
      sim_.at(*faults.manager_crash_at, [this] { algo_->fail_manager(); });
    }
    if (faults.manager_repair_at) {
      sim_.at(*faults.manager_repair_at, [this] { algo_->repair_manager(); });
    }
  }
}

void Simulation::kill_robot(std::size_t index) {
  auto& r = *robots_[index];
  if (r.failed()) return;
  const std::size_t lost = r.fail();
  algo_->on_robot_failed(r, lost);
  // MTTR: draw how long the unit stays out of service and schedule its
  // return (only when it lands inside the mission).
  if (repair_rng_) {
    const double at = sim_.now() + config_.robot_faults.draw_repair(*repair_rng_);
    if (at < config_.sim_duration) sim_.at(at, [this, index] { revive_robot(index); });
  }
}

void Simulation::revive_robot(std::size_t index) {
  auto& r = *robots_[index];
  if (!r.failed()) return;
  r.repair();  // runs the algorithm's rejoin path via the policy hook
  // A repaired unit ages anew: with spontaneous failures on, draw its next
  // time-to-failure so the fleet cycles toward MTBF/(MTBF+MTTR) availability.
  if (fault_rng_) {
    const double at = sim_.now() + config_.robot_faults.draw(*fault_rng_);
    if (at < config_.sim_duration) sim_.at(at, [this, index] { kill_robot(index); });
  }
}

Simulation::~Simulation() = default;

void Simulation::run() { run_until(config_.sim_duration); }

void Simulation::attach_event_log(obs::EventLog& log) { field_->events().attach(log); }

void Simulation::attach_tracer(obs::Tracer& tracer) { field_->events().attach(tracer); }

void Simulation::run_until(sim::SimTime t) { sim_.run_until(t); }

bool Simulation::inject_sensor_failure(net::NodeId slot) {
  if (!field_->is_sensor(slot)) {
    throw std::invalid_argument(trace::strfmt(
        "inject_sensor_failure: id %u is not a sensor (field has %zu slots)", slot,
        field_->size()));
  }
  if (!field_->node(slot).alive()) return false;
  field_->fail_slot(slot);
  return true;
}

bool Simulation::inject_robot_crash(std::size_t index) {
  if (index >= robots_.size()) {
    throw std::invalid_argument(trace::strfmt(
        "inject_robot_crash: index %zu out of range (fleet of %zu)", index,
        robots_.size()));
  }
  if (robots_[index]->failed()) return false;
  kill_robot(index);
  return true;
}

bool Simulation::inject_robot_repair(std::size_t index) {
  if (index >= robots_.size()) {
    throw std::invalid_argument(trace::strfmt(
        "inject_robot_repair: index %zu out of range (fleet of %zu)", index,
        robots_.size()));
  }
  if (!robots_[index]->failed()) return false;
  revive_robot(index);
  return true;
}

StateDigest Simulation::digest() const {
  StateDigest d;
  d.clock = sim_.now();
  d.events_executed = sim_.executed();
  d.pending_events = sim_.pending();
  d.failures = log_.size();
  d.repaired = log_.repaired_count();
  d.robot_failures = counters().get(obs::Counter::kRobotFailures);
  d.robot_repairs = counters().get(obs::Counter::kRobotRepairs);
  for (const auto& robot : robots_) {
    if (!robot->failed()) ++d.live_robots;
    d.pending_tasks += robot->queue().size() + (robot->busy() ? 1 : 0);
  }
  d.transmissions = counters().total();
  return d;
}

std::string StateDigest::to_string() const {
  return trace::strfmt(
      "clock=%.17g executed=%llu pending_events=%llu failures=%llu repaired=%llu "
      "robot_failures=%llu robot_repairs=%llu live_robots=%llu pending_tasks=%llu "
      "tx=%llu",
      clock, static_cast<unsigned long long>(events_executed),
      static_cast<unsigned long long>(pending_events),
      static_cast<unsigned long long>(failures),
      static_cast<unsigned long long>(repaired),
      static_cast<unsigned long long>(robot_failures),
      static_cast<unsigned long long>(robot_repairs),
      static_cast<unsigned long long>(live_robots),
      static_cast<unsigned long long>(pending_tasks),
      static_cast<unsigned long long>(transmissions));
}

ExperimentResult Simulation::result() const {
  ExperimentResult r;
  r.algorithm = config_.algorithm;
  r.robots = config_.robots;
  r.seed = config_.seed;

  metrics::Summary travel;
  metrics::Summary report_hops;
  metrics::Summary request_hops;
  metrics::Summary detect_latency;
  metrics::Summary repair_latency;

  for (const auto& rec : log_.records()) {
    ++r.failures;
    if (rec.detected()) {
      ++r.detected;
      detect_latency.add(rec.detected_at - rec.failed_at);
    }
    if (sim::is_valid_time(rec.reported_at)) {
      ++r.reported;
      report_hops.add(static_cast<double>(rec.report_hops));
    }
    if (rec.request_hops > 0) request_hops.add(static_cast<double>(rec.request_hops));
    if (rec.repaired()) {
      ++r.repaired;
      travel.add(rec.travel_distance);
      repair_latency.add(rec.repair_latency());
    }
  }

  r.avg_travel_per_repair = travel.mean();
  r.avg_report_hops = report_hops.mean();
  r.avg_request_hops = request_hops.mean();
  r.avg_detection_latency = detect_latency.mean();
  r.avg_repair_latency = repair_latency.mean();
  r.p95_repair_latency = repair_latency.empty() ? 0.0 : repair_latency.percentile(0.95);
  r.delivery_ratio =
      r.detected == 0 ? 1.0
                      : static_cast<double>(r.reported) / static_cast<double>(r.detected);
  r.unreported = field_->unreported_count();

  r.router_drops = field_->router_drops();
  for (const auto& robot : robots_) r.router_drops += robot->router().drops();

  for (std::size_t c = 0; c < r.transmissions.size(); ++c) {
    r.transmissions[c] = counters().get(static_cast<metrics::MessageCategory>(c));
  }
  r.location_update_tx_per_repair =
      r.repaired == 0
          ? 0.0
          : static_cast<double>(r.tx(metrics::MessageCategory::kLocationUpdate)) /
                static_cast<double>(r.repaired);

  for (const auto& robot : robots_) {
    r.total_robot_distance += robot->odometer();
    r.motion_energy_j += config_.energy.motion_energy_j(robot->odometer());
    r.mission_energy_j += config_.energy.mission_energy_j(robot->odometer(), sim_.now());
    r.orphaned_tasks += robot->orphaned_tasks();
  }
  r.init_motion = algo_->init_motion();

  const obs::CounterBlock& c = counters();
  r.robot_failures = c.get(obs::Counter::kRobotFailures);
  r.tasks_lost = c.get(obs::Counter::kTasksLost);
  r.redispatches = c.get(obs::Counter::kRedispatches);
  r.failover_events = algo_->fault_stats().failovers;
  r.adoptions = c.get(obs::Counter::kAdoptions);
  r.robot_repairs = c.get(obs::Counter::kRobotRepairs);
  r.elections = c.get(obs::Counter::kElections);
  r.handbacks = algo_->fault_stats().handbacks;
  r.ownership_transfers = c.get(obs::Counter::kOwnershipTransfers);
  return r;
}

std::string ExperimentResult::summary() const {
  std::ostringstream out;
  out << trace::strfmt("algorithm=%s robots=%zu seed=%llu\n",
                       std::string(to_string(algorithm)).c_str(), robots,
                       static_cast<unsigned long long>(seed));
  out << trace::strfmt(
      "  failures=%zu detected=%zu reported=%zu repaired=%zu unreported=%zu drops=%llu\n",
      failures, detected, reported, repaired, unreported,
      static_cast<unsigned long long>(router_drops));
  out << trace::strfmt("  fig2 avg travel per repair   : %8.2f m\n", avg_travel_per_repair);
  out << trace::strfmt("  fig3 avg report hops          : %8.2f\n", avg_report_hops);
  if (avg_request_hops > 0.0) {
    out << trace::strfmt("  fig3 avg request hops         : %8.2f\n", avg_request_hops);
  }
  out << trace::strfmt("  fig4 location-update tx/fail  : %8.2f\n",
                       location_update_tx_per_repair);
  out << trace::strfmt("  latency detect=%.1fs repair avg=%.1fs p95=%.1fs\n",
                       avg_detection_latency, avg_repair_latency, p95_repair_latency);
  out << trace::strfmt("  motion total=%.1fm init=%.1fm delivery=%.4f\n",
                       total_robot_distance, init_motion, delivery_ratio);
  out << trace::strfmt("  energy motion=%.1fkJ mission=%.1fkJ\n",
                       motion_energy_j / 1000.0, mission_energy_j / 1000.0);
  // Printed only when something fault-related actually happened, so
  // fault-free runs keep the historical summary format.
  if (robot_failures > 0 || tasks_lost > 0 || orphaned_tasks > 0 || redispatches > 0 ||
      failover_events > 0 || adoptions > 0) {
    out << trace::strfmt(
        "  faults robots=%zu lost=%zu orphaned=%zu redispatch=%zu failover=%zu adopt=%zu\n",
        robot_failures, tasks_lost, orphaned_tasks, redispatches, failover_events,
        adoptions);
  }
  // Recovery line, same rule: only when the MTTR machinery actually ran.
  if (robot_repairs > 0 || elections > 0 || handbacks > 0 || ownership_transfers > 0) {
    out << trace::strfmt(
        "  repairs robots=%zu elections=%zu handback=%zu ownership=%zu\n",
        robot_repairs, elections, handbacks, ownership_transfers);
  }
  return out.str();
}

}  // namespace sensrep::core
