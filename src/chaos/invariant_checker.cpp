#include "chaos/invariant_checker.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <vector>

#include "obs/flight_recorder.hpp"

namespace sensrep::chaos {

namespace {

std::string format_time(sim::SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", t);
  return buf;
}

}  // namespace

std::string InvariantViolation::to_string() const {
  return "[t=" + format_time(time) + "] " + invariant + ": " + detail;
}

InvariantChecker::InvariantChecker(core::Simulation& sim, InvariantCheckerOptions opts,
                                   const obs::Tracer* tracer)
    : sim_(&sim), opts_(opts), tracer_(tracer) {
  double period = opts_.period_s;
  if (period <= 0.0) {
    const auto& cfg = sim_->config();
    period = cfg.robot_faults.enabled() ? cfg.robot_faults.heartbeat_period
                                        : cfg.sim_duration / 20.0;
  }
  if (period > 0.0) {
    sim_->simulator().every(period, [this] { check_now(); });
  }
}

void InvariantChecker::check_now() {
  ++checks_;
  verify_failure_conservation();
  verify_no_double_repair();
  verify_robot_bookkeeping();
  verify_span_balance(/*final_check=*/false);
}

void InvariantChecker::check_final() {
  ++checks_;
  verify_failure_conservation();
  verify_no_double_repair();
  verify_robot_bookkeeping();
  verify_span_balance(/*final_check=*/true);
}

void InvariantChecker::verify_failure_conservation() {
  const auto& records = sim_->failure_log().records();
  auto& field = sim_->field();
  for (std::size_t fid = 0; fid < records.size(); ++fid) {
    const auto& r = records[fid];
    const std::string who = "failure #" + std::to_string(fid) + " (slot " +
                            std::to_string(r.node_id) + ")";
    if (!sim::is_valid_time(r.failed_at)) {
      record("failure-conservation", who + " has no failure timestamp");
      continue;
    }
    if (r.detected() && r.detected_at < r.failed_at) {
      record("failure-conservation",
             who + " detected at " + format_time(r.detected_at) + " before it failed at " +
                 format_time(r.failed_at));
    }
    if (r.repaired()) {
      if (!r.robot_id) {
        record("failure-conservation", who + " is repaired but names no robot");
      }
      if (r.repaired_at < r.failed_at) {
        record("failure-conservation",
               who + " repaired at " + format_time(r.repaired_at) +
                   " before it failed at " + format_time(r.failed_at));
      }
      continue;
    }
    // Pending: the slot must currently be dead, and the field's open-failure
    // entry must point back at this exact record — a mismatch means a repair
    // event got lost or a record leaked (the "conservation" part).
    if (!field.is_sensor(r.node_id)) {
      record("failure-conservation", who + " names a non-sensor slot");
      continue;
    }
    if (field.node(r.node_id).alive()) {
      record("failure-conservation", who + " is unrepaired but its slot is alive");
      continue;
    }
    const auto open = field.open_failure(r.node_id);
    if (!open || *open != fid) {
      record("failure-conservation",
             who + " is unrepaired but the slot's open failure is " +
                 (open ? ("#" + std::to_string(*open)) : std::string("absent")));
    }
  }
}

void InvariantChecker::verify_no_double_repair() {
  const auto& records = sim_->failure_log().records();
  // Per-slot failure ids, in log order (== failed_at order per slot, verified).
  std::map<std::uint32_t, std::vector<std::size_t>> by_slot;
  for (std::size_t fid = 0; fid < records.size(); ++fid) {
    by_slot[records[fid].node_id].push_back(fid);
  }
  for (const auto& [slot, fids] : by_slot) {
    for (std::size_t i = 0; i + 1 < fids.size(); ++i) {
      const auto& prev = records[fids[i]];
      const auto& next = records[fids[i + 1]];
      if (!prev.repaired()) {
        record("no-double-repair",
               "slot " + std::to_string(slot) + " failed again (failure #" +
                   std::to_string(fids[i + 1]) + ") while failure #" +
                   std::to_string(fids[i]) + " is still unrepaired");
        continue;
      }
      if (prev.repaired_at > next.failed_at) {
        record("no-double-repair",
               "slot " + std::to_string(slot) + " repair of failure #" +
                   std::to_string(fids[i]) + " at " + format_time(prev.repaired_at) +
                   " overlaps failure #" + std::to_string(fids[i + 1]) + " at " +
                   format_time(next.failed_at) + " (slot repaired twice)");
      }
    }
  }
}

void InvariantChecker::verify_robot_bookkeeping() {
  auto& medium = sim_->medium();
  std::size_t dead = 0;
  for (const auto& robot : sim_->robots()) {
    const std::string who = "robot " + std::to_string(robot->id());
    if (robot->failed()) {
      ++dead;
      if (robot->busy() || !robot->queue().empty()) {
        record("robot-bookkeeping",
               who + " is failed but still holds work (busy=" +
                   (robot->busy() ? "yes" : "no") + ", queued=" +
                   std::to_string(robot->queue().size()) + ")");
      }
      if (medium.alive(robot->id())) {
        record("robot-bookkeeping", who + " is failed but still radio-reachable");
      }
    } else if (!medium.alive(robot->id())) {
      record("robot-bookkeeping", who + " is alive but radio-dark");
    }
  }
  const std::uint64_t failures = sim_->counters().get(obs::Counter::kRobotFailures);
  const std::uint64_t repairs = sim_->counters().get(obs::Counter::kRobotRepairs);
  if (failures < repairs || dead != failures - repairs) {
    record("robot-bookkeeping",
           std::to_string(dead) + " robot(s) currently dead but injection ledger says " +
               std::to_string(failures) + " failures - " + std::to_string(repairs) +
               " repairs");
  }
}

void InvariantChecker::verify_span_balance(bool final_check) {
  if (tracer_ == nullptr) return;
  // Compaction would hide per-trace state; skip rather than false-positive.
  if (tracer_->retired() != 0) return;
  if (tracer_->stray_closes() != 0) {
    record("span-balance",
           std::to_string(tracer_->stray_closes()) +
               " stray span close(s): a lifecycle stage closed with no open span");
  }
  if (!final_check) return;
  // End-of-run only: in-flight repairs legitimately have partial chains while
  // the clock is still running. Chain completeness is asserted only for slots
  // with a single failure record: on a slot that failed repeatedly, a robot
  // holding a stale duplicate task for an EARLIER failure of that slot can
  // arrive and repair the newer one — its queue/travel spans then live on the
  // old failure's trace, so the new trace is legitimately partial.
  const auto& records = sim_->failure_log().records();
  std::map<std::uint32_t, std::size_t> failures_per_slot;
  for (const auto& r : records) ++failures_per_slot[r.node_id];
  for (std::size_t fid = 0; fid < records.size(); ++fid) {
    if (!records[fid].repaired()) continue;
    if (failures_per_slot[records[fid].node_id] != 1) continue;
    if (!tracer_->has_complete_chain(fid + 1)) {
      record("span-balance", "failure #" + std::to_string(fid) +
                                 " is repaired but its trace chain is incomplete");
    }
  }
}

void InvariantChecker::record(const char* invariant, std::string detail) {
  InvariantViolation v{sim_->simulator().now(), invariant, std::move(detail)};
  // Stamp the breach into the ring before dumping so the dump's final
  // record carries the violation tick, then persist the history (even on
  // the fail_fast path — the artifact must survive the throw).
  sim_->field().events().emit({.time = v.time, .kind = obs::Kind::kViolation});
  if (!opts_.flightrec_dump.empty() && obs::FlightRecorder::enabled()) {
    (void)obs::FlightRecorder::dump_to_file(opts_.flightrec_dump);
  }
  if (opts_.fail_fast) {
    throw std::runtime_error("invariant violated " + v.to_string());
  }
  violations_.push_back(std::move(v));
}

std::string InvariantChecker::report() const {
  std::string out = "invariant checks: " + std::to_string(checks_) + ", violations: " +
                    std::to_string(violations_.size()) + "\n";
  for (const auto& v : violations_) out += v.to_string() + "\n";
  return out;
}

bool InvariantChecker::write_report(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << report();
  return static_cast<bool>(out);
}

}  // namespace sensrep::chaos
