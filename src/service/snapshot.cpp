#include "service/snapshot.hpp"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "trace/format.hpp"

namespace sensrep::service {

namespace {

core::Algorithm parse_algorithm(const std::string& s) {
  if (s == "centralized") return core::Algorithm::kCentralized;
  if (s == "fixed") return core::Algorithm::kFixedDistributed;
  if (s == "dynamic") return core::Algorithm::kDynamicDistributed;
  throw std::runtime_error("snapshot: unknown algorithm '" + s + "'");
}

double parse_double(const std::string& s, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    throw std::runtime_error(trace::strfmt("snapshot: bad %s '%s'", what, s.c_str()));
  }
  return v;
}

std::uint64_t parse_u64(const std::string& s, const char* what) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end == s.c_str() || *end != '\0') {
    throw std::runtime_error(trace::strfmt("snapshot: bad %s '%s'", what, s.c_str()));
  }
  return v;
}

bool parse_bool(const std::string& s, const char* what) {
  if (s == "1") return true;
  if (s == "0") return false;
  throw std::runtime_error(trace::strfmt("snapshot: bad %s '%s' (want 0|1)", what, s.c_str()));
}

}  // namespace

core::StateDigest parse_digest(const std::string& line) {
  core::StateDigest d;
  std::istringstream in(line);
  std::string token;
  unsigned seen = 0;
  while (in >> token) {
    const auto eq = token.find('=');
    if (eq == std::string::npos) {
      throw std::runtime_error("snapshot: malformed digest token '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "clock") {
      d.clock = parse_double(value, "digest clock");
    } else if (key == "executed") {
      d.events_executed = parse_u64(value, "digest executed");
    } else if (key == "pending_events") {
      d.pending_events = parse_u64(value, "digest pending_events");
    } else if (key == "failures") {
      d.failures = parse_u64(value, "digest failures");
    } else if (key == "repaired") {
      d.repaired = parse_u64(value, "digest repaired");
    } else if (key == "robot_failures") {
      d.robot_failures = parse_u64(value, "digest robot_failures");
    } else if (key == "robot_repairs") {
      d.robot_repairs = parse_u64(value, "digest robot_repairs");
    } else if (key == "live_robots") {
      d.live_robots = parse_u64(value, "digest live_robots");
    } else if (key == "pending_tasks") {
      d.pending_tasks = parse_u64(value, "digest pending_tasks");
    } else if (key == "tx") {
      d.transmissions = parse_u64(value, "digest tx");
    } else {
      throw std::runtime_error("snapshot: unknown digest key '" + key + "'");
    }
    ++seen;
  }
  if (seen != 10) {
    throw std::runtime_error("snapshot: digest line is missing keys");
  }
  return d;
}

void Snapshot::write(std::ostream& out) const {
  out << kMagic << '\n';
  out << "algorithm " << core::to_string(options.algorithm) << '\n';
  out << "robots " << options.robots << '\n';
  out << "seed " << options.seed << '\n';
  out << trace::strfmt("horizon %.17g\n", options.horizon);
  out << trace::strfmt("mean-lifetime %.17g\n", options.mean_lifetime);
  out << trace::strfmt("loss %.17g\n", options.loss);
  out << "spontaneous " << (options.spontaneous_failures ? 1 : 0) << '\n';
  out << trace::strfmt("telemetry-period %.17g\n", options.telemetry_period);
  out << trace::strfmt("retention-window %.17g\n", options.retention_window);
  out << "trace-stages " << (options.trace_stages ? 1 : 0) << '\n';
  out << trace::strfmt("clock %.17g\n", clock);
  for (const JournalEntry& e : journal) {
    out << trace::strfmt("inject %.17g ", e.t) << format_command(e.command) << '\n';
  }
  out << "digest " << digest.to_string() << '\n';
  out << "end\n";
}

bool Snapshot::save(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write(f);
  return static_cast<bool>(f);
}

Snapshot Snapshot::read(std::istream& in) {
  Snapshot snap;
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    if (line.starts_with("sensrep-snapshot ")) {
      throw std::runtime_error("snapshot: unsupported format '" + line + "' (want '" +
                               std::string(kMagic) + "'; take a new snapshot)");
    }
    throw std::runtime_error("snapshot: bad magic (want '" + std::string(kMagic) + "')");
  }
  bool saw_digest = false;
  bool saw_end = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line == "end") {
      saw_end = true;
      break;
    }
    const auto space = line.find(' ');
    const std::string key = line.substr(0, space);
    const std::string rest = space == std::string::npos ? "" : line.substr(space + 1);
    if (key == "algorithm") {
      snap.options.algorithm = parse_algorithm(rest);
    } else if (key == "robots") {
      snap.options.robots = static_cast<std::size_t>(parse_u64(rest, "robots"));
    } else if (key == "seed") {
      snap.options.seed = parse_u64(rest, "seed");
    } else if (key == "horizon") {
      snap.options.horizon = parse_double(rest, "horizon");
    } else if (key == "mean-lifetime") {
      snap.options.mean_lifetime = parse_double(rest, "mean-lifetime");
    } else if (key == "loss") {
      snap.options.loss = parse_double(rest, "loss");
    } else if (key == "spontaneous") {
      snap.options.spontaneous_failures = parse_bool(rest, "spontaneous");
    } else if (key == "telemetry-period") {
      snap.options.telemetry_period = parse_double(rest, "telemetry-period");
    } else if (key == "retention-window") {
      snap.options.retention_window = parse_double(rest, "retention-window");
    } else if (key == "trace-stages") {
      snap.options.trace_stages = parse_bool(rest, "trace-stages");
    } else if (key == "clock") {
      snap.clock = parse_double(rest, "clock");
    } else if (key == "inject") {
      const auto cmd_at = rest.find(' ');
      if (cmd_at == std::string::npos) {
        throw std::runtime_error("snapshot: malformed inject line '" + line + "'");
      }
      JournalEntry e;
      e.t = parse_double(rest.substr(0, cmd_at), "inject time");
      const auto parsed = parse_command(rest.substr(cmd_at + 1));
      if (!parsed || !is_mutation(parsed->kind)) {
        throw std::runtime_error("snapshot: non-mutation inject line '" + line + "'");
      }
      e.command = *parsed;
      snap.journal.push_back(std::move(e));
    } else if (key == "digest") {
      snap.digest = parse_digest(rest);
      saw_digest = true;
    } else {
      throw std::runtime_error("snapshot: unknown key '" + key + "'");
    }
  }
  if (!saw_end || !saw_digest) {
    throw std::runtime_error("snapshot: truncated (missing digest/end)");
  }
  return snap;
}

Snapshot Snapshot::load(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("snapshot: cannot open '" + path + "'");
  return read(f);
}

}  // namespace sensrep::service
