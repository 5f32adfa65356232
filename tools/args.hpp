#pragma once

// Minimal command-line flag parser for the sensrep tools.
//
// Supports "--name=value", "--name value" and boolean "--name" forms, plus
// positional arguments. Unknown flags are an error (typos should not be
// silently ignored in an experiment driver).

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "chaos/link_model.hpp"
#include "trace/log.hpp"

namespace sensrep::tools {

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg.erase(0, 2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        flags_[arg.substr(0, eq)] = arg.substr(eq + 1);
        continue;
      }
      // "--name value" when the next token is not itself a flag; otherwise a
      // boolean "--name".
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        flags_[arg] = argv[++i];
      } else {
        flags_[arg] = "";
      }
    }
  }

  /// Declares a flag as known; returns its raw value if present.
  std::optional<std::string> get(const std::string& name) {
    known_.push_back(name);
    auto it = flags_.find(name);
    if (it == flags_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] bool has(const std::string& name) { return get(name).has_value(); }

  std::string get_string(const std::string& name, std::string fallback) {
    const auto v = get(name);
    return v ? *v : std::move(fallback);
  }

  /// The whole value must parse: "100s" is an error, not 100.
  double get_double(const std::string& name, double fallback) {
    const auto v = get(name);
    if (!v) return fallback;
    try {
      std::size_t used = 0;
      const double d = std::stod(*v, &used);
      if (used != v->size()) throw std::invalid_argument(*v);
      return d;
    } catch (const std::exception&) {
      throw std::invalid_argument("--" + name + ": expected a number, got '" + *v + "'");
    }
  }

  /// get_double with range validation: throws unless lo <= value <= hi.
  /// "inf" (any case handled by std::stod) is accepted when hi is infinite —
  /// used by flags like --robot-mtbf where infinity means "disabled".
  double get_double_in(const std::string& name, double fallback, double lo, double hi) {
    const double v = get_double(name, fallback);
    if (!(v >= lo) || !(v <= hi)) {  // negated compares also reject NaN
      throw std::invalid_argument("--" + name + ": value " + std::to_string(v) +
                                  " out of range [" + std::to_string(lo) + ", " +
                                  std::to_string(hi) + "]");
    }
    return v;
  }

  /// The whole value must be decimal digits: "4x" and "-1" are errors
  /// (std::stoull alone would read 4 and wrap -1 to 2^64-1).
  std::uint64_t get_u64(const std::string& name, std::uint64_t fallback) {
    const auto v = get(name);
    if (!v) return fallback;
    try {
      if (v->empty() || (*v)[0] < '0' || (*v)[0] > '9') throw std::invalid_argument(*v);
      std::size_t used = 0;
      const std::uint64_t u = std::stoull(*v, &used);
      if (used != v->size()) throw std::invalid_argument(*v);
      return u;
    } catch (const std::exception&) {
      throw std::invalid_argument("--" + name + ": expected a non-negative integer, got '" +
                                  *v + "'");
    }
  }

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  /// Throws if the command line named any flag never declared via get()/has().
  void reject_unknown() const {
    for (const auto& [name, value] : flags_) {
      bool ok = false;
      for (const auto& k : known_) ok = ok || k == name;
      if (!ok) throw std::invalid_argument("unknown flag --" + name);
    }
  }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
  std::vector<std::string> known_;
};

/// Parses a comma-separated list of doubles ("0.2,0.5,0.9"). Validates the
/// element count against [min_items, max_items] so flags packing several
/// parameters into one value (--chaos-burst=pEnter,pExit,lossBad) reject
/// malformed input with the flag name in the message.
inline std::vector<double> parse_double_list(const std::string& flag, const std::string& s,
                                             std::size_t min_items, std::size_t max_items) {
  std::vector<double> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    auto end = s.find(',', start);
    if (end == std::string::npos) end = s.size();
    const std::string item = s.substr(start, end - start);
    try {
      std::size_t used = 0;
      out.push_back(std::stod(item, &used));
      if (used != item.size()) throw std::invalid_argument(item);
    } catch (const std::exception&) {
      throw std::invalid_argument("--" + flag + ": expected a number, got '" + item + "'");
    }
    start = end + 1;
  }
  if (out.size() < min_items || out.size() > max_items) {
    throw std::invalid_argument("--" + flag + ": expected between " +
                                std::to_string(min_items) + " and " +
                                std::to_string(max_items) + " comma-separated values, got " +
                                std::to_string(out.size()));
  }
  return out;
}

/// Rejects fault-injection event times at or past the run's end: a crash or
/// repair scheduled at t >= duration silently never fires, which makes fault
/// experiments easy to misconfigure (the run looks fault-free). `flag` names
/// the offending option in the error message.
inline void validate_crash_times(const std::string& flag, const std::vector<double>& times,
                                 double duration) {
  for (const double t : times) {
    if (t >= duration) {
      throw std::invalid_argument("--" + flag + ": event time " + std::to_string(t) +
                                  " is at or past --duration " + std::to_string(duration) +
                                  " and would never fire");
    }
  }
}

/// The --chaos-* flag family, shared by sensrep_cli and sensrep_sweep:
///
///   --chaos-burst=pEnter,pExit,lossBad[,lossGood]  Gilbert-Elliott bursty loss
///   --chaos-dup=P[,extraDelay]   duplicate a delivered reception with prob. P
///   --chaos-jitter=P,maxExtra    extra uniform(0,maxExtra) delay with prob. P
///   --chaos-partition=t0,t1[,x0,y0,x1,y1]  jam window [t0,t1); with the four
///                                coordinates only nodes inside the rect are
///                                jammed, without them the blackout is global
///
/// Values are range-validated by chaos::ChaosConfig::validate() when the
/// Medium is constructed; this helper only parses shape.
inline void apply_chaos_flags(Args& args, chaos::ChaosConfig& chaos) {
  if (const auto v = args.get("chaos-burst")) {
    const auto p = parse_double_list("chaos-burst", *v, 3, 4);
    chaos.burst.enabled = true;
    chaos.burst.p_enter_bad = p[0];
    chaos.burst.p_exit_bad = p[1];
    chaos.burst.loss_bad = p[2];
    if (p.size() > 3) chaos.burst.loss_good = p[3];
  }
  if (const auto v = args.get("chaos-dup")) {
    const auto p = parse_double_list("chaos-dup", *v, 1, 2);
    chaos.duplication.enabled = true;
    chaos.duplication.probability = p[0];
    if (p.size() > 1) chaos.duplication.extra_delay_s = p[1];
  }
  if (const auto v = args.get("chaos-jitter")) {
    const auto p = parse_double_list("chaos-jitter", *v, 2, 2);
    chaos.jitter.enabled = true;
    chaos.jitter.probability = p[0];
    chaos.jitter.max_extra_s = p[1];
  }
  if (const auto v = args.get("chaos-partition")) {
    const auto p = parse_double_list("chaos-partition", *v, 2, 6);
    if (p.size() != 2 && p.size() != 6) {
      throw std::invalid_argument(
          "--chaos-partition: expected t0,t1 or t0,t1,x0,y0,x1,y1");
    }
    chaos::PartitionWindow window;
    window.start_s = p[0];
    window.end_s = p[1];
    if (p.size() == 6) {
      window.has_zone = true;
      window.zone_min = {p[2], p[3]};
      window.zone_max = {p[4], p[5]};
    }
    chaos.partitions.push_back(window);
  }
}

/// Maps a --log-level value onto the global logger threshold.
inline trace::Level parse_log_level(const std::string& s) {
  if (s == "off") return trace::Level::kOff;
  if (s == "trace") return trace::Level::kTrace;
  if (s == "debug") return trace::Level::kDebug;
  if (s == "info") return trace::Level::kInfo;
  if (s == "warn") return trace::Level::kWarn;
  if (s == "error") return trace::Level::kError;
  throw std::invalid_argument("--log-level: expected off|debug|info|warn|error, got " + s);
}

}  // namespace sensrep::tools
