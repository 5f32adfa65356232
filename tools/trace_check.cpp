// trace_check — structural validator for the observability artifacts the
// simulator emits, used by CI to keep the formats loadable:
//
//   trace_check --chrome=trace.json    Chrome trace_event JSON (obs::Tracer)
//   trace_check --spans=spans.jsonl    span JSON lines (obs::Tracer)
//   trace_check --events=events.jsonl  event-log JSON lines (obs::EventLog)
//   trace_check --flightrec=dump.jsonl flight-recorder dump: consecutive seq
//                                      (both: every kind is a domain kind)
//   trace_check --telemetry=t.jsonl    telemetry JSON lines (service daemon):
//                                      required keys, strictly increasing t,
//                                      no duplicate top-level keys
//   trace_check --prometheus=a[,b,...] Prometheus text exposition (the
//                                      /metrics endpoint or --metrics-out):
//                                      every sample has a # TYPE, label
//                                      values are escaped, histogram buckets
//                                      are cumulative with +Inf == _count;
//                                      with 2+ files (successive scrapes),
//                                      counters must be monotone across them
//   trace_check --influx=lines.txt     InfluxDB line protocol
//                                      (--metrics-influx / --influx-out):
//                                      measurement,tag=v value=Ni <ts>
//                                      shape with non-decreasing timestamps
//
// Any number of the flags may be combined. Exit 0 when every file checks
// out, 1 on a format violation, 2 on usage/IO errors. The checks are
// structural (balanced JSON, required keys, span accounting), not a full
// JSON parse — the goal is catching a broken emitter, not linting.

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/domain.hpp"
#include "tools/args.hpp"

namespace {

/// True when every {, [, " in `s` is balanced/closed (string-aware).
bool balanced_json(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : s) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = in_string;
      continue;
    }
    if (c == '"') {
      in_string = !in_string;
      continue;
    }
    if (in_string) continue;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

bool fail(const std::string& file, std::size_t line, const std::string& why) {
  std::cerr << "trace_check: " << file;
  if (line != 0) std::cerr << ":" << line;
  std::cerr << ": " << why << "\n";
  return false;
}

/// The raw value text of top-level `"key":` in a one-line JSON object (up
/// to the next ',' or '}'; quotes kept), or "" when the key is absent.
std::string raw_value(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto at = line.find(needle);
  if (at == std::string::npos) return "";
  const auto start = at + needle.size();
  return line.substr(start, line.find_first_of(",}", start) - start);
}

/// "kind" must name a row of the domain-event table (obs/domain.hpp).
std::string known_kind(const std::string& line) {
  const std::string kind = raw_value(line, "kind");
  for (const auto& row : sensrep::obs::kKinds) {
    if (kind == "\"" + std::string(row.name) + "\"") return "";
  }
  return "unknown kind " + kind;
}

/// One JSON object per line, each containing every key in `required` and
/// passing `check` (which returns an error message, or "" when fine).
bool check_jsonl(const std::string& path, const std::vector<std::string>& required,
                 const char* what,
                 const std::function<std::string(const std::string&)>& check = {}) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "trace_check: cannot open " << path << "\n";
    std::exit(2);
  }
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    ++n;
    if (line.empty()) continue;
    if (line.front() != '{' || line.back() != '}') {
      return fail(path, n, "line is not a JSON object");
    }
    if (!balanced_json(line)) return fail(path, n, "unbalanced JSON");
    for (const auto& key : required) {
      if (line.find("\"" + key + "\":") == std::string::npos) {
        return fail(path, n, "missing key \"" + key + "\"");
      }
    }
    if (check) {
      const std::string why = check(line);
      if (!why.empty()) return fail(path, n, why);
    }
  }
  if (n == 0) return fail(path, 0, "empty file");
  std::cout << path << ": " << n << " " << what << " lines OK\n";
  return true;
}

/// Flight-recorder dump: known kinds, and `seq` consecutive line over line
/// (the ring dumps its retained tail oldest-first without gaps).
bool check_flightrec(const std::string& path) {
  std::optional<unsigned long long> prev;
  const auto check = [&prev](const std::string& line) -> std::string {
    const std::string seq = raw_value(line, "seq");
    char* end = nullptr;
    const auto cur = std::strtoull(seq.c_str(), &end, 10);
    if (seq.empty() || *end != '\0') return "seq is not an integer";
    if (prev && cur != *prev + 1) {
      return "seq " + seq + " does not follow " + std::to_string(*prev);
    }
    prev = cur;
    return known_kind(line);
  };
  return check_jsonl(path, {"seq", "t", "kind", "a", "b"}, "flight-record", check);
}

/// Chrome trace_event JSON: {"traceEvents":[...]} with complete ("X", has
/// dur) or begin ("B", flagged open) events carrying name/pid/tid/ts.
bool check_chrome(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "trace_check: cannot open " << path << "\n";
    std::exit(2);
  }
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string all = buf.str();
  if (all.find("{\"traceEvents\":[") != 0) {
    return fail(path, 0, "missing {\"traceEvents\":[ envelope");
  }
  if (!balanced_json(all)) return fail(path, 0, "unbalanced JSON");

  std::istringstream lines(all);
  std::string line;
  std::size_t events = 0, complete = 0, open = 0;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ++n;
    if (line.rfind("{\"name\":", 0) != 0) continue;  // envelope lines
    ++events;
    for (const char* key : {"\"name\":", "\"pid\":", "\"tid\":", "\"ts\":", "\"ph\":"}) {
      if (line.find(key) == std::string::npos) {
        return fail(path, n, std::string("event missing ") + key);
      }
    }
    if (line.find("\"ph\":\"X\"") != std::string::npos) {
      ++complete;
      if (line.find("\"dur\":") == std::string::npos) {
        return fail(path, n, "complete event without dur");
      }
    } else if (line.find("\"ph\":\"B\"") != std::string::npos) {
      ++open;
      if (line.find("\"open\":true") == std::string::npos) {
        return fail(path, n, "begin event not flagged open");
      }
    } else {
      return fail(path, n, "event phase is neither X nor B");
    }
  }
  if (events == 0) return fail(path, 0, "no trace events");
  std::cout << path << ": " << events << " events (" << complete << " complete, " << open
            << " open) OK\n";
  return true;
}

/// Top-level keys of a one-line JSON object, in order. Assumes balanced
/// input (checked beforehand); nested objects' keys are skipped.
std::vector<std::string> top_level_keys(const std::string& line) {
  std::vector<std::string> keys;
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  bool expecting_key = false;
  std::string current;
  for (const char c : line) {
    if (escaped) {
      escaped = false;
      if (in_string) current += c;
      continue;
    }
    if (c == '\\') {
      escaped = in_string;
      continue;
    }
    if (c == '"') {
      if (!in_string) {
        in_string = true;
        current.clear();
      } else {
        in_string = false;
        if (depth == 1 && expecting_key) {
          keys.push_back(current);
          expecting_key = false;
        }
      }
      continue;
    }
    if (in_string) {
      current += c;
      continue;
    }
    if (c == '{' || c == '[') {
      ++depth;
      if (depth == 1) expecting_key = true;
      continue;
    }
    if (c == '}' || c == ']') {
      --depth;
      continue;
    }
    if (c == ',' && depth == 1) expecting_key = true;
  }
  return keys;
}

/// Telemetry JSONL from the service daemon: every line a JSON object with
/// the core sample keys, `t` strictly increasing line over line (the stream
/// samples a monotone virtual clock), and no duplicate top-level keys (a
/// duplicate means the emitter printed a field twice — last-wins parsers
/// would mask it).
bool check_telemetry(const std::string& path) {
  std::optional<double> last_t;
  const auto check = [&last_t](const std::string& line) -> std::string {
    const auto keys = top_level_keys(line);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      for (std::size_t j = i + 1; j < keys.size(); ++j) {
        if (keys[i] == keys[j]) return "duplicate top-level key \"" + keys[i] + "\"";
      }
    }
    const double t = std::strtod(raw_value(line, "t").c_str(), nullptr);
    if (last_t && !(t > *last_t)) {
      return "t did not increase (" + std::to_string(t) + " after " +
             std::to_string(*last_t) + ")";
    }
    last_t = t;
    return "";
  };
  return check_jsonl(path, {"t", "failures", "repaired", "pending", "live_robots"},
                     "telemetry", check);
}

bool valid_metric_name(const std::string& s) {
  if (s.empty()) return false;
  if (std::isalpha(static_cast<unsigned char>(s[0])) == 0 && s[0] != '_' && s[0] != ':') {
    return false;
  }
  for (const char c : s) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0 && c != '_' && c != ':') {
      return false;
    }
  }
  return true;
}

/// Parses `{k="v",...}` starting at `i` (the '{'). Advances `i` past the
/// closing '}'. Only \\, \", and \n escapes are legal inside label values
/// (the Prometheus text-format escaping rules).
bool parse_labels(const std::string& line, std::size_t& i, std::string* why) {
  ++i;  // consume '{'
  while (i < line.size() && line[i] != '}') {
    std::size_t name_start = i;
    while (i < line.size() && line[i] != '=') ++i;
    const std::string label = line.substr(name_start, i - name_start);
    if (!valid_metric_name(label)) {
      *why = "bad label name '" + label + "'";
      return false;
    }
    if (i + 1 >= line.size() || line[i + 1] != '"') {
      *why = "label '" + label + "' value is not quoted";
      return false;
    }
    i += 2;  // past ="
    while (i < line.size() && line[i] != '"') {
      if (line[i] == '\\') {
        if (i + 1 >= line.size() ||
            (line[i + 1] != '\\' && line[i + 1] != '"' && line[i + 1] != 'n')) {
          *why = "illegal escape in label '" + label + "'";
          return false;
        }
        ++i;
      }
      ++i;
    }
    if (i >= line.size()) {
      *why = "unterminated label value for '" + label + "'";
      return false;
    }
    ++i;  // closing quote
    if (i < line.size() && line[i] == ',') ++i;
  }
  if (i >= line.size()) {
    *why = "unterminated label set";
    return false;
  }
  ++i;  // consume '}'
  return true;
}

/// Prometheus text exposition. Validates one scrape and appends its
/// counter-typed samples (full series key -> value) to `counters` for the
/// cross-scrape monotonicity check.
bool check_prometheus(const std::string& path,
                      std::map<std::string, double>* counters) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "trace_check: cannot open " << path << "\n";
    std::exit(2);
  }
  std::map<std::string, std::string> types;  // metric family -> type
  // Histogram bucket accounting: family -> (cumulative check state).
  std::map<std::string, double> last_bucket;     // family -> last le value seen
  std::map<std::string, double> inf_bucket;      // family -> +Inf bucket value
  std::map<std::string, double> hist_count;      // family -> _count value
  std::string line;
  std::size_t n = 0, samples = 0;
  while (std::getline(in, line)) {
    ++n;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream meta(line);
      std::string hash, kind, name, rest;
      meta >> hash >> kind >> name;
      if (kind == "TYPE") {
        meta >> rest;
        if (rest != "counter" && rest != "gauge" && rest != "histogram" &&
            rest != "summary" && rest != "untyped") {
          return fail(path, n, "unknown TYPE '" + rest + "'");
        }
        types[name] = rest;
      } else if (kind != "HELP") {
        return fail(path, n, "unknown comment '# " + kind + "'");
      }
      continue;
    }
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    const std::string name = line.substr(0, i);
    if (!valid_metric_name(name)) return fail(path, n, "bad metric name '" + name + "'");
    std::string labels;
    if (i < line.size() && line[i] == '{') {
      const std::size_t label_start = i;
      std::string why;
      if (!parse_labels(line, i, &why)) return fail(path, n, why);
      labels = line.substr(label_start, i - label_start);
    }
    if (i >= line.size() || line[i] != ' ') {
      return fail(path, n, "missing value separator");
    }
    const char* value_text = line.c_str() + i + 1;
    char* end = nullptr;
    const double value = std::strtod(value_text, &end);
    if (end == value_text || *end != '\0') {
      return fail(path, n, "bad sample value '" + std::string(value_text) + "'");
    }
    ++samples;
    // Resolve the declaring family: histogram samples append _bucket/_sum/
    // _count to the family name declared by # TYPE.
    std::string family = name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s(suffix);
      if (!types.contains(family) && name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0 &&
          types.contains(name.substr(0, name.size() - s.size()))) {
        family = name.substr(0, name.size() - s.size());
      }
    }
    const auto type_it = types.find(family);
    if (type_it == types.end()) {
      return fail(path, n, "sample '" + name + "' has no preceding # TYPE");
    }
    const std::string& type = type_it->second;
    if (name.size() >= 6 && name.compare(name.size() - 6, 6, "_total") == 0 &&
        type != "counter") {
      return fail(path, n, "'" + name + "' ends in _total but TYPE is " + type);
    }
    if (type == "counter") {
      if (value < 0) return fail(path, n, "counter '" + name + "' is negative");
      (*counters)[name + labels] = value;
    }
    if (type == "histogram" && name == family + "_bucket") {
      const auto le_at = labels.find("le=\"");
      if (le_at == std::string::npos) {
        return fail(path, n, "histogram bucket without le label");
      }
      const std::string le = labels.substr(le_at + 4, labels.find('"', le_at + 4) -
                                                          (le_at + 4));
      if (le == "+Inf") {
        inf_bucket[family] = value;
      } else if (last_bucket.contains(family) && value < last_bucket[family]) {
        return fail(path, n, "histogram '" + family + "' buckets not cumulative");
      }
      last_bucket[family] = value;
    }
    if (type == "histogram" && name == family + "_count") hist_count[family] = value;
  }
  for (const auto& [family, count] : hist_count) {
    if (!inf_bucket.contains(family)) {
      return fail(path, 0, "histogram '" + family + "' has no +Inf bucket");
    }
    if (inf_bucket[family] != count) {
      return fail(path, 0, "histogram '" + family + "' +Inf bucket != _count");
    }
  }
  if (samples == 0) return fail(path, 0, "no samples");
  std::cout << path << ": " << samples << " Prometheus samples OK\n";
  return true;
}

/// InfluxDB line protocol: `measurement[,tag=v...] field=value[,...] <ts>`
/// with integer timestamps that never decrease (successive virtual-clock
/// batches append in time order).
bool check_influx(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "trace_check: cannot open " << path << "\n";
    std::exit(2);
  }
  std::string line;
  std::size_t n = 0, samples = 0;
  long long last_ts = 0;
  bool have_ts = false;
  while (std::getline(in, line)) {
    ++n;
    if (line.empty()) continue;
    const auto first_space = line.find(' ');
    const auto second_space =
        first_space == std::string::npos ? std::string::npos
                                         : line.find(' ', first_space + 1);
    if (first_space == std::string::npos || second_space == std::string::npos) {
      return fail(path, n, "expected 'series fields timestamp'");
    }
    const std::string series = line.substr(0, first_space);
    const std::string fields = line.substr(first_space + 1, second_space - first_space - 1);
    const std::string ts_text = line.substr(second_space + 1);
    // Series: measurement, then ,k=v tag pairs with non-empty halves.
    std::size_t start = 0;
    bool first = true;
    while (start <= series.size()) {
      auto end = series.find(',', start);
      if (end == std::string::npos) end = series.size();
      const std::string part = series.substr(start, end - start);
      if (part.empty()) return fail(path, n, "empty series component");
      if (!first) {
        const auto eq = part.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == part.size()) {
          return fail(path, n, "bad tag '" + part + "'");
        }
      }
      first = false;
      if (end == series.size()) break;
      start = end + 1;
    }
    // Fields: k=v pairs; integer values carry the `i` suffix.
    start = 0;
    while (start <= fields.size()) {
      auto end = fields.find(',', start);
      if (end == std::string::npos) end = fields.size();
      std::string part = fields.substr(start, end - start);
      const auto eq = part.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == part.size()) {
        return fail(path, n, "bad field '" + part + "'");
      }
      std::string value = part.substr(eq + 1);
      if (value.back() == 'i') value.pop_back();
      char* endp = nullptr;
      (void)std::strtod(value.c_str(), &endp);
      if (endp == value.c_str() || *endp != '\0') {
        return fail(path, n, "bad field value '" + part + "'");
      }
      if (end == fields.size()) break;
      start = end + 1;
    }
    char* endp = nullptr;
    const long long ts = std::strtoll(ts_text.c_str(), &endp, 10);
    if (endp == ts_text.c_str() || *endp != '\0') {
      return fail(path, n, "bad timestamp '" + ts_text + "'");
    }
    if (have_ts && ts < last_ts) {
      return fail(path, n, "timestamp went backwards");
    }
    last_ts = ts;
    have_ts = true;
    ++samples;
  }
  if (samples == 0) return fail(path, 0, "empty file");
  std::cout << path << ": " << samples << " influx lines OK\n";
  return true;
}

/// Splits a comma-separated file list.
std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    auto end = s.find(',', start);
    if (end == std::string::npos) end = s.size();
    if (end > start) out.push_back(s.substr(start, end - start));
    if (end == s.size()) break;
    start = end + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    sensrep::tools::Args args(argc, argv);
    const auto chrome = args.get_string("chrome", "");
    const auto spans = args.get_string("spans", "");
    const auto events = args.get_string("events", "");
    const auto telemetry = args.get_string("telemetry", "");
    const auto prometheus = args.get_string("prometheus", "");
    const auto influx = args.get_string("influx", "");
    const auto flightrec = args.get_string("flightrec", "");
    args.reject_unknown();
    if (chrome.empty() && spans.empty() && events.empty() && telemetry.empty() &&
        prometheus.empty() && influx.empty() && flightrec.empty()) {
      std::cerr << "usage: trace_check [--chrome=trace.json] [--spans=spans.jsonl] "
                   "[--events=events.jsonl] [--telemetry=telemetry.jsonl] "
                   "[--prometheus=scrape1[,scrape2,...]] [--influx=lines.txt] "
                   "[--flightrec=flight.jsonl]\n";
      return 2;
    }
    bool ok = true;
    if (!chrome.empty()) ok = check_chrome(chrome) && ok;
    if (!spans.empty()) {
      ok = check_jsonl(spans, {"trace", "stage", "node", "start"}, "span") && ok;
    }
    if (!events.empty()) {
      ok = check_jsonl(events, {"t", "kind", "node"}, "event", known_kind) && ok;
    }
    if (!flightrec.empty()) ok = check_flightrec(flightrec) && ok;
    if (!telemetry.empty()) ok = check_telemetry(telemetry) && ok;
    if (!prometheus.empty()) {
      // Successive scrapes of one process: every counter series must be
      // monotone non-decreasing from scrape to scrape.
      std::map<std::string, double> prev;
      bool first = true;
      for (const std::string& scrape : split_list(prometheus)) {
        std::map<std::string, double> cur;
        ok = check_prometheus(scrape, &cur) && ok;
        if (!first) {
          for (const auto& [series, value] : prev) {
            const auto it = cur.find(series);
            if (it == cur.end()) {
              ok = fail(scrape, 0, "counter '" + series + "' vanished between scrapes");
            } else if (it->second < value) {
              ok = fail(scrape, 0, "counter '" + series + "' went backwards");
            }
          }
        }
        prev = std::move(cur);
        first = false;
      }
    }
    if (!influx.empty()) ok = check_influx(influx) && ok;
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "trace_check: " << e.what() << "\n";
    return 2;
  }
}
