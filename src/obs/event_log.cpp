#include "obs/event_log.hpp"

#include <fstream>
#include <ostream>

#include "trace/format.hpp"

namespace sensrep::obs {

using trace::strfmt;

std::vector<Event> EventLog::of_kind(Kind k) const {
  std::vector<Event> out;
  for (const Event& e : events_) {
    if (e.kind == k) out.push_back(e);
  }
  return out;
}

std::vector<Event> EventLog::about_node(std::uint32_t node) const {
  std::vector<Event> out;
  for (const Event& e : events_) {
    if (e.node == node) out.push_back(e);
  }
  return out;
}

std::string EventLog::to_json(const Event& e) {
  std::string json = strfmt(R"({"t":%.3f,"kind":"%s","node":%u)", e.time,
                            std::string(to_string(e.kind)).c_str(), e.node);
  if (e.actor) json += strfmt(R"(,"actor":%u)", *e.actor);
  if (e.location) json += strfmt(R"(,"x":%.2f,"y":%.2f)", e.location->x, e.location->y);
  if (e.value) json += strfmt(R"(,"value":%.3f)", *e.value);
  json += "}";
  return json;
}

void EventLog::write_jsonl(std::ostream& out) const {
  for (const Event& e : events_) out << to_json(e) << '\n';
}

bool EventLog::save_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write_jsonl(f);
  return static_cast<bool>(f);
}

}  // namespace sensrep::obs
