#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/domain.hpp"

namespace sensrep::obs {

/// Append-only, queryable event log with JSON-lines export.
///
/// The simulation pushes system events here (opt-in; see
/// Simulation::attach_event_log); examples and the CLI dump the log for
/// offline plotting, and tests assert on event sequences instead of poking
/// internals.
class EventLog {
 public:
  void record(const Event& e) { events_.push_back(e); }

  [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }
  [[nodiscard]] const std::vector<Event>& events() const noexcept { return events_; }

  /// Events of one kind, in record order.
  [[nodiscard]] std::vector<Event> of_kind(Kind k) const;

  /// Events concerning a node (as subject), in record order.
  [[nodiscard]] std::vector<Event> about_node(std::uint32_t node) const;

  /// Serializes one event as a single JSON object (no trailing newline).
  [[nodiscard]] static std::string to_json(const Event& e);

  /// Writes the whole log as JSON lines.
  void write_jsonl(std::ostream& out) const;

  /// Writes to a file; returns false on I/O failure.
  [[nodiscard]] bool save_jsonl(const std::string& path) const;

 private:
  std::vector<Event> events_;
};

}  // namespace sensrep::obs
