#include "obs/tracer.hpp"

#include <algorithm>
#include <array>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <ostream>

namespace sensrep::obs {

namespace {

std::string fmt(const char* format, ...) {
  char buf[256];
  std::va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof buf, format, args);
  va_end(args);
  return buf;
}

}  // namespace

std::string_view to_string(Stage s) noexcept {
  switch (s) {
    case Stage::kDetect: return "detect";
    case Stage::kReport: return "report";
    case Stage::kDispatch: return "dispatch";
    case Stage::kQueue: return "queue";
    case Stage::kTravel: return "travel";
    case Stage::kOrphan: return "orphan";
    case Stage::kRepair: return "repair";
    case Stage::kCount: break;
  }
  return "?";
}

void Tracer::open(std::uint64_t trace_id, Stage stage, sim::SimTime t, std::uint32_t node,
                  std::optional<std::uint32_t> actor) {
  const auto k = key(trace_id, stage);
  if (open_.contains(k)) {
    ++duplicate_opens_;
    return;
  }
  open_.emplace(k, spans_.size());
  Span s;
  s.trace_id = trace_id;
  s.stage = stage;
  s.node = node;
  s.actor = actor;
  s.start = t;
  spans_.push_back(s);
}

bool Tracer::close_impl(std::uint64_t trace_id, Stage stage, sim::SimTime t,
                        const std::optional<double>& value,
                        const std::optional<std::uint32_t>& actor) {
  const auto it = open_.find(key(trace_id, stage));
  if (it == open_.end()) return false;
  Span& s = spans_[it->second];
  s.end = t;
  if (value) s.value = value;
  if (actor) s.actor = actor;
  open_.erase(it);
  ++closed_;
  return true;
}

void Tracer::close(std::uint64_t trace_id, Stage stage, sim::SimTime t,
                   std::optional<double> value, std::optional<std::uint32_t> actor) {
  if (!close_impl(trace_id, stage, t, value, actor)) ++stray_closes_;
}

void Tracer::close_if_open(std::uint64_t trace_id, Stage stage, sim::SimTime t,
                           std::optional<double> value,
                           std::optional<std::uint32_t> actor) {
  close_impl(trace_id, stage, t, value, actor);
}

void Tracer::close_root(std::uint64_t trace_id, sim::SimTime t,
                        std::optional<std::uint32_t> actor) {
  const auto it = open_.find(key(trace_id, Stage::kRepair));
  std::optional<double> latency;
  if (it != open_.end()) latency = t - spans_[it->second].start;
  close(trace_id, Stage::kRepair, t, latency, actor);
}

bool Tracer::is_open(std::uint64_t trace_id, Stage stage) const {
  return open_.contains(key(trace_id, stage));
}

std::vector<Span> Tracer::spans_of(std::uint64_t trace_id) const {
  std::vector<Span> out;
  for (const Span& s : spans_) {
    if (s.trace_id == trace_id) out.push_back(s);
  }
  return out;
}

std::vector<double> Tracer::stage_durations(Stage stage) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.stage == stage && s.closed()) out.push_back(s.duration());
  }
  return out;
}

bool Tracer::has_complete_chain(std::uint64_t trace_id) const {
  constexpr std::array kRequired{Stage::kDetect, Stage::kReport, Stage::kDispatch,
                                 Stage::kQueue, Stage::kTravel, Stage::kRepair};
  std::array<bool, static_cast<std::size_t>(Stage::kCount)> seen{};
  for (const Span& s : spans_) {
    if (s.trace_id == trace_id && s.closed()) {
      seen[static_cast<std::size_t>(s.stage)] = true;
    }
  }
  return std::all_of(kRequired.begin(), kRequired.end(), [&seen](Stage st) {
    return seen[static_cast<std::size_t>(st)];
  });
}

void Tracer::write_jsonl(std::ostream& out) const {
  for (const Span& s : spans_) {
    out << fmt(R"({"trace":%llu,"stage":"%s","node":%u)",
               static_cast<unsigned long long>(s.trace_id),
               std::string(to_string(s.stage)).c_str(), s.node);
    if (s.actor) out << fmt(R"(,"actor":%u)", *s.actor);
    out << fmt(R"(,"start":%.3f)", s.start);
    if (s.closed()) {
      out << fmt(R"(,"end":%.3f,"dur":%.3f)", s.end, s.duration());
    } else {
      out << R"(,"open":true)";
    }
    if (s.value) out << fmt(R"(,"value":%.3f)", *s.value);
    out << "}\n";
  }
}

bool Tracer::save_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write_jsonl(f);
  return static_cast<bool>(f);
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    if (!first) out << ",";
    first = false;
    out << "\n";
    // Sim seconds -> trace microseconds; one virtual thread per trace id so
    // each failure renders as its own track in Perfetto.
    const double ts_us = s.start * 1e6;
    out << fmt(R"({"name":"%s","cat":"repair","pid":1,"tid":%llu,"ts":%.0f)",
               std::string(to_string(s.stage)).c_str(),
               static_cast<unsigned long long>(s.trace_id), ts_us);
    if (s.closed()) {
      out << fmt(R"(,"ph":"X","dur":%.0f)", s.duration() * 1e6);
    } else {
      out << R"(,"ph":"B")";
    }
    out << fmt(R"(,"args":{"trace":%llu,"node":%u)",
               static_cast<unsigned long long>(s.trace_id), s.node);
    if (s.actor) out << fmt(R"(,"actor":%u)", *s.actor);
    if (s.value) out << fmt(R"(,"value":%.3f)", *s.value);
    if (!s.closed()) out << R"(,"open":true)";
    out << "}}";
  }
  // displayTimeUnit keeps Perfetto's ruler in milliseconds of sim time.
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

bool Tracer::save_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write_chrome_trace(f);
  return static_cast<bool>(f);
}

void Tracer::compact(sim::SimTime before) {
  std::vector<Span> kept;
  kept.reserve(spans_.size());
  for (const Span& s : spans_) {
    if (!s.closed() || s.end >= before) kept.push_back(s);
  }
  const std::size_t removed = spans_.size() - kept.size();
  if (removed == 0) return;
  spans_ = std::move(kept);
  // Only closed spans were dropped, so every open_ entry survives — but its
  // index into spans_ shifted. Rebuild the map from the retained spans.
  open_.clear();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (!spans_[i].closed()) open_.emplace(key(spans_[i].trace_id, spans_[i].stage), i);
  }
  closed_ -= removed;
  retired_ += removed;
}

void Tracer::clear() {
  spans_.clear();
  open_.clear();
  closed_ = 0;
  duplicate_opens_ = 0;
  stray_closes_ = 0;
}

}  // namespace sensrep::obs
