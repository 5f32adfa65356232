#include "obs/flight_recorder.hpp"

#include <cstdio>
#include <fstream>

#include "obs/domain.hpp"
#include "obs/metrics_registry.hpp"

namespace sensrep::obs {

std::atomic<bool> FlightRecorder::enabled_{false};
std::atomic<std::uint64_t> FlightRecorder::head_{0};
std::vector<FlightRecord> FlightRecorder::ring_;
std::size_t FlightRecorder::mask_ = 0;

void FlightRecorder::enable(std::size_t capacity) {
  std::size_t cap = 16;
  while (cap < capacity) cap <<= 1;
  if (ring_.size() != cap) {
    ring_.assign(cap, FlightRecord{});
    mask_ = cap - 1;
    head_.store(0, std::memory_order_relaxed);
  }
  enabled_.store(true, std::memory_order_relaxed);
}

void FlightRecorder::disable() noexcept {
  enabled_.store(false, std::memory_order_relaxed);
}

void FlightRecorder::reset() noexcept {
  head_.store(0, std::memory_order_relaxed);
  for (FlightRecord& r : ring_) r = FlightRecord{};
}

std::vector<FlightRecord> FlightRecorder::dump() {
  std::vector<FlightRecord> out;
  if (ring_.empty()) return out;
  const std::uint64_t head = head_.load(std::memory_order_relaxed);
  const std::uint64_t n = head < ring_.size() ? head : ring_.size();
  out.reserve(n);
  for (std::uint64_t i = head - n; i < head; ++i) {
    out.push_back(ring_[i & mask_]);
  }
  return out;
}

std::string FlightRecorder::dump_jsonl() {
  const std::vector<FlightRecord> records = dump();
  std::uint64_t seq = recorded() - records.size();
  std::string out;
  char line[192];
  for (const FlightRecord& r : records) {
    const std::string_view kind =
        r.kind < kKinds.size() ? kKinds[r.kind].name : std::string_view("?");
    std::snprintf(line, sizeof line,
                  "{\"seq\":%llu,\"t\":%.17g,\"kind\":\"%.*s\",\"a\":%u,\"b\":%u}\n",
                  static_cast<unsigned long long>(seq++), r.t,
                  static_cast<int>(kind.size()), kind.data(), r.a, r.b);
    out += line;
  }
  return out;
}

bool FlightRecorder::dump_to_file(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << dump_jsonl();
  out.flush();
  if (!out) return false;
  Metrics::inc(Counter::kFlightRecDumps);
  return true;
}

}  // namespace sensrep::obs
