#include "sim/simulator.hpp"

namespace sensrep::sim {

std::uint64_t Simulator::run_until(SimTime horizon) {
  const std::uint64_t n = run(horizon, UINT64_MAX);
  if (now_ < horizon && !stop_requested_ && !interrupted_) now_ = horizon;
  return n;
}

std::uint64_t Simulator::run(SimTime horizon, std::uint64_t limit) {
  std::uint64_t n = 0;
  stop_requested_ = false;
  interrupted_ = false;
  while (n < limit && !stop_requested_) {
    auto ev = queue_.pop_due(horizon);
    if (!ev) break;
    now_ = ev->time;
    ev->callback();
    counters_.inc(obs::Counter::kEventsExecuted);
    ++n;
    if (interrupt_ && n % interrupt_stride_ == 0 && interrupt_()) {
      interrupted_ = true;
      break;
    }
  }
  return n;
}

}  // namespace sensrep::sim
