#include "obs/domain.hpp"

#include "obs/event_log.hpp"
#include "obs/tracer.hpp"

namespace sensrep::obs {

namespace {

/// The kind's stage transitions. close_if_open is for stages a fault path or
/// a duplicate dispatch may already have closed.
void apply_spans(Tracer& t, const Event& e) {
  const std::uint64_t id = e.failure_id;
  const sim::SimTime at = e.time;
  switch (e.kind) {
    case Kind::kFailure:
      t.open(id, Stage::kRepair, at, e.node);  // root span
      t.open(id, Stage::kDetect, at, e.node);
      break;
    case Kind::kDetection:
      t.close(id, Stage::kDetect, at, e.value);
      t.open(id, Stage::kReport, at, e.node);
      break;
    case Kind::kReport:
      t.close(id, Stage::kReport, at, e.value, e.actor);
      t.open(id, Stage::kDispatch, at, e.node);
      break;
    case Kind::kTaskQueued:
      // A re-report re-dispatches an already-accepted failure (dispatch long
      // closed), and only fault recovery has an orphan span to resolve.
      t.close_if_open(id, Stage::kDispatch, at, std::nullopt, e.actor);
      t.close_if_open(id, Stage::kOrphan, at, std::nullopt, e.actor);
      t.open(id, Stage::kQueue, at, e.node, e.actor);
      break;
    case Kind::kTaskStarted:
      t.close_if_open(id, Stage::kQueue, at, std::nullopt, e.actor);
      t.open(id, Stage::kTravel, at, e.node, e.actor);
      break;
    case Kind::kTaskOrphaned:
      t.close_if_open(id, Stage::kQueue, at, std::nullopt, e.actor);
      t.open(id, Stage::kOrphan, at, e.node, e.actor);
      break;
    case Kind::kTaskStranded:
      t.close_if_open(id, Stage::kTravel, at, e.value, e.actor);
      t.open(id, Stage::kOrphan, at, e.node, e.actor);
      break;
    case Kind::kTaskArrived:
      t.close_if_open(id, Stage::kTravel, at, e.value, e.actor);
      break;
    case Kind::kReplacement:
      // Stages the normal path already closed are no-ops here; this sweeps
      // up whatever fault recovery left open before sealing the root span.
      for (const Stage s : {Stage::kDetect, Stage::kReport, Stage::kDispatch,
                            Stage::kQueue, Stage::kTravel, Stage::kOrphan}) {
        t.close_if_open(id, s, at);
      }
      t.close_root(id, at, e.actor);
      break;
    default:
      break;
  }
}

}  // namespace

void EventHook::deliver(const Event& e) {
  const KindRow& r = row(e.kind);
  if (r.counter != kNoCounter) counters_->inc(r.counter);
  if ((r.sinks & kToFlight) != 0) {
    FlightRecorder::note(e.time, e.kind, e.node, e.actor.value_or(0));
  }
  if ((r.sinks & kToLog) != 0 && log_ != nullptr) log_->record(e);
  if ((r.sinks & kToSpans) != 0 && tracer_ != nullptr && e.failure_id != 0) {
    apply_spans(*tracer_, e);
  }
}

}  // namespace sensrep::obs
