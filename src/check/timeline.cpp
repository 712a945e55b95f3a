#include "check/timeline.hpp"

#include <map>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "check/causal_run.hpp"
#include "check/scenario.hpp"
#include "compose/kv.hpp"
#include "core/properties.hpp"

namespace ooc::check {
namespace {

// One rendered timeline entry.
struct Entry {
  Tick at = 0;
  ProcessId process = 0;
  /// Scheduler-level noise (deliveries, timers, oracle queries) — subject
  /// to the per-process cap; protocol entries and decisions always render.
  bool elidable = false;
  std::string text;
};

/// The lane entry of a scheduler event; nullopt for events that run no
/// process code (control actions, tick barriers, cancelled timers).
std::optional<Entry> eventEntry(const TraceEvent& event) {
  Entry entry;
  entry.at = event.at;
  entry.process = event.a;
  switch (event.kind) {
    case TraceEvent::Kind::kStart:
      entry.text = "start";
      break;
    case TraceEvent::Kind::kDeliver:
      entry.elidable = true;
      entry.text = "deliver from p" + std::to_string(event.b);
      break;
    case TraceEvent::Kind::kTimer:
      if (event.a == kNoTraceProcess) return std::nullopt;
      entry.elidable = true;
      entry.text = "timer " + std::to_string(event.aux) + " fired";
      break;
    case TraceEvent::Kind::kDecision:
      entry.text = "DECIDED " + std::to_string(static_cast<Value>(event.aux));
      break;
    case TraceEvent::Kind::kCrash:
      entry.text = "CRASHED (incarnation " + std::to_string(event.aux) +
                   " down, volatile state lost)";
      break;
    case TraceEvent::Kind::kRestart:
      entry.text = "RESTARTED (incarnation " + std::to_string(event.aux) + ")";
      break;
    case TraceEvent::Kind::kControl:
    case TraceEvent::Kind::kBarrier:
      return std::nullopt;
  }
  return entry;
}

/// The causal DAG flattened back into execution order: each node, then the
/// annotations that fired inside its handler.
std::vector<Entry> timelineEntries(const causal::CausalTrace& trace) {
  using causal::Annotation;
  std::vector<Entry> entries;
  /// Last suspected-state per (viewer, target), for transition entries.
  std::map<std::pair<ProcessId, ProcessId>, bool> suspicion;
  std::size_t next = 0;
  for (std::size_t node = 0; node < trace.nodes.size(); ++node) {
    if (auto entry = eventEntry(trace.nodes[node].event))
      entries.push_back(std::move(*entry));
    for (; next < trace.annotations.size() &&
           trace.annotations[next].node == node;
         ++next) {
      const Annotation& a = trace.annotations[next];
      Entry entry;
      entry.at = a.at;
      entry.process = a.process;
      switch (a.kind) {
        case Annotation::Kind::kDetector:
          entry.text = "detect[" + std::to_string(a.round) + "] -> " +
                       toString(a.confidence) + "(" +
                       std::to_string(a.value) + ")";
          entries.push_back(std::move(entry));
          break;
        case Annotation::Kind::kDriver:
          entry.text = "drive[" + std::to_string(a.round) + "] -> " +
                       std::to_string(a.value);
          entries.push_back(std::move(entry));
          break;
        case Annotation::Kind::kOracleQuery: {
          // Each coordinator query is scheduler-grade noise (elidable); the
          // *transitions* of the viewer's suspicion of the target are the
          // protocol-level story and always render.
          const bool suspected = a.value != 0;
          entry.elidable = true;
          entry.text = "oracle? p" + std::to_string(a.subject) + " -> " +
                       (suspected ? "suspected" : "trusted");
          entries.push_back(entry);
          bool& previous = suspicion[{a.process, a.subject}];  // trusted
          if (previous == suspected) break;
          previous = suspected;
          entry.elidable = false;
          entry.text = suspected ? "ORACLE suspects p" +
                                       std::to_string(a.subject)
                                 : "ORACLE trusts p" +
                                       std::to_string(a.subject) + " again";
          entries.push_back(std::move(entry));
          break;
        }
      }
    }
  }
  return entries;
}

}  // namespace

std::string renderTimeline(const CounterexampleFile& file,
                           const TimelineOptions& options) {
  const CausalRun run = collectCausalRun(file.scenario, &file.trace);
  const std::vector<Entry> entries = timelineEntries(run.trace);

  const std::string runId =
      file.runId.empty() ? compose::configRunId(serialize(file.scenario))
                         : file.runId;

  std::ostringstream os;
  os << "counterexample timeline  run-id=" << runId << "\n";
  os << "scenario:  " << describe(file.scenario) << "\n";
  os << "invariant: " << file.invariant << "\n";
  if (!file.detail.empty()) os << "detail:    " << file.detail << "\n";
  os << "replay:    "
     << (run.replayIdentical
             ? "bit-identical to recorded trace"
             : "DIVERGED from recorded trace (timeline reflects the "
               "re-execution)")
     << "\n";

  const std::size_t n = file.scenario.processCount();
  for (std::size_t p = 0; p < n; ++p) {
    os << "\np" << p << ":\n";
    // Entries are in execution order; a stable partition by process keeps
    // that order inside each lane.
    std::vector<const Entry*> lane;
    for (const Entry& entry : entries)
      if (entry.process == static_cast<ProcessId>(p)) lane.push_back(&entry);

    std::size_t elidableShown = 0;
    std::size_t elided = 0;
    for (const Entry* entry : lane) {
      if (entry->elidable) {
        // Filter first: an entry the view hides is not counted as elided.
        if (!options.showDeliveries &&
            entry->text.rfind("deliver", 0) == 0) {
          continue;
        }
        if (!options.showTimers && entry->text.rfind("timer", 0) == 0) {
          continue;
        }
        if (options.maxEventsPerProcess > 0 &&
            elidableShown >= options.maxEventsPerProcess) {
          ++elided;
          continue;
        }
        ++elidableShown;
      }
      os << "  t=" << entry->at << "\t" << entry->text << "\n";
    }
    if (elided > 0)
      os << "  ... (" << elided << " more scheduler events elided)\n";
  }
  return os.str();
}

}  // namespace ooc::check
