#include "check/timeline.hpp"

#include <algorithm>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "check/scenario.hpp"
#include "compose/kv.hpp"
#include "core/properties.hpp"

namespace ooc::check {
namespace {

// One rendered timeline entry. `seq` is a single global counter stamped
// across both event streams (scheduler events and protocol taps), so
// entries interleave exactly as they happened during the re-execution.
struct Entry {
  Tick at = 0;
  std::uint64_t seq = 0;
  ProcessId process = 0;
  /// Scheduler-level noise (deliveries, timers) — subject to the
  /// per-process cap; protocol entries and decisions always render.
  bool elidable = false;
  std::string text;
};

// Re-executes the scenario, collecting scheduler events (verified against
// the recorded trace) and protocol-level telemetry into one stream.
class TimelineCollector final : public ScheduleObserver,
                                public compose::TelemetrySink {
 public:
  explicit TimelineCollector(const Trace& expected) : verifier_(expected) {}

  void onEvent(const TraceEvent& event) override {
    verifier_.onEvent(event);
    Entry entry;
    entry.at = event.at;
    entry.seq = nextSeq_++;
    switch (event.kind) {
      case TraceEvent::Kind::kStart:
        entry.process = event.a;
        entry.text = "start";
        break;
      case TraceEvent::Kind::kDeliver: {
        entry.process = event.a;
        entry.elidable = true;
        entry.text = "deliver from p" + std::to_string(event.b);
        break;
      }
      case TraceEvent::Kind::kTimer:
        if (event.a == kNoTraceProcess) return;  // cancelled; never ran
        entry.process = event.a;
        entry.elidable = true;
        entry.text = "timer " + std::to_string(event.aux) + " fired";
        break;
      case TraceEvent::Kind::kDecision:
        entry.process = event.a;
        entry.text =
            "DECIDED " + std::to_string(static_cast<Value>(event.aux));
        break;
      case TraceEvent::Kind::kCrash:
        entry.process = event.a;
        entry.text = "CRASHED (incarnation " + std::to_string(event.aux) +
                     " down, volatile state lost)";
        break;
      case TraceEvent::Kind::kRestart:
        entry.process = event.a;
        entry.text =
            "RESTARTED (incarnation " + std::to_string(event.aux) + ")";
        break;
      case TraceEvent::Kind::kControl:
      case TraceEvent::Kind::kBarrier:
        return;  // no process lane
    }
    entries_.push_back(std::move(entry));
  }

  void onDetectorOutcome(ProcessId process, Round round,
                         const Outcome& outcome, Tick at) override {
    Entry entry;
    entry.at = at;
    entry.seq = nextSeq_++;
    entry.process = process;
    entry.text = "detect[" + std::to_string(round) + "] -> " +
                 toString(outcome.confidence) + "(" +
                 std::to_string(outcome.value) + ")";
    entries_.push_back(std::move(entry));
  }

  void onDriverValue(ProcessId process, Round round, Value value,
                     Tick at) override {
    Entry entry;
    entry.at = at;
    entry.seq = nextSeq_++;
    entry.process = process;
    entry.text =
        "drive[" + std::to_string(round) + "] -> " + std::to_string(value);
    entries_.push_back(std::move(entry));
  }

  void onOracleQuery(ProcessId viewer, ProcessId target, bool suspected,
                     Tick at) override {
    // Each coordinator query is scheduler-grade noise (elidable); the
    // *transitions* of the viewer's suspicion of the target are the
    // protocol-level story and always render.
    Entry entry;
    entry.at = at;
    entry.seq = nextSeq_++;
    entry.process = viewer;
    entry.elidable = true;
    entry.text = "oracle? p" + std::to_string(target) + " -> " +
                 (suspected ? "suspected" : "trusted");
    entries_.push_back(std::move(entry));

    bool& previous = suspicion_[{viewer, target}];  // trusted at start
    if (previous == suspected) return;
    previous = suspected;
    Entry transition;
    transition.at = at;
    transition.seq = nextSeq_++;
    transition.process = viewer;
    transition.text =
        suspected ? "ORACLE suspects p" + std::to_string(target)
                  : "ORACLE trusts p" + std::to_string(target) + " again";
    entries_.push_back(std::move(transition));
  }

  const std::vector<Entry>& entries() const noexcept { return entries_; }
  const TraceVerifier& verifier() const noexcept { return verifier_; }

 private:
  TraceVerifier verifier_;
  std::uint64_t nextSeq_ = 0;
  std::vector<Entry> entries_;
  /// Last suspected-state per (viewer, target), for transition entries.
  std::map<std::pair<ProcessId, ProcessId>, bool> suspicion_;
};

}  // namespace

std::string renderTimeline(const CounterexampleFile& file,
                           const TimelineOptions& options) {
  TimelineCollector collector(file.trace);
  compose::RunHooks hooks;
  hooks.observer = &collector;
  hooks.telemetry = &collector;
  runScenario(file.scenario, hooks);

  const std::string runId =
      file.runId.empty() ? compose::configRunId(serialize(file.scenario))
                         : file.runId;

  std::ostringstream os;
  os << "counterexample timeline  run-id=" << runId << "\n";
  os << "scenario:  " << describe(file.scenario) << "\n";
  os << "invariant: " << file.invariant << "\n";
  if (!file.detail.empty()) os << "detail:    " << file.detail << "\n";
  os << "replay:    "
     << (collector.verifier().ok()
             ? "bit-identical to recorded trace"
             : "DIVERGED from recorded trace (timeline reflects the "
               "re-execution)")
     << "\n";

  const std::size_t n = file.scenario.processCount();
  for (std::size_t p = 0; p < n; ++p) {
    os << "\np" << p << ":\n";
    // Entries arrive stamped in execution order; a stable partition by
    // process keeps that order inside each lane.
    std::vector<const Entry*> lane;
    for (const Entry& entry : collector.entries())
      if (entry.process == static_cast<ProcessId>(p)) lane.push_back(&entry);

    std::size_t elidableShown = 0;
    std::size_t elided = 0;
    for (const Entry* entry : lane) {
      if (entry->elidable && options.maxEventsPerProcess > 0 &&
          elidableShown >= options.maxEventsPerProcess) {
        ++elided;
        continue;
      }
      if (entry->elidable) {
        if (!options.showDeliveries &&
            entry->text.rfind("deliver", 0) == 0) {
          continue;
        }
        if (!options.showTimers && entry->text.rfind("timer", 0) == 0) {
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
