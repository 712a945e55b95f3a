// Human-readable timeline rendering of a recorded counterexample.
//
// A counterexample file carries the scenario and the violating schedule,
// but the schedule trace only knows scheduler-level events (deliveries,
// timers, decisions). The timeline re-executes the scenario through
// collectCausalRun — runs are pure functions of (configuration, seed), so
// the re-execution IS the recorded run — and merges the protocol-level
// annotations (detector confidence transitions, driver values, oracle
// queries) into each process's lane after the event whose handler produced
// them. The result is an annotated per-process account of how the
// violation unfolded, tick by tick.
#pragma once

#include <string>

#include "check/replay.hpp"

namespace ooc::check {

struct TimelineOptions {
  /// Include message-delivery events (the bulk of a trace). Disable to see
  /// only protocol structure: rounds, confidence transitions, decisions.
  bool showDeliveries = true;
  /// Include timer-fire events.
  bool showTimers = true;
  /// Per-process cap on rendered events; excess events are elided with a
  /// summary marker. 0 = unlimited.
  std::size_t maxEventsPerProcess = 0;
};

/// Renders the counterexample as a per-process timeline. Deterministic:
/// the same file renders to the same text on every call.
std::string renderTimeline(const CounterexampleFile& file,
                           const TimelineOptions& options = {});

}  // namespace ooc::check
