// Re-executes a scenario with the causal recorder attached, optionally
// verifying the re-execution against a recorded trace. This is the one
// re-execution path of every `ooc` view: `timeline`, `explain`, `ctrace`,
// `perfetto` and `audit`, and the causal CI audit, all start from a
// counterexample or golden file and need the same record-verify step.
#pragma once

#include <optional>
#include <string>

#include "check/replay.hpp"
#include "check/scenario.hpp"
#include "obs/causal/causal.hpp"

namespace ooc::check {

struct CausalRun {
  causal::CausalTrace trace;
  RunReport report;
  /// Only meaningful when an expected trace was supplied: the re-execution
  /// matched it event for event.
  bool replayIdentical = true;
  std::optional<std::string> divergence;
};

/// Runs the scenario with a CausalRecorder attached as both schedule
/// observer and telemetry sink. When `expected` is non-null the scheduler
/// stream is simultaneously checked against it (TraceVerifier semantics).
CausalRun collectCausalRun(const Scenario& scenario,
                           const Trace* expected = nullptr);

/// TraceMeta (run id + one-line scenario description) for a loaded
/// counterexample file, matching the ids its other artifacts carry.
causal::TraceMeta causalMeta(const CounterexampleFile& file);

}  // namespace ooc::check
