// Trace record/replay for explored runs, and the standalone counterexample
// file format (scenario + violation + trace) the checker emits.
//
// Replay re-executes the scenario from its serialized configuration — runs
// are pure functions of (configuration, seed) — while a TraceVerifier
// attached to the scheduler proves the re-execution is bit-identical to the
// recorded one and pinpoints the first divergence otherwise.
#pragma once

#include <optional>
#include <string>

#include "check/scenario.hpp"
#include "sim/trace.hpp"

namespace ooc::check {

struct RecordedRun {
  RunReport report;
  Trace trace;
};

/// Runs the scenario with a TraceRecorder attached; fills the trace's
/// end-of-run counters from the recorded events and the run report.
RecordedRun recordRun(const Scenario& scenario);

struct ReplayResult {
  RunReport report;
  /// Every scheduler event matched the recorded trace, in order and count.
  bool identical = false;
  /// First mismatch, when not identical.
  std::optional<std::string> divergence;
};

/// Re-executes the scenario against a recorded trace.
ReplayResult replayRun(const Scenario& scenario, const Trace& expected);

/// A self-contained counterexample: the scenario, the invariant it
/// violated, and the violating run's trace.
struct CounterexampleFile {
  Scenario scenario;
  std::string invariant;
  std::string detail;
  Trace trace;
  /// Deterministic run identifier (compose::configRunId of the serialized
  /// scenario). Filled on serialize when empty; optional on parse — files
  /// written before the field existed load fine and get the id recomputed.
  std::string runId;
};

std::string serializeCounterexample(const CounterexampleFile& file);
CounterexampleFile parseCounterexample(const std::string& text);

/// File helpers; throw std::runtime_error on I/O or parse failure.
void writeCounterexampleFile(const CounterexampleFile& file,
                             const std::string& path);
CounterexampleFile loadCounterexampleFile(const std::string& path);

}  // namespace ooc::check
