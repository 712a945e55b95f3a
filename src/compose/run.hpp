// The generic composition runner: one engine for every registered
// detector × driver pairing, and the only way a template consensus runs.
// Ben-Or, Byzantine Ben-Or, Phase-King, Phase-Queen and every mixed
// pairing are Compositions; the tests, benches, examples and the model
// checker all call runComposition(). Only the runs with no detector/driver
// split — the monolithic baselines and Raft — keep bespoke loops
// (src/harness/).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "compose/composition.hpp"
#include "compose/hooks.hpp"
#include "core/properties.hpp"
#include "fd/audit.hpp"
#include "util/types.hpp"

namespace ooc::compose {

struct CompositionResult {
  bool allDecided = false;
  bool agreementViolated = false;
  bool validityViolated = false;
  Value decidedValue = kNoValue;
  /// Highest decision round among deciders; 0 if nobody decided.
  Round maxDecisionRound = 0;
  double meanDecisionRound = 0.0;
  Tick lastDecisionTick = 0;
  std::uint64_t messagesByCorrect = 0;
  /// Scheduler events executed by the run (bench_simcore's work unit).
  std::uint64_t eventsProcessed = 0;

  /// Per-round object audits over the template processes.
  std::vector<RoundAudit> audits;
  bool allAuditsOk = true;

  /// §5 witnesses (VAC detectors, decided runs only): completed
  /// adopt-level outcomes whose value differs from the run's decided value
  /// (decide-on-adopt would have broken agreement).
  std::size_t adoptOutcomesTotal = 0;
  std::size_t adoptMismatchWitnesses = 0;

  /// Scheduling-policy observations (DESIGN.md §14). Overlap witnesses
  /// count rounds whose detector went live while an earlier round's loose
  /// driver was still exchanging — structurally impossible under lockstep
  /// (always 0 there). Deferred activations count successor invocations
  /// handed to a fresh wakeup event (event-driven only). maxRoundSkew is
  /// the widest spread of completed detector rounds observed across
  /// correct processes at any single point of the run.
  std::uint64_t overlapWitnesses = 0;
  std::uint64_t deferredActivations = 0;
  Round maxRoundSkew = 0;

  /// FD-axiom audit of the run's oracle (oracle-guided pairings only):
  /// completeness, accuracy and leader convergence checked against the
  /// fault schedule, independent of whether the run decided.
  std::optional<fd::OracleAudit> oracleAudit;
};

/// Runs one composition to the stop condition. Deterministic in
/// (composition, seed); throws std::invalid_argument on an invalid
/// composition (unknown names, rejected pairing, bad parameters).
CompositionResult runComposition(const Composition& composition,
                                 const RunHooks& hooks = {});

}  // namespace ooc::compose
