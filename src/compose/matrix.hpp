// Composition trials and the composition matrix. The paper's claim — a
// consensus algorithm is a detector × driver composition — is tested as
// one statement along three axes: every cell of a matrix experiment is a
// Composition that is either an algorithm (validate() passes, and its
// seeded runs keep agreement, validity, the object audits and, with an
// oracle attached, the FD axioms) or rejected with the registry's
// diagnostic. The experiments differ only in their cell lists:
//
//   e20  every registered detector × driver pairing (§3, §5, §6)
//   e22  oracle-consuming drivers × oracles × a quality grid, under a
//        crash, plus the incoherent attachments (Chandra–Toueg classes)
//   e24  a roster of engine pairings × the three round-scheduling
//        policies (DESIGN.md §14)
//
// All three run through runMatrix() and render as ooc.matrix.v2 JSON,
// byte-identical at any thread count. runTrials() is the one "N seeds of
// one composition" loop; the benches fold their tables through it too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "compose/composition.hpp"
#include "compose/run.hpp"
#include "sweep/scheduler.hpp"
#include "util/stats.hpp"
#include "util/types.hpp"

namespace ooc::compose {

/// The fold of one composition's seeded runs, in seed order.
struct TrialStats {
  int runs = 0;
  int decided = 0;              ///< runs where every correct process decided
  int decidedInFirstRound = 0;  ///< decided runs whose max round is 1
  bool agreementOk = true;
  bool validityOk = true;
  bool auditsOk = true;
  /// An oracle-attached run fails without a passing FD-axiom audit;
  /// oracle-free runs pass vacuously.
  bool fdAxiomsOk = true;
  /// Per decided run: the mean and the highest decision round. Empty when
  /// no run decided (e.g. keep-value on a split start, the paper's
  /// termination counterexample).
  Summary meanDecisionRound;
  Summary maxDecisionRound;
  /// Messages sent by correct processes, per run and per process.
  Summary messagesPerRun;
  Summary messagesPerProcess;
  /// Skew observations (DESIGN.md §14): witness and activation counts
  /// summed over runs, round skew maxed.
  std::uint64_t overlapWitnesses = 0;
  std::uint64_t deferredActivations = 0;
  Round maxRoundSkew = 0;
  /// Scheduler telemetry of the trial fan-out: wall-clock, so it feeds
  /// only the quarantined `sweep` blocks, never the fold.
  sweep::SweepStats sweep;

  /// Folds one run of a composition over `n` processes.
  void add(const CompositionResult& result, std::size_t n,
           bool oracleAttached);
  bool safe() const noexcept {
    return agreementOk && validityOk && auditsOk && fdAxiomsOk;
  }
};

/// Runs `composition` under seeds seedBase, seedBase+1, ... fanned over
/// `threads` workers (0 = hardware; nested inside another sweep it runs
/// inline) and folds the results in seed order, so the stats are
/// identical at any thread count. Throws like runComposition() on an
/// invalid composition.
TrialStats runTrials(const Composition& composition, int runs,
                     std::uint64_t seedBase, std::size_t threads);

/// One matrix experiment: its cells in report order and its defaults.
struct MatrixExperiment {
  std::string name;  ///< "e20" | "e22" | "e24"
  std::vector<Composition> cells;
  int runsPerCell = 0;
  int quickRunsPerCell = 0;
  std::uint64_t seedBase = 0;
};

MatrixExperiment e20Matrix();  // 20 runs/cell (quick 5), seeds from 9000
MatrixExperiment e22Matrix();  // 10 runs/cell (quick 3), seeds from 11000
MatrixExperiment e24Matrix();  // 10 runs/cell (quick 3), seeds from 13000
/// Looks an experiment up by name; throws std::invalid_argument naming the
/// known ones.
MatrixExperiment matrixExperiment(const std::string& name);

struct MatrixOptions {
  bool quick = false;  ///< run quickRunsPerCell per valid cell
  /// Worker threads for the cell sweep (0 = hardware). Cells land in the
  /// report in experiment order regardless.
  std::size_t threads = 0;
};

struct MatrixCell {
  Composition composition;  ///< the cell; runs vary only its seed
  bool valid = false;
  std::string diagnostic;  ///< validate()'s text; empty when valid
  TrialStats stats;        ///< empty for rejected cells
};

struct MatrixReport {
  std::string experiment;
  bool quick = false;
  int runsPerCell = 0;
  std::uint64_t seedBase = 0;
  std::vector<MatrixCell> cells;
  std::size_t validCells = 0;
  std::size_t rejectedCells = 0;
  /// False if any valid cell is unsafe (TrialStats::safe()) or, under the
  /// lockstep policy, shows an overlap witness or a deferred activation.
  bool safetyOk = true;
};

MatrixReport runMatrix(const MatrixExperiment& experiment,
                       const MatrixOptions& options);

/// Renders the report as ooc.matrix.v2 JSON.
std::string matrixToJson(const MatrixReport& report);

}  // namespace ooc::compose
