// E22 — oracle quality vs. rounds-to-decide (failure-detector family).
//
// The Chandra–Toueg rotating coordinator decides through whatever Ω the
// registry hands it; this experiment measures how the oracle's distance
// from the ideal — accuracy stabilization time, false-suspicion noise,
// completeness lag — shows up in the driver's decision round. The claim
// under test: quality degrades liveness (later decisions, more rotation),
// never safety. Agreement, validity, the object audits, and the three FD
// axioms hold in every cell; only the round count moves.
//
// The cross-product over the full oracle × driver registry (including the
// rejected incoherent cells) is the separate `compose --matrix e22` report
// (schema ooc.matrix.v2); this bench is the depth pass over the knobs.
// Every cell folds through compose::runTrials, whose FD-axiom verdict fails
// any oracle-attached run without a passing audit.
#include "bench/bench_common.hpp"
#include "compose/composition.hpp"

using namespace ooc;
using namespace ooc::bench;

namespace {

compose::Composition baseComposition(const std::string& driver,
                                     const std::string& oracle) {
  compose::Composition composition;
  composition.detector = "benor-vac";
  composition.driver = driver;
  composition.oracle = oracle;
  composition.n = 5;
  composition.inputs = alternatingInputs(5);
  composition.crashes = {{4, 40}};
  return composition;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, "fd");
  const int kRuns = bench.trials(200);

  bench.banner(
      "E22: oracle quality vs rounds-to-decide (ct-coordinator + Ω)",
      "Sweep the Ω quality knobs — accuracy stabilization tick and "
      "false-suspicion noise — under a crash at tick 40 (n=5). Worse "
      "oracles rotate longer before settling on a coordinator; safety and "
      "the FD axioms must hold in every cell regardless.");
  Table sweep({"stabilize", "noise", "decided %", "mean round", "max round"});
  for (const Tick stabilizeAt : {Tick{0}, Tick{50}, Tick{200}, Tick{800}}) {
    for (const double noise : {0.0, 0.2, 0.5}) {
      auto composition = baseComposition("ct-coordinator", "omega");
      composition.oracleKnobs.stabilizeAt = stabilizeAt;
      composition.oracleKnobs.noise = noise;
      const auto stats =
          runCompositionTrials(composition, kRuns, 220'000 + stabilizeAt);
      bench.require(stats.decided == stats.runs,
                    "every correct process decides");
      bench.require(stats.agreementOk && stats.validityOk,
                    "agreement + validity under oracle degradation");
      bench.require(stats.auditsOk, "object contracts");
      bench.require(stats.fdAxiomsOk, "FD axioms (completeness, accuracy, "
                                      "convergence)");
      sweep.addRow({Table::cell(std::uint64_t{stabilizeAt}),
                    Table::cell(noise, 1),
                    Table::cell(100.0 * stats.decided / stats.runs, 1),
                    Table::cell(stats.meanDecisionRound.mean(), 2),
                    Table::cell(stats.meanDecisionRound.max(), 2)});
    }
  }
  bench.emit(sweep);

  bench.banner(
      "E22b: oracle class comparison at matched knobs",
      "The hierarchy P > ◇S > Ω read off the driver: the perfect "
      "oracle's coordinator (p-coordinator) never probes a live "
      "coordinator in vain, the eventual oracles pay for their pre-"
      "stabilization noise in extra rounds.");
  struct ClassCase {
    const char* driver;
    const char* oracle;
    Tick stabilizeAt;
    double noise;
  };
  Table classes({"driver", "oracle", "decided %", "mean round", "max round"});
  for (const ClassCase c :
       {ClassCase{"p-coordinator", "perfect-p", 0, 0.0},
        ClassCase{"ct-coordinator", "diamond-s", 120, 0.3},
        ClassCase{"ct-coordinator", "omega", 120, 0.3}}) {
    auto composition = baseComposition(c.driver, c.oracle);
    composition.oracleKnobs.stabilizeAt = c.stabilizeAt;
    composition.oracleKnobs.noise = c.noise;
    const auto stats = runCompositionTrials(composition, kRuns, 221'000);
    bench.require(stats.decided == stats.runs,
                  "every correct process decides");
    bench.require(stats.agreementOk && stats.validityOk,
                  "agreement + validity across oracle classes");
    bench.require(stats.fdAxiomsOk, "FD axioms across oracle classes");
    classes.addRow({c.driver, c.oracle,
                    Table::cell(100.0 * stats.decided / stats.runs, 1),
                    Table::cell(stats.meanDecisionRound.mean(), 2),
                    Table::cell(stats.meanDecisionRound.max(), 2)});
  }
  bench.emit(classes);
  std::printf(
      "reading: every cell above is safe — oracle quality buys liveness "
      "(decision round), never correctness; the incoherent pairings the "
      "registry refuses to run are in the e22 matrix report's rejected "
      "cells.\n");
  return bench.finish();
}
