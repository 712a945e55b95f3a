// E1 + E2 — Ben-Or decomposition faithfulness and input-bias sensitivity.
//
// E1: rounds-to-decide and message cost vs n, decomposed (VAC+reconciliator
//     under the template, run as the "benor-vac+local-coin" composition)
//     against the monolithic classic implementation (the harness baseline,
//     which has no composition spelling). Claim (paper §4.2): the
//     decomposition is behaviour-preserving, so the two columns must match
//     in shape (same growth, same order).
// E2: rounds vs the fraction of processes proposing 1. Convergence (§2)
//     pins the endpoints at exactly one round; the worst case must sit at
//     the balanced midpoint.
#include <vector>

#include <algorithm>

#include "bench/bench_common.hpp"
#include "compose/composition.hpp"
#include "harness/scenarios.hpp"

using namespace ooc;
using namespace ooc::bench;

namespace {

std::vector<Value> biasedInputs(std::size_t n, double fractionOnes) {
  std::vector<Value> inputs(n, 0);
  const auto ones = static_cast<std::size_t>(fractionOnes *
                                             static_cast<double>(n) + 0.5);
  for (std::size_t i = 0; i < ones && i < n; ++i) inputs[i] = 1;
  // Interleave so that ids and values are uncorrelated.
  std::vector<Value> spread(n);
  for (std::size_t i = 0; i < n; ++i) spread[i] = inputs[(i * 7) % n];
  return spread;
}

/// The monolithic baseline has no detector/driver split, so its cell runs
/// the harness's classic loop through the same fold as the compositions.
compose::TrialStats runMonolithicTrials(std::size_t n, int runs,
                                        std::uint64_t seedBase) {
  compose::TrialStats stats;
  for (int run = 0; run < runs; ++run) {
    harness::MonolithicBenOrConfig config;
    config.n = n;
    config.inputs = biasedInputs(n, 0.5);
    config.seed = seedBase + static_cast<std::uint64_t>(run);
    config.t = std::max<std::size_t>(1, n / 8);
    stats.add(harness::runMonolithicBenOr(config), n,
              /*oracleAttached=*/false);
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, "benor_rounds");
  bench.banner("E1: Ben-Or decomposed vs monolithic",
         "Paper §4.2 claim: Algorithms 5+6 in the template ARE Ben-Or. "
         "Expect matching round distributions and message growth.");
  const int kRuns = bench.trials(120);

  {
    Table table({"n", "mode", "mean rounds", "p50", "p95", "max",
                 "mean msgs/proc", "runs"});
    for (std::size_t n : {4, 8, 16, 32, 64}) {
      for (const bool monolithic : {false, true}) {
        compose::TrialStats stats;
        if (monolithic) {
          stats = runMonolithicTrials(n, kRuns, 10'000);
        } else {
          compose::Composition composition;
          composition.detector = "benor-vac";
          composition.driver = "local-coin";
          composition.n = n;
          composition.inputs = biasedInputs(n, 0.5);
          composition.t = std::max<std::size_t>(1, n / 8);
          stats = runCompositionTrials(composition, kRuns, 10'000);
          bench.require(stats.auditsOk, "object contracts");
        }
        bench.require(stats.decided == kRuns && stats.agreementOk &&
                          stats.validityOk,
                        "benor consensus n=" + std::to_string(n));
        table.addRow({Table::cell(std::uint64_t{n}),
                      monolithic ? "monolithic" : "decomposed",
                      Table::cell(stats.meanDecisionRound.mean()),
                      Table::cell(stats.meanDecisionRound.median()),
                      Table::cell(stats.meanDecisionRound.p95()),
                      Table::cell(stats.meanDecisionRound.max()),
                      Table::cell(stats.messagesPerProcess.mean(), 0),
                      Table::cell(kRuns)});
      }
    }
    bench.emit(table);
  }

  bench.banner("E2: rounds vs input bias",
         "Convergence (§2): unanimity decides in exactly 1 round; the "
         "balanced midpoint is the hard case.");
  {
    Table table({"fraction proposing 1", "mean rounds", "p95", "max"});
    for (const double fraction :
         {0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0}) {
      compose::Composition composition;
      composition.detector = "benor-vac";
      composition.driver = "local-coin";
      composition.n = 16;
      composition.inputs = biasedInputs(16, fraction);
      composition.t = 2;
      const auto stats = runCompositionTrials(composition, kRuns, 20'000);
      bench.require(stats.decided == kRuns && stats.agreementOk,
                      "benor consensus (bias sweep)");
      table.addRow({Table::cell(fraction, 3),
                    Table::cell(stats.meanDecisionRound.mean()),
                    Table::cell(stats.meanDecisionRound.p95()),
                    Table::cell(stats.meanDecisionRound.max())});
    }
    bench.emit(table);
  }
  return bench.finish();
}
