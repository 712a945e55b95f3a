// E4 + E5 — Phase-King: decomposition faithfulness, attack resilience, and
// the 3t < n boundary.
//
// E4 (paper §4.1): the AC + conciliator decomposition behaves like classic
//     Phase-King — agreement under every strategy at f = t, decision within
//     t+2 rounds once a correct king reigns, message cost O(n^2) per round.
// E5: sweep the actual attacker count f across the n/3 bound. For f <= t
//     every run is clean; for f > t the adversary can and does break runs.
#include "bench/bench_common.hpp"
#include "compose/run.hpp"
#include "harness/scenarios.hpp"

using namespace ooc;
using namespace ooc::bench;
using phaseking::ByzantineStrategy;

namespace {

/// The AC + king conciliator composition with attackers seated as the
/// first kings (front placement), alternating correct inputs.
compose::Composition phaseKing(std::size_t n, std::size_t attackers,
                               ByzantineStrategy strategy,
                               std::uint64_t seed) {
  compose::Composition config;
  config.detector = "phaseking-ac";
  config.driver = "king-conciliator";
  config.n = n;
  config.byzantineCount = attackers;
  config.byzantineStrategy = toString(strategy);
  config.inputs = {0, 1};
  config.seed = seed;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, "phaseking");
  const int kRuns = bench.trials(40);

  bench.banner("E4a: decomposed vs monolithic Phase-King (f = t, equivocators "
         "seated as first kings)",
         "Paper §4.1: Algorithms 3+4 under the AC/conciliator template "
         "reproduce Phase-King (classic t+1-round decision rule). Both "
         "columns must be clean with matching costs.");
  {
    Table table({"n", "t", "mode", "success %", "mean rounds",
                 "mean msgs/correct", "ticks to done"});
    for (std::size_t n : {4, 7, 13, 25, 40}) {
      const std::size_t t = (n - 1) / 3;
      for (const bool monolithic : {false, true}) {
        Summary rounds, messages, ticks;
        int clean = 0;
        for (int run = 0; run < kRuns; ++run) {
          const std::uint64_t seed = 40'000 + static_cast<std::uint64_t>(run);
          compose::CompositionResult result;
          if (monolithic) {
            harness::MonolithicPhaseKingConfig config;
            config.n = n;
            config.byzantineCount = t;
            config.seed = seed;
            result = harness::runMonolithicPhaseKing(config);
          } else {
            result = compose::runComposition(
                phaseKing(n, t, ByzantineStrategy::kEquivocate, seed));
          }
          const bool ok = result.allDecided && !result.agreementViolated &&
                          !result.validityViolated;
          clean += ok ? 1 : 0;
          bench.require(ok, "phase-king f=t run");
          if (!monolithic) {
            bench.require(result.allAuditsOk, "AC contracts");
            rounds.add(static_cast<double>(result.maxDecisionRound));
          } else {
            rounds.add(static_cast<double>(t + 1));
          }
          messages.add(static_cast<double>(result.messagesByCorrect) /
                       static_cast<double>(n - t));
          ticks.add(static_cast<double>(result.lastDecisionTick));
        }
        table.addRow({Table::cell(std::uint64_t{n}),
                      Table::cell(std::uint64_t{t}),
                      monolithic ? "monolithic" : "decomposed",
                      Table::cell(100.0 * clean / kRuns, 1),
                      Table::cell(rounds.mean()),
                      Table::cell(messages.mean(), 0),
                      Table::cell(ticks.mean(), 1)});
      }
    }
    bench.emit(table);
  }

  bench.banner("E4b: strategy sweep at n = 13, f = t = 4",
         "Every attack in the repertoire must fail (agreement + validity + "
         "contracts hold).");
  {
    Table table({"strategy", "success %", "mean rounds", "worst rounds"});
    for (auto strategy :
         {ByzantineStrategy::kSilent, ByzantineStrategy::kRandom,
          ByzantineStrategy::kEquivocate, ByzantineStrategy::kLyingKing,
          ByzantineStrategy::kAntiKing}) {
      Summary rounds;
      int clean = 0;
      for (int run = 0; run < kRuns; ++run) {
        const auto result = compose::runComposition(phaseKing(
            13, 4, strategy, 50'000 + static_cast<std::uint64_t>(run)));
        const bool ok = result.allDecided && !result.agreementViolated &&
                        !result.validityViolated && result.allAuditsOk;
        clean += ok ? 1 : 0;
        bench.require(ok, std::string("strategy ") + toString(strategy));
        rounds.add(static_cast<double>(result.maxDecisionRound));
      }
      table.addRow({toString(strategy), Table::cell(100.0 * clean / kRuns, 1),
                    Table::cell(rounds.mean()), Table::cell(rounds.max(), 0)});
    }
    bench.emit(table);
  }

  bench.banner("E5: resilience boundary (n = 10, t = 3)",
         "f <= t: 100% clean. f > t: the equivocating adversary can break "
         "runs (3t < n is tight). Safety failures beyond the bound are "
         "EXPECTED and demonstrate the boundary, not a bug.");
  {
    Table table({"attackers f", "clean %", "agreement broken %",
                 "validity broken %", "no decision %"});
    for (std::size_t f = 0; f <= 5; ++f) {
      int clean = 0, agreement = 0, validity = 0, stuck = 0;
      for (int run = 0; run < kRuns; ++run) {
        compose::Composition config =
            phaseKing(10, f, ByzantineStrategy::kAntiKing,
                      60'000 + static_cast<std::uint64_t>(run));
        config.maxRounds = 60;
        const auto result = compose::runComposition(config);
        const bool ok = result.allDecided && !result.agreementViolated &&
                        !result.validityViolated;
        clean += ok ? 1 : 0;
        agreement += result.agreementViolated ? 1 : 0;
        validity += result.validityViolated ? 1 : 0;
        stuck += result.allDecided ? 0 : 1;
        if (f <= 3) bench.require(ok, "f<=t must be clean");
      }
      table.addRow({Table::cell(std::uint64_t{f}),
                    Table::cell(100.0 * clean / kRuns, 1),
                    Table::cell(100.0 * agreement / kRuns, 1),
                    Table::cell(100.0 * validity / kRuns, 1),
                    Table::cell(100.0 * stuck / kRuns, 1)});
    }
    bench.emit(table);
  }

  bench.banner("E4c: the early-decision gap (n = 13, f = t = 4, random "
         "adversary)",
         "The paper's template decides on commit (Algorithm 2). For "
         "Phase-King that rule is UNSOUND: a Byzantine king reigning in an "
         "early-commit round hands adopters a different value (conciliator "
         "validity, Lemma 3, silently assumes an honest king). The table "
         "quantifies the gap; agreement violations in the early-commit row "
         "reproduce the paper's flaw, they are not implementation bugs.");
  {
    Table table({"decision rule", "clean %", "agreement broken %",
                 "mean decision round"});
    for (const bool early : {false, true}) {
      int clean = 0, broken = 0;
      Summary rounds;
      constexpr int kGapRuns = 120;
      for (int run = 0; run < kGapRuns; ++run) {
        compose::Composition config =
            phaseKing(13, 4, ByzantineStrategy::kRandom,
                      65'000 + static_cast<std::uint64_t>(run));
        config.earlyCommitDecision = early;
        const auto result = compose::runComposition(config);
        const bool ok = result.allDecided && !result.agreementViolated &&
                        !result.validityViolated;
        clean += ok ? 1 : 0;
        broken += result.agreementViolated ? 1 : 0;
        rounds.add(static_cast<double>(result.maxDecisionRound));
        if (!early) bench.require(ok, "classic rule must stay clean");
      }
      table.addRow({early ? "early commit (paper)" : "classic t+1 (sound)",
                    Table::cell(100.0 * clean / kGapRuns, 1),
                    Table::cell(100.0 * broken / kGapRuns, 1),
                    Table::cell(rounds.mean())});
    }
    bench.emit(table);
  }
  return bench.finish();
}
