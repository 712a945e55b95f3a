// E15 — Phase-Queen vs Phase-King (extension): two synchronous Byzantine
// algorithms, one template. The queen trades resilience (4t < n vs 3t < n)
// for round length (2 ticks vs 3) and per-round traffic (n^2 + n vs
// 2n^2 + n messages).
#include "bench/bench_common.hpp"
#include "compose/run.hpp"
#include "phaseking/byzantine.hpp"

using namespace ooc;
using namespace ooc::bench;
using phaseking::ByzantineStrategy;

namespace {

/// The king's or the queen's AC + conciliator composition, attackers
/// seated as the first royals (front placement), alternating inputs.
compose::Composition royal(bool queen, std::size_t n, std::size_t attackers,
                           ByzantineStrategy strategy, std::uint64_t seed) {
  compose::Composition config;
  config.detector = queen ? "phasequeen-ac" : "phaseking-ac";
  config.driver = queen ? "queen-conciliator" : "king-conciliator";
  config.n = n;
  config.byzantineCount = attackers;
  config.byzantineStrategy = toString(strategy);
  config.inputs = {0, 1};
  config.seed = seed;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, "royal_family");
  const int kRuns = bench.trials(40);

  bench.banner("E15a: queen vs king at the same (n, f) within both bounds",
         "Classic t+1-round rule for both. The queen finishes in fewer "
         "ticks and messages; both stay clean.");
  {
    Table table({"n", "f=t", "royal", "success %", "ticks to decide",
                 "mean msgs/correct"});
    struct Case {
      std::size_t n, t;
    };
    for (const Case c : {Case{9, 2}, Case{13, 3}, Case{21, 5}, Case{29, 7}}) {
      for (const bool queenRun : {false, true}) {
        Summary ticks, messages;
        int clean = 0;
        for (int run = 0; run < kRuns; ++run) {
          compose::Composition config =
              royal(queenRun, c.n, c.t, ByzantineStrategy::kEquivocate,
                    230'000 + static_cast<std::uint64_t>(run));
          config.t = c.t;
          const auto result = compose::runComposition(config);
          const bool ok = result.allDecided && !result.agreementViolated &&
                          !result.validityViolated && result.allAuditsOk;
          clean += ok ? 1 : 0;
          bench.require(ok, queenRun ? "queen run" : "king run");
          ticks.add(static_cast<double>(result.lastDecisionTick));
          messages.add(static_cast<double>(result.messagesByCorrect) /
                       static_cast<double>(c.n - c.t));
        }
        table.addRow({Table::cell(std::uint64_t{c.n}),
                      Table::cell(std::uint64_t{c.t}),
                      queenRun ? "queen" : "king",
                      Table::cell(100.0 * clean / kRuns, 1),
                      Table::cell(ticks.mean(), 1),
                      Table::cell(messages.mean(), 0)});
      }
    }
    bench.emit(table);
  }

  bench.banner("E15b: the resilience price (n = 13)",
         "The king survives f = 4 (3t < n allows t = 4); the queen's bound "
         "is t = 3 — at f = 4 her guarantees are void and the equivocating "
         "adversary can break her runs.");
  {
    Table table({"f", "king clean %", "queen clean %"});
    for (std::size_t f = 2; f <= 4; ++f) {
      int kingClean = 0, queenClean = 0;
      for (int run = 0; run < kRuns; ++run) {
        const std::uint64_t seed = 240'000 + static_cast<std::uint64_t>(run);
        compose::Composition config =
            royal(false, 13, f, ByzantineStrategy::kAntiKing, seed);
        config.maxRounds = 40;
        const auto king = compose::runComposition(config);
        kingClean += king.allDecided && !king.agreementViolated &&
                             !king.validityViolated
                         ? 1
                         : 0;
        bench.require(!king.agreementViolated || f > 4,
                        "king agreement inside bound");

        config = royal(true, 13, f, ByzantineStrategy::kAntiKing, seed);
        config.maxRounds = 40;
        const auto queen = compose::runComposition(config);
        queenClean += queen.allDecided && !queen.agreementViolated &&
                              !queen.validityViolated
                          ? 1
                          : 0;
        if (f <= 3) {
          bench.require(!queen.agreementViolated,
                          "queen agreement inside bound");
        }
      }
      table.addRow({Table::cell(std::uint64_t{f}),
                    Table::cell(100.0 * kingClean / kRuns, 1),
                    Table::cell(100.0 * queenClean / kRuns, 1)});
    }
    bench.emit(table);
  }
  return bench.finish();
}
