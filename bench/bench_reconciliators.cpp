// E10 — the reconciliator as a swappable object (paper §3, §6).
//
// Same template, same Ben-Or VAC, four reconciliators:
//   local coin  (Algorithm 6)      — expected rounds grow with n,
//   common coin (idealized shared) — expected O(1) rounds at every n,
//   biased coin (p = 0.8)          — between the two,
//   keep-value  (negative control) — no reconciliation: balanced inputs
//                                    stall forever.
// The paper's conclusion that the reconciliator "in some cases is only a
// procedure that flips a coin" is made concrete by how much the choice of
// that procedure alone moves the numbers. Each cell is literally the same
// Composition spec with a different driver name.
#include <algorithm>
#include <string>

#include "bench/bench_common.hpp"
#include "compose/composition.hpp"

using namespace ooc;
using namespace ooc::bench;

int main(int argc, char** argv) {
  Bench bench(argc, argv, "reconciliators");
  const int kRuns = bench.trials(100);

  bench.banner("E10: reconciliator sweep (Ben-Or VAC, split inputs)",
         "Swapping only the drive-step object changes expected rounds from "
         "growing-in-n (local coin) to O(1) (common coin); removing it "
         "(keep-value) removes termination.");
  Table table({"n", "reconciliator", "decided %", "mean rounds",
               "p95 rounds", "max rounds"});
  for (std::size_t n : {4, 8, 16, 32}) {
    for (const std::string driver :
         {"local-coin", "common-coin", "biased-coin", "keep-value"}) {
      const bool isControl = driver == "keep-value";
      compose::Composition composition;
      composition.detector = "benor-vac";
      composition.driver = driver;
      composition.n = n;
      composition.inputs = alternatingInputs(n);
      composition.t = std::max<std::size_t>(1, n / 8);
      composition.bias = 0.8;
      if (isControl) {
        composition.maxRounds = 40;  // it will spin; cap the work
        composition.maxTicks = 300'000;
      }
      const auto stats = runCompositionTrials(composition, kRuns, 140'000);
      bench.require(stats.agreementOk && stats.validityOk, "safety");
      if (!isControl) {
        bench.require(stats.decided == kRuns,
                        "liveness with reconciliation");
        bench.require(stats.auditsOk, "contracts");
      } else {
        // Balanced inputs with an even split can never produce a majority:
        // keep-value must stall in every run (that is the point).
        bench.require(stats.decided == 0, "keep-value control must stall");
      }
      const std::string label =
          driver == "biased-coin" ? "biased-0.8" : driver;
      const Summary& rounds = stats.meanDecisionRound;
      table.addRow({Table::cell(std::uint64_t{n}), label,
                    Table::cell(100.0 * stats.decided / kRuns, 1),
                    rounds.empty() ? "-" : Table::cell(rounds.mean()),
                    rounds.empty() ? "-" : Table::cell(rounds.p95()),
                    rounds.empty() ? "-" : Table::cell(rounds.max(), 0)});
    }
  }
  bench.emit(table);
  return bench.finish();
}
