// E12 — decentralized Raft "highly resembles Ben-Or's" (paper §4.3).
//
// The paper observes that removing the leader from Raft's consensus usage
// (broadcast proposals; commit-message on seeing a majority) yields an
// algorithm whose only difference from Ben-Or is the reconciliator. We run
// both VACs under the identical template and reconciliator across a seed
// batch and compare the full distribution of rounds-to-decide, message
// cost, and outcome mix. Expected shape: statistically indistinguishable
// columns. The two arms differ only in the Composition's detector name.
#include <algorithm>

#include "bench/bench_common.hpp"
#include "compose/composition.hpp"

using namespace ooc;
using namespace ooc::bench;

int main(int argc, char** argv) {
  Bench bench(argc, argv, "decentralized");
  const int kRuns = bench.trials(200);

  bench.banner("E12: Ben-Or VAC vs decentralized-Raft VAC (same template, same "
         "local coin, same seeds)",
         "Paper §4.3 remark quantified: the two detectors should be "
         "behaviourally identical up to message naming.");
  Table table({"n", "detector", "mean rounds", "p50", "p95", "max",
               "mean msgs/proc", "commit-in-1 %"});
  for (std::size_t n : {4, 8, 16}) {
    for (const bool decentralized : {false, true}) {
      compose::Composition composition;
      composition.detector =
          decentralized ? "decentralized-vac" : "benor-vac";
      composition.driver = "local-coin";
      composition.n = n;
      composition.inputs = alternatingInputs(n);
      composition.t = std::max<std::size_t>(1, n / 4);
      const auto stats = runCompositionTrials(composition, kRuns, 170'000);
      bench.require(stats.decided == kRuns && stats.agreementOk &&
                        stats.auditsOk,
                      "consensus + contracts");
      table.addRow({Table::cell(std::uint64_t{n}),
                    decentralized ? "decentralized-raft" : "benor-vac",
                    Table::cell(stats.meanDecisionRound.mean()),
                    Table::cell(stats.meanDecisionRound.median()),
                    Table::cell(stats.meanDecisionRound.p95()),
                    Table::cell(stats.meanDecisionRound.max()),
                    Table::cell(stats.messagesPerProcess.mean(), 0),
                    Table::cell(100.0 * stats.decidedInFirstRound / kRuns,
                                1)});
    }
  }
  bench.emit(table);
  std::printf("reading: identical rows (bit-for-bit with the same seeds) — "
              "the decentralized variant IS Ben-Or with renamed messages, "
              "which is precisely the paper's point.\n");
  return bench.finish();
}
