// E8 — VAC synthesized from two adopt-commit objects (paper §5).
//
// The paper states VAC is implementable from two ACs (and that AC alone is
// slightly weaker). We run the construction — AC := downgraded Ben-Or VAC,
// VAC' := VacFromTwoAc(AC, AC) — against the native Ben-Or VAC in the same
// template and measure the price: message cost roughly doubles per round
// while correctness and round counts stay in the same regime. Both arms
// are registry names ("vac-from-two-ac" vs "benor-vac") under the same
// driver.
#include <algorithm>

#include "bench/bench_common.hpp"
#include "compose/composition.hpp"

using namespace ooc;
using namespace ooc::bench;

int main(int argc, char** argv) {
  Bench bench(argc, argv, "vac_from_ac");
  const int kRuns = bench.trials(100);

  bench.banner("E8: native VAC vs VAC-from-2xAC (same template, local coin)",
         "Construction is correct (all contracts hold) and costs ~2x "
         "messages per round — the quantified version of '[AC] is slightly "
         "weaker' (paper §5).");
  Table table({"n", "detector", "mean rounds", "p95 rounds",
               "mean msgs/proc", "msg ratio vs native"});
  for (std::size_t n : {4, 8, 16, 32}) {
    double nativeMsgs = 0;
    for (const bool synthesized : {false, true}) {
      compose::Composition composition;
      composition.detector = synthesized ? "vac-from-two-ac" : "benor-vac";
      composition.driver = "local-coin";
      composition.n = n;
      composition.inputs = alternatingInputs(n);
      composition.t = std::max<std::size_t>(1, n / 8);
      const auto stats = runCompositionTrials(composition, kRuns, 120'000);
      bench.require(stats.decided == kRuns && stats.agreementOk &&
                        stats.validityOk && stats.auditsOk,
                      "consensus + contracts");
      const double msgs = stats.messagesPerProcess.mean();
      if (!synthesized) nativeMsgs = msgs;
      table.addRow(
          {Table::cell(std::uint64_t{n}),
           synthesized ? "vac-from-2ac" : "native benor-vac",
           Table::cell(stats.meanDecisionRound.mean()),
           Table::cell(stats.meanDecisionRound.p95()), Table::cell(msgs, 0),
           synthesized ? Table::cell(msgs / nativeMsgs, 2) : "1.00"});
    }
  }
  bench.emit(table);
  std::printf("reading: per round the synthesized VAC spends two full AC "
              "invocations (4 message waves vs 2), hence the ~2x column.\n");
  return bench.finish();
}
