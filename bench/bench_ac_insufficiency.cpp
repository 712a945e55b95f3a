// E9 — "Adopt-Commit is Not Enough" (paper §5), empirically.
//
// The paper's argument: in Ben-Or, a processor can reach adopt-level
// knowledge of a value u while the eventual agreement lands on u' != u.
// Under Aspnes' framework the corresponding state (commit of the second
// AC in the two-AC reading) forces an immediate decision — which would
// break agreement. We count concrete witnesses: completed (adopt, u)
// outcomes in runs whose final decision differs from u. Every witness is a
// schedule on which decide-on-adopt is wrong.
//
// Expected shape: witnesses appear at every n, more often under heavier
// delay skew (mixed rounds become likelier), while the VAC template itself
// never errs — the third confidence level is exactly what absorbs these
// states safely.
#include <algorithm>

#include "bench/bench_common.hpp"
#include "compose/run.hpp"

using namespace ooc;
using namespace ooc::bench;

int main(int argc, char** argv) {
  Bench bench(argc, argv, "ac_insufficiency");
  const int kRuns = bench.trials(300);

  bench.banner("E9: decide-on-adopt counterexample census (Ben-Or, local coin)",
         "witness := completed (adopt, u) outcome with final decision != u. "
         "Each row aggregates 300 seeded runs; 'runs w/ witness' is the "
         "fraction of executions on which the AC framework's decide rule "
         "would have violated agreement.");
  Table table({"n", "max delay", "adopt outcomes", "witnesses",
               "witness rate %", "runs w/ witness %"});
  struct Case {
    std::size_t n;
    Tick maxDelay;
  };
  for (const Case c : {Case{4, 10}, Case{4, 25}, Case{8, 10}, Case{8, 25},
                       Case{16, 10}, Case{16, 25}}) {
    std::size_t adoptTotal = 0, witnesses = 0;
    int runsWithWitness = 0;
    for (int run = 0; run < kRuns; ++run) {
      compose::Composition config;  // benor-vac + local-coin
      config.n = c.n;
      config.inputs.resize(c.n);
      for (std::size_t i = 0; i < c.n; ++i)
        config.inputs[i] = static_cast<Value>(i % 2);
      config.seed = 130'000 + static_cast<std::uint64_t>(run);
      config.t = std::max<std::size_t>(1, c.n / 4);
      config.maxDelay = c.maxDelay;
      const auto result = compose::runComposition(config);
      bench.require(result.allDecided && !result.agreementViolated,
                      "VAC template stays correct");
      bench.require(result.allAuditsOk, "object contracts");
      adoptTotal += result.adoptOutcomesTotal;
      witnesses += result.adoptMismatchWitnesses;
      runsWithWitness += result.adoptMismatchWitnesses > 0 ? 1 : 0;
    }
    table.addRow(
        {Table::cell(std::uint64_t{c.n}), Table::cell(std::uint64_t{c.maxDelay}),
         Table::cell(std::uint64_t{adoptTotal}),
         Table::cell(std::uint64_t{witnesses}),
         adoptTotal == 0
             ? "-"
             : Table::cell(100.0 * static_cast<double>(witnesses) /
                               static_cast<double>(adoptTotal),
                           2),
         Table::cell(100.0 * runsWithWitness / kRuns, 1)});
  }
  bench.emit(table);
  std::printf(
      "reading: the VAC template treats these adopt states as tentative and "
      "never mis-decides (0 agreement violations above); a decide-on-commit "
      "AC pipeline would have failed on every witness run.\n");
  return bench.finish();
}
