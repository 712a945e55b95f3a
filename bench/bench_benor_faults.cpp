// E3 — Ben-Or fault tolerance across the t < n/2 boundary.
//
// Claim (paper §4.2): the algorithm tolerates any t < n/2 crash failures.
// We sweep the actual crash count f at n = 9 (t = 4): every f <= t run must
// decide and agree; at f > t the protocol may (and does) lose liveness —
// safety (agreement among deciders) must still never break.
#include "bench/bench_common.hpp"
#include "compose/run.hpp"

using namespace ooc;
using namespace ooc::bench;

int main(int argc, char** argv) {
  Bench bench(argc, argv, "benor_faults");
  bench.banner("E3: Ben-Or vs crash count (n = 9, t = 4)",
         "f <= t: always decides. f > t: liveness may fail (quorums "
         "unreachable), agreement still never violated.");
  constexpr std::size_t kN = 9;
  const int kRuns = bench.trials(80);

  Table table({"crashes f", "decided %", "mean rounds (deciders)",
               "agreement violations", "mean msgs"});
  for (std::size_t f = 0; f <= 6; ++f) {
    int decidedRuns = 0;
    int agreementViolations = 0;
    Summary rounds, messages;
    for (int run = 0; run < kRuns; ++run) {
      compose::Composition config;  // benor-vac + local-coin
      config.n = kN;
      config.inputs.resize(kN);
      for (std::size_t i = 0; i < kN; ++i)
        config.inputs[i] = static_cast<Value>(i % 2);
      config.seed = 30'000 + static_cast<std::uint64_t>(run);
      // Beyond-t runs stall: cap the work so the sweep stays fast.
      config.maxRounds = f > 4 ? 60 : 3000;
      config.maxTicks = 400'000;
      // Stagger crashes pseudo-randomly across the first few rounds (early
      // enough that beyond-t runs actually lose their quorum before the
      // typical decision point).
      for (std::size_t k = 0; k < f; ++k) {
        config.crashes.emplace_back(
            static_cast<ProcessId>((run * 5 + k * 2) % kN),
            static_cast<Tick>(1 + (run * 13 + k * 37) % 60));
      }
      const auto result = compose::runComposition(config);
      if (result.agreementViolated) ++agreementViolations;
      if (result.allDecided) {
        ++decidedRuns;
        rounds.add(result.meanDecisionRound);
      }
      messages.add(static_cast<double>(result.messagesByCorrect));
      if (f <= 4) {
        bench.require(result.allDecided,
                        "liveness at f=" + std::to_string(f));
        bench.require(result.allAuditsOk, "object contracts");
      }
      bench.require(!result.agreementViolated, "agreement (safety)");
      bench.require(!result.validityViolated, "validity");
    }
    table.addRow(
        {Table::cell(std::uint64_t{f}),
         Table::cell(100.0 * decidedRuns / kRuns, 1),
         rounds.empty() ? "-" : Table::cell(rounds.mean()),
         Table::cell(agreementViolations), Table::cell(messages.mean(), 0)});
  }
  bench.emit(table);
  return bench.finish();
}
