// E14 — Byzantine Ben-Or (extension): the framework's VAC slot accepts a
// hardened detector and the template carries over unchanged.
//
// Sweeps: (a) adversary strategies at maximal f = t (n > 5t), (b) the
// resilience boundary, (c) scale. Expected shape: all clean at f <= t;
// round counts comparable to crash Ben-Or; beyond t the adversary can stall
// or corrupt runs.
#include "bench/bench_common.hpp"
#include "benor/async_byzantine.hpp"
#include "compose/run.hpp"

using namespace ooc;
using namespace ooc::bench;
using benor::AsyncByzantineStrategy;

namespace {

/// The hardened VAC (n > 5t) with the local coin; attackers at the back,
/// alternating correct inputs.
compose::Composition byzantineBenOr(std::size_t n, std::size_t attackers,
                                    AsyncByzantineStrategy strategy,
                                    std::uint64_t seed) {
  compose::Composition config;
  config.detector = "byzantine-benor-vac";
  config.n = n;
  config.byzantineCount = attackers;
  config.byzantineStrategy = toString(strategy);
  config.placement = compose::Placement::kBack;
  config.inputs = {0, 1};
  config.seed = seed;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, "byzantine_benor");
  const int kRuns = bench.trials(60);

  bench.banner("E14a: strategy sweep (n = 11, f = t = 2)",
         "Asynchronous Byzantine consensus through the unchanged template: "
         "every attack must fail.");
  {
    Table table({"strategy", "success %", "mean rounds", "p95 rounds",
                 "mean msgs/correct"});
    for (auto strategy :
         {AsyncByzantineStrategy::kSilent, AsyncByzantineStrategy::kEquivocate,
          AsyncByzantineStrategy::kRandom,
          AsyncByzantineStrategy::kContrarian}) {
      Summary rounds, messages;
      int clean = 0;
      for (int run = 0; run < kRuns; ++run) {
        const auto result = compose::runComposition(byzantineBenOr(
            11, 2, strategy, 200'000 + static_cast<std::uint64_t>(run)));
        const bool ok = result.allDecided && !result.agreementViolated &&
                        !result.validityViolated && result.allAuditsOk;
        clean += ok ? 1 : 0;
        bench.require(ok, std::string("byz-benor ") + toString(strategy));
        rounds.add(result.meanDecisionRound);
        messages.add(static_cast<double>(result.messagesByCorrect) / 9.0);
      }
      table.addRow({toString(strategy), Table::cell(100.0 * clean / kRuns, 1),
                    Table::cell(rounds.mean()), Table::cell(rounds.p95()),
                    Table::cell(messages.mean(), 0)});
    }
    bench.emit(table);
  }

  bench.banner("E14b: resilience boundary (n = 11, t = 2)",
         "f <= t: clean. f > t: the adversary may stall or corrupt "
         "(failures beyond the bound are the bound, not bugs).");
  {
    Table table({"attackers f", "clean %", "decided %",
                 "agreement broken %"});
    for (std::size_t f = 0; f <= 4; ++f) {
      int clean = 0, decided = 0, broken = 0;
      for (int run = 0; run < kRuns; ++run) {
        compose::Composition config =
            byzantineBenOr(11, f, AsyncByzantineStrategy::kEquivocate,
                           210'000 + static_cast<std::uint64_t>(run));
        config.maxRounds = 80;
        config.maxTicks = 600'000;
        const auto result = compose::runComposition(config);
        const bool ok = result.allDecided && !result.agreementViolated &&
                        !result.validityViolated;
        clean += ok ? 1 : 0;
        decided += result.allDecided ? 1 : 0;
        broken += result.agreementViolated ? 1 : 0;
        if (f <= 2) bench.require(ok, "f<=t must be clean");
      }
      table.addRow({Table::cell(std::uint64_t{f}),
                    Table::cell(100.0 * clean / kRuns, 1),
                    Table::cell(100.0 * decided / kRuns, 1),
                    Table::cell(100.0 * broken / kRuns, 1)});
    }
    bench.emit(table);
  }

  bench.banner("E14c: scale at maximal tolerance",
         "Rounds stay flat; messages grow ~n^2 per round.");
  {
    Table table({"n", "t", "mean rounds", "mean msgs/correct"});
    for (std::size_t n : {6, 11, 16, 26, 36}) {
      const std::size_t t = (n - 1) / 5;
      Summary rounds, messages;
      for (int run = 0; run < kRuns; ++run) {
        const auto result = compose::runComposition(
            byzantineBenOr(n, t, AsyncByzantineStrategy::kEquivocate,
                           220'000 + static_cast<std::uint64_t>(run)));
        bench.require(result.allDecided && !result.agreementViolated,
                        "byz-benor scale");
        rounds.add(result.meanDecisionRound);
        messages.add(static_cast<double>(result.messagesByCorrect) /
                     static_cast<double>(n - t));
      }
      table.addRow({Table::cell(std::uint64_t{n}),
                    Table::cell(std::uint64_t{t}), Table::cell(rounds.mean()),
                    Table::cell(messages.mean(), 0)});
    }
    bench.emit(table);
  }
  return bench.finish();
}
