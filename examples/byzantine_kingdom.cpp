// Byzantine agreement with Phase-King under attack.
//
// Seven processors, two of them Byzantine equivocators seated at the front
// of the king rotation (they reign first). The correct five still agree,
// within t+1 honest-king rounds, using the paper's decomposition:
// adopt-commit (Algorithm 3) + king conciliator (Algorithm 4) inside the
// AC/conciliator template (Algorithm 2).
//
//   $ ./byzantine_kingdom [strategy]   strategy in {silent, random,
//                                      equivocate, lying-king, anti-king}
#include <cstdio>
#include <cstring>
#include <string>

#include "compose/run.hpp"
#include "phaseking/byzantine.hpp"

int main(int argc, char** argv) {
  using namespace ooc;
  using phaseking::ByzantineStrategy;

  ByzantineStrategy strategy = ByzantineStrategy::kEquivocate;
  if (argc > 1) {
    const std::string name = argv[1];
    if (name == "silent") strategy = ByzantineStrategy::kSilent;
    else if (name == "random") strategy = ByzantineStrategy::kRandom;
    else if (name == "equivocate") strategy = ByzantineStrategy::kEquivocate;
    else if (name == "lying-king") strategy = ByzantineStrategy::kLyingKing;
    else if (name == "anti-king") strategy = ByzantineStrategy::kAntiKing;
    else {
      std::fprintf(stderr, "unknown strategy '%s'\n", name.c_str());
      return 2;
    }
  }

  compose::Composition config;
  config.detector = "phaseking-ac";
  config.driver = "king-conciliator";
  config.n = 7;
  config.byzantineCount = 2;  // the maximum: t = floor((7-1)/3) = 2
  config.byzantineStrategy = toString(strategy);
  config.placement = compose::Placement::kFront;
  config.inputs = {0, 1};  // alternating inputs among the correct five

  std::printf("Phase-King: n=7, Byzantine=2 (%s, seated as kings 1 and 2)\n",
              toString(strategy));
  std::printf("correct processors propose 0,1,0,1,0\n\n");

  const auto result = compose::runComposition(config);

  std::printf("all correct decided:  %s\n", result.allDecided ? "yes" : "NO");
  std::printf("agreed value:         %lld\n",
              static_cast<long long>(result.decidedValue));
  std::printf("rounds used:          %u (t+1 honest-king bound: first "
              "correct king reigns round 3)\n",
              result.maxDecisionRound);
  std::printf("agreement:            %s\n",
              result.agreementViolated ? "VIOLATED" : "ok");
  std::printf("validity:             %s\n",
              result.validityViolated ? "VIOLATED" : "ok");
  std::printf("object contracts:     %s\n",
              result.allAuditsOk ? "all rounds ok" : "VIOLATED");
  std::printf("messages by correct:  %llu\n",
              static_cast<unsigned long long>(result.messagesByCorrect));

  // Round-by-round confidence mix across the correct processors.
  std::printf("\nper-round outcome mix (correct processors):\n");
  for (std::size_t m = 0; m < result.audits.size(); ++m) {
    const auto& audit = result.audits[m];
    std::printf("  round %zu: %s%s%s\n", m + 1,
                audit.anyCommit ? "commit " : "",
                audit.anyAdopt ? "adopt " : "",
                audit.anyVacillate ? "vacillate" : "");
  }
  return result.agreementViolated || !result.allDecided ? 1 : 0;
}
