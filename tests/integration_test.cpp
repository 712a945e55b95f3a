// Cross-module integration tests: the "object oriented" payoff — detectors
// and drivers from different algorithms composed in one template — plus
// end-to-end invariants spanning simulator, template, objects and audits.
#include <gtest/gtest.h>

#include <tuple>

#include "compose/run.hpp"
#include "harness/scenarios.hpp"

namespace ooc {
namespace {

using compose::Composition;
using compose::runComposition;

std::vector<Value> splitInputs(std::size_t n) {
  std::vector<Value> inputs(n);
  for (std::size_t i = 0; i < n; ++i) inputs[i] = static_cast<Value>(i % 2);
  return inputs;
}

// Every VAC detector x every coin reconciliator: all combinations must
// satisfy consensus and the object contracts. This is the paper's central
// engineering claim — the objects are interchangeable building blocks.
class MixAndMatch
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string, std::uint64_t>> {};

TEST_P(MixAndMatch, EveryCombinationReachesConsensus) {
  const auto [detector, driver, seed] = GetParam();
  Composition config;
  config.detector = detector;
  config.driver = driver;
  config.n = 6;
  config.inputs = splitInputs(6);
  config.seed = seed;
  const auto result = runComposition(config);
  EXPECT_TRUE(result.allDecided);
  EXPECT_FALSE(result.agreementViolated);
  EXPECT_FALSE(result.validityViolated);
  EXPECT_TRUE(result.allAuditsOk);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, MixAndMatch,
    ::testing::Combine(
        ::testing::Values("benor-vac", "vac-from-two-ac",
                          "decentralized-vac"),
        ::testing::Values("local-coin", "common-coin", "biased-coin"),
        ::testing::Values(1u, 2u)));

TEST(Integration, VacFromTwoAcUsesTwiceTheMessages) {
  // The §5 construction costs two AC invocations per round: roughly double
  // the per-round traffic of the native VAC. Compare unanimous runs (both
  // decide in round 1, so traffic is exactly one detector invocation each).
  Composition native;
  native.n = 6;
  native.inputs.assign(6, 1);
  native.seed = 5;
  Composition synthesized = native;
  synthesized.detector = "vac-from-two-ac";

  const auto nativeResult = runComposition(native);
  const auto synthResult = runComposition(synthesized);
  ASSERT_TRUE(nativeResult.allDecided);
  ASSERT_TRUE(synthResult.allDecided);
  EXPECT_EQ(nativeResult.maxDecisionRound, 1u);
  EXPECT_EQ(synthResult.maxDecisionRound, 1u);
  // Processes keep participating briefly after deciding (next round's
  // traffic until the run stops), so the factor is near 2, not exactly 2.
  const double ratio = static_cast<double>(synthResult.messagesByCorrect) /
                       static_cast<double>(nativeResult.messagesByCorrect);
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 2.5);
}

TEST(Integration, DecentralizedRaftMatchesBenOrRoundShape) {
  // Paper §4.3: decentralizing Raft yields an algorithm that "highly
  // resembles Ben-Or's". Same template, same reconciliator, same seeds:
  // decision-round distributions should be statistically close. We assert
  // a coarse bound: mean decision rounds within 2x of each other over a
  // seed batch.
  double benorTotal = 0, decTotal = 0;
  constexpr int kRuns = 30;
  for (std::uint64_t seed = 1; seed <= kRuns; ++seed) {
    Composition config;
    config.n = 6;
    config.inputs = splitInputs(6);
    config.seed = 900 + seed;
    const auto benor = runComposition(config);
    config.detector = "decentralized-vac";
    const auto dec = runComposition(config);
    EXPECT_TRUE(benor.allDecided);
    EXPECT_TRUE(dec.allDecided);
    benorTotal += benor.meanDecisionRound;
    decTotal += dec.meanDecisionRound;
  }
  EXPECT_LT(decTotal, 2.0 * benorTotal);
  EXPECT_LT(benorTotal, 2.0 * decTotal);
}

TEST(Integration, DecomposedAndMonolithicBenOrAgreeOnShape) {
  // E1's claim in test form: across seeds, mean rounds-to-decide of the
  // decomposed and monolithic implementations stay within 50% of each
  // other (identical algorithm, independent implementations).
  double decomposedTotal = 0, monolithicTotal = 0;
  constexpr int kRuns = 40;
  for (std::uint64_t seed = 1; seed <= kRuns; ++seed) {
    Composition config;
    config.n = 5;
    config.inputs = splitInputs(5);
    config.seed = 7000 + seed;
    decomposedTotal += runComposition(config).meanDecisionRound;
    harness::MonolithicBenOrConfig monolithic;
    monolithic.n = 5;
    monolithic.inputs = splitInputs(5);
    monolithic.seed = 7000 + seed;
    monolithicTotal +=
        harness::runMonolithicBenOr(monolithic).meanDecisionRound;
  }
  const double ratio = decomposedTotal / monolithicTotal;
  EXPECT_GT(ratio, 0.66) << decomposedTotal << " vs " << monolithicTotal;
  EXPECT_LT(ratio, 1.5) << decomposedTotal << " vs " << monolithicTotal;
}

TEST(Integration, CommonCoinBeatsLocalCoinAtScale) {
  // E10's headline: the common-coin reconciliator's rounds-to-decide does
  // not degrade with n, the local coin's does. At n = 12 the gap must be
  // visible in the mean over a seed batch.
  double localTotal = 0, commonTotal = 0;
  constexpr int kRuns = 25;
  for (std::uint64_t seed = 1; seed <= kRuns; ++seed) {
    Composition config;
    config.n = 12;
    config.inputs = splitInputs(12);
    config.seed = 4000 + seed;
    localTotal += runComposition(config).meanDecisionRound;
    config.driver = "common-coin";
    commonTotal += runComposition(config).meanDecisionRound;
  }
  EXPECT_LT(commonTotal, localTotal);
}

TEST(Integration, CrashesDuringDriveStageAreHarmless) {
  // Crash processes at ticks chosen to land inside the reconciliator step
  // of early rounds; agreement and audits must hold in every run.
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    Composition config;
    config.n = 7;
    config.inputs = splitInputs(7);
    config.seed = 500 + seed;
    config.crashes = {{static_cast<ProcessId>(seed % 7), 15 + seed * 3},
                      {static_cast<ProcessId>((seed * 3) % 7), 30 + seed},
                      {static_cast<ProcessId>((seed * 5 + 1) % 7), 2}};
    // Ensure distinct victims; duplicates just crash once, still <= t = 3.
    const auto result = runComposition(config);
    EXPECT_TRUE(result.allDecided) << "seed " << seed;
    EXPECT_FALSE(result.agreementViolated);
    EXPECT_TRUE(result.allAuditsOk);
  }
}

}  // namespace
}  // namespace ooc
