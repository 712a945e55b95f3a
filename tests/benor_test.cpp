// Ben-Or tests: the decomposed algorithm (paper Algorithms 5-6 under the
// template, the benor-vac+local-coin composition and its §4.3/§5 detector
// substitutes), the monolithic baseline, object-contract property sweeps,
// crash tolerance, and the §5 decide-on-adopt witnesses.
#include <gtest/gtest.h>

#include <tuple>

#include "check/strategy.hpp"
#include "compose/run.hpp"
#include "harness/scenarios.hpp"

namespace ooc {
namespace {

using compose::Composition;
using compose::CompositionResult;
using compose::runComposition;
using harness::MonolithicBenOrConfig;
using harness::runMonolithicBenOr;

std::vector<Value> splitInputs(std::size_t n) {
  std::vector<Value> inputs(n);
  for (std::size_t i = 0; i < n; ++i) inputs[i] = static_cast<Value>(i % 2);
  return inputs;
}

Composition baseConfig(std::size_t n, std::uint64_t seed,
                       const char* detector = "benor-vac") {
  Composition config;
  config.detector = detector;
  config.n = n;
  config.inputs = splitInputs(n);
  config.seed = seed;
  return config;
}

MonolithicBenOrConfig monolithicConfig(std::size_t n, std::uint64_t seed) {
  MonolithicBenOrConfig config;
  config.n = n;
  config.inputs = splitInputs(n);
  config.seed = seed;
  return config;
}

void expectCleanRun(const CompositionResult& result) {
  EXPECT_TRUE(result.allDecided);
  EXPECT_FALSE(result.agreementViolated);
  EXPECT_FALSE(result.validityViolated);
  EXPECT_TRUE(result.allAuditsOk);
}

TEST(BenOrDecomposed, UnanimousDecidesInOneRound) {
  for (Value v : {0, 1}) {
    Composition config = baseConfig(5, 11);
    config.inputs.assign(5, v);
    const CompositionResult result = runComposition(config);
    expectCleanRun(result);
    EXPECT_EQ(result.decidedValue, v);
    EXPECT_EQ(result.maxDecisionRound, 1u);
  }
}

TEST(BenOrDecomposed, SplitInputsTerminate) {
  const CompositionResult result = runComposition(baseConfig(5, 12));
  expectCleanRun(result);
  EXPECT_TRUE(result.decidedValue == 0 || result.decidedValue == 1);
}

TEST(BenOrMonolithic, SplitInputsTerminate) {
  const CompositionResult result = runMonolithicBenOr(monolithicConfig(5, 12));
  EXPECT_TRUE(result.allDecided);
  EXPECT_FALSE(result.agreementViolated);
  EXPECT_FALSE(result.validityViolated);
}

// Property sweep: every (n, seed) run must satisfy every object contract in
// every round, decide, agree, and stay valid.
class BenOrSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(BenOrSweep, DecomposedContractsHold) {
  const auto [n, seed] = GetParam();
  expectCleanRun(runComposition(baseConfig(n, seed)));
}

TEST_P(BenOrSweep, MonolithicAgrees) {
  const auto [n, seed] = GetParam();
  const CompositionResult result =
      runMonolithicBenOr(monolithicConfig(n, seed));
  EXPECT_TRUE(result.allDecided);
  EXPECT_FALSE(result.agreementViolated);
  EXPECT_FALSE(result.validityViolated);
}

TEST_P(BenOrSweep, VacFromTwoAcContractsHold) {
  const auto [n, seed] = GetParam();
  expectCleanRun(runComposition(baseConfig(n, seed, "vac-from-two-ac")));
}

TEST_P(BenOrSweep, DecentralizedVacContractsHold) {
  const auto [n, seed] = GetParam();
  expectCleanRun(runComposition(baseConfig(n, seed, "decentralized-vac")));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BenOrSweep,
    ::testing::Combine(::testing::Values(std::size_t{3}, std::size_t{4},
                                         std::size_t{5}, std::size_t{8},
                                         std::size_t{13}),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u)));

TEST(BenOrCrashes, ToleratesUpToTMinusOneCrashes) {
  // n = 7, t = 3: crash 3 processes at staggered times.
  Composition config = baseConfig(7, 21);
  config.crashes = {{0, 5}, {3, 40}, {6, 100}};
  expectCleanRun(runComposition(config));
}

TEST(BenOrCrashes, CrashAtStartLooksLikeSmallerNetwork) {
  Composition config = baseConfig(5, 22);
  config.crashes = {{1, 0}, {2, 0}};  // t = 2 crashes before sending anything
  expectCleanRun(runComposition(config));
}

TEST(BenOrCrashes, MonolithicToleratesCrashes) {
  MonolithicBenOrConfig config = monolithicConfig(7, 23);
  config.crashes = {{2, 10}, {5, 60}};
  const CompositionResult result = runMonolithicBenOr(config);
  EXPECT_TRUE(result.allDecided);
  EXPECT_FALSE(result.agreementViolated);
}

TEST(BenOrCrashes, SweepCrashSchedules) {
  // Crash a full quorum minus one at varied ticks across seeds; everything
  // must still decide and agree.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Composition config = baseConfig(5, 100 + seed);
    config.crashes = {{static_cast<ProcessId>(seed % 5), seed * 7},
                      {static_cast<ProcessId>((seed + 2) % 5), seed * 13}};
    expectCleanRun(runComposition(config));
  }
}

TEST(BenOrReconciliators, CommonCoinDecidesFast) {
  // With a common coin the first vacillating round flips everyone to the
  // same preference: decision within a few rounds, across seeds.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Composition config = baseConfig(8, 200 + seed);
    config.driver = "common-coin";
    const CompositionResult result = runComposition(config);
    expectCleanRun(result);
    // Expected ~2-3 rounds; each extra round needs another coin mismatch
    // (probability 1/2), so 8 gives a wide deterministic margin.
    EXPECT_LE(result.maxDecisionRound, 8u) << "seed " << seed;
  }
}

TEST(BenOrReconciliators, KeepValueStallsOnBalancedInputs) {
  // Negative control: without reconciliation a perfectly balanced network
  // can never commit. With deterministic keep-value drivers it provably
  // spins (preferences never change), hitting the round cap.
  Composition config = baseConfig(4, 31);
  config.driver = "keep-value";
  config.maxRounds = 30;
  config.maxTicks = 400000;
  const CompositionResult result = runComposition(config);
  // The run must NOT decide (it may also simply run out of rounds).
  EXPECT_FALSE(result.allDecided);
  EXPECT_FALSE(result.agreementViolated);
}

TEST(BenOrReconciliators, BiasedCoinStillCorrect) {
  for (double bias : {0.1, 0.9}) {
    Composition config = baseConfig(6, 41);
    config.driver = "biased-coin";
    config.bias = bias;
    expectCleanRun(runComposition(config));
  }
}

TEST(BenOrSection5, AdoptWitnessesExistAcrossSeeds) {
  // The §5 argument: an adopt-level value can differ from the eventual
  // decision, so a framework that decides at that point (AC's commit in the
  // two-AC reading) is unsound. Witnesses are schedule-dependent; across a
  // seed batch at least one must appear, and each witness is by definition
  // an adopt outcome whose value lost.
  std::size_t witnesses = 0;
  std::size_t adoptOutcomes = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Composition config = baseConfig(4, 300 + seed);
    config.maxDelay = 25;  // heavy skew makes mixed rounds likelier
    const CompositionResult result = runComposition(config);
    expectCleanRun(result);
    witnesses += result.adoptMismatchWitnesses;
    adoptOutcomes += result.adoptOutcomesTotal;
  }
  EXPECT_GT(adoptOutcomes, 0u);
  EXPECT_GT(witnesses, 0u) << "no decide-on-adopt counterexample found; "
                              "§5's insufficiency claim not exercised";
}

TEST(BenOrDeterminism, SameSeedSameResult) {
  const Composition config = baseConfig(6, 77);
  const CompositionResult a = runComposition(config);
  const CompositionResult b = runComposition(config);
  EXPECT_EQ(a.decidedValue, b.decidedValue);
  EXPECT_EQ(a.maxDecisionRound, b.maxDecisionRound);
  EXPECT_EQ(a.lastDecisionTick, b.lastDecisionTick);
  EXPECT_EQ(a.messagesByCorrect, b.messagesByCorrect);
}

TEST(BenOrConfigValidation, RejectsBadInputSizes) {
  MonolithicBenOrConfig config;
  config.n = 4;
  config.inputs = {0, 1};  // wrong size
  EXPECT_THROW(runMonolithicBenOr(config), std::invalid_argument);
}

TEST(BenOrVacObject, RequiresMinorityFaults) {
  Composition config = baseConfig(4, 1);
  config.t = 2;  // t >= n/2: illegal
  EXPECT_THROW(runComposition(config), std::invalid_argument);
}

TEST(BenOrMonolithic, RandomWalkShapesAgreeValidAndTerminate) {
  // The baseline over the checker's random-walk shapes (process count,
  // inputs, crash schedule, delay bound) of the benor-vac+local-coin
  // sweep: the classic loop must decide, agree and stay valid on every
  // configuration the decomposed algorithm is checked on.
  check::Scenario base;
  base.compose.n = 5;
  base.compose.inputs = {0, 1, 0, 1, 1};
  check::RandomWalkStrategy::Options options;
  options.runs = 20;
  options.seedBase = 7000;
  const check::RandomWalkStrategy walk(base, options);
  for (std::size_t i = 0; i < walk.size(); ++i) {
    const Composition shape = walk.generate(i).compose;
    MonolithicBenOrConfig config;
    config.n = shape.n;
    config.inputs = shape.inputs;
    config.seed = shape.seed;
    config.crashes = shape.crashes;
    config.minDelay = shape.minDelay;
    config.maxDelay = shape.maxDelay;
    const CompositionResult result = runMonolithicBenOr(config);
    EXPECT_TRUE(result.allDecided) << "shape " << i;
    EXPECT_FALSE(result.agreementViolated) << "shape " << i;
    EXPECT_FALSE(result.validityViolated) << "shape " << i;
  }
}

}  // namespace
}  // namespace ooc
