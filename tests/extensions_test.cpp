// Tests for the framework extensions beyond the paper's three case studies:
// Byzantine Ben-Or (async, n > 5t), Phase-Queen (sync, 4t < n), the
// multivalued lottery reconciliator — each a composition.
#include <gtest/gtest.h>

#include <tuple>

#include "benor/async_byzantine.hpp"
#include "compose/run.hpp"
#include "phaseking/byzantine.hpp"

namespace ooc {
namespace {

using compose::Composition;
using compose::runComposition;

/// Byzantine Ben-Or: the hardened VAC (n > 5t) with the local coin, f = 2
/// attackers at the back of n = 11, alternating correct inputs.
Composition byzantineBenOr() {
  Composition config;
  config.detector = "byzantine-benor-vac";
  config.n = 11;
  config.byzantineCount = 2;
  config.byzantineStrategy =
      toString(benor::AsyncByzantineStrategy::kEquivocate);
  config.placement = compose::Placement::kBack;
  config.inputs = {0, 1};
  return config;
}

/// Phase-Queen (4t < n): n = 9, f = 2 equivocators at the front.
Composition phaseQueen() {
  Composition config;
  config.detector = "phasequeen-ac";
  config.driver = "queen-conciliator";
  config.n = 9;
  config.byzantineCount = 2;
  config.inputs = {0, 1};
  return config;
}

// ---------------------------------------------------------------------------
// Byzantine Ben-Or

class ByzantineBenOrSweep
    : public ::testing::TestWithParam<
          std::tuple<benor::AsyncByzantineStrategy, std::uint64_t>> {};

TEST_P(ByzantineBenOrSweep, SurvivesMaxAttackersAtEveryStrategy) {
  const auto [strategy, seed] = GetParam();
  Composition config = byzantineBenOr();
  config.n = 11;  // t = 2
  config.byzantineCount = 2;
  config.byzantineStrategy = toString(strategy);
  config.seed = seed;
  const auto result = runComposition(config);
  EXPECT_TRUE(result.allDecided);
  EXPECT_FALSE(result.agreementViolated);
  EXPECT_FALSE(result.validityViolated);
  EXPECT_TRUE(result.allAuditsOk);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, ByzantineBenOrSweep,
    ::testing::Combine(
        ::testing::Values(benor::AsyncByzantineStrategy::kSilent,
                          benor::AsyncByzantineStrategy::kEquivocate,
                          benor::AsyncByzantineStrategy::kRandom,
                          benor::AsyncByzantineStrategy::kContrarian),
        ::testing::Values(1u, 2u, 3u, 4u, 5u)));

TEST(ByzantineBenOr, UnanimousCorrectInputsCannotBeFlipped) {
  // Validity under attack: all correct processes propose 1; the committed
  // value must be 1 whatever the adversary does.
  for (auto strategy : {benor::AsyncByzantineStrategy::kEquivocate,
                        benor::AsyncByzantineStrategy::kRandom,
                        benor::AsyncByzantineStrategy::kContrarian}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      Composition config = byzantineBenOr();
      config.n = 11;
      config.byzantineCount = 2;
      config.byzantineStrategy = toString(strategy);
      config.inputs = {1};
      config.seed = seed;
      const auto result = runComposition(config);
      ASSERT_TRUE(result.allDecided);
      EXPECT_EQ(result.decidedValue, 1)
          << toString(strategy) << " seed " << seed;
      // Convergence: with unanimous correct inputs the very first round
      // must commit despite the attackers.
      EXPECT_EQ(result.maxDecisionRound, 1u);
    }
  }
}

TEST(ByzantineBenOr, LargerNetworks) {
  for (std::size_t n : {6, 16, 26}) {
    Composition config = byzantineBenOr();
    config.n = n;
    config.byzantineCount = (n - 1) / 5;
    config.seed = 7;
    const auto result = runComposition(config);
    EXPECT_TRUE(result.allDecided) << "n=" << n;
    EXPECT_FALSE(result.agreementViolated);
    EXPECT_TRUE(result.allAuditsOk);
  }
}

TEST(ByzantineBenOr, RejectsTooManyDeclaredFaults) {
  Composition config = byzantineBenOr();
  config.n = 10;
  config.t = 2;  // 5t = 10 >= n
  config.byzantineCount = 0;
  EXPECT_THROW(runComposition(config), std::invalid_argument);
}

TEST(ByzantineBenOr, CrashToleranceSubsumed) {
  // Silent Byzantine processes are crashes; the hardened thresholds must
  // still terminate without them.
  Composition config = byzantineBenOr();
  config.n = 11;
  config.byzantineCount = 2;
  config.byzantineStrategy = toString(benor::AsyncByzantineStrategy::kSilent);
  config.seed = 11;
  const auto result = runComposition(config);
  EXPECT_TRUE(result.allDecided);
  EXPECT_FALSE(result.agreementViolated);
}

// ---------------------------------------------------------------------------
// Phase-Queen

class PhaseQueenSweep
    : public ::testing::TestWithParam<
          std::tuple<phaseking::ByzantineStrategy, std::uint64_t>> {};

TEST_P(PhaseQueenSweep, SurvivesMaxAttackers) {
  const auto [strategy, seed] = GetParam();
  Composition config = phaseQueen();  // n = 9, queen: t = 2
  config.byzantineStrategy = toString(strategy);
  config.seed = seed;
  const auto result = runComposition(config);
  EXPECT_TRUE(result.allDecided);
  EXPECT_FALSE(result.agreementViolated);
  EXPECT_FALSE(result.validityViolated);
  EXPECT_TRUE(result.allAuditsOk);
  EXPECT_EQ(result.maxDecisionRound, 3u);  // classic rule: t + 1 rounds
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, PhaseQueenSweep,
    ::testing::Combine(
        ::testing::Values(phaseking::ByzantineStrategy::kSilent,
                          phaseking::ByzantineStrategy::kRandom,
                          phaseking::ByzantineStrategy::kEquivocate,
                          phaseking::ByzantineStrategy::kLyingKing,
                          phaseking::ByzantineStrategy::kAntiKing),
        ::testing::Values(1u, 2u, 3u)));

TEST(PhaseQueen, FasterThanKingPerRound) {
  // Same n, same adversary count within both bounds: queen rounds are 2
  // ticks vs the king's 3, so total ticks to decide are lower even though
  // the queen needs its own t+1 rounds.
  Composition queen = phaseQueen();
  queen.n = 13;
  queen.byzantineCount = 3;  // within both n/4 and n/3
  queen.t = 3;
  Composition king = queen;
  king.detector = "phaseking-ac";
  king.driver = "king-conciliator";

  const auto kingResult = runComposition(king);
  const auto queenResult = runComposition(queen);
  ASSERT_TRUE(kingResult.allDecided);
  ASSERT_TRUE(queenResult.allDecided);
  EXPECT_LT(queenResult.lastDecisionTick, kingResult.lastDecisionTick);
}

TEST(PhaseQueen, ScaleSweepAtMaxTolerance) {
  for (std::size_t n : {5, 9, 13, 21}) {
    Composition config = phaseQueen();
    config.n = n;
    config.byzantineCount = (n - 1) / 4;
    const auto result = runComposition(config);
    EXPECT_TRUE(result.allDecided) << "n=" << n;
    EXPECT_FALSE(result.agreementViolated) << "n=" << n;
    EXPECT_TRUE(result.allAuditsOk) << "n=" << n;
  }
}

TEST(PhaseQueen, RejectsKingToleranceLevels) {
  Composition config = phaseQueen();
  config.t = 3;  // fine for the king (3t < n fails: 9 !> 9) — also bad here
  config.byzantineCount = 0;
  EXPECT_THROW(runComposition(config), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Multivalued consensus with the lottery reconciliator

TEST(LotteryReconciliator, MultivaluedConsensus) {
  // Five processes, five distinct values: binary coins cannot express this
  // (their output 0/1 may be nobody's input); the lottery can.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Composition config;
    config.n = 5;
    config.inputs = {10, 20, 30, 40, 50};
    config.seed = 600 + seed;
    config.driver = "lottery";
    const auto result = runComposition(config);
    EXPECT_TRUE(result.allDecided) << "seed " << seed;
    EXPECT_FALSE(result.agreementViolated);
    EXPECT_FALSE(result.validityViolated);
    EXPECT_TRUE(result.allAuditsOk);
    EXPECT_EQ(result.decidedValue % 10, 0);
  }
}

TEST(LotteryReconciliator, BinaryStillWorks) {
  Composition config;
  config.n = 8;
  config.inputs = {0, 1, 0, 1, 0, 1, 0, 1};
  config.seed = 77;
  config.driver = "lottery";
  const auto result = runComposition(config);
  EXPECT_TRUE(result.allDecided);
  EXPECT_FALSE(result.agreementViolated);
  EXPECT_TRUE(result.allAuditsOk);
}

TEST(LotteryReconciliator, WithCrashes) {
  Composition config;
  config.n = 7;
  config.inputs = {11, 22, 33, 44, 55, 66, 77};
  config.seed = 5;
  config.driver = "lottery";
  config.crashes = {{1, 10}, {4, 50}, {6, 5}};
  const auto result = runComposition(config);
  EXPECT_TRUE(result.allDecided);
  EXPECT_FALSE(result.agreementViolated);
  EXPECT_FALSE(result.validityViolated);
}

}  // namespace
}  // namespace ooc
