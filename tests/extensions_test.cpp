// Tests for the framework extensions beyond the paper's three case studies:
// Byzantine Ben-Or (async, n > 5t), Phase-Queen (sync, 4t < n), the
// multivalued lottery reconciliator — each a composition — and the
// multi-slot replicated log built from template instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <tuple>

#include "benor/async_byzantine.hpp"
#include "benor/reconciliators.hpp"
#include "benor/vac.hpp"
#include "compose/run.hpp"
#include "log/replicated_log.hpp"
#include "phaseking/byzantine.hpp"
#include "sim/simulator.hpp"

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

// ---------------------------------------------------------------------------
// Replicated log (multi-slot consensus)

struct LogRun {
  std::vector<log::ReplicatedLogNode*> nodes;
  std::unique_ptr<Simulator> sim;
  std::size_t totalCommands = 0;
};

LogRun runLog(std::size_t n, std::size_t commandsPerNode,
              std::uint64_t seed,
              std::vector<std::pair<ProcessId, Tick>> crashes = {}) {
  LogRun run;
  SimConfig simConfig;
  simConfig.seed = seed;
  simConfig.maxTicks = 3'000'000;
  UniformDelayNetwork::Options net;
  net.minDelay = 1;
  net.maxDelay = 8;
  run.sim = std::make_unique<Simulator>(
      simConfig, std::make_unique<UniformDelayNetwork>(net));

  const std::size_t t = (n - 1) / 2;
  for (ProcessId id = 0; id < n; ++id) {
    std::vector<Value> commands;
    for (std::uint32_t k = 0; k < commandsPerNode; ++k)
      commands.push_back(log::makeCommand(id, k));
    run.totalCommands += commands.size();
    log::ReplicatedLogNode::Options options;
    auto node = std::make_unique<log::ReplicatedLogNode>(
        std::move(commands),
        [t](std::uint64_t) { return benor::BenOrVac::factory(t); },
        [t, seed](std::uint64_t slot) {
          // Mix the slot into the shared lottery seed (see
          // SlotDriverFactory's contract).
          return benor::LotteryReconciliator::factory(
              t, seed ^ (slot * 0x9E3779B97F4A7C15ull) ^ 0x10C);
        },
        options);
    run.nodes.push_back(node.get());
    run.sim->addProcess(std::move(node));
  }
  std::set<ProcessId> crashed;
  for (const auto& [id, tick] : crashes) {
    run.sim->crashAt(id, tick);
    crashed.insert(id);
  }
  run.sim->setStopPredicate([&run, crashed](const Simulator& sim) {
    // Done when every live node drained its queue and all live logs have
    // equal length (crashed nodes' unsubmitted commands are lost, as for
    // any crashed client).
    std::size_t length = 0;
    bool first = true;
    for (ProcessId id = 0; id < run.nodes.size(); ++id) {
      if (sim.crashed(id)) continue;
      const auto* node = run.nodes[id];
      if (!node->drained()) return false;
      if (first) {
        length = node->log().size();
        first = false;
      } else if (node->log().size() != length) {
        return false;
      }
    }
    return !first && length > 0;
  });
  run.sim->run();
  return run;
}

TEST(ReplicatedLog, AllCommandsCommittedExactlyOnceInSameOrder) {
  const LogRun run = runLog(4, 5, 1);
  ASSERT_FALSE(run.sim->hitCap());

  const auto reference = run.nodes[0]->committedCommands();
  EXPECT_EQ(reference.size(), run.totalCommands);
  std::set<Value> unique(reference.begin(), reference.end());
  EXPECT_EQ(unique.size(), reference.size()) << "duplicate commit";

  for (const auto* node : run.nodes) {
    EXPECT_EQ(node->log(), run.nodes[0]->log()) << "log divergence";
  }
}

TEST(ReplicatedLog, SeedSweepStaysConsistent) {
  for (std::uint64_t seed = 2; seed <= 8; ++seed) {
    const LogRun run = runLog(3, 3, seed);
    ASSERT_FALSE(run.sim->hitCap()) << "seed " << seed;
    for (const auto* node : run.nodes)
      EXPECT_EQ(node->log(), run.nodes[0]->log()) << "seed " << seed;
    EXPECT_EQ(run.nodes[0]->committedCommands().size(), run.totalCommands);
  }
}

TEST(ReplicatedLog, SurvivesMinorityCrashes) {
  // n = 5, t = 2: crash two nodes mid-stream. Live logs must stay
  // identical; commands of crashed nodes may be partially lost (their
  // client died) but committed prefixes never diverge.
  const LogRun run = runLog(5, 4, 3, {{0, 400}, {3, 900}});
  ASSERT_FALSE(run.sim->hitCap());
  const log::ReplicatedLogNode* reference = nullptr;
  for (ProcessId id = 0; id < run.nodes.size(); ++id) {
    if (run.sim->crashed(id)) continue;
    if (reference == nullptr) {
      reference = run.nodes[id];
      continue;
    }
    EXPECT_EQ(run.nodes[id]->log(), reference->log());
  }
  ASSERT_NE(reference, nullptr);
  // No command appears twice anywhere.
  const auto committed = reference->committedCommands();
  std::set<Value> unique(committed.begin(), committed.end());
  EXPECT_EQ(unique.size(), committed.size());
}

TEST(ReplicatedLog, RejectsReservedCommands) {
  EXPECT_THROW(
      log::ReplicatedLogNode(
          {log::kNoopCommand},
          [](std::uint64_t) { return benor::BenOrVac::factory(1); },
          [](std::uint64_t) { return benor::CoinReconciliator::factory(); },
          {}),
      std::invalid_argument);
}

TEST(ReplicatedLog, CommandPacking) {
  const Value command = log::makeCommand(3, 17);
  EXPECT_EQ(log::commandNode(command), 3u);
  EXPECT_GT(command, log::kNoopCommand);
}

}  // namespace
}  // namespace ooc
