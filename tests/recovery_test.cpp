// Crash-restart recovery tests across the stack: simulator restart
// semantics (incarnations, purged timers, stale in-flight messages), Raft
// and Paxos journal recovery, the durability invariants and restart
// strategy of the model checker, and counterexample replay for schedules
// containing restarts.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "benor/reconciliators.hpp"
#include "benor/vac.hpp"
#include "check/invariant.hpp"
#include "check/replay.hpp"
#include "check/scenario.hpp"
#include "check/strategy.hpp"
#include "check/timeline.hpp"
#include "compose/kv.hpp"
#include "harness/scenarios.hpp"
#include "harness/serialize.hpp"
#include "core/consensus_process.hpp"
#include "paxos/paxos_node.hpp"
#include "raft/consensus.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"

namespace ooc {
namespace {

using harness::RaftScenarioConfig;

// The pinned vote-amnesia schedule: found by
//   check --family raft --strategy restart --crash-before-sync
// and shrunk by the checker. p1 grants its term-1 vote, crashes at tick 250
// before any sync, rejoins one tick later and grants the same term's vote
// to a different candidate.
RaftScenarioConfig amnesiaConfig() {
  RaftScenarioConfig config;
  config.n = 5;
  config.seed = 3;
  config.dropProbability = 0.1;
  config.raft.durable = true;
  config.raft.syncBeforeReply = false;  // the crash-before-sync fault
  config.restarts.push_back({1, 250, 1});
  return config;
}

TEST(SimulatorRestart, StaleTimersAndInFlightMessagesDropped) {
  struct Ping final : MessageBase<Ping> {
    std::string describe() const override { return "ping"; }
  };
  // p0 sends one ping to p1 at tick 2; the network delivers 14 ticks
  // later, straddling p1's crash (tick 5) and restart (tick 15).
  class Sender final : public Process {
   public:
    void onStart() override { timer_ = ctx().setTimer(2); }
    void onTimer(TimerId id) override {
      if (id == timer_) ctx().post(1, makeMessage<Ping>());
    }
    void onMessage(ProcessId, const Message&) override {}

   private:
    TimerId timer_ = 0;
  };
  class Probe final : public Process {
   public:
    void onStart() override {
      incarnationsSeen.push_back(ctx().incarnation());
      ctx().setTimer(100);
    }
    void onMessage(ProcessId, const Message&) override { ++messages; }
    void onTimer(TimerId) override { ++timersFired; }

    std::vector<std::uint32_t> incarnationsSeen;
    int messages = 0;
    int timersFired = 0;
  };

  SimConfig simConfig;
  simConfig.maxTicks = 300;
  UniformDelayNetwork::Options net;
  net.minDelay = 14;
  net.maxDelay = 14;
  Simulator sim(simConfig, std::make_unique<UniformDelayNetwork>(net));
  sim.addProcess(std::make_unique<Sender>());
  auto probeOwner = std::make_unique<Probe>();
  Probe* probe = probeOwner.get();
  sim.addProcess(std::move(probeOwner));
  sim.restartAt(1, 5, 10);
  sim.run();

  // The ping was sent at tick 2 to incarnation 0 and arrived at tick 16,
  // after the restart bumped p1 to incarnation 1: dropped as stale.
  EXPECT_EQ(probe->messages, 0);
  EXPECT_EQ(sim.messagesDroppedStale(), 1u);
  // The boot-time timer (due at tick 100) died with the crash; only the
  // re-armed one (due at tick 115) fired.
  EXPECT_EQ(sim.timersPurgedOnCrash(), 1u);
  EXPECT_EQ(probe->timersFired, 1);
  // onStart ran once per incarnation, and the context exposes the bump.
  EXPECT_EQ(probe->incarnationsSeen,
            (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(sim.restarts(), 1u);
  EXPECT_EQ(sim.incarnation(1), 1u);
}

// --- the stop predicate across crashes and restarts --------------------------

/// What Simulator::allCorrectDecided() must equal, read through the public
/// accessors: every non-faulty, non-crashed process has decided.
bool scanAllCorrectDecided(const Simulator& sim) {
  for (ProcessId id = 0; id < sim.processCount(); ++id)
    if (!sim.faulty(id) && !sim.crashed(id) && !sim.decision(id).decided)
      return false;
  return true;
}

/// Tallies of one differential run: events compared, disagreements, and
/// how often the predicate fell back from true to false (a restart of an
/// undecided process after the rest had decided).
struct StopPredicateTally {
  std::size_t compared = 0;
  std::size_t mismatches = 0;
  std::size_t reopened = 0;
};

/// Runs `sim` to the end, comparing allCorrectDecided() with the scan after
/// every event. It never stops early, so every crash and restart runs.
void compareStopPredicate(Simulator& sim, StopPredicateTally& tally) {
  bool last = false;
  sim.setStopPredicate([&](const Simulator& s) {
    const bool fast = s.allCorrectDecided();
    ++tally.compared;
    if (fast != scanAllCorrectDecided(s)) ++tally.mismatches;
    if (last && !fast) ++tally.reopened;
    last = fast;
    return false;
  });
  sim.run();
}

SimConfig restartRunConfig(std::uint64_t seed) {
  SimConfig config;
  config.seed = seed;
  config.maxTicks = 4000;
  return config;
}

std::unique_ptr<NetworkModel> restartRunNetwork() {
  UniformDelayNetwork::Options net;
  net.minDelay = 1;
  net.maxDelay = 5;
  return std::make_unique<UniformDelayNetwork>(net);
}

TEST(StopPredicate, MatchesAScanThroughCrashesAndRestarts) {
  StopPredicateTally compose, raft;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const Tick downtime = 5 + 4 * seed;
    {
      // Ben-Or VAC + coin, n = 5, t = 2: p4 crashes for good, p3 crashes
      // and comes back, and p0 is marked faulty.
      Simulator sim(restartRunConfig(seed), restartRunNetwork());
      ConsensusProcess::Options options;
      options.maxRounds = 60;
      options.participateRoundsAfterDecide = 2;
      for (ProcessId id = 0; id < 5; ++id)
        sim.addProcess(std::make_unique<ConsensusProcess>(
                           static_cast<Value>(id % 2),
                           benor::BenOrVac::factory(2),
                           benor::CoinReconciliator::factory(), options),
                       /*faulty=*/id == 0);
      sim.crashAt(4, 2 + seed % 3);
      sim.restartAt(3, 3 + seed % 5, downtime);
      compareStopPredicate(sim, compose);
    }
    {
      // Durable Raft, n = 5: p1 restarts twice, p2 crashes for good.
      Simulator sim(restartRunConfig(seed), restartRunNetwork());
      raft::RaftConfig config;
      config.durable = true;
      for (ProcessId id = 0; id < 5; ++id)
        sim.addProcess(std::make_unique<raft::RaftConsensus>(
            static_cast<Value>(10 + id), config));
      sim.restartAt(1, 40 + 20 * seed, downtime);
      sim.restartAt(1, 900, 30);
      sim.crashAt(2, 100 + 50 * seed);
      compareStopPredicate(sim, raft);
    }
  }
  EXPECT_GT(compose.compared, 0u);
  EXPECT_EQ(compose.mismatches, 0u);
  EXPECT_GT(raft.compared, 0u);
  EXPECT_EQ(raft.mismatches, 0u);
  // Both kinds of run reach the transition a scan-free count could miss:
  // a restart that reopens a finished run.
  EXPECT_GT(compose.reopened, 0u);
  EXPECT_GT(raft.reopened, 0u);
}

TEST(RaftRecovery, DurableSyncRestartsAreCleanAndLive) {
  bool sawRecovery = false;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RaftScenarioConfig config;
    config.n = 5;
    config.seed = seed;
    config.dropProbability = 0.1;
    config.raft.durable = true;
    config.raft.syncBeforeReply = true;
    config.restarts.push_back({0, 160, 5});
    config.restarts.push_back({1, 200, 5});
    config.maxTicks = 400'000;
    const auto result = harness::runRaft(config);
    EXPECT_TRUE(result.allDecided) << "seed " << seed;
    EXPECT_FALSE(result.agreementViolated) << "seed " << seed;
    EXPECT_FALSE(result.voteAmnesia) << "seed " << seed;
    EXPECT_FALSE(result.commitRegression) << "seed " << seed;
    EXPECT_EQ(result.recoveries, result.restarts) << "seed " << seed;
    if (result.recoveries > 0 && result.recoveredRecords > 0)
      sawRecovery = true;
  }
  // At least one schedule actually restarted a node that had journaled
  // state — otherwise this test proves nothing about recovery.
  EXPECT_TRUE(sawRecovery);
}

TEST(RaftRecovery, CrashBeforeSyncReachesVoteAmnesia) {
  const auto result = harness::runRaft(amnesiaConfig());
  EXPECT_TRUE(result.voteAmnesia);
  EXPECT_FALSE(result.voteAmnesiaDetail.empty());
  EXPECT_GE(result.restarts, 1u);
}

TEST(RaftRecovery, SyncDisciplinePreventsTheSameSchedule) {
  RaftScenarioConfig config = amnesiaConfig();
  config.raft.syncBeforeReply = true;
  const auto result = harness::runRaft(config);
  EXPECT_FALSE(result.voteAmnesia);
  EXPECT_FALSE(result.commitRegression);
  EXPECT_FALSE(result.agreementViolated);
}

TEST(RaftRecovery, VolatileRestartTracksNoJournal) {
  RaftScenarioConfig config = amnesiaConfig();
  config.raft.durable = false;
  const auto result = harness::runRaft(config);
  EXPECT_EQ(result.walAppends, 0u);
  EXPECT_EQ(result.walSyncs, 0u);
  EXPECT_EQ(result.recoveredRecords, 0u);
}

TEST(PaxosRecovery, DurableAcceptorsKeepAgreementAcrossRestarts) {
  bool sawRecovery = false;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SimConfig simConfig;
    simConfig.seed = seed;
    simConfig.maxTicks = 2'000'000;
    UniformDelayNetwork::Options net;
    net.minDelay = 1;
    net.maxDelay = 5;
    net.dropProbability = 0.1;
    Simulator sim(simConfig, std::make_unique<UniformDelayNetwork>(net));
    paxos::PaxosConfig config;
    config.durable = true;
    config.syncBeforeReply = true;
    std::vector<paxos::PaxosNode*> nodes;
    std::vector<Value> inputs;
    for (ProcessId id = 0; id < 5; ++id) {
      inputs.push_back(static_cast<Value>(id));
      auto node = std::make_unique<paxos::PaxosNode>(inputs.back(), config);
      nodes.push_back(node.get());
      sim.addProcess(std::move(node));
    }
    sim.setValidValues(inputs);
    // Proposers arm their first retry timer in [100, 200] and a round
    // completes within ~10-30 ticks, so the acceptor journals only have
    // content in a narrow window; these ticks land inside it.
    sim.restartAt(0, 118, 15);
    sim.restartAt(1, 126, 15);
    sim.stopWhenAllCorrectDecided();
    sim.run();

    EXPECT_TRUE(sim.allCorrectDecided()) << "seed " << seed;
    EXPECT_FALSE(sim.agreementViolated()) << "seed " << seed;
    for (const paxos::PaxosNode* node : nodes) {
      for (const Value v : node->decisionHistory())
        EXPECT_EQ(v, node->decisionHistory().front()) << "seed " << seed;
      if (node->recoveries() > 0 &&
          node->lastRecovery().recordsRecovered > 0)
        sawRecovery = true;
    }
  }
  EXPECT_TRUE(sawRecovery);
}

TEST(RecoverySerialize, RestartFieldsRoundTrip) {
  RaftScenarioConfig config;
  config.n = 4;
  config.seed = 9;
  config.restarts.push_back({1, 200, 30});
  config.restarts.push_back({3, 410, 7});
  config.raft.durable = true;
  config.raft.syncBeforeReply = false;
  config.raft.storage.tornTailProbability = 0.25;
  config.raft.storage.corruptProbability = 0.125;

  const std::string text = harness::serialize(config);
  EXPECT_NE(text.find("restart=1@200+30"), std::string::npos);
  EXPECT_NE(text.find("restart=3@410+7"), std::string::npos);
  const RaftScenarioConfig parsed = harness::parseRaftConfig(text);
  ASSERT_EQ(parsed.restarts.size(), 2u);
  EXPECT_EQ(parsed.restarts[0].id, 1u);
  EXPECT_EQ(parsed.restarts[0].at, 200u);
  EXPECT_EQ(parsed.restarts[0].downtime, 30u);
  EXPECT_EQ(parsed.restarts[1].id, 3u);
  EXPECT_TRUE(parsed.raft.durable);
  EXPECT_FALSE(parsed.raft.syncBeforeReply);
  EXPECT_DOUBLE_EQ(parsed.raft.storage.tornTailProbability, 0.25);
  EXPECT_DOUBLE_EQ(parsed.raft.storage.corruptProbability, 0.125);
  // The round trip is exact: re-serializing yields the same run-id.
  EXPECT_EQ(compose::configRunId(harness::serialize(parsed)),
            compose::configRunId(text));
}

TEST(RecoverySerialize, OldConfigsParseWithVolatileDefaults) {
  // A pre-durability config (no restart/durable/sync keys) must keep its
  // old meaning: no journal, no restarts.
  RaftScenarioConfig old;
  old.n = 5;
  old.seed = 12;
  std::string text = harness::serialize(old);
  // Strip the new keys to simulate a file written before they existed.
  std::string pruned;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("durable=", 0) == 0 ||
        line.rfind("sync-before-reply=", 0) == 0 ||
        line.rfind("torn-prob=", 0) == 0 ||
        line.rfind("corrupt-prob=", 0) == 0)
      continue;
    pruned += line + "\n";
  }
  const RaftScenarioConfig parsed = harness::parseRaftConfig(pruned);
  EXPECT_FALSE(parsed.raft.durable);
  EXPECT_TRUE(parsed.raft.syncBeforeReply);
  EXPECT_TRUE(parsed.restarts.empty());
  EXPECT_EQ(parsed.n, 5u);
}

TEST(RecoveryChecker, InvariantsFireOnlyOnRaftAmnesia) {
  check::Scenario scenario;
  scenario.family = check::Family::kRaft;
  scenario.raft = amnesiaConfig();

  const auto report = check::runScenario(scenario);
  const check::VoteAmnesiaInvariant amnesia;
  const auto violation = amnesia.check(scenario, report);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->invariant, std::string("no-vote-amnesia"));
  EXPECT_FALSE(violation->detail.empty());

  // The same report attached to a non-raft scenario is ignored (guard).
  const check::Scenario benor;
  EXPECT_FALSE(amnesia.check(benor, report).has_value());

  const check::CommitRegressionInvariant regression;
  EXPECT_FALSE(regression.check(scenario, report).has_value());
}

TEST(RecoveryChecker, RestartStrategyIsDeterministicAndBounded) {
  check::Scenario base;
  base.family = check::Family::kRaft;
  base.raft.n = 5;
  base.raft.raft.durable = true;

  check::RestartScheduleStrategy::Options options;
  const check::RestartScheduleStrategy strategy(base, options);
  // Subsets of <= 1 process out of 5, each with |crashTicks| x |downtimes|
  // assignments, times seedsPerSchedule; plus the restart-free schedules.
  const std::size_t grid =
      options.crashTicks.size() * options.downtimes.size();
  EXPECT_EQ(strategy.size(),
            options.seedsPerSchedule * (1 + 5 * grid));
  for (const std::size_t index : {std::size_t{0}, strategy.size() / 2,
                                  strategy.size() - 1}) {
    const check::Scenario a = strategy.generate(index);
    const check::Scenario b = strategy.generate(index);
    EXPECT_EQ(check::serialize(a), check::serialize(b));
    EXPECT_LE(a.raft.restarts.size(), 1u);
  }
  EXPECT_THROW(
      check::RestartScheduleStrategy(check::Scenario{}, options),
      std::invalid_argument);
}

TEST(RecoveryReplay, CounterexampleWithRestartsReplaysBitIdentically) {
  check::Scenario scenario;
  scenario.family = check::Family::kRaft;
  scenario.raft = amnesiaConfig();

  const check::RecordedRun recorded = check::recordRun(scenario);
  ASSERT_TRUE(recorded.report.voteAmnesia);

  check::CounterexampleFile file;
  file.scenario = scenario;
  file.invariant = "no-vote-amnesia";
  file.detail = recorded.report.voteAmnesiaDetail;
  file.trace = recorded.trace;

  // The serialized form records the restart and survives a round trip.
  const std::string text = check::serializeCounterexample(file);
  EXPECT_NE(text.find("restart=1@250+1"), std::string::npos);
  const check::CounterexampleFile parsed =
      check::parseCounterexample(text);
  ASSERT_EQ(parsed.scenario.raft.restarts.size(), 1u);

  // Replaying the parsed file reproduces the exact schedule (restart
  // events included) and the violation.
  const check::ReplayResult replay =
      check::replayRun(parsed.scenario, parsed.trace);
  EXPECT_TRUE(replay.identical) << replay.divergence.value_or("");
  EXPECT_TRUE(replay.report.voteAmnesia);
  EXPECT_EQ(replay.report.voteAmnesiaDetail, file.detail);
}

TEST(RecoveryReplay, TimelineRendersRestartPoints) {
  check::Scenario scenario;
  scenario.family = check::Family::kRaft;
  scenario.raft = amnesiaConfig();
  const check::RecordedRun recorded = check::recordRun(scenario);

  check::CounterexampleFile file;
  file.scenario = scenario;
  file.invariant = "no-vote-amnesia";
  file.detail = recorded.report.voteAmnesiaDetail;
  file.trace = recorded.trace;

  const std::string timeline = check::renderTimeline(file, {});
  EXPECT_NE(timeline.find("CRASHED (incarnation 0 down"), std::string::npos);
  EXPECT_NE(timeline.find("RESTARTED (incarnation 1)"), std::string::npos);
  EXPECT_NE(timeline.find("bit-identical"), std::string::npos);
}

}  // namespace
}  // namespace ooc
