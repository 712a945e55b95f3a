// Multi-decree replicated-log service tests (src/svc): the three engines
// under the deterministic client workload, pipelining and batching,
// byte-identical determinism, durable and non-durable restart + catch-up,
// the serialized config round-trip, and the registry capability gate; then
// the sequential log (window 1, batch 1: identical logs and exactly-once
// commit across seeds, the bounded no-op tail, idle joiners, crashes,
// restarts) and the command packing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "svc/run.hpp"

namespace ooc::svc {
namespace {

SvcConfig smokeConfig(const std::string& engine) {
  SvcConfig config;
  config.engine = engine;
  config.detector = "benor-vac";
  config.driver = "lottery";
  config.n = 5;
  config.seed = 4242;
  config.minDelay = 1;
  config.maxDelay = 6;
  config.service.window = 2;
  config.service.batchMax = 4;
  config.workload.clients = 1000;
  config.workload.commandsPerNode = 8;
  config.workload.closedLoop = true;
  config.workload.thinkMin = 5;
  config.workload.thinkMax = 40;
  config.workload.startSpread = 16;
  return config;
}

TEST(Svc, ThreeEngineSmoke) {
  for (const std::string engine : {"compose", "paxos", "raft"}) {
    const SvcResult result = runSvc(smokeConfig(engine));
    EXPECT_TRUE(result.prefixOk) << engine;
    EXPECT_TRUE(result.exactlyOnce) << engine;
    EXPECT_TRUE(result.allApplied) << engine;
    EXPECT_FALSE(result.hitCap) << engine;
    EXPECT_EQ(result.commandsCommitted, 40u) << engine;
    EXPECT_EQ(result.commandsEmitted, 40u) << engine;
  }
}

// Pipelining: a window-4 run must stay correct and commit the same command
// set as the sequential window-1 discipline on the same workload.
TEST(Svc, PipelineWindowCorrectness) {
  SvcConfig sequential = smokeConfig("compose");
  sequential.service.window = 1;
  SvcConfig pipelined = smokeConfig("compose");
  pipelined.service.window = 4;
  const SvcResult a = runSvc(sequential);
  const SvcResult b = runSvc(pipelined);
  for (const SvcResult* r : {&a, &b}) {
    EXPECT_TRUE(r->prefixOk);
    EXPECT_TRUE(r->exactlyOnce);
    EXPECT_TRUE(r->allApplied);
    EXPECT_EQ(r->commandsCommitted, 40u);
  }
}

// Batching: under an open-loop burst the proposer packs more than one
// command per decree, and decrees committed < commands committed shows it.
TEST(Svc, BatchingPacksBursts) {
  SvcConfig config = smokeConfig("compose");
  config.workload.closedLoop = false;
  config.workload.arrivalsPerTick = 0.5;
  config.workload.burstEvery = 100;
  config.workload.burstLen = 20;
  config.workload.burstFactor = 4.0;
  config.service.batchMax = 8;
  const SvcResult result = runSvc(config);
  EXPECT_TRUE(result.prefixOk);
  EXPECT_TRUE(result.exactlyOnce);
  EXPECT_TRUE(result.allApplied);
  EXPECT_LT(result.decreesCommitted, result.commandsCommitted);
  bool sawRealBatch = false;
  for (std::uint32_t b : result.batchSizes) sawRealBatch |= b > 1;
  EXPECT_TRUE(sawRealBatch);
}

// Determinism: the pipelined service is a pure function of (config, seed)
// — repeated runs match field for field, including the pooled latency
// stream and the applied-command counts.
TEST(Svc, DeterministicAcrossRuns) {
  for (const std::string engine : {"compose", "paxos", "raft"}) {
    SvcConfig config = smokeConfig(engine);
    config.service.window = 4;
    const SvcResult a = runSvc(config);
    const SvcResult b = runSvc(config);
    EXPECT_EQ(a.commandsCommitted, b.commandsCommitted) << engine;
    EXPECT_EQ(a.decreesCommitted, b.decreesCommitted) << engine;
    EXPECT_EQ(a.lastCommitTick, b.lastCommitTick) << engine;
    EXPECT_EQ(a.latencies, b.latencies) << engine;
    EXPECT_EQ(a.batchSizes, b.batchSizes) << engine;
    EXPECT_EQ(a.messagesByCorrect, b.messagesByCorrect) << engine;
    EXPECT_EQ(a.eventsProcessed, b.eventsProcessed) << engine;
  }
}

// Restart: with journalling on, a crash-restarted node recovers its prefix
// from the journal, catches up the rest from peers, and the service-level
// invariants hold end to end. Without it (a fresh boot), the node abstains
// until a catch-up reply bounds what its previous incarnation may have
// voted on, and the same invariants hold.
TEST(Svc, DurableRestartCatchesUp) {
  std::vector<SvcConfig> configs;
  for (const std::string engine : {"compose", "paxos", "raft"}) {
    SvcConfig config = smokeConfig(engine);
    config.restarts = {{1, 80, 60}};
    configs.push_back(config);
  }
  for (const bool durable : {true, false}) {
    for (SvcConfig config : configs) {
      // Raft without a journal forgets its votes: unsafe by design.
      if (!durable && config.engine == "raft") continue;
      config.service.durable = durable;
      const std::string label =
          config.engine + (durable ? " durable" : " volatile");
      const SvcResult result = runSvc(config);
      EXPECT_TRUE(result.prefixOk) << label;
      EXPECT_TRUE(result.exactlyOnce) << label;
      EXPECT_FALSE(result.hitCap) << label;
      EXPECT_GT(result.commandsCommitted, 0u) << label;
    }
  }
}

TEST(Svc, SerializeRoundTrip) {
  SvcConfig config = smokeConfig("compose");
  config.service.durable = true;
  config.crashes.push_back({2, 150});
  RestartEvent restart;
  restart.id = 3;
  restart.at = 90;
  restart.downtime = 75;
  config.restarts.push_back(restart);
  const std::string wire = serializeSvcConfig(config);
  const SvcConfig parsed = parseSvcConfig(wire);
  EXPECT_EQ(serializeSvcConfig(parsed), wire);
}

// The capability gate: admission is decided by the registry descriptor,
// not a name list, and each rejection names the failed capability.
TEST(Svc, EngineGateRejectsByCapability) {
  SvcConfig config = smokeConfig("compose");

  // Binary coin: not multivalued — it would decide values nobody proposed.
  config.driver = "local-coin";
  auto rejected = validateEngine(config);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_NE(rejected->find("not multivalued"), std::string::npos);

  // Adopt-commit detector: the log decides on commit under the VAC rule.
  config.driver = "lottery";
  config.detector = "phaseking-ac";
  rejected = validateEngine(config);
  ASSERT_TRUE(rejected.has_value());

  // Oracle-consuming driver: the service harness attaches no oracle.
  config.detector = "benor-vac";
  config.driver = "ct-coordinator";
  rejected = validateEngine(config);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_NE(rejected->find("oracle"), std::string::npos);

  // Admissible pairing and the native engines pass.
  config.driver = "lottery";
  EXPECT_FALSE(validateEngine(config).has_value());
  config.engine = "raft";
  EXPECT_FALSE(validateEngine(config).has_value());

  // Unknown registry names throw, listing the known ones.
  config.engine = "compose";
  config.driver = "no-such-driver";
  EXPECT_THROW((void)validateEngine(config), std::invalid_argument);

  // runSvc re-validates: an inadmissible config cannot be executed.
  SvcConfig bad = smokeConfig("compose");
  bad.driver = "local-coin";
  EXPECT_THROW((void)runSvc(bad), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ReplicatedLog: the sequential log — svc at window 1, batch 1, where every
// decree carries one command and a node opens the next decree only once the
// previous one is decided.

/// The sequential log: one command per decree, one decree at a time, with
/// every node's `commandsPerNode` commands queued at tick 1.
SvcConfig sequentialConfig(std::size_t n, std::uint64_t commandsPerNode,
                           std::uint64_t seed) {
  SvcConfig config;
  config.n = n;
  config.seed = seed;
  config.minDelay = 1;
  config.maxDelay = 8;
  config.service.window = 1;
  config.service.batchMax = 1;
  config.workload.commandsPerNode = commandsPerNode;
  config.workload.startSpread = 1;
  return config;
}

bool sequentialRunOk(const SvcResult& result) {
  return result.prefixOk && result.exactlyOnce && !result.hitCap;
}

// Fault-free, every node applies every command exactly once, in one order:
// prefix agreement plus every emitted command applied at every node.
TEST(ReplicatedLog, LogsIdenticalAndExactlyOnceFaultFree) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const SvcResult result = runSvc(sequentialConfig(5, 3, seed));
    EXPECT_TRUE(sequentialRunOk(result)) << "seed " << seed;
    EXPECT_TRUE(result.allApplied) << "seed " << seed;
    EXPECT_EQ(result.commandsEmitted, 15u) << "seed " << seed;
    EXPECT_EQ(result.commandsCommitted, 15u) << "seed " << seed;
  }
}

TEST(ReplicatedLog, AllCommandsCommittedExactlyOnceInSameOrder) {
  const SvcResult result = runSvc(sequentialConfig(4, 5, /*seed=*/1));
  EXPECT_TRUE(sequentialRunOk(result));
  EXPECT_TRUE(result.allApplied);
  EXPECT_EQ(result.commandsEmitted, 20u);
  EXPECT_EQ(result.commandsCommitted, 20u);
}

TEST(ReplicatedLog, SeedSweepStaysConsistent) {
  for (std::uint64_t seed = 2; seed <= 8; ++seed) {
    const SvcResult result = runSvc(sequentialConfig(3, 3, seed));
    EXPECT_TRUE(sequentialRunOk(result)) << "seed " << seed;
    EXPECT_TRUE(result.allApplied) << "seed " << seed;
    EXPECT_EQ(result.commandsCommitted, 9u) << "seed " << seed;
  }
}

// Idle detection: a drained cluster stops opening decrees, so the run
// quiesces on its own, promptly (well inside the tightened tick cap), and
// the log carries no unbounded no-op tail — decrees are bounded by the
// commands plus the no-ops lost to races while work was still pending.
TEST(ReplicatedLog, DrainedClusterQuiesces) {
  SvcConfig config = sequentialConfig(3, 4, /*seed=*/7);
  config.maxTicks = 100'000;
  const SvcResult result = runSvc(config);
  EXPECT_TRUE(sequentialRunOk(result));
  EXPECT_TRUE(result.allApplied);
  EXPECT_EQ(result.commandsCommitted, 12u);
  EXPECT_LE(result.decreesCommitted, 3 * result.commandsCommitted);
}

// A node with no clients of its own (2 clients over 3 nodes) never opens a
// decree by itself; it joins its peers' decrees reactively and still
// applies the full log.
TEST(ReplicatedLog, IdleNodeJoinsReactively) {
  SvcConfig config = sequentialConfig(3, 4, /*seed=*/11);
  config.workload.clients = 2;
  const SvcResult result = runSvc(config);
  EXPECT_TRUE(sequentialRunOk(result));
  EXPECT_TRUE(result.allApplied);
  EXPECT_EQ(result.commandsCommitted, 8u);
}

// A permanent crash freezes the crashed node's log, which must stay a
// prefix of the survivors' logs (decided decrees are final); the survivors
// still commit at least their own 12 commands.
TEST(ReplicatedLog, CrashedNodeLogIsPrefixOfSurvivors) {
  for (std::uint64_t seed = 20; seed <= 24; ++seed) {
    SvcConfig config = sequentialConfig(5, 3, seed);
    config.crashes = {{1, 120}};
    const SvcResult result = runSvc(config);
    EXPECT_TRUE(sequentialRunOk(result)) << "seed " << seed;
    EXPECT_GE(result.commandsCommitted, 12u) << "seed " << seed;
  }
}

// n = 5, t = 2: two nodes crash mid-stream. The live logs never diverge
// and no command is applied twice; the crashed nodes' queued commands may
// be lost with them, the survivors' 12 are not.
TEST(ReplicatedLog, SurvivesMinorityCrashes) {
  SvcConfig config = sequentialConfig(5, 4, /*seed=*/3);
  config.crashes = {{0, 400}, {3, 900}};
  const SvcResult result = runSvc(config);
  EXPECT_TRUE(sequentialRunOk(result));
  EXPECT_GE(result.commandsCommitted, 12u);
}

// Crash-restart of node 2 at tick 100 for 60 ticks, with and without the
// journal: a durable node recovers its prefix and catches up; a fresh boot
// abstains until a catch-up reply bounds what its previous incarnation may
// have voted on. Either way the logs prefix-agree and stay exactly-once.
TEST(ReplicatedLog, RestartPreservesPrefixAgreement) {
  for (const bool durable : {false, true}) {
    for (std::uint64_t seed = 40; seed <= 43; ++seed) {
      SvcConfig config = sequentialConfig(5, 3, seed);
      config.service.durable = durable;
      config.restarts = {{2, 100, 60}};
      const SvcResult result = runSvc(config);
      const std::string label = "seed " + std::to_string(seed) +
                                (durable ? " durable" : " volatile");
      EXPECT_TRUE(sequentialRunOk(result)) << label;
      EXPECT_GT(result.commandsCommitted, 0u) << label;
    }
  }
}

TEST(ReplicatedLog, CommandPacking) {
  const Value command = makeCommand(3, 17);
  EXPECT_EQ(commandNode(command), 3u);
  EXPECT_GT(command, kNoopCommand);
}

}  // namespace
}  // namespace ooc::svc
