// Multi-decree replicated-log service tests (src/svc): the three engines
// under the deterministic client workload, pipelining and batching,
// byte-identical determinism, durable and non-durable restart + catch-up,
// the serialized config round-trip, and the registry capability gate; then
// the sequential log (window 1, batch 1: identical logs and exactly-once
// commit across seeds, the bounded no-op tail, idle joiners, crashes,
// restarts), the command packing and the client front.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/run_id.hpp"
#include "svc/run.hpp"
#include "svc/workload.hpp"

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

/// The schedule side of a run: audits, counts, the reference commit
/// timeline, batch sizes, event and message totals, suppressed duplicates
/// and leader events.
std::string scheduleOf(const SvcResult& r) {
  std::string s;
  const auto put = [&s](std::uint64_t v) { s += std::to_string(v) + ','; };
  for (const bool flag : {r.prefixOk, r.exactlyOnce, r.allApplied, r.hitCap})
    put(flag);
  for (const std::uint64_t count :
       {r.decreesCommitted, r.commandsCommitted, r.commandsEmitted,
        r.noopDecrees, r.lastCommitTick, r.maxCommitGap, r.eventsProcessed,
        r.messagesByCorrect, r.duplicatesSuppressed}) {
    put(count);
  }
  s += '|';
  for (const std::uint32_t size : r.batchSizes) put(size);
  s += '|';
  for (const auto& [at, id] : r.leaderEvents) {
    put(at);
    put(id);
  }
  return s;
}

/// The client side of a run: the pooled latency samples, in pool order.
std::string latenciesOf(const SvcResult& r) {
  std::string s;
  for (const Tick latency : r.latencies) s += std::to_string(latency) + ',';
  return s;
}

// Restart pins: every engine under a durable and a volatile restart of
// node 1, at windows 2 and 4, each run fixed by FNV-1a digests of its
// schedule and of its latency samples. The open loop (one arrival per 25
// ticks) keeps commands arriving across the restart, so the crash lands
// after commits and some arrivals fall due during the downtime. A change
// to the client side must leave the schedule digests alone; a
// latency-accounting fix may move only the latency digests.
TEST(Svc, RestartRunsMatchTheirPinnedDigests) {
  struct Pin {
    const char* engine;
    bool durable;
    std::uint64_t window;
    const char* schedule;
    const char* latency;
  };
  const Pin pins[] = {
      {"compose", true, 2, "11e68719176fd33e", "540fd17050b1aa24"},
      {"compose", true, 4, "59cafb520a0a68fc", "9f829bb9558a7d24"},
      {"compose", false, 2, "c8433069a3999ab3", "86875f696d5456c7"},
      {"compose", false, 4, "cede6100c987fbab", "6d38eec6a16ca02d"},
      {"paxos", true, 2, "2913b2d5a58a8a90", "24fe9d65747361e5"},
      {"paxos", true, 4, "1d985124e876f929", "c1894340aa797990"},
      {"paxos", false, 2, "a7b2d8169343b895", "663a27f7a44b3631"},
      {"paxos", false, 4, "335211b5eeca32fa", "5cf39200da201d36"},
      {"raft", true, 2, "ccce1069abda8b2d", "6f772a3329f51928"},
      {"raft", true, 4, "ccce1069abda8b2d", "6f772a3329f51928"},
      {"raft", false, 2, "550aee70dfb2a21a", "be735e0cb0f6a54c"},
      {"raft", false, 4, "550aee70dfb2a21a", "be735e0cb0f6a54c"},
  };
  for (const Pin& pin : pins) {
    SvcConfig config = smokeConfig(pin.engine);
    config.workload.closedLoop = false;
    config.workload.arrivalsPerTick = 0.04;
    config.workload.commandsPerNode = 12;
    config.service.durable = pin.durable;
    config.service.window = pin.window;
    config.restarts = {{1, 200, 60}};
    const SvcResult result = runSvc(config);
    const std::string label = std::string(pin.engine) +
                              (pin.durable ? " durable" : " volatile") +
                              " window " + std::to_string(pin.window);
    EXPECT_EQ(obs::toHex(obs::fnv1a(scheduleOf(result))), pin.schedule)
        << label << " schedule: " << scheduleOf(result);
    EXPECT_EQ(obs::toHex(obs::fnv1a(latenciesOf(result))), pin.latency)
        << label << " latencies: " << latenciesOf(result);
  }
}

/// The repository benchmark's service shape: n=5, delays 1..6, window 4,
/// batches of up to 4, a journal synced before each reply, and a closed
/// loop of 100k zipfian clients (think 5..40 ticks) emitting 200 commands
/// per node.
SvcConfig benchmarkShape(const std::string& engine) {
  SvcConfig config;
  config.engine = engine;
  config.n = 5;
  config.seed = 4242;
  config.minDelay = 1;
  config.maxDelay = 6;
  config.service.window = 4;
  config.service.batchMax = 4;
  config.service.durable = true;
  config.service.syncBeforeReply = true;
  config.workload.clients = 100000;
  config.workload.commandsPerNode = 200;
  config.workload.closedLoop = true;
  config.workload.thinkMin = 5;
  config.workload.thinkMax = 40;
  return config;
}

// Long-log pins: runs in the benchmark's shape, fixed by the same digests
// as the restart pins. Raft's log reaches 1,000 entries, so full 64-entry
// appends, followers re-sent entries they hold and commits that jump
// several entries at once are all under the pin. The restart rows replay
// a journal mid-run: paxos restarts node 0 at tick 300 for 150 ticks, as
// the benchmark's svc-paxos-faults does. Raft commits all 1,000 commands
// by tick 206 here, so its row crashes the leader, node 2 (elected at tick
// 161), at tick 190: a new leader takes over and node 2 replays a long
// log.
TEST(Svc, LongLogRunsMatchTheirPinnedDigests) {
  struct Pin {
    const char* engine;
    std::vector<RestartEvent> restarts;
    const char* schedule;
    const char* latency;
  };
  const Pin pins[] = {
      {"compose", {}, "5f105c54ea4f0aea", "713b7a9682896845"},
      {"paxos", {}, "d4fa1ff00af3bb9a", "c794d47aceef083f"},
      {"raft", {}, "07f2fa19a0aa55d4", "203e288aea350539"},
      {"paxos", {{0, 300, 150}}, "fa371f1cbeea6f92", "b31d4002826ce4c0"},
      {"raft", {{2, 190, 150}}, "ffe230fcb563b382", "5659cc705a4be730"},
  };
  for (const Pin& pin : pins) {
    SvcConfig config = benchmarkShape(pin.engine);
    config.restarts = pin.restarts;
    const SvcResult result = runSvc(config);
    const bool restart = !pin.restarts.empty();
    const std::string label =
        std::string(pin.engine) + (restart ? " restart" : "");
    EXPECT_TRUE(result.prefixOk && result.exactlyOnce) << label;
    if (!restart) {
      EXPECT_TRUE(result.allApplied) << label;
      EXPECT_EQ(result.commandsCommitted, 1000u) << label;
    }
    EXPECT_EQ(obs::toHex(obs::fnv1a(scheduleOf(result))), pin.schedule)
        << label << " schedule";
    EXPECT_EQ(obs::toHex(obs::fnv1a(latenciesOf(result))), pin.latency)
        << label << " latencies";
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

// Files written while t, bias, the per-decree round cap and the retry,
// election, heartbeat and resubmit periods were options still load: the
// reader skips those keys, and the values below are the constants the
// service now runs with.
TEST(Svc, OlderFilesWithRetiredKnobsStillLoad) {
  const std::string retired =
      "t=2\nbias=0.5\nmax-rounds=2000\nfetch-retry=32\ncatchup-retry=64\n"
      "paxos-retry-min=4\npaxos-retry-max=12\nelection-min=150\n"
      "election-max=300\nheartbeat=40\nresubmit-every=80\n";
  for (const std::string engine : {"compose", "paxos", "raft"}) {
    const std::string wire = serializeSvcConfig(smokeConfig(engine));
    EXPECT_EQ(serializeSvcConfig(parseSvcConfig(wire + retired)), wire)
        << engine;
  }
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

// ---------------------------------------------------------------------------
// ClientFront: the client side both node kinds own, driven directly.

/// A hand-cranked Context: the test sets the tick and the incarnation.
class FrontContext final : public Context {
 public:
  ProcessId self() const noexcept override { return 0; }
  std::size_t processCount() const noexcept override { return 1; }
  Tick now() const noexcept override { return now_; }
  Rng& rng() noexcept override { return rng_; }
  void post(ProcessId, MessagePtr) override {}
  void fanout(MessagePtr) override {}
  TimerId setTimer(Tick) override { return ++timers_; }
  void cancelTimer(TimerId) noexcept override {}
  void decide(Value) override {}
  std::uint32_t incarnation() const noexcept override { return incarnation_; }

  Tick now_ = 0;
  std::uint32_t incarnation_ = 0;

 private:
  Rng rng_{1};
  TimerId timers_ = 0;
};

/// One node, one arrival per tick from tick 1 on.
ClientFront everyTickFront(std::uint64_t commands) {
  WorkloadOptions options;
  options.closedLoop = false;
  options.arrivalsPerTick = 1.0;
  options.commandsPerNode = commands;
  return ClientFront(options, makeZipfCdf(options), /*node=*/0, /*n=*/1,
                     /*seed=*/1);
}

// A latency sample is what a client saw, not replica state: a restart
// drops the ledger but keeps the samples already taken.
TEST(ClientFront, ResetKeepsLatencySamples) {
  FrontContext ctx;
  ClientFront front = everyTickFront(4);
  ctx.now_ = 1;
  const std::vector<Value> commands = front.takeArrivals(ctx);
  ASSERT_EQ(commands.size(), 1u);
  EXPECT_TRUE(front.apply(commands[0], 6));
  EXPECT_FALSE(front.apply(commands[0], 7));
  front.recordCommit(6);
  front.recordBatch(1);

  ctx.incarnation_ = 1;
  front.reset();
  EXPECT_EQ(front.latencies(), std::vector<Tick>{5});
  EXPECT_TRUE(front.applied().empty());
  EXPECT_FALSE(front.isApplied(commands[0]));
  EXPECT_TRUE(front.commitTicks().empty());
  EXPECT_TRUE(front.batchSizes().empty());
  EXPECT_EQ(front.duplicatesSuppressed(), 0u);
}

// The in-flight count is what RaftLogNode::drained() reads after every
// event: this incarnation's own commands, minted and not yet applied.
TEST(ClientFront, InFlightCountsThisIncarnationsUnappliedCommands) {
  FrontContext ctx;
  ClientFront front = everyTickFront(4);
  EXPECT_EQ(front.inFlight(), 0u);
  ctx.now_ = 2;
  const std::vector<Value> commands = front.takeArrivals(ctx);
  ASSERT_EQ(commands.size(), 2u);
  EXPECT_EQ(front.inFlight(), 2u) << "minting adds";
  EXPECT_TRUE(front.apply(commands[0], 3));
  EXPECT_EQ(front.inFlight(), 1u) << "an own first apply takes one off";
  EXPECT_FALSE(front.apply(commands[0], 4));
  EXPECT_EQ(front.inFlight(), 1u) << "a duplicate changes nothing";
  EXPECT_TRUE(front.apply(makeCommand(1, 1), 4));
  EXPECT_EQ(front.inFlight(), 1u) << "a foreign command changes nothing";

  ctx.incarnation_ = 1;
  front.reset();
  EXPECT_EQ(front.inFlight(), 0u) << "reset zeroes it";
  // The crashed incarnation's command, applied after the restart, was
  // never in flight here.
  EXPECT_TRUE(front.apply(commands[1], 5));
  EXPECT_EQ(front.inFlight(), 0u);
  ctx.now_ = 6;
  EXPECT_EQ(front.takeArrivals(ctx).size(), 2u);
  EXPECT_EQ(front.inFlight(), 2u);
}

// Arrivals due during a downtime are collected at the first firing after
// it, and each is stamped with the tick it fell due, so the client's wait
// through the outage shows in its latency.
TEST(ClientFront, LateCollectionStampsTheDueTick) {
  FrontContext ctx;
  ClientFront front = everyTickFront(3);
  ctx.now_ = 10;
  const std::vector<Value> commands = front.takeArrivals(ctx);
  ASSERT_EQ(commands.size(), 3u);
  for (const Value command : commands) EXPECT_TRUE(front.apply(command, 12));
  EXPECT_EQ(front.latencies(), (std::vector<Tick>{11, 10, 9}));
  EXPECT_EQ(front.workload().emitted(), 3u);
}

// The incarnation lives in 8 bits of every command id: the 256th restart
// would re-mint the first incarnation's ids, which would then dedup
// against commands applied long ago. Minting there throws instead.
TEST(ClientFront, IncarnationWrapThrows) {
  FrontContext ctx;
  ClientFront front = everyTickFront(2);
  ctx.now_ = 1;
  ctx.incarnation_ = 255;
  const std::vector<Value> commands = front.takeArrivals(ctx);
  ASSERT_EQ(commands.size(), 1u);
  EXPECT_EQ(commands[0], makeCommand(0, (255u << 24) | 1));
  ctx.now_ = 2;
  ctx.incarnation_ = 256;
  EXPECT_THROW((void)front.takeArrivals(ctx), std::overflow_error);
  EXPECT_THROW((void)incarnationSequence(0, 1u << 24), std::overflow_error);
}

// The same wrap reached from a scenario: node 1 restarts 256 times and
// then collects an arrival, so the run stops with the error rather than
// mint a duplicate id.
TEST(ClientFront, IncarnationWrapFailsTheRun) {
  for (const std::string engine : {"compose", "raft"}) {
    SvcConfig config = smokeConfig(engine);
    config.workload.closedLoop = false;
    config.workload.arrivalsPerTick = 0.05;
    config.workload.commandsPerNode = 40;
    for (Tick at = 2; at <= 512; at += 2) config.restarts.push_back({1, at, 1});
    EXPECT_THROW((void)runSvc(config), std::overflow_error) << engine;
    config.restarts.pop_back();
    EXPECT_NO_THROW((void)runSvc(config)) << engine;
  }
}

}  // namespace
}  // namespace ooc::svc
