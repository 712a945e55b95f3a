// Randomized robustness suite: determinism fuzzing, hostile-junk injection,
// hostile bytes in the key=value scenario and counterexample files (the
// only text the readers accept), hostile journal images, chaotic fault
// schedules, hostile records in every journal replay, and deep Raft
// log-divergence repair. Everything is seed-driven — failures reproduce
// exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "benor/messages.hpp"
#include "benor/reconciliators.hpp"
#include "benor/vac.hpp"
#include "check/golden.hpp"
#include "check/replay.hpp"
#include "compose/run.hpp"
#include "core/consensus_process.hpp"
#include "core/vac_from_ac.hpp"
#include "core/properties.hpp"
#include "core/tagged_message.hpp"
#include "harness/scenarios.hpp"
#include "paxos/paxos_node.hpp"
#include "raft/kv_store.hpp"
#include "sim/simulator.hpp"
#include "store/journal.hpp"
#include "store/wal.hpp"
#include "svc/service.hpp"

namespace ooc {
namespace {

using harness::RaftScenarioConfig;

// ---------------------------------------------------------------------------
// Determinism fuzz: random configurations, run twice, compare everything.

TEST(Fuzz, BenOrRunsAreReproducibleAcrossRandomConfigs) {
  Rng meta(0xF00D);
  for (int trial = 0; trial < 25; ++trial) {
    compose::Composition config;
    config.n = 3 + static_cast<std::size_t>(meta.below(10));
    config.inputs.resize(config.n);
    for (auto& v : config.inputs) v = meta.coin();
    config.seed = meta.next();
    config.maxDelay = 1 + meta.below(30);
    const std::size_t crashes = meta.below((config.n - 1) / 2 + 1);
    for (std::size_t k = 0; k < crashes; ++k) {
      config.crashes.emplace_back(
          static_cast<ProcessId>(meta.below(config.n)),
          static_cast<Tick>(meta.below(300)));
    }
    const auto a = compose::runComposition(config);
    const auto b = compose::runComposition(config);
    EXPECT_EQ(a.decidedValue, b.decidedValue) << "trial " << trial;
    EXPECT_EQ(a.lastDecisionTick, b.lastDecisionTick) << "trial " << trial;
    EXPECT_EQ(a.messagesByCorrect, b.messagesByCorrect) << "trial " << trial;
    EXPECT_EQ(a.maxDecisionRound, b.maxDecisionRound) << "trial " << trial;
    // And the run itself must be clean whatever the dice said.
    EXPECT_TRUE(a.allDecided) << "trial " << trial;
    EXPECT_FALSE(a.agreementViolated) << "trial " << trial;
    EXPECT_TRUE(a.allAuditsOk) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Hostile bytes: every committed golden, as its scenario section and as a
// whole counterexample file, mutated by bit flips, truncation, duplicated,
// dropped and garbled lines. Each mutant
// must either parse or throw a std::exception — never crash, hang or trip
// a sanitizer.

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> splitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string mutate(const std::string& text, Rng& rng) {
  if (text.empty()) return text;
  std::string out = text;
  switch (rng.below(5)) {
    case 0:  // flip one to three bits
      for (std::uint64_t k = 0, flips = 1 + rng.below(3); k < flips; ++k)
        out[rng.below(out.size())] ^= static_cast<char>(1u << rng.below(8));
      return out;
    case 1:  // truncate
      return out.substr(0, rng.below(out.size()));
    default: break;
  }
  std::vector<std::string> lines = splitLines(text);
  const std::size_t at = rng.below(lines.size());
  switch (rng.below(3)) {
    case 0:  // duplicate a line
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                   lines[at]);
      break;
    case 1:  // drop a line
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    default:  // garble a line with arbitrary bytes
      for (char& c : lines[at])
        if (rng.below(3) == 0) c = static_cast<char>(rng.below(256));
      break;
  }
  std::string joined;
  for (const std::string& line : lines) joined += line + "\n";
  return joined;
}

std::string scenarioSection(const std::string& golden) {
  const auto begin = golden.find("\nscenario\n");
  const auto end = golden.find("\ntrace\n");
  if (begin == std::string::npos || end == std::string::npos) return "";
  return golden.substr(begin + 10, end - begin - 9);
}

template <typename Parse>
void expectParsesOrThrows(const std::string& input, Parse&& parse,
                          const std::string& what) {
  try {
    parse(input);
  } catch (const std::exception&) {
    // Rejected with a diagnostic: fine.
  } catch (...) {
    ADD_FAILURE() << what << ": non-std exception";
  }
}

TEST(Fuzz, HostileBytesInScenarioFilesParseOrThrow) {
  constexpr int kMutantsPerGolden = 60;
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "ooc-fuzz.golden")
          .string();
  Rng rng(0xBADF11E);
  for (const auto& fixture : check::goldenFixtures()) {
    const std::string golden = readFile(std::string(OOC_GOLDEN_DIR "/") +
                                        fixture.name + ".golden");
    const std::string scenario = scenarioSection(golden);
    ASSERT_FALSE(scenario.empty()) << fixture.name;
    ASSERT_NO_THROW(check::parseScenario(scenario)) << fixture.name;
    for (int i = 0; i < kMutantsPerGolden; ++i) {
      const std::string tag = fixture.name + " mutant " + std::to_string(i);
      expectParsesOrThrows(
          mutate(scenario, rng),
          [](const std::string& text) { check::parseScenario(text); }, tag);
      const std::string file = mutate(golden, rng);
      std::ofstream(path, std::ios::binary) << file;
      expectParsesOrThrows(
          path,
          [](const std::string& p) { check::loadCounterexampleFile(p); },
          tag);
    }
  }
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Junk injection: a process that sprays malformed and mis-addressed
// messages at consensus participants. Everything must be ignored
// gracefully — no crash, no property violation.

struct JunkMessage final : MessageBase<JunkMessage> {
  std::string describe() const override { return "junk"; }
};

class JunkSprayer final : public Process {
 public:
  void onStart() override { spray(); }
  void onTimer(TimerId) override { spray(); }
  void onMessage(ProcessId, const Message&) override {}

 private:
  void spray() {
    if (ctx().now() > 400) return;
    for (ProcessId dest = 0; dest < ctx().processCount(); ++dest) {
      switch (ctx().rng().below(4)) {
        case 0:
          ctx().post(dest, makeMessage<JunkMessage>());
          break;
        case 1:  // tagged junk for a random round/stage
          ctx().post(dest,
                     makeMessage<TaggedMessage>(
                         static_cast<Round>(ctx().rng().below(20)),
                         ctx().rng().coin() ? Stage::kDetect : Stage::kDrive,
                         makeMessage<JunkMessage>()));
          break;
        case 2:  // plausible-looking benor payload at a random round
          ctx().post(dest, makeMessage<TaggedMessage>(
                               static_cast<Round>(ctx().rng().below(20)),
                               Stage::kDetect,
                               makeMessage<benor::ProposalMessage>(
                                   static_cast<Value>(ctx().rng().next()))));
          break;
        default:  // forged report
          ctx().post(dest, makeMessage<TaggedMessage>(
                               static_cast<Round>(ctx().rng().below(20)),
                               Stage::kDetect,
                               makeMessage<benor::ReportMessage>(
                                   true, ctx().rng().coin())));
          break;
      }
    }
    ctx().setTimer(1 + ctx().rng().below(10));
  }
};

TEST(Fuzz, TemplateSurvivesJunkTraffic) {
  // Ben-Or with t = 2 budgeted faults, one of which is the sprayer. The
  // sprayer's forged reports can inject ratify votes, but never more than
  // one per round (sender dedup), which the thresholds absorb.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SimConfig simConfig;
    simConfig.seed = seed;
    simConfig.maxTicks = 2'000'000;
    UniformDelayNetwork::Options net;
    net.maxDelay = 10;
    Simulator sim(simConfig, std::make_unique<UniformDelayNetwork>(net));

    std::vector<ConsensusProcess*> processes;
    const std::vector<Value> inputs = {0, 1, 0, 1, 0, 1};
    for (Value input : inputs) {
      ConsensusProcess::Options options;
      auto p = std::make_unique<ConsensusProcess>(
          input, benor::BenOrVac::factory(2),
          benor::CoinReconciliator::factory(), options);
      processes.push_back(p.get());
      sim.addProcess(std::move(p));
    }
    sim.addProcess(std::make_unique<JunkSprayer>(), /*faulty=*/true);

    sim.setValidValues(inputs);
    sim.stopWhenAllCorrectDecided();
    sim.run();
    EXPECT_TRUE(sim.allCorrectDecided()) << "seed " << seed;
    EXPECT_FALSE(sim.agreementViolated()) << "seed " << seed;
    EXPECT_FALSE(sim.validityViolated()) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Raft nemesis: random partition storms + crashes; safety must hold in
// every run, liveness once the nemesis retires.

TEST(Fuzz, RaftNemesisPartitionStorm) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RaftScenarioConfig config;
    config.n = 5;
    config.seed = seed;
    config.dropProbability = 0.05;
    config.maxTicks = 3'000'000;

    Rng nemesis(seed * 77);
    Tick at = 100;
    for (int wave = 0; wave < 6; ++wave) {
      std::vector<int> groups(5);
      for (auto& g : groups) g = static_cast<int>(nemesis.below(2));
      config.partitions.push_back({at, groups});
      at += 200 + nemesis.below(400);
      config.partitions.push_back({at, {}});  // heal
      at += 100 + nemesis.below(200);
    }
    // Nemesis retires by `at`; allow generous convergence time after.
    const auto result = runRaft(config);
    EXPECT_FALSE(result.agreementViolated) << "seed " << seed;
    EXPECT_FALSE(result.validityViolated) << "seed " << seed;
    EXPECT_TRUE(result.commitValuesAgree) << "seed " << seed;
    EXPECT_TRUE(result.allDecided) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Deep log divergence: an isolated stale leader accumulates uncommitted
// entries that must be overwritten after healing (Raft's conflict-suffix
// deletion + NextIndex backtracking).

TEST(Fuzz, RaftStaleLeaderSuffixIsRepaired) {
  SimConfig simConfig;
  simConfig.seed = 9;
  simConfig.maxTicks = 1'000'000;
  UniformDelayNetwork::Options net;
  net.maxDelay = 5;
  auto partitioned = std::make_unique<PartitionedNetwork>(
      std::make_unique<UniformDelayNetwork>(net));
  auto* handle = partitioned.get();
  Simulator sim(simConfig, std::move(partitioned));

  std::vector<raft::KvStoreNode*> nodes;
  for (int i = 0; i < 5; ++i) {
    auto node = std::make_unique<raft::KvStoreNode>(raft::RaftConfig{});
    nodes.push_back(node.get());
    sim.addProcess(std::move(node));
  }
  auto leaderIndex = [&]() -> int {
    for (int i = 0; i < 5; ++i)
      if (nodes[i]->role() == raft::Role::kLeader) return i;
    return -1;
  };

  int staleLeader = -1;
  // Once a leader exists, trap it (and one follower) in a minority
  // partition, then immediately feed it uncommittable entries.
  sim.schedule(2000, [&] {
    staleLeader = leaderIndex();
    ASSERT_NE(staleLeader, -1) << "no leader by tick 2000";
    std::vector<int> groups(5, 0);
    groups[static_cast<std::size_t>(staleLeader)] = 1;
    groups[(staleLeader + 1) % 5] = 1;
    handle->setPartition(groups);
  });
  sim.schedule(2100, [&] {
    for (std::uint32_t k = 100; k < 106; ++k)
      nodes[static_cast<std::size_t>(staleLeader)]->set(k, k);
  });
  // Majority side elects a new leader and commits entries of its own.
  sim.schedule(5000, [&] {
    for (int i = 0; i < 5; ++i) {
      if (i == staleLeader || i == (staleLeader + 1) % 5) continue;
      if (nodes[i]->role() == raft::Role::kLeader) {
        for (std::uint32_t k = 0; k < 4; ++k) nodes[i]->set(k, k + 500);
      }
    }
  });
  sim.schedule(12000, [&] { handle->clearPartition(); });

  sim.setStopPredicate([&](const Simulator&) {
    for (const auto* node : nodes)
      if (node->appliedCount() < 4) return false;
    return true;
  });
  sim.run();
  ASSERT_FALSE(sim.hitCap());

  // All logs' committed prefixes agree, and nobody ever applied one of the
  // stale leader's uncommittable entries.
  for (const auto* node : nodes) {
    ASSERT_GE(node->appliedCount(), 4u);
    for (std::uint32_t k = 0; k < 4; ++k) {
      ASSERT_TRUE(node->data().contains(k));
      EXPECT_EQ(node->data().at(k), k + 500);
    }
    for (std::uint32_t k = 100; k < 106; ++k)
      EXPECT_FALSE(node->data().contains(k)) << "stale entry applied";
  }
  // The stale leader's conflicting suffix was physically replaced.
  const auto& reference = nodes[(staleLeader + 2) % 5]->log();
  const auto& repaired = nodes[static_cast<std::size_t>(staleLeader)]->log();
  const auto commit = nodes[(staleLeader + 2) % 5]->commitIndex();
  ASSERT_GE(repaired.size(), commit);
  for (raft::LogIndex i = 0; i < commit; ++i)
    EXPECT_EQ(repaired[i], reference[i]);
}

// ---------------------------------------------------------------------------
// Chaotic everything: random delays, duplications, crashes, junk — with
// the VacFromTwoAc stack (deepest object nesting) on top.

TEST(Fuzz, NestedObjectsUnderChaos) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SimConfig simConfig;
    simConfig.seed = seed;
    simConfig.maxTicks = 3'000'000;
    UniformDelayNetwork::Options net;
    net.maxDelay = 25;
    net.duplicateProbability = 0.2;  // duplication stresses sender dedup
    Simulator sim(simConfig, std::make_unique<UniformDelayNetwork>(net));

    std::vector<ConsensusProcess*> processes;
    const std::vector<Value> inputs = {0, 1, 0, 1, 0, 1, 0};
    for (Value input : inputs) {
      ConsensusProcess::Options options;
      auto p = std::make_unique<ConsensusProcess>(
          input,
          VacFromTwoAc::liftFactory(
              AcFromVac::liftFactory(benor::BenOrVac::factory(3))),
          benor::CoinReconciliator::factory(), options);
      processes.push_back(p.get());
      sim.addProcess(std::move(p));
    }
    sim.crashAt(static_cast<ProcessId>(seed % 7), 40);
    sim.crashAt(static_cast<ProcessId>((seed + 3) % 7), 150);

    sim.setValidValues(inputs);
    sim.stopWhenAllCorrectDecided();
    sim.run();
    EXPECT_TRUE(sim.allCorrectDecided()) << "seed " << seed;
    EXPECT_FALSE(sim.agreementViolated()) << "seed " << seed;

    std::vector<const ConsensusProcess*> all(processes.begin(),
                                             processes.end());
    for (const auto& audit : auditAllRounds(all))
      EXPECT_TRUE(audit.ok()) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Hostile journal images: random records (empty ones included), some of
// them synced, then crash after crash with a torn tail and a bit flip each
// time, so the flips land in length, CRC and payload bytes alike. Recovery
// must return, in order, a prefix of what was appended, discard exactly
// the bytes the image loses, and leave an image a second recovery keeps
// whole.

TEST(Fuzz, HostileJournalImagesRecoverAPrefix) {
  constexpr int kTrials = 400;
  store::FaultConfig faults;
  faults.tornTailProbability = 1.0;
  faults.corruptProbability = 1.0;
  Rng rng(0x3A1C0DE);
  for (int trial = 0; trial < kTrials; ++trial) {
    const std::string tag = "trial " + std::to_string(trial);
    store::WriteAheadLog wal(faults);
    std::vector<std::vector<std::uint64_t>> appended(1 + rng.below(24));
    for (std::vector<std::uint64_t>& record : appended) {
      record.resize(rng.below(6));
      for (std::uint64_t& word : record) word = rng.next();
      wal.append(record);
      if (rng.chance(0.3)) wal.sync();
    }
    const std::uint64_t crashes = 1 + rng.below(12);
    for (std::uint64_t i = 0; i < crashes; ++i) wal.crash(rng);

    const std::size_t image = wal.durableBytes() + wal.pendingBytes();
    store::RecoveryReport report;
    const auto recovered = wal.recover(&report);
    ASSERT_LE(recovered.size(), appended.size()) << tag;
    for (std::size_t i = 0; i < recovered.size(); ++i)
      EXPECT_EQ(recovered[i], appended[i]) << tag << " record " << i;
    EXPECT_EQ(report.recordsRecovered, recovered.size()) << tag;
    EXPECT_EQ(report.bytesDiscarded, image - wal.durableBytes()) << tag;
    EXPECT_EQ(wal.pendingBytes(), 0u) << tag;

    store::RecoveryReport again;
    EXPECT_EQ(wal.recover(&again), recovered) << tag;
    EXPECT_EQ(again.bytesDiscarded, 0u) << tag;
  }
}

// ---------------------------------------------------------------------------
// Hostile journal records: CRC-valid records that no writer produces,
// appended through the WAL so that they reach each engine's replay. A
// record is 0-12 words. Its tag is one of the engine's kinds, 0 or an
// unknown tag. Its words lean to the values that break arithmetic, and each
// count lands just under, at or just over what is left of its record. The
// replay must not throw, must recover a state its writer could reach, and
// must recover the same state from the same image twice.

/// One record kind an engine journals: its tag, the fixed words after the
/// tag, and the stride of each counted section after those.
struct RecordKind {
  std::uint64_t tag;
  std::size_t fixedWords;
  std::vector<std::size_t> strides;
};

/// An edge of the u64 range, a small value below `small`, or any word.
std::uint64_t hostileWord(Rng& rng, std::uint64_t small) {
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  constexpr std::uint64_t kEdges[] = {0, 1, kHalf, kHalf + 1, kTop - 1, kTop};
  switch (rng.below(3)) {
    case 0:
      return kEdges[rng.below(std::size(kEdges))];
    case 1:
      return rng.below(small);
    default:
      return rng.next();
  }
}

std::vector<std::uint64_t> hostileRecord(Rng& rng,
                                         const std::vector<RecordKind>& kinds,
                                         std::uint64_t small) {
  const std::size_t pick = rng.below(kinds.size() + 2);
  // Half the records of a kind start near its shortest whole size.
  std::size_t length = rng.below(13);
  if (pick < kinds.size() && rng.coin()) {
    const RecordKind& kind = kinds[pick];
    length = std::min<std::size_t>(
        12, 1 + kind.fixedWords + kind.strides.size() + rng.below(4));
  }
  std::vector<std::uint64_t> record(length);
  for (std::uint64_t& word : record) word = hostileWord(rng, small);
  if (record.empty()) return record;
  if (pick >= kinds.size()) {
    record[0] = pick == kinds.size() ? 0 : 99;  // no engine's tag
    return record;
  }
  record[0] = kinds[pick].tag;
  std::size_t at = 1 + kinds[pick].fixedWords;
  for (const std::size_t stride : kinds[pick].strides) {
    if (at >= record.size()) break;
    // Left at 0, "just under" is 2^64 - 1.
    const std::uint64_t left = (record.size() - at - 1) / stride;
    if (rng.below(4) != 0) record[at] = left - 1 + rng.below(3);
    if (record[at] > left) break;
    at += 1 + record[at] * stride;
  }
  return record;
}

/// Appends up to 16 hostile records to `node`'s journal, synced, and
/// returns them.
template <typename Node>
std::vector<std::vector<std::uint64_t>> plantHostile(
    Node& node, Rng& rng, const std::vector<RecordKind>& kinds,
    std::uint64_t small) {
  auto* wal = const_cast<store::WriteAheadLog*>(node.wal());
  std::vector<std::vector<std::uint64_t>> records(rng.below(17));
  for (std::vector<std::uint64_t>& record : records) {
    record = hostileRecord(rng, kinds, small);
    wal->append(record);
  }
  wal->sync();
  return records;
}

template <typename Node>
void restart(Node& node) {
  node.onCrash();
  node.onRestart();
}

/// Node 0 of 5, on a network that drops everything and timers that never
/// fire: a replay needs no more.
class QuietContext final : public Context {
 public:
  ProcessId self() const noexcept override { return 0; }
  std::size_t processCount() const noexcept override { return 5; }
  Tick now() const noexcept override { return 0; }
  Rng& rng() noexcept override { return rng_; }
  void post(ProcessId, MessagePtr) override {}
  void fanout(MessagePtr) override {}
  TimerId setTimer(Tick) override { return ++timers_; }
  void cancelTimer(TimerId) noexcept override {}
  void decide(Value) override {}

 private:
  Rng rng_{1};
  TimerId timers_ = 0;
};

constexpr int kHostileTrials = 3000;

// Raft: lastLogIndex() does not wrap, and the commit and apply indices sit
// at the snapshot, at or below the last index.
TEST(Fuzz, HostileRaftRecordsReplayToAWritableState) {
  const std::vector<RecordKind> kinds = {
      {1, 2, {}}, {2, 2, {}}, {3, 1, {}}, {4, 2, {2, 1}}};
  Rng rng(0x4AF7);
  for (int trial = 0; trial < kHostileTrials; ++trial) {
    const std::string tag = "trial " + std::to_string(trial);
    raft::RaftConfig config;
    config.durable = true;
    QuietContext ctx;
    raft::RaftProcess node{config};
    node.bind(ctx);
    node.onStart();
    plantHostile(node, rng, kinds, 8);
    ASSERT_NO_THROW(restart(node)) << tag;
    ASSERT_LE(node.log().size(), ~raft::LogIndex{0} - node.snapshotIndex())
        << tag;
    EXPECT_EQ(node.commitIndex(), node.snapshotIndex()) << tag;
    EXPECT_EQ(node.lastApplied(), node.snapshotIndex()) << tag;
    EXPECT_LE(node.snapshotIndex(), node.lastLogIndex()) << tag;

    const raft::Term term = node.currentTerm();
    const raft::LogIndex snapshot = node.snapshotIndex();
    const std::vector<raft::LogEntry> log = node.log();
    ASSERT_NO_THROW(restart(node)) << tag;
    EXPECT_EQ(node.currentTerm(), term) << tag;
    EXPECT_EQ(node.snapshotIndex(), snapshot) << tag;
    EXPECT_EQ(node.log(), log) << tag;
  }
}

// Paxos: the accepted ballot never exceeds the promise (PConProof's
// maxVBal <= maxBal).
TEST(Fuzz, HostilePaxosRecordsReplayToAWritableState) {
  const std::vector<RecordKind> kinds = {{1, 1, {}}, {2, 2, {}}, {3, 1, {}}};
  Rng rng(0x9A05);
  for (int trial = 0; trial < kHostileTrials; ++trial) {
    const std::string tag = "trial " + std::to_string(trial);
    paxos::PaxosConfig config;
    config.durable = true;
    QuietContext ctx;
    paxos::PaxosNode node(/*input=*/1, config);
    node.bind(ctx);
    node.onStart();
    plantHostile(node, rng, kinds, 16);
    ASSERT_NO_THROW(restart(node)) << tag;
    EXPECT_LE(node.acceptedBallot(), node.promised()) << tag;

    const paxos::Ballot promised = node.promised();
    const paxos::Ballot accepted = node.acceptedBallot();
    const bool decided = node.decided();
    const Value decision = node.decisionValue();
    ASSERT_NO_THROW(restart(node)) << tag;
    EXPECT_EQ(node.promised(), promised) << tag;
    EXPECT_EQ(node.acceptedBallot(), accepted) << tag;
    EXPECT_EQ(node.decided(), decided) << tag;
    EXPECT_EQ(node.decisionValue(), decision) << tag;
  }
}

class IdleEngine final : public Process {
 public:
  void onMessage(ProcessId, const Message&) override {}
};

// The service: the quarantine is exactly what the replayed opens below
// maxDecrees and the replayed commits bound, and the client front lists
// exactly the commands of the replayed commit records. The oracle reads
// the records as their writer wrote them: an open or commit at its exact
// size, a commit only as the next decree, and a no-op commit applying
// nothing.
TEST(Fuzz, HostileServiceRecordsReplayToAWritableState) {
  constexpr std::uint64_t kRecOpen = 3;
  constexpr std::uint64_t kRecCommit = 4;
  const std::vector<RecordKind> kinds = {
      {1, 1, {}}, {2, 1, {1}}, {kRecOpen, 2, {}}, {kRecCommit, 2, {1}}};
  svc::SvcNodeOptions options;
  options.durable = true;
  options.maxDecrees = 8;
  svc::WorkloadOptions workload;
  workload.commandsPerNode = 0;
  const auto zipf = svc::makeZipfCdf(workload);
  Rng rng(0x5EC0);
  for (int trial = 0; trial < kHostileTrials; ++trial) {
    const std::string tag = "trial " + std::to_string(trial);
    QuietContext ctx;
    svc::SvcNode node(
        [](std::uint64_t, Value, bool) {
          return std::make_unique<IdleEngine>();
        },
        svc::ClientFront(workload, zipf, 0, 5, 1), options);
    node.bind(ctx);
    node.onStart();
    const auto records = plantHostile(node, rng, kinds, options.maxDecrees + 2);
    ASSERT_NO_THROW(restart(node)) << tag;

    std::uint64_t quarantine = 0;
    std::uint64_t commits = 0;
    std::vector<Value> applied;
    std::unordered_set<Value> seen;
    for (const std::vector<std::uint64_t>& r : records) {
      if (r.size() == 3 && r[0] == kRecOpen && r[1] < options.maxDecrees)
        quarantine = std::max(quarantine, r[1] + 1);
      if (r.size() < 4 || r[0] != kRecCommit || r[3] != r.size() - 4 ||
          r[1] != commits) {
        continue;
      }
      ++commits;
      if (r[2] == 0) continue;
      for (std::size_t i = 4; i < r.size(); ++i) {
        if (seen.insert(store::toValue(r[i])).second)
          applied.push_back(store::toValue(r[i]));
      }
    }
    EXPECT_EQ(node.quarantine(), std::max(quarantine, commits)) << tag;
    EXPECT_EQ(node.decreeLog().size(), commits) << tag;
    EXPECT_EQ(node.front().applied(), applied) << tag;

    const std::vector<Value> decrees = node.decreeLog();
    ASSERT_NO_THROW(restart(node)) << tag;
    EXPECT_EQ(node.quarantine(), std::max(quarantine, commits)) << tag;
    EXPECT_EQ(node.decreeLog(), decrees) << tag;
    EXPECT_EQ(node.front().applied(), applied) << tag;
  }
}

}  // namespace
}  // namespace ooc
