// Randomized robustness suite: determinism fuzzing, hostile-junk injection,
// hostile bytes in the key=value scenario and counterexample files (the
// only text the readers accept), hostile journal images, chaotic fault
// schedules, and deep Raft log-divergence repair. Everything is
// seed-driven — failures reproduce exactly.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
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
#include "raft/kv_store.hpp"
#include "sim/simulator.hpp"
#include "store/wal.hpp"

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

}  // namespace
}  // namespace ooc
