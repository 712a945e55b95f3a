#include "harness/serialize.hpp"

#include <sstream>
#include <stdexcept>
#include <vector>

#include "compose/kv.hpp"

namespace ooc::harness {
namespace {

// The key=value machinery (writer, reader, run-id stamping, crash/adversary
// entries) lives in compose/kv.hpp, shared with Composition serialization;
// only the Raft field list is spelled out here.
using compose::KvReader;
using compose::KvWriter;
using compose::crashEntry;
using compose::getAdversary;
using compose::parseCrash;
using compose::parseNarrow;
using compose::parseRestart;
using compose::parseU64;
using compose::putAdversary;
using compose::restartEntry;
using compose::stampRunId;

}  // namespace

// ---------------------------------------------------------------------------
// RaftScenarioConfig

std::string serialize(const RaftScenarioConfig& config) {
  KvWriter kv;
  kv.put("n", config.n);
  kv.putValues("inputs", config.inputs);
  kv.put("seed", config.seed);
  kv.put("min-delay", config.minDelay);
  kv.put("max-delay", config.maxDelay);
  kv.put("drop-prob", config.dropProbability);
  kv.put("dup-prob", config.duplicateProbability);
  for (const auto& crash : config.crashes) kv.put("crash", crashEntry(crash));
  for (const auto& event : config.partitions) {
    std::ostringstream os;
    os << event.at << ':';
    for (std::size_t i = 0; i < event.groups.size(); ++i) {
      if (i > 0) os << ',';
      os << event.groups[i];
    }
    kv.put("partition", os.str());
  }
  for (const auto& event : config.restarts)
    kv.put("restart", restartEntry(event));
  kv.put("election-min", config.raft.electionTimeoutMin);
  kv.put("election-max", config.raft.electionTimeoutMax);
  kv.put("heartbeat", config.raft.heartbeatInterval);
  kv.put("max-append", config.raft.maxEntriesPerAppend);
  kv.put("compaction", config.raft.compactionThreshold);
  kv.put("durable", static_cast<std::uint64_t>(config.raft.durable));
  kv.put("sync-before-reply",
         static_cast<std::uint64_t>(config.raft.syncBeforeReply));
  kv.put("torn-prob", config.raft.storage.tornTailProbability);
  kv.put("corrupt-prob", config.raft.storage.corruptProbability);
  putAdversary(kv, config.adversary);
  kv.put("max-ticks", config.maxTicks);
  return stampRunId(kv.str());
}

RaftScenarioConfig parseRaftConfig(const std::string& text) {
  const KvReader kv(text);
  RaftScenarioConfig config;
  config.n = kv.getU64("n", config.n);
  config.inputs = kv.getValues("inputs");
  config.seed = kv.getU64("seed", config.seed);
  config.minDelay = kv.getU64("min-delay", config.minDelay);
  config.maxDelay = kv.getU64("max-delay", config.maxDelay);
  config.dropProbability = kv.getDouble("drop-prob", config.dropProbability);
  config.duplicateProbability =
      kv.getDouble("dup-prob", config.duplicateProbability);
  for (const std::string& entry : kv.getAll("crash"))
    config.crashes.push_back(parseCrash(entry));
  for (const std::string& entry : kv.getAll("partition")) {
    const auto colon = entry.find(':');
    if (colon == std::string::npos)
      throw std::runtime_error("config: malformed partition '" + entry + "'");
    RaftScenarioConfig::PartitionEvent event;
    event.at = parseU64(entry.substr(0, colon), "partition");
    std::istringstream groups(entry.substr(colon + 1));
    std::string token;
    while (std::getline(groups, token, ',')) {
      if (token.empty()) continue;
      event.groups.push_back(parseNarrow<int>(token, "partition"));
    }
    config.partitions.push_back(std::move(event));
  }
  config.raft.electionTimeoutMin =
      kv.getU64("election-min", config.raft.electionTimeoutMin);
  config.raft.electionTimeoutMax =
      kv.getU64("election-max", config.raft.electionTimeoutMax);
  config.raft.heartbeatInterval =
      kv.getU64("heartbeat", config.raft.heartbeatInterval);
  config.raft.maxEntriesPerAppend =
      kv.getU64("max-append", config.raft.maxEntriesPerAppend);
  config.raft.compactionThreshold =
      kv.getU64("compaction", config.raft.compactionThreshold);
  // Durability keys are absent from configs predating crash-recovery; the
  // fallbacks reproduce the old semantics (no journal, restarts are fresh
  // boots).
  for (const std::string& entry : kv.getAll("restart"))
    config.restarts.push_back(parseRestart(entry));
  config.raft.durable =
      kv.getU64("durable", config.raft.durable ? 1 : 0) != 0;
  config.raft.syncBeforeReply =
      kv.getU64("sync-before-reply", config.raft.syncBeforeReply ? 1 : 0) !=
      0;
  config.raft.storage.tornTailProbability =
      kv.getDouble("torn-prob", config.raft.storage.tornTailProbability);
  config.raft.storage.corruptProbability =
      kv.getDouble("corrupt-prob", config.raft.storage.corruptProbability);
  config.adversary = getAdversary(kv);
  config.maxTicks = kv.getU64("max-ticks", config.maxTicks);
  return config;
}

}  // namespace ooc::harness
