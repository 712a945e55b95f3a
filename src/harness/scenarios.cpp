#include "harness/scenarios.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "benor/monolithic.hpp"
#include "compose/telemetry.hpp"
#include "obs/metrics.hpp"
#include "phaseking/monolithic.hpp"
#include "raft/consensus.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace ooc::harness {

// The bespoke loops below are the runs with no detector/driver split to
// compose: the monolithic baselines and Raft (leader-driven, with
// restarts/partitions/WAL instrumentation). They share the telemetry
// helpers of compose/telemetry.hpp with compose::runComposition().
using compose::publishDecisionTicks;
using compose::publishSimMetrics;
using compose::wrapAdversary;

compose::CompositionResult runMonolithicBenOr(
    const MonolithicBenOrConfig& config, const compose::RunHooks& hooks) {
  if (config.inputs.size() != config.n)
    throw std::invalid_argument("inputs must have size n");
  const std::size_t t =
      config.t.value_or(config.n == 0 ? 0 : (config.n - 1) / 2);

  SimConfig simConfig;
  simConfig.seed = config.seed;
  simConfig.maxTicks = config.maxTicks;
  UniformDelayNetwork::Options net;
  net.minDelay = config.minDelay;
  net.maxDelay = config.maxDelay;
  Simulator sim(simConfig, std::make_unique<UniformDelayNetwork>(net));
  if (hooks.observer) sim.setScheduleObserver(hooks.observer);

  std::vector<benor::MonolithicBenOr*> classic;
  for (ProcessId id = 0; id < config.n; ++id) {
    auto process = std::make_unique<benor::MonolithicBenOr>(
        config.inputs[id], t, config.maxRounds);
    classic.push_back(process.get());
    sim.addProcess(std::move(process));
  }

  sim.setValidValues(config.inputs);
  for (const auto& [id, tick] : config.crashes) sim.crashAt(id, tick);
  sim.stopWhenAllCorrectDecided();
  sim.run();

  compose::CompositionResult result;
  result.allDecided = sim.allCorrectDecided();
  result.agreementViolated = sim.agreementViolated();
  result.validityViolated = sim.validityViolated();
  result.messagesByCorrect = sim.messagesSentByCorrect();
  result.eventsProcessed = sim.eventsProcessed();

  Summary decisionRounds;
  for (ProcessId id = 0; id < config.n; ++id) {
    const auto& decision = sim.decision(id);
    if (!decision.decided) continue;
    result.decidedValue = decision.value;
    result.lastDecisionTick = std::max(result.lastDecisionTick, decision.at);
    const Round round = classic[id]->decisionRound();
    result.maxDecisionRound = std::max(result.maxDecisionRound, round);
    decisionRounds.add(static_cast<double>(round));
  }
  if (!decisionRounds.empty())
    result.meanDecisionRound = decisionRounds.mean();

  if (obs::enabled()) {
    const obs::Labels base = {{"family", "benor"}, {"mode", "monolithic"}};
    obs::Batch batch;
    publishSimMetrics(sim, base, batch);
    publishDecisionTicks(sim, base, batch);
    for (const benor::MonolithicBenOr* process : classic)
      if (process->decided())
        batch.observe("rounds_to_decide",
                      static_cast<double>(process->decisionRound()), base);
    obs::metrics().commit(batch);
  }
  return result;
}

compose::CompositionResult runMonolithicPhaseKing(
    const MonolithicPhaseKingConfig& config, const compose::RunHooks& hooks) {
  const std::size_t n = config.n;
  const std::size_t f = config.byzantineCount;
  const std::size_t t = config.t.value_or(n == 0 ? 0 : (n - 1) / 3);
  if (f > n) throw std::invalid_argument("more Byzantine than processes");

  std::vector<bool> isByz(n, false);
  switch (config.placement) {
    case compose::Placement::kFront:
      for (std::size_t i = 0; i < f; ++i) isByz[i] = true;
      break;
    case compose::Placement::kBack:
      for (std::size_t i = 0; i < f; ++i) isByz[n - 1 - i] = true;
      break;
    case compose::Placement::kSpread:
      for (std::size_t i = 0; i < f; ++i) isByz[(i * n) / f] = true;
      break;
  }

  SimConfig simConfig;
  simConfig.seed = config.seed;
  simConfig.lockstep = true;
  simConfig.maxTicks = config.maxTicks;
  Simulator sim(simConfig, std::make_unique<SynchronousNetwork>());
  if (hooks.observer) sim.setScheduleObserver(hooks.observer);

  std::vector<Value> validInputs;
  std::size_t correctSeen = 0;
  for (ProcessId id = 0; id < n; ++id) {
    if (isByz[id]) {
      sim.addProcess(std::make_unique<phaseking::PhaseKingByzantine>(
                         config.strategy,
                         phaseking::PhaseKingByzantine::Wire::kClassic),
                     /*faulty=*/true);
      continue;
    }
    const Value input =
        config.inputs.empty()
            ? static_cast<Value>(correctSeen % 2)
            : config.inputs[correctSeen % config.inputs.size()];
    ++correctSeen;
    validInputs.push_back(input);
    sim.addProcess(std::make_unique<phaseking::MonolithicPhaseKing>(input, t));
  }

  sim.setValidValues(validInputs);
  sim.stopWhenAllCorrectDecided();
  sim.run();

  compose::CompositionResult result;
  result.allDecided = sim.allCorrectDecided();
  result.agreementViolated = sim.agreementViolated();
  result.validityViolated = sim.validityViolated();
  result.messagesByCorrect = sim.messagesSentByCorrect();
  result.eventsProcessed = sim.eventsProcessed();
  for (ProcessId id = 0; id < n; ++id) {
    if (isByz[id]) continue;
    const auto& decision = sim.decision(id);
    if (!decision.decided) continue;
    result.decidedValue = decision.value;
    result.lastDecisionTick = std::max(result.lastDecisionTick, decision.at);
  }

  if (obs::enabled()) {
    const obs::Labels base = {{"family", "phaseking"},
                              {"algorithm", "king"},
                              {"mode", "monolithic"}};
    obs::Batch batch;
    publishSimMetrics(sim, base, batch);
    publishDecisionTicks(sim, base, batch);
    obs::metrics().commit(batch);
  }
  return result;
}

// ---------------------------------------------------------------------------

RaftScenarioResult runRaft(const RaftScenarioConfig& config,
                           const compose::RunHooks& hooks) {
  SimConfig simConfig;
  simConfig.seed = config.seed;
  simConfig.maxTicks = config.maxTicks;

  UniformDelayNetwork::Options net;
  net.minDelay = config.minDelay;
  net.maxDelay = config.maxDelay;
  net.dropProbability = config.dropProbability;
  net.duplicateProbability = config.duplicateProbability;
  auto partitioned = std::make_unique<PartitionedNetwork>(wrapAdversary(
      std::make_unique<UniformDelayNetwork>(net), config.adversary));
  PartitionedNetwork* networkHandle = partitioned.get();
  Simulator sim(simConfig, std::move(partitioned));
  if (hooks.observer) sim.setScheduleObserver(hooks.observer);

  std::vector<Value> inputs = config.inputs;
  if (inputs.empty()) {
    inputs.resize(config.n);
    for (ProcessId id = 0; id < config.n; ++id)
      inputs[id] = static_cast<Value>(id % 2);
  }

  std::vector<raft::RaftConsensus*> nodes;
  for (ProcessId id = 0; id < config.n; ++id) {
    raft::RaftConsensus::ConfidenceTap tap;
    if (hooks.telemetry) {
      tap = [sink = hooks.telemetry,
             id](const raft::RaftConsensus::ConfidenceChange& change) {
        sink->onDetectorOutcome(id, static_cast<Round>(change.term),
                                Outcome{change.confidence, change.value},
                                change.at);
      };
    }
    auto node = std::make_unique<raft::RaftConsensus>(inputs[id], config.raft,
                                                      std::move(tap));
    nodes.push_back(node.get());
    sim.addProcess(std::move(node));
  }

  sim.setValidValues(inputs);
  for (const auto& [id, tick] : config.crashes) sim.crashAt(id, tick);
  for (const auto& event : config.restarts)
    sim.restartAt(event.id, event.at, event.downtime);
  for (const auto& event : config.partitions) {
    sim.schedule(event.at, [networkHandle, groups = event.groups] {
      if (groups.empty()) {
        networkHandle->clearPartition();
      } else {
        networkHandle->setPartition(groups);
      }
    });
  }
  sim.stopWhenAllCorrectDecided();
  sim.run();

  RaftScenarioResult result;
  result.allDecided = sim.allCorrectDecided();
  result.agreementViolated = sim.agreementViolated();
  result.validityViolated = sim.validityViolated();
  result.messages = sim.messagesSent();
  result.eventsProcessed = sim.eventsProcessed();

  result.firstDecisionTick = 0;
  bool first = true;
  for (ProcessId id = 0; id < config.n; ++id) {
    const auto& decision = sim.decision(id);
    if (decision.decided) {
      result.decidedValue = decision.value;
      result.lastDecisionTick =
          std::max(result.lastDecisionTick, decision.at);
      if (first || decision.at < result.firstDecisionTick)
        result.firstDecisionTick = decision.at;
      first = false;
    }
    result.electionsStarted += nodes[id]->electionsStarted();
    result.leaderships += nodes[id]->timesElectedLeader();
    result.reconciliatorInvocations += nodes[id]->reconciliatorInvocations();

    // VAC instrumentation checks (Algorithms 10-11): within each term the
    // order must be vacillate <= adopt <= commit, and commit values agree.
    const auto& log = nodes[id]->confidenceLog();
    result.confidenceTransitions += log.size();
    bool sawAdoptThisTerm = false;
    raft::Term term = 0;
    for (const auto& change : log) {
      if (change.term != term) {
        term = change.term;
        sawAdoptThisTerm = false;
      }
      if (change.confidence == Confidence::kAdopt) sawAdoptThisTerm = true;
      if (change.confidence == Confidence::kCommit && !sawAdoptThisTerm) {
        // A follower may learn of a commit without having accepted the
        // entry in the same term — that is adopt-level knowledge arriving
        // fused with commit-level knowledge. It still must never happen
        // before ANY adopt-level evidence exists at this process.
        bool sawAdoptEver = false;
        for (const auto& earlier : log) {
          if (&earlier == &change) break;
          if (earlier.confidence != Confidence::kVacillate)
            sawAdoptEver = true;
        }
        if (!sawAdoptEver) result.confidenceOrderOk = false;
      }
    }
  }

  // Commit-level values must agree across processes.
  Value committed = kNoValue;
  for (const raft::RaftConsensus* node : nodes) {
    for (const auto& change : node->confidenceLog()) {
      if (change.confidence != Confidence::kCommit) continue;
      if (committed == kNoValue) {
        committed = change.value;
      } else if (change.value != committed) {
        result.commitValuesAgree = false;
      }
    }
  }

  // Crash-recovery observations: simulator-side restart counters plus
  // per-node journal statistics.
  result.restarts = sim.restarts();
  result.messagesDroppedStale = sim.messagesDroppedStale();
  result.timersPurged = sim.timersPurgedOnCrash();
  for (const raft::RaftConsensus* node : nodes) {
    if (const store::WriteAheadLog* wal = node->wal()) {
      result.walAppends += wal->appends();
      result.walSyncs += wal->syncs();
    }
    result.recoveries += node->recoveries();
    result.recoveredRecords += node->lastRecovery().recordsRecovered;
    result.tornTails += node->lastRecovery().tornTail ? 1 : 0;
    result.corruptRecords += node->lastRecovery().corruptRecords;
  }

  // Durability-violation audits over the ground-truth histories (which
  // survive restarts by construction — they model an outside observer).
  // Vote amnesia: one process, one term, two candidates.
  for (ProcessId id = 0; id < config.n && !result.voteAmnesia; ++id) {
    std::unordered_map<raft::Term, ProcessId> granted;
    for (const auto& vote : nodes[id]->voteHistory()) {
      auto [it, inserted] = granted.emplace(vote.term, vote.candidate);
      if (!inserted && it->second != vote.candidate) {
        result.voteAmnesia = true;
        result.voteAmnesiaDetail =
            "p" + std::to_string(id) + " voted for p" +
            std::to_string(it->second) + " and p" +
            std::to_string(vote.candidate) + " in term " +
            std::to_string(vote.term);
        break;
      }
    }
  }
  // Committed-entry regression: one process observed two different
  // committed values across its incarnations.
  for (ProcessId id = 0; id < config.n && !result.commitRegression; ++id) {
    const auto& history = nodes[id]->decisionHistory();
    for (std::size_t i = 1; i < history.size(); ++i) {
      if (history[i] != history.front()) {
        result.commitRegression = true;
        result.commitRegressionDetail =
            "p" + std::to_string(id) + " committed value " +
            std::to_string(history.front()) + " then value " +
            std::to_string(history[i]);
        break;
      }
    }
  }

  if (obs::enabled()) {
    const obs::Labels base = {{"family", "raft"}};
    obs::Batch batch;
    publishSimMetrics(sim, base, batch);
    publishDecisionTicks(sim, base, batch);
    batch.addCounter("elections_started", result.electionsStarted, base);
    batch.addCounter("leaderships", result.leaderships, base);
    batch.addCounter("driver_invocations", result.reconciliatorInvocations,
                     base);
    if (config.raft.durable) {
      batch.addCounter("wal_appends", result.walAppends, base);
      batch.addCounter("wal_syncs", result.walSyncs, base);
      batch.addCounter("recoveries", result.recoveries, base);
      batch.addCounter("wal_records_recovered", result.recoveredRecords,
                       base);
      batch.addCounter("wal_torn_tails", result.tornTails, base);
      batch.addCounter("wal_corrupt_records", result.corruptRecords, base);
    }
    compose::TransitionTally transitions;
    for (ProcessId id = 0; id < config.n; ++id) {
      const auto& log = nodes[id]->confidenceLog();
      for (const auto& change : log) {
        transitions[static_cast<std::size_t>(change.confidence)].add(
            static_cast<Round>(change.term));
      }
      // Rounds-to-decide analogue: the term in which this node first saw
      // commit-level confidence.
      if (sim.decision(id).decided) {
        for (const auto& change : log) {
          if (change.confidence == Confidence::kCommit) {
            batch.observe("rounds_to_decide",
                          static_cast<double>(change.term), base);
            break;
          }
        }
      }
    }
    compose::publishTransitions(transitions, base, batch);
    obs::metrics().commit(batch);
  }
  return result;
}

}  // namespace ooc::harness
