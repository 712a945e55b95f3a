// Scenario runners that are not compositions: the two monolithic baselines
// (classic Ben-Or and classic Phase-King, the reference implementations the
// tests and the E-tables compare the template runs against) and Raft. Every
// template run — any registered detector × driver pairing — goes through
// compose::runComposition() instead.
//
// Everything is deterministic in (config, seed).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "compose/hooks.hpp"
#include "compose/kv.hpp"
#include "compose/run.hpp"
#include "phaseking/byzantine.hpp"
#include "raft/types.hpp"
#include "util/types.hpp"

namespace ooc::harness {

// ---------------------------------------------------------------------------
// Monolithic baselines. They have no detector/driver split, so they return
// the composition result shape with the object-level fields (audits, adopt
// witnesses, scheduling observations) left empty.

/// Classic monolithic Ben-Or (asynchronous, crash faults, t < n/2).
struct MonolithicBenOrConfig {
  std::size_t n = 5;
  /// Protocol parameter t (quorums of n - t). Defaults to floor((n-1)/2).
  std::optional<std::size_t> t;
  /// Inputs per process id; must have size n.
  std::vector<Value> inputs;
  std::uint64_t seed = 1;
  /// (process, tick) crash schedule.
  std::vector<std::pair<ProcessId, Tick>> crashes;
  Tick minDelay = 1;
  Tick maxDelay = 10;
  Round maxRounds = 5000;
  Tick maxTicks = 5'000'000;
};

compose::CompositionResult runMonolithicBenOr(
    const MonolithicBenOrConfig& config, const compose::RunHooks& hooks = {});

/// Classic monolithic Phase-King (synchronous lockstep, Byzantine faults,
/// 3t < n). Byzantine peers speak the classic wire format.
struct MonolithicPhaseKingConfig {
  std::size_t n = 7;
  /// Actual number of Byzantine processes planted.
  std::size_t byzantineCount = 2;
  /// Protocol parameter t. Defaults to floor((n-1)/3).
  std::optional<std::size_t> t;
  phaseking::ByzantineStrategy strategy =
      phaseking::ByzantineStrategy::kEquivocate;
  compose::Placement placement = compose::Placement::kFront;
  /// Inputs for correct processes, by their order among correct ids; the
  /// pattern repeats, and an empty vector means alternating 0,1.
  std::vector<Value> inputs = {0, 1};
  std::uint64_t seed = 1;
  Tick maxTicks = 100000;
};

compose::CompositionResult runMonolithicPhaseKing(
    const MonolithicPhaseKingConfig& config,
    const compose::RunHooks& hooks = {});

// ---------------------------------------------------------------------------
// Raft (asynchronous with timeouts; crashes, loss, partitions)

struct RaftScenarioConfig {
  std::size_t n = 5;
  std::vector<Value> inputs;  // size n; defaults to id % 2 when empty
  raft::RaftConfig raft;
  std::uint64_t seed = 1;

  Tick minDelay = 1;
  Tick maxDelay = 5;
  double dropProbability = 0.0;
  double duplicateProbability = 0.0;
  std::vector<std::pair<ProcessId, Tick>> crashes;

  /// Crash-restart timeline: process `id` crashes at `at` (losing volatile
  /// state and any unsynced journal writes) and rejoins after `downtime`
  /// ticks with a fresh incarnation. Whether anything survives the restart
  /// is governed by `raft.durable` / `raft.syncBeforeReply`.
  std::vector<compose::RestartEntry> restarts;

  /// Partition timeline: at `at`, impose `groups` (one id per process);
  /// an empty vector heals the network.
  struct PartitionEvent {
    Tick at;
    std::vector<int> groups;
  };
  std::vector<PartitionEvent> partitions;

  /// Message-reordering adversary (model checker strategies).
  compose::AdversaryOptions adversary;

  Tick maxTicks = 300000;
};

struct RaftScenarioResult {
  bool allDecided = false;
  bool agreementViolated = false;
  bool validityViolated = false;
  Value decidedValue = kNoValue;
  Tick firstDecisionTick = 0;
  Tick lastDecisionTick = 0;
  std::uint64_t messages = 0;
  /// Scheduler events executed by the run (bench_simcore's work unit).
  std::uint64_t eventsProcessed = 0;
  std::uint64_t electionsStarted = 0;
  std::uint64_t leaderships = 0;
  std::uint64_t reconciliatorInvocations = 0;

  /// VAC instrumentation (paper Algorithms 10-11): every process's
  /// confidence history must be consistent — commit never precedes adopt,
  /// and all commit-level values agree.
  bool confidenceOrderOk = true;
  bool commitValuesAgree = true;
  std::size_t confidenceTransitions = 0;

  /// Crash-recovery observations (all zero/false without restart events).
  std::uint64_t restarts = 0;
  std::uint64_t messagesDroppedStale = 0;
  std::uint64_t timersPurged = 0;
  std::uint64_t walAppends = 0;
  std::uint64_t walSyncs = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t recoveredRecords = 0;
  std::uint64_t tornTails = 0;
  std::uint64_t corruptRecords = 0;

  /// Durability-violation witnesses, from ground-truth audit trails that
  /// survive restarts (not from any recovered state):
  /// voteAmnesia — some process granted its term-T vote to two different
  /// candidates (across incarnations); the split-brain seed.
  bool voteAmnesia = false;
  std::string voteAmnesiaDetail;
  /// commitRegression — some process applied/learned two different
  /// committed values across incarnations.
  bool commitRegression = false;
  std::string commitRegressionDetail;
};

RaftScenarioResult runRaft(const RaftScenarioConfig& config,
                           const compose::RunHooks& hooks = {});

}  // namespace ooc::harness
