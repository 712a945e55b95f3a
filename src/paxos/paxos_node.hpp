// Single-decree Paxos (Lamport) — the second leader-driven substrate, the
// canonical peer of Raft. Asynchronous message passing, t < n/2 crash
// faults. Every node is proposer + acceptor + learner and proposes its own
// input, so the cluster is a consensus object in the paper's sense.
//
// Framework instrumentation mirrors the Raft decomposition (paper
// Algorithms 10-11): the paper's three knowledge states appear verbatim —
//   vacillate — no accepted proposal heard (start / retry timeout);
//   adopt     — this acceptor accepted a proposal (majority-backed
//               proposer exists; value may still be superseded);
//   commit    — a majority accepted one ballot (value learned / chosen).
// The retry timer (randomized backoff) is the reconciliator: it shakes
// dueling-proposer stalemates exactly as Raft's election timer does.
//
// Liveness: classic Paxos can livelock under duelling proposers; the
// randomized, exponentially backed-off retry timer makes termination
// probability-1 — the timing property again.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/confidence.hpp"
#include "paxos/messages.hpp"
#include "sim/process.hpp"
#include "store/journal.hpp"

namespace ooc::paxos {

struct PaxosConfig {
  /// Randomized retry delay for an undecided proposer.
  Tick retryMin = 100;
  Tick retryMax = 200;
  /// Multiplier applied per consecutive failed ballot (capped).
  double backoffFactor = 1.5;
  Tick backoffCap = 2000;
  /// Whether this node drives ballots for its input. A passive node is
  /// acceptor + learner only: it answers Prepare/Accept and learns the
  /// decision from Accepted broadcasts, but never arms the retry timer.
  /// The multi-decree service (src/svc/) runs one proposer per decree this
  /// way, giving Multi-Paxos-style contention-free decrees.
  bool propose = true;
  /// Crash-recovery durability: journal the acceptor state
  /// (promised/accepted) and the learned decision to a simulated
  /// write-ahead log, recovered on restart. Paxos' safety argument REQUIRES
  /// this — an acceptor that forgets a promise can let two ballots choose
  /// different values.
  bool durable = false;
  /// true = sync the journal before every Promise/Accepted reply (safe);
  /// false = never sync (the crash-before-sync fault).
  bool syncBeforeReply = true;
  /// Storage fault injection applied when a crash hits the journal.
  store::FaultConfig storage;
};

class PaxosNode final : public Process {
 public:
  PaxosNode(Value input, PaxosConfig config);

  void onStart() override;
  void onMessage(ProcessId from, const Message& message) override;
  void onTimer(TimerId id) override;
  void onCrash() override { journal_.crash(ctx().rng()); }
  void onRestart() override;

  bool decided() const noexcept { return decided_; }
  Value decisionValue() const noexcept { return decision_; }
  std::uint64_t ballotsStarted() const noexcept { return ballotsStarted_; }
  std::uint64_t nacksReceived() const noexcept { return nacksReceived_; }
  /// Reconciliator invocations (retry timeouts), per the instrumentation.
  std::uint64_t reconciliatorInvocations() const noexcept {
    return reconciliatorInvocations_;
  }

  struct ConfidenceChange {
    Confidence confidence;
    Value value;
    Tick at;
  };
  const std::vector<ConfidenceChange>& confidenceLog() const noexcept {
    return confidenceLog_;
  }

  /// Every decision this node learned, across incarnations — differing
  /// entries are committed-value regression (see RaftConsensus).
  const std::vector<Value>& decisionHistory() const noexcept {
    return decisionHistory_;
  }

  /// Acceptor state (0 = none); the accepted ballot never exceeds the promise.
  Ballot promised() const noexcept { return promised_; }
  Ballot acceptedBallot() const noexcept { return acceptedBallot_; }
  /// Durability introspection (null / zero when !durable).
  const store::WriteAheadLog* wal() const noexcept { return journal_.wal(); }
  std::uint64_t recoveries() const noexcept { return recoveries_; }
  const store::RecoveryReport& lastRecovery() const noexcept {
    return journal_.lastRecovery();
  }

 private:
  void record(Confidence confidence, Value value);
  void armRetryTimer();
  void startBallot();
  void learn(Value value);

  void handlePrepare(ProcessId from, const Prepare& msg);
  void handlePromise(ProcessId from, const Promise& msg);
  void handleAccept(ProcessId from, const Accept& msg);
  void handleAccepted(ProcessId from, const Accepted& msg);
  void handleNack(ProcessId from, const Nack& msg);

  Value input_;
  PaxosConfig config_;
  store::Journal journal_;

  // Acceptor state.
  Ballot promised_ = 0;
  Ballot acceptedBallot_ = 0;
  Value acceptedValue_ = kNoValue;

  // Proposer state.
  Ballot currentBallot_ = 0;
  std::uint64_t attempt_ = 0;
  bool proposing_ = false;       // between Prepare and majority promises
  bool acceptRequested_ = false; // Accept round in flight
  std::vector<bool> promiseFrom_;
  std::size_t promiseCount_ = 0;
  Ballot highestAcceptedSeen_ = 0;
  Value valueToPropose_ = kNoValue;

  // Learner state: per-ballot distinct-sender Accepted tallies.
  struct BallotTally {
    std::vector<bool> seen;
    std::size_t count = 0;
    Value value = kNoValue;
  };
  std::unordered_map<Ballot, BallotTally> acceptedTallies_;

  bool decided_ = false;
  Value decision_ = kNoValue;
  TimerId retryTimer_ = 0;
  double backoff_ = 1.0;

  std::uint64_t ballotsStarted_ = 0;
  std::uint64_t nacksReceived_ = 0;
  std::uint64_t reconciliatorInvocations_ = 0;
  std::vector<ConfidenceChange> confidenceLog_;
  std::vector<Value> decisionHistory_;
  std::uint64_t recoveries_ = 0;
};

}  // namespace ooc::paxos
