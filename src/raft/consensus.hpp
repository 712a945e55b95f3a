// Consensus via Raft with the single D&S(v) command (paper §4.3,
// Algorithms 7–9), plus the paper's VAC/reconciliator instrumentation
// (Algorithms 10–11).
//
// D&S(v) — "decide-and-stop-applying" — makes the replicated log a consensus
// object: every node decides on the command in the FIRST log slot it
// applies, and ignores everything after. Leader Completeness + Log Matching
// guarantee all nodes apply the same first entry.
//
// The instrumentation records the paper's three per-term knowledge states:
//   vacillate — no evidence a leader was chosen (term start / timeout);
//   adopt     — accepted an AppendEntries of the first kind (tentative
//               entry, commit index unchanged), or won leadership;
//   commit    — the commit index advanced over the decided entry.
// The reconciliator (Algorithm 11) is the election-timeout moment: reset
// timer, bump term, keep the value in the last log slot. The recorded
// transition log drives experiment E7.
#pragma once

#include <functional>
#include <vector>

#include "core/confidence.hpp"
#include "raft/raft_process.hpp"

namespace ooc::raft {

class RaftConsensus : public RaftProcess {
 public:
  /// One entry per confidence transition, in simulation order.
  struct ConfidenceChange {
    Term term = 0;
    Confidence confidence = Confidence::kVacillate;
    Value value = kNoValue;
    Tick at = 0;
  };
  /// Telemetry tap (may be empty), invoked the moment a transition is
  /// recorded — inside the handler of the event that produced it, like
  /// ConsensusProcess::Options::onDetectorOutcome. Observation only: it
  /// must not send, arm timers, or otherwise touch the run.
  using ConfidenceTap = std::function<void(const ConfidenceChange&)>;

  RaftConsensus(Value input, RaftConfig config, ConfidenceTap onChange = {});

  bool decided() const noexcept { return decided_; }
  Value decisionValue() const noexcept { return decisionValue_; }

  const std::vector<ConfidenceChange>& confidenceLog() const noexcept {
    return confidenceLog_;
  }
  Confidence confidence() const noexcept {
    return confidenceLog_.empty() ? Confidence::kVacillate
                                  : confidenceLog_.back().confidence;
  }
  /// Reconciliator invocations (election timeouts) observed (Algorithm 11).
  std::uint64_t reconciliatorInvocations() const noexcept {
    return reconciliatorInvocations_;
  }

  /// Every decision this node announced, across all incarnations (a restart
  /// resets the volatile decided-flag, so a recovered node re-derives its
  /// decision from its journal — or, under crash-before-sync, possibly a
  /// DIFFERENT one). Two differing entries are committed-entry regression:
  /// the run monitor's ground truth for the no-commit-regression invariant.
  const std::vector<Value>& decisionHistory() const noexcept {
    return decisionHistory_;
  }

 protected:
  void onApply(LogIndex index, const LogEntry& entry) override;
  /// Snapshot support (only exercised when compaction is enabled): the
  /// decision IS the state machine, so the payload is the decided value.
  std::vector<Value> captureSnapshot() const override {
    return decided_ ? std::vector<Value>{decisionValue_}
                    : std::vector<Value>{};
  }
  void restoreSnapshot(const std::vector<Value>& state) override {
    if (!state.empty() && !stopApplying_) {
      stopApplying_ = true;
      decided_ = true;
      decisionValue_ = state.front();
      decisionHistory_.push_back(state.front());
      ctx().decide(state.front());
    }
  }
  void onBecameLeader() override;
  void onEntriesAccepted() override;
  void onCommitAdvanced() override;
  void onElectionTimeout() override;
  void onRoleChanged(Role oldRole) override;
  void onVolatileReset() override;

 private:
  void record(Confidence confidence, Value value);
  /// The paper's v* = log[lastLogIndex].value, falling back to the input.
  Value preferredValue() const noexcept;

  Value input_;
  ConfidenceTap onChange_;
  bool decided_ = false;
  bool stopApplying_ = false;
  Value decisionValue_ = kNoValue;
  std::vector<ConfidenceChange> confidenceLog_;
  std::uint64_t reconciliatorInvocations_ = 0;
  std::vector<Value> decisionHistory_;
};

}  // namespace ooc::raft
