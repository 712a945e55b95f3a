#include "raft/consensus.hpp"

#include <utility>

namespace ooc::raft {

RaftConsensus::RaftConsensus(Value input, RaftConfig config,
                             ConfidenceTap onChange)
    : RaftProcess(config), input_(input), onChange_(std::move(onChange)) {}

Value RaftConsensus::preferredValue() const noexcept {
  return log().empty() ? input_ : log().back().command;
}

void RaftConsensus::record(Confidence confidence, Value value) {
  if (!confidenceLog_.empty() &&
      confidenceLog_.back().confidence == confidence &&
      confidenceLog_.back().value == value &&
      confidenceLog_.back().term == currentTerm()) {
    return;  // no transition
  }
  confidenceLog_.push_back(
      ConfidenceChange{currentTerm(), confidence, value, ctx().now()});
  if (onChange_) onChange_(confidenceLog_.back());
}

void RaftConsensus::onApply(LogIndex index, const LogEntry& entry) {
  // D&S(v): decide on the first applied command, stop applying thereafter.
  if (stopApplying_) return;
  stopApplying_ = true;
  (void)index;
  decided_ = true;
  decisionValue_ = entry.command;
  decisionHistory_.push_back(entry.command);
  ctx().decide(entry.command);
}

void RaftConsensus::onVolatileReset() {
  // Crash-restart: the decided-flag and D&S stop-bit are volatile — the
  // reborn node re-derives its decision from the recovered journal (the
  // base class replays it right after this hook, possibly re-invoking
  // onApply/restoreSnapshot). decisionHistory_ and confidenceLog_ are run
  // monitor state, not process state: they deliberately survive so the
  // checker can compare what different incarnations announced.
  decided_ = false;
  stopApplying_ = false;
  decisionValue_ = kNoValue;
  // No evidence survives into the new incarnation's view: fall back to
  // vacillate with the input as the preference (the log is empty until
  // journal replay restores it).
  record(Confidence::kVacillate, preferredValue());
}

void RaftConsensus::onBecameLeader() {
  // Algorithm 10: leadership won => (Adopt, log[lastLogIndex].value) BEFORE
  // replicating; then Algorithm 7: replicate D&S(v*), proposing our own
  // input if the log is empty. (submit() can commit immediately on a
  // single-node cluster, so the adopt record must precede it.)
  record(Confidence::kAdopt, preferredValue());
  if (log().empty()) {
    submit(input_);
  } else if (log().back().term != currentTerm()) {
    // The commit rule only counts replicas of current-term entries, so a
    // leader whose log holds only inherited entries could heartbeat forever
    // without ever advancing commitIndex (Raft §5.4.2). Re-propose the
    // inherited value under the current term to unblock commitment.
    submit(preferredValue());
  }
}

void RaftConsensus::onEntriesAccepted() {
  // AppendEntries of the first kind accepted: tentative knowledge that a
  // majority-backed leader proposed this value.
  record(Confidence::kAdopt, preferredValue());
}

void RaftConsensus::onCommitAdvanced() {
  record(Confidence::kCommit, preferredValue());
}

void RaftConsensus::onElectionTimeout() {
  // Algorithm 11 (reconciliator): reset timer, bump term, keep the last
  // log value as the preference. The timer reset and term bump are done by
  // the Raft machinery; here we account the invocation and fall back to
  // vacillate: the processor has no evidence about the system state.
  ++reconciliatorInvocations_;
  record(Confidence::kVacillate, preferredValue());
}

void RaftConsensus::onRoleChanged(Role oldRole) {
  (void)oldRole;
}

}  // namespace ooc::raft
