// A complete Raft node (paper §4.3; Ongaro & Ousterhout 2014).
//
// Implements leader election with randomized timeouts, log replication with
// the AppendEntries consistency check and NextIndex backtracking,
// commit-index advancement restricted to current-term entries, and in-order
// application to the state machine. Together these give the three
// properties the paper leans on: Leader Completeness, State Machine Safety
// and Log Matching.
//
// Fault surface: the simulator provides crashes (permanent or
// crash-restart), message delay, loss, duplication and partitions. Terms
// make all of it safe; the randomized election timer provides liveness once
// the paper's timing property (broadcast time << election timeout << MTBF)
// holds. Crash-restart safety additionally requires RaftConfig::durable
// with the sync-before-reply discipline: the node journals
// currentTerm/votedFor/log to a simulated write-ahead log (store/wal.hpp)
// and recovers from it in onRestart().
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "raft/messages.hpp"
#include "raft/types.hpp"
#include "sim/process.hpp"
#include "store/journal.hpp"

namespace ooc::raft {

class RaftProcess : public Process {
 public:
  explicit RaftProcess(RaftConfig config);

  // --- client API ----------------------------------------------------------
  /// Appends a command if this node currently leads; returns whether it did.
  bool submit(Value command);

  // --- inspection ----------------------------------------------------------
  Role role() const noexcept { return role_; }
  Term currentTerm() const noexcept { return currentTerm_; }
  LogIndex commitIndex() const noexcept { return commitIndex_; }
  LogIndex lastApplied() const noexcept { return lastApplied_; }
  LogIndex lastLogIndex() const noexcept {
    return snapshotIndex_ + log_->size();
  }
  /// Retained suffix: entries with indices (snapshotIndex, lastLogIndex].
  const std::vector<LogEntry>& log() const noexcept { return *log_; }
  /// Highest index covered by the local snapshot (0 = none).
  LogIndex snapshotIndex() const noexcept { return snapshotIndex_; }
  std::uint64_t snapshotsInstalled() const noexcept {
    return snapshotsInstalled_;
  }
  std::uint64_t snapshotsTaken() const noexcept { return snapshotsTaken_; }
  std::uint64_t electionsStarted() const noexcept {
    return electionsStarted_;
  }
  std::uint64_t timesElectedLeader() const noexcept {
    return timesElectedLeader_;
  }

  /// One entry per vote cast (self-votes included), across every
  /// incarnation of this node. This is the run monitor's ground truth for
  /// the no-vote-amnesia invariant: two entries with the same term but
  /// different candidates mean a restart erased a vote that a candidate may
  /// already have counted.
  struct VoteRecord {
    Term term = 0;
    ProcessId candidate = 0;
    std::uint32_t incarnation = 0;
  };
  const std::vector<VoteRecord>& voteHistory() const noexcept {
    return voteHistory_;
  }

  /// Durability introspection (null / zero when !config().durable).
  const store::WriteAheadLog* wal() const noexcept { return journal_.wal(); }
  std::uint64_t recoveries() const noexcept { return recoveries_; }
  const store::RecoveryReport& lastRecovery() const noexcept {
    return journal_.lastRecovery();
  }

  // --- Process interface ---------------------------------------------------
  void onStart() override;
  void onMessage(ProcessId from, const Message& message) override;
  void onTimer(TimerId id) override;
  void onCrash() override { journal_.crash(ctx().rng()); }
  void onRestart() override;

 protected:
  /// Applied in log order, exactly once per index (State Machine Safety).
  virtual void onApply(LogIndex index, const LogEntry& entry);
  /// This node just won an election for currentTerm().
  virtual void onBecameLeader() {}
  /// A follower accepted new entries (the paper's "first kind" of
  /// AppendEntries — tentative, not yet covered by the commit index).
  virtual void onEntriesAccepted() {}
  /// commitIndex advanced (the paper's "second kind").
  virtual void onCommitAdvanced() {}
  /// Role transition hook (old role passed; new role via role()).
  virtual void onRoleChanged(Role /*oldRole*/) {}
  /// The election timer fired and a new election is about to start — the
  /// template decomposition's reconciliator moment (Algorithm 11).
  virtual void onElectionTimeout() {}
  /// A restart is in progress: volatile subclass state must be discarded
  /// NOW, before the journal is replayed (replay may re-apply entries and
  /// re-restore snapshots under the new incarnation).
  virtual void onVolatileReset() {}

  /// Raft §8 liveness hook: a command the subclass's state machine treats
  /// as a no-op. The commit rule (advanceCommitIndex counts only
  /// current-term entries) means a fresh leader whose log ends in
  /// prior-term entries cannot advance the commit index until something is
  /// appended in its own term. If every client command it is offered is
  /// already sitting in that uncommitted tail — submit-side dedup — nothing
  /// ever is, and the cluster stalls under a perfectly stable leader.
  /// Returning a value makes becomeLeader() append it as a current-term
  /// barrier entry whenever an uncommitted tail exists, which flushes the
  /// tail on the next quorum of replies. The default (nullopt) keeps the
  /// single-decree consensus usage no-op-free: there, the new leader always
  /// has a fresh proposal of its own to append.
  virtual std::optional<Value> leaderBarrier() const { return std::nullopt; }

  /// Snapshot support: serialize the state machine as applied through
  /// lastApplied() (opaque payload shipped in InstallSnapshot), and restore
  /// from such a payload. Subclasses with state must override both;
  /// the defaults carry no state (fine for the single-command consensus
  /// usage, whose decision hook re-fires via onCommitAdvanced).
  virtual std::vector<Value> captureSnapshot() const { return {}; }
  virtual void restoreSnapshot(const std::vector<Value>& /*state*/) {}

  /// Discards applied entries up to `upto` (must be <= lastApplied) after
  /// capturing a snapshot. Invoked automatically per
  /// RaftConfig::compactionThreshold; callable manually.
  void compactTo(LogIndex upto);

  const RaftConfig& config() const noexcept { return config_; }

 private:
  Term lastLogTerm() const noexcept {
    return log_->empty() ? snapshotTerm_ : log_->back().term;
  }
  /// Term of `index`, which may be the snapshot boundary.
  Term termAt(LogIndex index) const {
    return index == snapshotIndex_ ? snapshotTerm_ : entryAt(index).term;
  }
  const LogEntry& entryAt(LogIndex index) const {
    return (*log_)[index - snapshotIndex_ - 1];
  }
  /// Keeps positions [from, to) of the retained log and drops the rest: in
  /// place if no message holds the log, else as a fresh vector.
  void keepLogRange(std::size_t from, std::size_t to);

  void becomeFollower(Term term);
  void becomeCandidate();
  void becomeLeader();
  void resetElectionTimer();
  void stopElectionTimer();
  void startHeartbeatTimer();
  void sendAppendTo(ProcessId peer);
  void broadcastAppends();
  void advanceCommitIndex();
  void applyCommitted();

  void handleRequestVote(ProcessId from, const RequestVote& msg);
  void handleRequestVoteReply(ProcessId from, const RequestVoteReply& msg);
  void handleAppendEntries(ProcessId from, const AppendEntries& msg);
  void handleAppendEntriesReply(ProcessId from,
                                const AppendEntriesReply& msg);
  void handleInstallSnapshot(ProcessId from, const InstallSnapshot& msg);
  void maybeAutoCompact();

  // Journalling. Every mutation of persistent state appends a record; with
  // syncBeforeReply the append is synced immediately, so the state is
  // durable before any message referencing it can be sent.
  void persistMeta();
  void persistEntry(const LogEntry& entry);
  void persistTruncate();
  void persistSnapshot();
  void recordVote(ProcessId candidate);

  RaftConfig config_;
  store::Journal journal_;

  // Persistent state. The in-memory copy is authoritative while the node
  // is up; with RaftConfig::durable every mutation is also journalled,
  // and onRestart() rebuilds these fields from whatever the journal
  // recovers (which may be a stale prefix under crash-before-sync).
  Term currentTerm_ = 0;
  std::optional<ProcessId> votedFor_;
  // The retained log, shared with every AppendEntries that ships from it
  // (copy-on-write): while a message holds it, positions below its size
  // never change. Appends may run while it is shared; every other mutation
  // goes through keepLogRange, which copies first if it is shared.
  std::shared_ptr<std::vector<LogEntry>> log_ =
      std::make_shared<std::vector<LogEntry>>();
  LogIndex snapshotIndex_ = 0;
  Term snapshotTerm_ = 0;
  std::uint64_t snapshotsTaken_ = 0;
  std::uint64_t snapshotsInstalled_ = 0;

  // Volatile state.
  Role role_ = Role::kFollower;
  LogIndex commitIndex_ = 0;
  LogIndex lastApplied_ = 0;

  // Candidate state.
  std::vector<bool> votesGranted_;

  // Leader state (reinitialized on every election win).
  std::vector<LogIndex> nextIndex_;
  std::vector<LogIndex> matchIndex_;
  // advanceCommitIndex's selection buffer, kept to avoid a copy per reply.
  std::vector<LogIndex> matchScratch_;

  TimerId electionTimer_ = 0;
  TimerId heartbeatTimer_ = 0;

  std::uint64_t electionsStarted_ = 0;
  std::uint64_t timesElectedLeader_ = 0;

  std::uint64_t recoveries_ = 0;
  std::vector<VoteRecord> voteHistory_;
};

}  // namespace ooc::raft
