// Raft-native replicated-log service node: the baseline the composed
// engines are measured against in E21. Where SvcNode builds the log out
// of per-decree single-shot consensus instances, Raft IS a multi-decree
// log natively — leader-based pipelining (AppendEntries carries up to
// maxEntriesPerAppend entries), commit-index batching, and durable
// restart recovery all come from RaftProcess. This adapter only adds the
// client side, through the same ClientFront SvcNode owns:
//
//  * the front mints commands from the deterministic Workload on a
//    timer;
//  * a node that is not the leader fans its commands out (CmdForward);
//    whoever leads appends them, deduplicating against its log and the
//    applied prefix;
//  * commands not yet applied are re-fanned-out periodically, which is
//    what carries them across leader failovers (the blackout window E21
//    measures is visible as the commit-tick gap this retry bridges);
//  * onApply feeds the front's ledger: applied commands (exactly once — a
//    failover can legitimately duplicate a command in the Raft log, the
//    apply-level dedup suppresses the second occurrence identically at
//    every node), one commit tick per applied command, per-command decide
//    latency; onCommitAdvanced records one batch size per commit advance.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "raft/raft_process.hpp"
#include "svc/workload.hpp"

namespace ooc::svc {

/// A non-leader's client commands, fanned out so the current leader (now
/// or after the next election) can append them.
class CmdForward final : public MessageBase<CmdForward> {
 public:
  explicit CmdForward(std::vector<Value> commands)
      : commands_(std::move(commands)) {}

  const std::vector<Value>& commands() const noexcept { return commands_; }

  std::string describe() const override {
    return "CmdForward{cmds=" + std::to_string(commands_.size()) + "}";
  }

 private:
  std::vector<Value> commands_;
};

class RaftLogNode final : public raft::RaftProcess {
 public:
  RaftLogNode(raft::RaftConfig config, ClientFront front);

  void onStart() override;
  void onRestart() override;
  void onMessage(ProcessId from, const Message& message) override;
  void onTimer(TimerId id) override;

  // --- observation (runSvc audits) ---
  /// Applied commands, arrivals and latencies; duplicates are legitimate
  /// here (a failover can re-append a command) and suppressed at apply.
  const ClientFront& front() const noexcept { return front_; }
  /// Leader-barrier no-ops this node applied (skipped entries; the raft
  /// analogue of SvcNode's no-op decrees — see RaftProcess::leaderBarrier).
  std::uint64_t noopsApplied() const noexcept { return noopsApplied_; }

  /// This node's client calendar is exhausted and every command it minted
  /// (and still remembers) has been applied locally. Raft never quiesces
  /// on its own — heartbeats and the resubmit bridge re-arm forever — so
  /// runSvc's stop predicate is built from this.
  bool drained() const noexcept;

  /// (tick, term) of each election this node won, for the failover
  /// blackout probe. Survives restarts.
  struct LeaderEvent {
    Tick at = 0;
    raft::Term term = 0;
  };
  const std::vector<LeaderEvent>& leaderEvents() const noexcept {
    return leaderEvents_;
  }

 protected:
  void onApply(raft::LogIndex index, const raft::LogEntry& entry) override;
  void onBecameLeader() override;
  void onCommitAdvanced() override;
  void onVolatileReset() override;
  std::optional<Value> leaderBarrier() const override;

 private:
  void handleArrivals();
  void offerCommands(const std::vector<Value>& commands);
  void resubmitUnapplied();

  ClientFront front_;
  /// Own commands in mint order, retried until applied.
  std::deque<Value> pendingLocal_;
  /// The commands in the log, built when this node wins an election and
  /// extended by each of its submits; read only while it leads.
  std::unordered_set<Value> inLog_;
  std::uint64_t noopsApplied_ = 0;
  raft::LogIndex lastBatchCommit_ = 0;
  std::vector<LeaderEvent> leaderEvents_;

  TimerId resubmitTimer_ = 0;
  /// True while the base class replays the journal in onRestart: replayed
  /// applies must not re-trigger closed-loop client feedback.
  bool replaying_ = false;
};

}  // namespace ooc::svc
