// Raft RPCs as simulator messages (paper §4.3 Figure 1).
//
// RPCs are modelled as message pairs (request / reply) over the simulated
// network; like every message in this library they may be delayed, lost or
// duplicated depending on the run's network model, which is exactly the
// failure surface Raft's term and consistency-check machinery exists for.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "raft/types.hpp"
#include "sim/message.hpp"

namespace ooc::raft {

/// RequestVote[term, candidateId, lastLogIndex, lastLogTerm]
struct RequestVote final : MessageBase<RequestVote> {
  RequestVote(Term term, ProcessId candidate, LogIndex lastLogIndex,
              Term lastLogTerm)
      : term(term),
        candidate(candidate),
        lastLogIndex(lastLogIndex),
        lastLogTerm(lastLogTerm) {}

  Term term;
  ProcessId candidate;
  LogIndex lastLogIndex;
  Term lastLogTerm;

  std::string describe() const override {
    return "RequestVote{t=" + std::to_string(term) +
           ",c=" + std::to_string(candidate) + "}";
  }
};

/// ack_RequestVote[term, voteGranted]
struct RequestVoteReply final : MessageBase<RequestVoteReply> {
  RequestVoteReply(Term term, bool granted) : term(term), granted(granted) {}

  Term term;
  bool granted;

  std::string describe() const override {
    return std::string("VoteReply{t=") + std::to_string(term) + "," +
           (granted ? "granted" : "denied") + "}";
  }
};

/// AppendEntries[term, leaderId, prevLogIndex, prevLogTerm, entries,
/// leaderCommit]. An empty `entries` is a heartbeat / pure commit-index
/// advance — the paper's "second kind" of AppendEntries.
///
/// The entries are not copied into the message: it holds the sender's
/// retained log and the `count` positions from `offset`. This is sound
/// under the sender's copy-on-write rule (RaftProcess): while any message
/// holds the vector, positions below its size never change. The sender may
/// append to it, which can reallocate its buffer, so `entries()` builds the
/// span on each access and no caller keeps one across events.
struct AppendEntries final : MessageBase<AppendEntries> {
  AppendEntries(Term term, ProcessId leader, LogIndex prevLogIndex,
                Term prevLogTerm,
                std::shared_ptr<const std::vector<LogEntry>> source,
                std::size_t offset, std::size_t count, LogIndex leaderCommit)
      : term(term),
        leader(leader),
        prevLogIndex(prevLogIndex),
        prevLogTerm(prevLogTerm),
        leaderCommit(leaderCommit),
        source_(std::move(source)),
        offset_(offset),
        count_(count) {}

  Term term;
  ProcessId leader;
  LogIndex prevLogIndex;
  Term prevLogTerm;
  LogIndex leaderCommit;

  /// The shipped entries, for indices prevLogIndex+1 onwards. Throws
  /// std::out_of_range if the source no longer covers them, which only a
  /// sender breaking the copy-on-write rule can cause.
  std::span<const LogEntry> entries() const {
    if (count_ > source_->size() || offset_ > source_->size() - count_)
      throw std::out_of_range("AppendEntries: source log shrank");
    return std::span<const LogEntry>(*source_).subspan(offset_, count_);
  }

  std::string describe() const override {
    return "AppendEntries{t=" + std::to_string(term) +
           ",l=" + std::to_string(leader) +
           ",prev=" + std::to_string(prevLogIndex) +
           ",n=" + std::to_string(count_) +
           ",commit=" + std::to_string(leaderCommit) + "}";
  }

 private:
  std::shared_ptr<const std::vector<LogEntry>> source_;
  std::size_t offset_;
  std::size_t count_;
};

/// ack_AppendEntries[term, success] (+ matchIndex so the leader can update
/// MatchIndex without inferring it from resend bookkeeping).
struct AppendEntriesReply final : MessageBase<AppendEntriesReply> {
  AppendEntriesReply(Term term, bool success, LogIndex matchIndex)
      : term(term), success(success), matchIndex(matchIndex) {}

  Term term;
  bool success;
  LogIndex matchIndex;  // highest index known replicated when success

  std::string describe() const override {
    return std::string("AppendReply{t=") + std::to_string(term) + "," +
           (success ? "ok" : "reject") +
           ",match=" + std::to_string(matchIndex) + "}";
  }
};

/// InstallSnapshot[term, leaderId, lastIncludedIndex, lastIncludedTerm,
/// state]: ships the leader's state-machine snapshot to a follower whose
/// next needed entry was compacted away. `state` is the opaque snapshot
/// payload produced by RaftProcess::captureSnapshot.
struct InstallSnapshot final : MessageBase<InstallSnapshot> {
  InstallSnapshot(Term term, ProcessId leader, LogIndex lastIncludedIndex,
                  Term lastIncludedTerm, std::vector<Value> state)
      : term(term),
        leader(leader),
        lastIncludedIndex(lastIncludedIndex),
        lastIncludedTerm(lastIncludedTerm),
        state(std::move(state)) {}

  Term term;
  ProcessId leader;
  LogIndex lastIncludedIndex;
  Term lastIncludedTerm;
  std::vector<Value> state;

  std::string describe() const override {
    return "InstallSnapshot{t=" + std::to_string(term) +
           ",upto=" + std::to_string(lastIncludedIndex) + "}";
  }
};

}  // namespace ooc::raft
