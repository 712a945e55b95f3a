// Surgical unit tests of the Raft message handlers: a ManualContext drives
// one RaftProcess directly (no simulator), asserting on exactly which
// replies and state transitions each RPC produces.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "raft/kv_store.hpp"
#include "raft/messages.hpp"
#include "raft/raft_process.hpp"
#include "sim/process.hpp"
#include "store/wal.hpp"

namespace ooc {
namespace {

class ManualContext final : public Context {
 public:
  explicit ManualContext(std::size_t n, ProcessId self = 0)
      : n_(n), self_(self) {}

  ProcessId self() const noexcept override { return self_; }
  std::size_t processCount() const noexcept override { return n_; }
  Tick now() const noexcept override { return now_; }
  Rng& rng() noexcept override { return rng_; }

  void post(ProcessId to, MessagePtr msg) override {
    sent.emplace_back(to, std::move(msg));
  }
  void fanout(MessagePtr msg) override {
    for (ProcessId to = 0; to < n_; ++to) sent.emplace_back(to, msg);
  }
  TimerId setTimer(Tick delay) override {
    lastTimerDelay = delay;
    return ++timerCounter;
  }
  void cancelTimer(TimerId id) noexcept override { cancelled.push_back(id); }
  void decide(Value v) override {
    decided = true;
    decision = v;
  }

  /// Last message of type T sent to `to`, or nullptr.
  template <typename T>
  const T* lastTo(ProcessId to) const {
    for (auto it = sent.rbegin(); it != sent.rend(); ++it) {
      if (it->first != to) continue;
      if (const T* typed = it->second->template as<T>()) return typed;
    }
    return nullptr;
  }
  template <typename T>
  std::size_t countOf() const {
    std::size_t count = 0;
    for (const auto& [to, msg] : sent)
      count += msg->template as<T>() != nullptr ? 1 : 0;
    return count;
  }
  void clear() { sent.clear(); }

  std::vector<std::pair<ProcessId, MessagePtr>> sent;
  std::vector<TimerId> cancelled;
  TimerId timerCounter = 0;
  Tick lastTimerDelay = 0;
  Tick now_ = 0;
  bool decided = false;
  Value decision = kNoValue;

 private:
  std::size_t n_;
  ProcessId self_;
  Rng rng_{7};
};

/// An AppendEntries shipping `entries`. The message reads a sender's log
/// by reference, so a test hands it a vector holding just those entries.
raft::AppendEntries appendEntries(raft::Term term, ProcessId leader,
                                  raft::LogIndex prevLogIndex,
                                  raft::Term prevLogTerm,
                                  std::vector<raft::LogEntry> entries,
                                  raft::LogIndex leaderCommit) {
  const std::size_t count = entries.size();
  return raft::AppendEntries(
      term, leader, prevLogIndex, prevLogTerm,
      std::make_shared<const std::vector<raft::LogEntry>>(std::move(entries)),
      0, count, leaderCommit);
}

/// A 5-node view of one node under test (id 0 unless stated otherwise).
struct Bench {
  explicit Bench(std::size_t n = 5) : ctx(n), node(raft::RaftConfig{}) {
    node.bind(ctx);
    node.onStart();
    electionTimer = ctx.timerCounter;  // armed in onStart
  }

  /// Fires the election timer: follower -> candidate (term+1). The most
  /// recently armed timer is the election timer for any non-leader (every
  /// handler that resets it arms a fresh one).
  void timeout() { node.onTimer(ctx.timerCounter); }

  /// Promotes the node to leader of its current term via granted votes.
  void elect() {
    timeout();
    const raft::Term term = node.currentTerm();
    node.onMessage(1, raft::RequestVoteReply(term, true));
    node.onMessage(2, raft::RequestVoteReply(term, true));
    ASSERT_EQ(node.role(), raft::Role::kLeader);
    ctx.clear();
  }

  ManualContext ctx;
  raft::RaftProcess node;
  TimerId electionTimer = 0;
};

TEST(RaftUnit, StartsAsFollowerWithElectionTimer) {
  Bench bench;
  EXPECT_EQ(bench.node.role(), raft::Role::kFollower);
  EXPECT_EQ(bench.node.currentTerm(), 0u);
  EXPECT_GT(bench.ctx.timerCounter, 0u);
  EXPECT_GE(bench.ctx.lastTimerDelay, raft::RaftConfig{}.electionTimeoutMin);
  EXPECT_LE(bench.ctx.lastTimerDelay, raft::RaftConfig{}.electionTimeoutMax);
}

TEST(RaftUnit, TimeoutStartsElection) {
  Bench bench;
  bench.timeout();
  EXPECT_EQ(bench.node.role(), raft::Role::kCandidate);
  EXPECT_EQ(bench.node.currentTerm(), 1u);
  // RequestVote to each of the 4 peers, none to self.
  EXPECT_EQ(bench.ctx.countOf<raft::RequestVote>(), 4u);
  EXPECT_EQ(bench.ctx.lastTo<raft::RequestVote>(0), nullptr);
}

TEST(RaftUnit, GrantsOneVotePerTerm) {
  Bench bench;
  bench.node.onMessage(1, raft::RequestVote(1, 1, 0, 0));
  const auto* first = bench.ctx.lastTo<raft::RequestVoteReply>(1);
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(first->granted);

  bench.node.onMessage(2, raft::RequestVote(1, 2, 0, 0));
  const auto* second = bench.ctx.lastTo<raft::RequestVoteReply>(2);
  ASSERT_NE(second, nullptr);
  EXPECT_FALSE(second->granted) << "double vote in one term";

  // Same candidate again (duplicate request): re-grant is allowed.
  bench.node.onMessage(1, raft::RequestVote(1, 1, 0, 0));
  const auto* repeat = bench.ctx.lastTo<raft::RequestVoteReply>(1);
  ASSERT_NE(repeat, nullptr);
  EXPECT_TRUE(repeat->granted);
}

TEST(RaftUnit, DeniesStaleTermVote) {
  Bench bench;
  bench.timeout();  // term 1
  bench.node.onMessage(1, raft::RequestVote(0, 1, 5, 0));
  const auto* reply = bench.ctx.lastTo<raft::RequestVoteReply>(1);
  ASSERT_NE(reply, nullptr);
  EXPECT_FALSE(reply->granted);
  EXPECT_EQ(reply->term, 1u);
}

TEST(RaftUnit, DeniesVoteToStaleLog) {
  // Give the node one entry of term 1, then a term-2 candidate with an
  // empty log asks for a vote: election restriction must deny.
  Bench bench;
  bench.node.onMessage(
      3, appendEntries(1, 3, 0, 0, {raft::LogEntry{1, 42}}, 0));
  ASSERT_EQ(bench.node.lastLogIndex(), 1u);
  bench.ctx.clear();

  bench.node.onMessage(1, raft::RequestVote(2, 1, 0, 0));
  const auto* reply = bench.ctx.lastTo<raft::RequestVoteReply>(1);
  ASSERT_NE(reply, nullptr);
  EXPECT_FALSE(reply->granted);
  // But term still adopted (higher term always adopted).
  EXPECT_EQ(bench.node.currentTerm(), 2u);
}

TEST(RaftUnit, CandidateWinsWithMajority) {
  Bench bench;
  bench.timeout();
  bench.node.onMessage(1, raft::RequestVoteReply(1, true));
  EXPECT_EQ(bench.node.role(), raft::Role::kCandidate);  // 2 of 5
  bench.node.onMessage(1, raft::RequestVoteReply(1, true));  // duplicate
  EXPECT_EQ(bench.node.role(), raft::Role::kCandidate);
  bench.node.onMessage(2, raft::RequestVoteReply(1, true));
  EXPECT_EQ(bench.node.role(), raft::Role::kLeader);  // 3 of 5
}

TEST(RaftUnit, StaleOrDeniedVotesIgnored) {
  Bench bench;
  bench.timeout();
  bench.node.onMessage(1, raft::RequestVoteReply(0, true));   // stale term
  bench.node.onMessage(2, raft::RequestVoteReply(1, false));  // denied
  EXPECT_EQ(bench.node.role(), raft::Role::kCandidate);
}

TEST(RaftUnit, LeaderAppendsAndCommitsWithQuorum) {
  Bench bench;
  bench.elect();
  EXPECT_TRUE(bench.node.submit(77));
  EXPECT_EQ(bench.node.lastLogIndex(), 1u);
  EXPECT_EQ(bench.node.commitIndex(), 0u);

  const raft::Term term = bench.node.currentTerm();
  bench.node.onMessage(1, raft::AppendEntriesReply(term, true, 1));
  EXPECT_EQ(bench.node.commitIndex(), 0u) << "2 of 5 is not a quorum";
  bench.node.onMessage(2, raft::AppendEntriesReply(term, true, 1));
  EXPECT_EQ(bench.node.commitIndex(), 1u) << "leader + 2 replicas = quorum";

  // Uneven acks over five entries: the commit point is the highest index a
  // majority holds, reached in one step however far it lies.
  for (Value command : {78, 79, 80, 81})
    ASSERT_TRUE(bench.node.submit(command));
  ASSERT_EQ(bench.node.lastLogIndex(), 5u);
  bench.node.onMessage(1, raft::AppendEntriesReply(term, true, 5));
  EXPECT_EQ(bench.node.commitIndex(), 1u) << "matches {5, 5, 1, 0, 0}";
  bench.node.onMessage(2, raft::AppendEntriesReply(term, true, 3));
  EXPECT_EQ(bench.node.commitIndex(), 3u) << "matches {5, 5, 3, 0, 0}";
  bench.node.onMessage(2, raft::AppendEntriesReply(term, true, 5));
  EXPECT_EQ(bench.node.commitIndex(), 5u) << "matches {5, 5, 5, 0, 0}";
}

TEST(RaftUnit, FollowerCannotSubmit) {
  Bench bench;
  EXPECT_FALSE(bench.node.submit(5));
  EXPECT_EQ(bench.node.lastLogIndex(), 0u);
}

TEST(RaftUnit, LeaderStepsDownOnHigherTerm) {
  Bench bench;
  bench.elect();
  bench.node.onMessage(
      2, raft::AppendEntriesReply(bench.node.currentTerm() + 5, false, 0));
  EXPECT_EQ(bench.node.role(), raft::Role::kFollower);
  EXPECT_EQ(bench.node.currentTerm(), 6u);
}

TEST(RaftUnit, AppendEntriesRejectsStaleTerm) {
  Bench bench;
  bench.timeout();  // term 1
  bench.node.onMessage(3, appendEntries(0, 3, 0, 0, {}, 0));
  const auto* reply = bench.ctx.lastTo<raft::AppendEntriesReply>(3);
  ASSERT_NE(reply, nullptr);
  EXPECT_FALSE(reply->success);
  EXPECT_EQ(bench.node.role(), raft::Role::kCandidate) << "must not yield";
}

TEST(RaftUnit, AppendEntriesRejectsMissingPrefix) {
  Bench bench;
  bench.node.onMessage(
      3, appendEntries(1, 3, /*prevLogIndex=*/4, /*prevLogTerm=*/1,
                       {raft::LogEntry{1, 9}}, 0));
  const auto* reply = bench.ctx.lastTo<raft::AppendEntriesReply>(3);
  ASSERT_NE(reply, nullptr);
  EXPECT_FALSE(reply->success);
  EXPECT_EQ(bench.node.lastLogIndex(), 0u);
}

TEST(RaftUnit, AppendEntriesTruncatesConflictingSuffix) {
  Bench bench;
  // Three entries of term 1.
  bench.node.onMessage(
      3, appendEntries(1, 3, 0, 0,
                       {raft::LogEntry{1, 10}, raft::LogEntry{1, 11},
                        raft::LogEntry{1, 12}},
                       0));
  ASSERT_EQ(bench.node.lastLogIndex(), 3u);
  // New leader (term 2) overwrites from index 2.
  bench.node.onMessage(
      4, appendEntries(2, 4, 1, 1, {raft::LogEntry{2, 99}}, 0));
  ASSERT_EQ(bench.node.lastLogIndex(), 2u) << "conflict suffix kept";
  EXPECT_EQ(bench.node.log()[1], (raft::LogEntry{2, 99}));
  EXPECT_EQ(bench.node.log()[0], (raft::LogEntry{1, 10}));

  // The term-2 leader grows the log to five entries.
  bench.node.onMessage(
      4, appendEntries(2, 4, 2, 2,
                       {raft::LogEntry{2, 100}, raft::LogEntry{2, 101},
                        raft::LogEntry{2, 102}},
                       0));
  ASSERT_EQ(bench.node.lastLogIndex(), 5u);
  // A term-3 leader resends from the start: the first two entries are
  // held, the third conflicts, so the log truncates mid-message.
  bench.node.onMessage(
      1, appendEntries(3, 1, 0, 0,
                       {raft::LogEntry{1, 10}, raft::LogEntry{2, 99},
                        raft::LogEntry{3, 7}},
                       0));
  const auto* reply = bench.ctx.lastTo<raft::AppendEntriesReply>(1);
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->success);
  EXPECT_EQ(reply->matchIndex, 3u);
  EXPECT_EQ(bench.node.log(),
            (std::vector<raft::LogEntry>{raft::LogEntry{1, 10},
                                         raft::LogEntry{2, 99},
                                         raft::LogEntry{3, 7}}));

  // A term-4 leader's first entry conflicts with the last one held: only
  // that entry is dropped before the new ones are appended.
  bench.node.onMessage(
      2, appendEntries(4, 2, 2, 2,
                       {raft::LogEntry{4, 8}, raft::LogEntry{4, 9}}, 0));
  reply = bench.ctx.lastTo<raft::AppendEntriesReply>(2);
  ASSERT_NE(reply, nullptr);
  EXPECT_TRUE(reply->success);
  EXPECT_EQ(reply->matchIndex, 4u);
  EXPECT_EQ(bench.node.log(),
            (std::vector<raft::LogEntry>{
                raft::LogEntry{1, 10}, raft::LogEntry{2, 99},
                raft::LogEntry{4, 8}, raft::LogEntry{4, 9}}));
}

TEST(RaftUnit, AppendEntriesIdempotentOnDuplicates) {
  Bench bench;
  const raft::AppendEntries msg =
      appendEntries(1, 3, 0, 0, {raft::LogEntry{1, 10}}, 0);
  bench.node.onMessage(3, msg);
  const raft::AppendEntries duplicate(msg);
  bench.node.onMessage(3, duplicate);
  EXPECT_EQ(bench.node.lastLogIndex(), 1u);
}

TEST(RaftUnit, CommitFollowsLeaderCommitBound) {
  Bench bench;
  bench.node.onMessage(
      3, appendEntries(1, 3, 0, 0,
                       {raft::LogEntry{1, 10}, raft::LogEntry{1, 11}},
                       /*leaderCommit=*/5));
  // leaderCommit beyond our log is clamped to lastLogIndex.
  EXPECT_EQ(bench.node.commitIndex(), 2u);
}

TEST(RaftUnit, LeaderNeverCommitsOldTermEntriesDirectly) {
  // Figure 8 scenario guard: a new leader must not count replicas of an
  // old-term entry toward commitment until one of its own entries covers
  // it.
  Bench bench;
  // Follower receives one term-1 entry.
  bench.node.onMessage(
      3, appendEntries(1, 3, 0, 0, {raft::LogEntry{1, 10}}, 0));
  // It then wins an election at term 2.
  bench.timeout();
  const raft::Term term = bench.node.currentTerm();
  ASSERT_EQ(term, 2u);
  bench.node.onMessage(1, raft::RequestVoteReply(term, true));
  bench.node.onMessage(2, raft::RequestVoteReply(term, true));
  ASSERT_EQ(bench.node.role(), raft::Role::kLeader);

  // Followers acknowledge replication of the old entry: still no commit.
  bench.node.onMessage(1, raft::AppendEntriesReply(term, true, 1));
  bench.node.onMessage(2, raft::AppendEntriesReply(term, true, 1));
  EXPECT_EQ(bench.node.commitIndex(), 0u) << "committed an old-term entry";

  // A current-term entry commits, carrying the prefix with it.
  ASSERT_TRUE(bench.node.submit(20));
  bench.node.onMessage(1, raft::AppendEntriesReply(term, true, 2));
  bench.node.onMessage(2, raft::AppendEntriesReply(term, true, 2));
  EXPECT_EQ(bench.node.commitIndex(), 2u);
}

TEST(RaftUnit, BacktracksNextIndexOnRejection) {
  Bench bench;
  bench.elect();
  ASSERT_TRUE(bench.node.submit(1));
  ASSERT_TRUE(bench.node.submit(2));
  bench.ctx.clear();

  const raft::Term term = bench.node.currentTerm();
  // Follower 1 rejects: the leader must retry with an earlier prevLogIndex.
  bench.node.onMessage(1, raft::AppendEntriesReply(term, false, 0));
  const auto* retry = bench.ctx.lastTo<raft::AppendEntries>(1);
  ASSERT_NE(retry, nullptr);
  EXPECT_LT(retry->prevLogIndex, 2u);
  EXPECT_FALSE(retry->entries().empty());
}

TEST(RaftUnit, SnapshotInstallAndStaleSnapshotIgnored) {
  ManualContext ctx(5);
  raft::KvStoreNode node{raft::RaftConfig{}};
  node.bind(ctx);
  node.onStart();

  // Install a snapshot covering 3 entries.
  std::vector<Value> state = {raft::packKv(1, 100), raft::packKv(2, 200)};
  node.onMessage(3, raft::InstallSnapshot(1, 3, 3, 1, state));
  EXPECT_EQ(node.snapshotIndex(), 3u);
  EXPECT_EQ(node.commitIndex(), 3u);
  EXPECT_EQ(node.data().at(1), 100u);
  const auto* ack = ctx.lastTo<raft::AppendEntriesReply>(3);
  ASSERT_NE(ack, nullptr);
  EXPECT_TRUE(ack->success);
  EXPECT_EQ(ack->matchIndex, 3u);

  // A stale snapshot (lower boundary) must not regress anything.
  ctx.clear();
  node.onMessage(3, raft::InstallSnapshot(1, 3, 2, 1, {}));
  EXPECT_EQ(node.snapshotIndex(), 3u);
  EXPECT_EQ(node.data().at(1), 100u);

  // Appends continue from the snapshot boundary.
  node.onMessage(3, appendEntries(1, 3, 3, 1,
                                  {raft::LogEntry{1, raft::packKv(7, 700)}},
                                  4));
  EXPECT_EQ(node.lastLogIndex(), 4u);
  EXPECT_EQ(node.data().at(7), 700u);

  // An append from below the snapshot boundary that overlaps it: indices
  // 2-3 are covered, 4 is held, and only 5 is new.
  ctx.clear();
  node.onMessage(
      3, appendEntries(1, 3, 1, 1,
                       {raft::LogEntry{1, raft::packKv(2, 200)},
                        raft::LogEntry{1, raft::packKv(1, 100)},
                        raft::LogEntry{1, raft::packKv(7, 700)},
                        raft::LogEntry{1, raft::packKv(8, 800)}},
                       5));
  const auto* overlap = ctx.lastTo<raft::AppendEntriesReply>(3);
  ASSERT_NE(overlap, nullptr);
  EXPECT_TRUE(overlap->success);
  EXPECT_EQ(overlap->matchIndex, 5u);
  EXPECT_EQ(node.snapshotIndex(), 3u);
  EXPECT_EQ(node.log(),
            (std::vector<raft::LogEntry>{
                raft::LogEntry{1, raft::packKv(7, 700)},
                raft::LogEntry{1, raft::packKv(8, 800)}}));
  EXPECT_EQ(node.data().at(8), 800u);

  // One that lies wholly inside the snapshot changes nothing.
  node.onMessage(3, appendEntries(
                        1, 3, 0, 0,
                        {raft::LogEntry{1, raft::packKv(1, 100)},
                         raft::LogEntry{1, raft::packKv(2, 200)}},
                        5));
  const auto* covered = ctx.lastTo<raft::AppendEntriesReply>(3);
  ASSERT_NE(covered, nullptr);
  EXPECT_TRUE(covered->success);
  EXPECT_EQ(covered->matchIndex, 2u);
  EXPECT_EQ(node.lastLogIndex(), 5u);
}

TEST(RaftUnit, CompactToRejectsUnappliedPrefix) {
  Bench bench;
  class Exposed : public raft::RaftProcess {
   public:
    using raft::RaftProcess::compactTo;
    using raft::RaftProcess::RaftProcess;
  };
  ManualContext ctx(3);
  Exposed node{raft::RaftConfig{}};
  node.bind(ctx);
  node.onStart();
  node.onMessage(1, appendEntries(1, 1, 0, 0,
                                  {raft::LogEntry{1, 5}}, 0));
  EXPECT_THROW(node.compactTo(1), std::logic_error)  // not yet applied
      << "compacted past the applied prefix";
}

// AppendEntries ships the leader's log by reference, so every mutation of
// the log other than an append must leave a vector some message holds as
// it was (copy-on-write). Each step captures the AppendEntries the node
// sends while it leads and then changes its log one way; every message
// captured so far must still read the entries it was sent with.
TEST(RaftUnit, SentEntriesSurviveEveryLogMutation) {
  class Exposed : public raft::RaftProcess {
   public:
    using raft::RaftProcess::compactTo;
    using raft::RaftProcess::RaftProcess;
  };
  raft::RaftConfig config;
  config.durable = true;
  ManualContext ctx(5);
  Exposed node{config};
  node.bind(ctx);
  node.onStart();

  struct Captured {
    MessagePtr message;
    std::vector<raft::LogEntry> sent;
  };
  std::vector<Captured> captured;
  const auto capture = [&] {
    for (const auto& [to, message] : ctx.sent) {
      const auto* append = message->as<raft::AppendEntries>();
      if (append == nullptr || append->entries().empty()) continue;
      const auto entries = append->entries();
      captured.push_back({message, {entries.begin(), entries.end()}});
    }
    ctx.clear();
  };
  const auto expectIntact = [&](const char* step) {
    ASSERT_FALSE(captured.empty()) << step;
    for (const Captured& c : captured) {
      const auto entries = c.message->as<raft::AppendEntries>()->entries();
      EXPECT_EQ(std::vector<raft::LogEntry>(entries.begin(), entries.end()),
                c.sent)
          << step;
    }
  };
  // Election timeout plus two granted votes; the newest timer is the
  // election timer whenever the node does not lead.
  const auto elect = [&] {
    node.onTimer(ctx.timerCounter);
    const raft::Term term = node.currentTerm();
    node.onMessage(1, raft::RequestVoteReply(term, true));
    node.onMessage(2, raft::RequestVoteReply(term, true));
    ASSERT_EQ(node.role(), raft::Role::kLeader);
  };

  // Term 1: ship three entries, then append past the log's capacity while
  // those messages hold it.
  elect();
  for (Value command : {10, 11, 12}) ASSERT_TRUE(node.submit(command));
  capture();
  const std::size_t capacity = node.log().capacity();
  for (Value command = 13; node.log().size() <= capacity; ++command)
    ASSERT_TRUE(node.submit(command));
  ctx.clear();
  expectIntact("appends past capacity");

  // A term-2 leader's entry conflicts at index 2: the suffix is dropped.
  node.onMessage(3, appendEntries(2, 3, 1, 1, {raft::LogEntry{2, 99}}, 0));
  ASSERT_EQ(node.lastLogIndex(), 2u);
  ctx.clear();
  expectIntact("conflict truncation");

  // Term 3: ship and commit entry 3, then compact the first two away.
  elect();
  ASSERT_TRUE(node.submit(30));
  capture();
  const raft::Term leading = node.currentTerm();
  node.onMessage(1, raft::AppendEntriesReply(leading, true, 3));
  node.onMessage(2, raft::AppendEntriesReply(leading, true, 3));
  ASSERT_EQ(node.lastApplied(), 3u);
  ctx.clear();
  node.compactTo(2);
  ASSERT_EQ(node.snapshotIndex(), 2u);
  expectIntact("compactTo");

  // Ship entries 4-6, then install a snapshot through 4 from a term-4
  // leader: the held suffix 5-6 is kept, the rest dropped.
  for (Value command : {40, 41, 42}) ASSERT_TRUE(node.submit(command));
  capture();
  node.onMessage(4, raft::InstallSnapshot(/*term=*/4, /*leader=*/4,
                                          /*lastIncludedIndex=*/4, leading,
                                          {}));
  ASSERT_EQ(node.snapshotIndex(), 4u);
  ASSERT_EQ(node.log().size(), 2u);
  ctx.clear();
  expectIntact("InstallSnapshot keeping a suffix");

  // Term 5: ship entry 7, then install a snapshot through 9 from a term-6
  // leader, past the end of the log: all of it is dropped.
  elect();
  ASSERT_TRUE(node.submit(50));
  capture();
  node.onMessage(4, raft::InstallSnapshot(/*term=*/6, /*leader=*/4,
                                          /*lastIncludedIndex=*/9,
                                          /*lastIncludedTerm=*/5, {}));
  ASSERT_EQ(node.snapshotIndex(), 9u);
  ASSERT_TRUE(node.log().empty());
  ctx.clear();
  expectIntact("InstallSnapshot past the log");

  // Term 7: ship entry 10, then crash and restart; the journal replay
  // rebuilds the same log.
  elect();
  ASSERT_TRUE(node.submit(70));
  capture();
  const std::vector<raft::LogEntry> before = node.log();
  node.onCrash();
  node.onRestart();
  EXPECT_EQ(node.snapshotIndex(), 9u);
  EXPECT_EQ(node.log(), before);
  expectIntact("restart");
}

// A journal replay checks each count it reads from a record against what
// is left of the record, by subtraction. Summed, 4 + 2 * (2^63 + 1) + 1
// wraps to 7, which the 7-word snapshot record below would pass, and the
// replay would read 2^64 words past its end; likewise a state length of
// 2^64 - 1 in a 5-word record. Both records are CRC-valid and ignored.
TEST(RaftUnit, ReplayIgnoresRecordCountsThatWouldWrap) {
  raft::RaftConfig config;
  config.durable = true;
  ManualContext ctx(5);
  raft::RaftProcess node{config};
  node.bind(ctx);
  node.onStart();
  node.onMessage(
      3, appendEntries(1, 3, 0, 0,
                       {raft::LogEntry{1, 10}, raft::LogEntry{1, 11}}, 0));
  ASSERT_EQ(node.lastLogIndex(), 2u);

  constexpr std::uint64_t kRecSnapshot = 4;
  auto* wal = const_cast<store::WriteAheadLog*>(node.wal());
  wal->append({kRecSnapshot, /*snapshotIndex=*/9, /*snapshotTerm=*/1,
               /*logLen=*/(std::uint64_t{1} << 63) + 1, 0, 0, 0});
  wal->append({kRecSnapshot, 9, 1, /*logLen=*/0,
               /*stateLen=*/~std::uint64_t{0}});
  wal->sync();
  node.onCrash();
  node.onRestart();
  EXPECT_EQ(node.currentTerm(), 1u);
  EXPECT_EQ(node.snapshotIndex(), 0u);
  EXPECT_EQ(node.log(), (std::vector<raft::LogEntry>{raft::LogEntry{1, 10},
                                                     raft::LogEntry{1, 11}}));
}

}  // namespace
}  // namespace ooc
