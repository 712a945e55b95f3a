#include "raft/raft_process.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <stdexcept>

#include "util/logging.hpp"

namespace ooc::raft {
namespace {

// Journal record tags (first word of every WAL record).
constexpr std::uint64_t kRecMeta = 1;      // {tag, term, votedFor+1 (0=none)}
constexpr std::uint64_t kRecEntry = 2;     // {tag, term, command}
constexpr std::uint64_t kRecTruncate = 3;  // {tag, new last absolute index}
// {tag, snapshotIndex, snapshotTerm, logLen, (term,cmd)*, stateLen, state*}
// — the full post-snapshot log image, so replay needs no re-deciding of
// which suffix survived an InstallSnapshot.
constexpr std::uint64_t kRecSnapshot = 4;

std::uint64_t encodeValue(Value v) noexcept {
  return std::bit_cast<std::uint64_t>(static_cast<std::int64_t>(v));
}

Value decodeValue(std::uint64_t w) noexcept {
  return static_cast<Value>(std::bit_cast<std::int64_t>(w));
}

}  // namespace

RaftProcess::RaftProcess(RaftConfig config) : config_(config) {
  if (config_.durable)
    wal_ = std::make_unique<store::WriteAheadLog>(config_.storage);
}

void RaftProcess::onStart() {
  votesGranted_.assign(ctx().processCount(), false);
  nextIndex_.assign(ctx().processCount(), 1);
  matchIndex_.assign(ctx().processCount(), 0);
  resetElectionTimer();
}

void RaftProcess::onCrash() {
  if (wal_) wal_->crash(ctx().rng());
}

void RaftProcess::onRestart() {
  // Everything below is volatile across a restart; the journal replay
  // rebuilds the persistent fields from whatever survived the crash.
  currentTerm_ = 0;
  votedFor_.reset();
  // A fresh vector: messages sent before the crash may still ship from the
  // old one.
  log_ = std::make_shared<std::vector<LogEntry>>();
  snapshotIndex_ = 0;
  snapshotTerm_ = 0;
  role_ = Role::kFollower;
  commitIndex_ = 0;
  lastApplied_ = 0;
  votesGranted_.assign(ctx().processCount(), false);
  nextIndex_.assign(ctx().processCount(), 1);
  matchIndex_.assign(ctx().processCount(), 0);
  // The simulator already purged this node's timers at the crash.
  electionTimer_ = 0;
  heartbeatTimer_ = 0;
  ++recoveries_;
  onVolatileReset();
  if (wal_) {
    for (const std::vector<std::uint64_t>& rec :
         wal_->recover(&lastRecovery_)) {
      if (rec.empty()) continue;
      switch (rec[0]) {
        case kRecMeta:
          if (rec.size() == 3) {
            currentTerm_ = rec[1];
            if (rec[2] == 0) {
              votedFor_.reset();
            } else {
              votedFor_ = static_cast<ProcessId>(rec[2] - 1);
            }
          }
          break;
        case kRecEntry:
          if (rec.size() == 3)
            log_->push_back(LogEntry{rec[1], decodeValue(rec[2])});
          break;
        case kRecTruncate:
          if (rec.size() == 2 && rec[1] >= snapshotIndex_ &&
              rec[1] - snapshotIndex_ <= log_->size()) {
            keepLogRange(0, rec[1] - snapshotIndex_);
          }
          break;
        case kRecSnapshot: {
          // The counts come from the record, so each is checked against
          // what is left of it by subtraction: a sum could wrap.
          if (rec.size() < 5) break;
          const std::uint64_t logLen = rec[3];
          if (logLen > (rec.size() - 5) / 2) break;
          const std::size_t stateAt = 4 + 2 * logLen;
          const std::uint64_t stateLen = rec[stateAt];
          if (stateLen > rec.size() - stateAt - 1) break;
          snapshotIndex_ = rec[1];
          snapshotTerm_ = rec[2];
          keepLogRange(0, 0);
          for (std::uint64_t i = 0; i < logLen; ++i) {
            log_->push_back(LogEntry{rec[4 + 2 * i],
                                     decodeValue(rec[4 + 2 * i + 1])});
          }
          std::vector<Value> state;
          for (std::uint64_t i = 0; i < stateLen; ++i)
            state.push_back(decodeValue(rec[stateAt + 1 + i]));
          commitIndex_ = snapshotIndex_;
          lastApplied_ = snapshotIndex_;
          restoreSnapshot(state);
          break;
        }
        default:
          break;  // unknown tag: ignore (forward compatibility)
      }
    }
    commitIndex_ = snapshotIndex_;
    lastApplied_ = snapshotIndex_;
  }
  OOC_DEBUG("raft p", ctx().self(), " recovered: t=", currentTerm_,
            " log=", log_->size(), " snap=", snapshotIndex_);
  resetElectionTimer();
}

// --- journalling ------------------------------------------------------------

void RaftProcess::persist(std::vector<std::uint64_t> record) {
  if (!wal_) return;
  wal_->append(record);
  if (config_.syncBeforeReply) wal_->sync();
}

void RaftProcess::persistMeta() {
  persist({kRecMeta, currentTerm_,
           votedFor_ ? static_cast<std::uint64_t>(*votedFor_) + 1 : 0});
}

void RaftProcess::persistEntry(const LogEntry& entry) {
  persist({kRecEntry, entry.term, encodeValue(entry.command)});
}

void RaftProcess::persistTruncate() {
  persist({kRecTruncate, lastLogIndex()});
}

void RaftProcess::persistSnapshot() {
  if (!wal_) return;
  std::vector<std::uint64_t> rec{kRecSnapshot, snapshotIndex_, snapshotTerm_,
                                 log_->size()};
  for (const LogEntry& entry : *log_) {
    rec.push_back(entry.term);
    rec.push_back(encodeValue(entry.command));
  }
  const std::vector<Value> state = captureSnapshot();
  rec.push_back(state.size());
  for (Value v : state) rec.push_back(encodeValue(v));
  persist(std::move(rec));
}

void RaftProcess::recordVote(ProcessId candidate) {
  voteHistory_.push_back(
      VoteRecord{currentTerm_, candidate, ctx().incarnation()});
}

// --- timers ----------------------------------------------------------------

void RaftProcess::resetElectionTimer() {
  if (electionTimer_ != 0) ctx().cancelTimer(electionTimer_);
  const Tick timeout = static_cast<Tick>(ctx().rng().between(
      static_cast<std::int64_t>(config_.electionTimeoutMin),
      static_cast<std::int64_t>(config_.electionTimeoutMax)));
  electionTimer_ = ctx().setTimer(timeout);
}

void RaftProcess::stopElectionTimer() {
  if (electionTimer_ != 0) {
    ctx().cancelTimer(electionTimer_);
    electionTimer_ = 0;
  }
}

void RaftProcess::startHeartbeatTimer() {
  heartbeatTimer_ = ctx().setTimer(config_.heartbeatInterval);
}

void RaftProcess::onTimer(TimerId id) {
  if (id == electionTimer_) {
    electionTimer_ = 0;
    onElectionTimeout();
    becomeCandidate();
    return;
  }
  if (id == heartbeatTimer_ && role_ == Role::kLeader) {
    broadcastAppends();
    startHeartbeatTimer();
  }
}

// --- role transitions --------------------------------------------------------

void RaftProcess::becomeFollower(Term term) {
  const Role old = role_;
  if (term > currentTerm_) {
    currentTerm_ = term;
    votedFor_.reset();
    persistMeta();
  }
  role_ = Role::kFollower;
  resetElectionTimer();
  if (old != Role::kFollower) {
    OOC_DEBUG("raft p", ctx().self(), " -> follower (t=", currentTerm_, ")");
    onRoleChanged(old);
  }
}

void RaftProcess::becomeCandidate() {
  const Role old = role_;
  role_ = Role::kCandidate;
  ++currentTerm_;
  ++electionsStarted_;
  votedFor_ = ctx().self();
  persistMeta();
  recordVote(ctx().self());
  std::fill(votesGranted_.begin(), votesGranted_.end(), false);
  votesGranted_[ctx().self()] = true;
  resetElectionTimer();
  OOC_DEBUG("raft p", ctx().self(), " -> candidate (t=", currentTerm_, ")");
  if (old != Role::kCandidate) onRoleChanged(old);

  if (2 * 1 > ctx().processCount()) {  // single-node cluster wins instantly
    becomeLeader();
    return;
  }
  // One shared RequestVote for the whole electorate; each post adds a ref.
  const auto request = makeMessage<RequestVote>(currentTerm_, ctx().self(),
                                                lastLogIndex(), lastLogTerm());
  for (ProcessId peer = 0; peer < ctx().processCount(); ++peer) {
    if (peer == ctx().self()) continue;
    ctx().post(peer, request);
  }
}

void RaftProcess::becomeLeader() {
  const Role old = role_;
  role_ = Role::kLeader;
  ++timesElectedLeader_;
  stopElectionTimer();
  std::fill(nextIndex_.begin(), nextIndex_.end(), lastLogIndex() + 1);
  std::fill(matchIndex_.begin(), matchIndex_.end(), LogIndex{0});
  matchIndex_[ctx().self()] = lastLogIndex();
  if (lastLogIndex() > commitIndex_) {
    // Uncommitted (prior-term) tail: append the subclass's no-op barrier so
    // the commit rule has a current-term entry to fire on (see
    // leaderBarrier()).
    if (const std::optional<Value> barrier = leaderBarrier()) {
      log_->push_back(LogEntry{currentTerm_, *barrier});
      persistEntry(log_->back());
      matchIndex_[ctx().self()] = lastLogIndex();
    }
  }
  OOC_DEBUG("raft p", ctx().self(), " -> LEADER (t=", currentTerm_, ")");
  onRoleChanged(old);
  onBecameLeader();
  broadcastAppends();
  startHeartbeatTimer();
}

// --- client ------------------------------------------------------------------

bool RaftProcess::submit(Value command) {
  if (role_ != Role::kLeader) return false;
  log_->push_back(LogEntry{currentTerm_, command});
  persistEntry(log_->back());
  matchIndex_[ctx().self()] = lastLogIndex();
  advanceCommitIndex();  // single-node clusters commit immediately
  broadcastAppends();
  return true;
}

// --- replication -------------------------------------------------------------

void RaftProcess::sendAppendTo(ProcessId peer) {
  const LogIndex next = nextIndex_[peer];
  if (next <= snapshotIndex_) {
    // The entries this follower needs were compacted away: ship the state
    // machine as of lastApplied (>= snapshotIndex) instead.
    ctx().post(peer, makeMessage<InstallSnapshot>(
                         currentTerm_, ctx().self(), lastApplied_,
                         termAt(lastApplied_), captureSnapshot()));
    return;
  }
  const LogIndex prevIndex = next - 1;
  const Term prevTerm = prevIndex == 0 ? 0 : termAt(prevIndex);
  const LogIndex last = std::min<LogIndex>(
      lastLogIndex(), prevIndex + config_.maxEntriesPerAppend);
  // Entries next..last, by reference to the log; next > snapshotIndex_ here.
  ctx().post(peer, makeMessage<AppendEntries>(
                       currentTerm_, ctx().self(), prevIndex, prevTerm, log_,
                       prevIndex - snapshotIndex_, last - prevIndex,
                       commitIndex_));
}

void RaftProcess::broadcastAppends() {
  for (ProcessId peer = 0; peer < ctx().processCount(); ++peer) {
    if (peer == ctx().self()) continue;
    sendAppendTo(peer);
  }
}

void RaftProcess::advanceCommitIndex() {
  // Find the highest N > commitIndex replicated on a majority with
  // log[N].term == currentTerm (the Raft commit rule; committing only
  // current-term entries is what makes Leader Completeness hold). The
  // (n/2+1)-th largest matchIndex is the highest index a majority holds;
  // log terms never decrease, so if its term is not current no lower
  // index's is either.
  std::vector<LogIndex>& match = matchScratch_;
  match.assign(matchIndex_.begin(), matchIndex_.end());
  const auto quorum = match.begin() + static_cast<std::ptrdiff_t>(
                                          match.size() / 2);
  std::nth_element(match.begin(), quorum, match.end(), std::greater<>());
  const LogIndex candidate = *quorum;
  if (candidate <= commitIndex_ || entryAt(candidate).term != currentTerm_)
    return;
  commitIndex_ = candidate;
  applyCommitted();
  onCommitAdvanced();
  // Tell followers promptly so they can advance too (the "second kind" of
  // AppendEntries — here an empty append carrying the new index).
  broadcastAppends();
}

void RaftProcess::applyCommitted() {
  while (lastApplied_ < commitIndex_) {
    ++lastApplied_;
    onApply(lastApplied_, entryAt(lastApplied_));
  }
  maybeAutoCompact();
}

void RaftProcess::onApply(LogIndex, const LogEntry&) {}

void RaftProcess::maybeAutoCompact() {
  if (config_.compactionThreshold == 0) return;
  if (lastApplied_ - snapshotIndex_ >= config_.compactionThreshold)
    compactTo(lastApplied_);
}

void RaftProcess::keepLogRange(std::size_t from, std::size_t to) {
  std::vector<LogEntry>& log = *log_;
  if (log_.use_count() > 1) {
    // A message still ships from this vector: leave it as it is.
    log_ = std::make_shared<std::vector<LogEntry>>(
        log.begin() + static_cast<std::ptrdiff_t>(from),
        log.begin() + static_cast<std::ptrdiff_t>(to));
    return;
  }
  log.erase(log.begin() + static_cast<std::ptrdiff_t>(to), log.end());
  log.erase(log.begin(), log.begin() + static_cast<std::ptrdiff_t>(from));
}

void RaftProcess::compactTo(LogIndex upto) {
  if (upto <= snapshotIndex_) return;  // already covered
  if (upto > lastApplied_)
    throw std::logic_error("cannot compact beyond the applied prefix");
  const Term boundaryTerm = termAt(upto);
  keepLogRange(upto - snapshotIndex_, log_->size());
  snapshotIndex_ = upto;
  snapshotTerm_ = boundaryTerm;
  ++snapshotsTaken_;
  persistSnapshot();
  OOC_DEBUG("raft p", ctx().self(), " compacted through ", upto);
}

// --- message dispatch ----------------------------------------------------------

void RaftProcess::onMessage(ProcessId from, const Message& message) {
  if (const auto* msg = message.as<RequestVote>()) {
    handleRequestVote(from, *msg);
  } else if (const auto* msg = message.as<RequestVoteReply>()) {
    handleRequestVoteReply(from, *msg);
  } else if (const auto* msg = message.as<AppendEntries>()) {
    handleAppendEntries(from, *msg);
  } else if (const auto* msg = message.as<AppendEntriesReply>()) {
    handleAppendEntriesReply(from, *msg);
  } else if (const auto* msg = message.as<InstallSnapshot>()) {
    handleInstallSnapshot(from, *msg);
  }
}

void RaftProcess::handleRequestVote(ProcessId from, const RequestVote& msg) {
  if (msg.term > currentTerm_) becomeFollower(msg.term);
  bool grant = false;
  if (msg.term == currentTerm_ && role_ == Role::kFollower &&
      (!votedFor_ || *votedFor_ == msg.candidate)) {
    // Up-to-date check (election restriction, Raft §5.4.1).
    const bool upToDate =
        msg.lastLogTerm > lastLogTerm() ||
        (msg.lastLogTerm == lastLogTerm() &&
         msg.lastLogIndex >= lastLogIndex());
    if (upToDate) {
      grant = true;
      const bool firstVoteThisTerm = !votedFor_.has_value();
      votedFor_ = msg.candidate;
      if (firstVoteThisTerm) {
        // Persist (and, under sync-before-reply, sync) the vote BEFORE the
        // reply leaves: once the candidate counts it, forgetting it would
        // let this node vote twice in the term after a restart.
        persistMeta();
        recordVote(msg.candidate);
      }
      resetElectionTimer();
    }
  }
  ctx().post(from, makeMessage<RequestVoteReply>(currentTerm_, grant));
}

void RaftProcess::handleRequestVoteReply(ProcessId from,
                                         const RequestVoteReply& msg) {
  if (msg.term > currentTerm_) {
    becomeFollower(msg.term);
    return;
  }
  if (role_ != Role::kCandidate || msg.term != currentTerm_ || !msg.granted)
    return;
  votesGranted_[from] = true;
  const auto votes = static_cast<std::size_t>(
      std::count(votesGranted_.begin(), votesGranted_.end(), true));
  if (2 * votes > ctx().processCount()) becomeLeader();
}

void RaftProcess::handleAppendEntries(ProcessId from,
                                      const AppendEntries& msg) {
  if (msg.term < currentTerm_) {
    ctx().post(from, makeMessage<AppendEntriesReply>(currentTerm_, false, 0));
    return;
  }
  // Valid leader for our term (or newer): follow it.
  if (msg.term > currentTerm_ || role_ != Role::kFollower) {
    becomeFollower(msg.term);
  } else {
    resetElectionTimer();
  }

  // Consistency check: our log must contain prevLogIndex with prevLogTerm.
  // Indices at or below our snapshot are committed state and definitionally
  // consistent (Leader Completeness: a legitimate leader agrees on them).
  if (msg.prevLogIndex > lastLogIndex() ||
      (msg.prevLogIndex > snapshotIndex_ &&
       entryAt(msg.prevLogIndex).term != msg.prevLogTerm)) {
    ctx().post(from, makeMessage<AppendEntriesReply>(currentTerm_, false, 0));
    return;
  }

  // Skip the entries this log already holds: those its snapshot covers,
  // then the run whose terms match (by Log Matching, equal terms at an index
  // mean equal entries). From the first entry that differs, drop any
  // conflicting suffix and append the rest.
  const std::span<const LogEntry> entries = msg.entries();
  const LogIndex last = msg.prevLogIndex + entries.size();
  const LogIndex base = std::max(msg.prevLogIndex, snapshotIndex_);
  // Indices (lo, hi] are in the message and in the retained log.
  const LogIndex lo = std::min(last, base);
  const LogIndex hi = std::min(last, lastLogIndex());
  const auto first =
      entries.begin() + static_cast<std::ptrdiff_t>(lo - msg.prevLogIndex);
  const auto next =
      std::mismatch(first, first + static_cast<std::ptrdiff_t>(hi - lo),
                    log_->begin() +
                        static_cast<std::ptrdiff_t>(base - snapshotIndex_),
                    [](const LogEntry& a, const LogEntry& b) {
                      return a.term == b.term;
                    })
          .first;
  if (next != entries.end()) {
    const LogIndex kept =
        msg.prevLogIndex + static_cast<LogIndex>(next - entries.begin());
    if (kept < lastLogIndex()) {
      // Conflict: drop it and everything after.
      keepLogRange(0, kept - snapshotIndex_);
      persistTruncate();
    }
    for (auto it = next; it != entries.end(); ++it) persistEntry(*it);
    log_->insert(log_->end(), next, entries.end());
    onEntriesAccepted();
  }

  if (msg.leaderCommit > commitIndex_) {
    commitIndex_ = std::min<LogIndex>(msg.leaderCommit, lastLogIndex());
    applyCommitted();
    onCommitAdvanced();
  }
  ctx().post(from, makeMessage<AppendEntriesReply>(
                       currentTerm_, true,
                       std::min(last, lastLogIndex())));
}

void RaftProcess::handleAppendEntriesReply(ProcessId from,
                                           const AppendEntriesReply& msg) {
  if (msg.term > currentTerm_) {
    becomeFollower(msg.term);
    return;
  }
  if (role_ != Role::kLeader || msg.term != currentTerm_) return;

  if (!msg.success) {
    // Backtrack and retry with an earlier prefix (Figure 2's NextIndex
    // decrement loop).
    if (nextIndex_[from] > 1) --nextIndex_[from];
    sendAppendTo(from);
    return;
  }
  matchIndex_[from] = std::max(matchIndex_[from], msg.matchIndex);
  nextIndex_[from] = matchIndex_[from] + 1;
  advanceCommitIndex();
  // Keep pushing if the follower still trails.
  if (nextIndex_[from] <= lastLogIndex()) sendAppendTo(from);
}

void RaftProcess::handleInstallSnapshot(ProcessId from,
                                        const InstallSnapshot& msg) {
  if (msg.term < currentTerm_) {
    ctx().post(from, makeMessage<AppendEntriesReply>(currentTerm_, false, 0));
    return;
  }
  if (msg.term > currentTerm_ || role_ != Role::kFollower) {
    becomeFollower(msg.term);
  } else {
    resetElectionTimer();
  }

  if (msg.lastIncludedIndex <= commitIndex_ ||
      msg.lastIncludedIndex <= snapshotIndex_) {
    // Stale or duplicate: we already hold this prefix as committed data.
    ctx().post(from, makeMessage<AppendEntriesReply>(
                         currentTerm_, true, msg.lastIncludedIndex));
    return;
  }

  // Retain any consistent suffix beyond the snapshot; otherwise drop the
  // whole log and start from the snapshot boundary.
  if (msg.lastIncludedIndex < lastLogIndex() &&
      msg.lastIncludedIndex > snapshotIndex_ &&
      entryAt(msg.lastIncludedIndex).term == msg.lastIncludedTerm) {
    keepLogRange(msg.lastIncludedIndex - snapshotIndex_, log_->size());
  } else {
    keepLogRange(0, 0);
  }
  restoreSnapshot(msg.state);
  snapshotIndex_ = msg.lastIncludedIndex;
  snapshotTerm_ = msg.lastIncludedTerm;
  commitIndex_ = std::max(commitIndex_, snapshotIndex_);
  lastApplied_ = snapshotIndex_;
  ++snapshotsInstalled_;
  persistSnapshot();
  OOC_DEBUG("raft p", ctx().self(), " installed snapshot through ",
            snapshotIndex_);
  applyCommitted();  // in case commitIndex advanced past the snapshot
  onCommitAdvanced();
  ctx().post(from, makeMessage<AppendEntriesReply>(currentTerm_, true,
                                                   snapshotIndex_));
}

}  // namespace ooc::raft
