#include "svc/raft_log.hpp"

#include "util/logging.hpp"

namespace ooc::svc {
namespace {

/// Period of the unapplied-command re-fanout (the failover bridge).
constexpr Tick kResubmitEvery = 80;

}  // namespace

RaftLogNode::RaftLogNode(raft::RaftConfig config, ClientFront front)
    : raft::RaftProcess(config), front_(std::move(front)) {}

void RaftLogNode::onStart() {
  raft::RaftProcess::onStart();
  front_.armArrivals(ctx());
  resubmitTimer_ = ctx().setTimer(kResubmitEvery);
}

void RaftLogNode::onVolatileReset() {
  // Called by the base class at the top of onRestart, before the journal
  // replay re-applies the recovered prefix under the new incarnation.
  front_.reset();
  pendingLocal_.clear();
  inLog_.clear();
  noopsApplied_ = 0;
  lastBatchCommit_ = 0;
  resubmitTimer_ = 0;
  // leaderEvents_ survives: it is the cross-incarnation failover record.
}

void RaftLogNode::onRestart() {
  replaying_ = true;
  raft::RaftProcess::onRestart();
  replaying_ = false;
  front_.armArrivals(ctx());
  resubmitTimer_ = ctx().setTimer(kResubmitEvery);
}

void RaftLogNode::handleArrivals() {
  std::vector<Value> fresh = front_.takeArrivals(ctx());
  pendingLocal_.insert(pendingLocal_.end(), fresh.begin(), fresh.end());
  if (fresh.empty()) return;
  offerCommands(fresh);
  if (role() != raft::Role::kLeader)
    ctx().fanout(makeMessage<CmdForward>(std::move(fresh)));
}

void RaftLogNode::offerCommands(const std::vector<Value>& commands) {
  if (role() != raft::Role::kLeader) return;
  // Dedup against the applied prefix and the log (kept in inLog_ while this
  // node leads). Failover retries can still slip a duplicate past this — a
  // prior leader's append may be committed but not yet visible here —
  // which is exactly what the apply-level dedup is for.
  for (Value cmd : commands) {
    if (front_.isApplied(cmd) || inLog_.contains(cmd)) continue;
    submit(cmd);
    inLog_.insert(cmd);
  }
}

void RaftLogNode::resubmitUnapplied() {
  resubmitTimer_ = ctx().setTimer(kResubmitEvery);
  while (!pendingLocal_.empty() && front_.isApplied(pendingLocal_.front()))
    pendingLocal_.pop_front();
  if (pendingLocal_.empty()) return;
  std::vector<Value> unapplied;
  for (Value cmd : pendingLocal_)
    if (!front_.isApplied(cmd)) unapplied.push_back(cmd);
  if (unapplied.empty()) return;
  offerCommands(unapplied);
  if (role() != raft::Role::kLeader)
    ctx().fanout(makeMessage<CmdForward>(std::move(unapplied)));
}

void RaftLogNode::onMessage(ProcessId from, const Message& message) {
  if (const auto* forward = message.as<CmdForward>()) {
    if (from != ctx().self()) offerCommands(forward->commands());
    return;
  }
  raft::RaftProcess::onMessage(from, message);
}

void RaftLogNode::onTimer(TimerId id) {
  if (front_.isArrivalTimer(id)) {
    handleArrivals();
    return;
  }
  if (id == resubmitTimer_) {
    resubmitUnapplied();
    return;
  }
  raft::RaftProcess::onTimer(id);
}

void RaftLogNode::onApply(raft::LogIndex index, const raft::LogEntry& entry) {
  (void)index;
  const Value cmd = entry.command;
  if (cmd == kNoopCommand) {
    // Leader-barrier entry (leaderBarrier below): ordered but not a client
    // command — never enters the service-level applied log.
    ++noopsApplied_;
    return;
  }
  const Tick now = ctx().now();
  if (!front_.apply(cmd, now, /*feedback=*/!replaying_)) return;
  front_.recordCommit(now);
  if (commandNode(cmd) == ctx().self() && !replaying_)
    front_.armArrivals(ctx());
}

std::optional<Value> RaftLogNode::leaderBarrier() const {
  // The submit-side dedup in offerCommands makes the Raft §8 stall real
  // here: a new leader holding the stalled commands as prior-term entries
  // skips every re-offer of them, so without this barrier no current-term
  // entry would ever be appended and the tail would never commit.
  return kNoopCommand;
}

bool RaftLogNode::drained() const noexcept {
  // Every command this incarnation minted is applied: a count, not a walk
  // over pendingLocal_, because the stop predicate asks after every event.
  if (front_.inFlight() != 0) return false;
  // No future arrival is scheduled. This deliberately also covers a
  // closed-loop client stalled on a command the crash erased before
  // replication (nothing will ever unstall it): the run should end, and
  // the termination audit already exempts faulty runs from full delivery.
  return front_.workload().nextArrivalTick(ctx().now()) == 0;
}

void RaftLogNode::onBecameLeader() {
  leaderEvents_.push_back({ctx().now(), currentTerm()});
  OOC_TRACE("svc-raft p", ctx().self(), " leads term ", currentTerm());
  // While this node leads, its log changes only through its own submits
  // (the barrier is already appended) and the service never compacts, so
  // the set built here stays the log's command set.
  inLog_.clear();
  for (const raft::LogEntry& entry : log()) inLog_.insert(entry.command);
  // A fresh leader immediately appends everything it knows is unapplied —
  // its own pending commands; forwarded ones re-arrive via peers' retries.
  std::vector<Value> unapplied;
  for (Value cmd : pendingLocal_)
    if (!front_.isApplied(cmd)) unapplied.push_back(cmd);
  offerCommands(unapplied);
}

void RaftLogNode::onCommitAdvanced() {
  const raft::LogIndex now = commitIndex();
  if (now > lastBatchCommit_) {
    front_.recordBatch(now - lastBatchCommit_);
    lastBatchCommit_ = now;
  }
}

}  // namespace ooc::svc
