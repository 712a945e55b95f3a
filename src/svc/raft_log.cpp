#include "svc/raft_log.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/logging.hpp"

namespace ooc::svc {

RaftLogNode::RaftLogNode(RaftLogOptions options,
                         const WorkloadOptions& workload, std::size_t n,
                         std::uint64_t seed)
    : raft::RaftProcess(options.raft),
      workloadOptions_(workload),
      workloadN_(n),
      workloadSeed_(seed),
      workload_(workload, /*node=*/0, n, seed),
      resubmitEvery_(std::max<Tick>(1, options.resubmitEvery)) {}

Value RaftLogNode::mintCommand() {
  ++cmdSeq_;
  if (cmdSeq_ >= (1u << 24))
    throw std::overflow_error("svc: command sequence exhausted");
  const std::uint32_t seq =
      (static_cast<std::uint32_t>(recoveries() & 0xFF) << 24) | cmdSeq_;
  return makeCommand(ctx().self(), seq);
}

void RaftLogNode::onStart() {
  workload_ = Workload(workloadOptions_, ctx().self(), workloadN_,
                       workloadSeed_);
  raft::RaftProcess::onStart();
  armArrivalTimer();
  resubmitTimer_ = ctx().setTimer(resubmitEvery_);
}

void RaftLogNode::onVolatileReset() {
  // Called by the base class at the top of onRestart, before the journal
  // replay re-applies the recovered prefix under the new incarnation.
  cmdSeq_ = 0;
  pendingLocal_.clear();
  arrivalTick_.clear();
  applied_.clear();
  appliedSet_.clear();
  commitTicks_.clear();
  latencies_.clear();
  batchSizes_.clear();
  dupSuppressed_ = 0;
  noopsApplied_ = 0;
  lastBatchCommit_ = 0;
  arrivalTimer_ = 0;
  arrivalArmedFor_ = 0;
  resubmitTimer_ = 0;
  // leaderEvents_ survives: it is the cross-incarnation failover record.
}

void RaftLogNode::onRestart() {
  replaying_ = true;
  raft::RaftProcess::onRestart();
  replaying_ = false;
  armArrivalTimer();
  resubmitTimer_ = ctx().setTimer(resubmitEvery_);
}

void RaftLogNode::armArrivalTimer() {
  const Tick now = ctx().now();
  const Tick next = workload_.nextArrivalTick(now);
  if (next == 0) return;
  if (arrivalTimer_ != 0) {
    if (arrivalArmedFor_ <= next) return;
    ctx().cancelTimer(arrivalTimer_);
  }
  arrivalArmedFor_ = next;
  arrivalTimer_ = ctx().setTimer(next - now);
}

void RaftLogNode::handleArrivals() {
  arrivalTimer_ = 0;
  const Tick now = ctx().now();
  std::vector<Value> fresh;
  for (const Arrival& arrival : workload_.collect(now)) {
    (void)arrival;
    const Value cmd = mintCommand();
    pendingLocal_.push_back(cmd);
    arrivalTick_[cmd] = now;
    fresh.push_back(cmd);
  }
  armArrivalTimer();
  if (fresh.empty()) return;
  offerCommands(fresh);
  if (role() != raft::Role::kLeader)
    ctx().fanout(makeMessage<CmdForward>(std::move(fresh)));
}

void RaftLogNode::offerCommands(const std::vector<Value>& commands) {
  if (role() != raft::Role::kLeader) return;
  // Dedup against the applied prefix and the retained log suffix (the
  // compacted prefix is applied by definition). Failover retries can still
  // slip a duplicate past this — a prior leader's append may be committed
  // but not yet visible here — which is exactly what the apply-level dedup
  // is for.
  std::unordered_set<Value> inLog;
  for (const raft::LogEntry& entry : log()) inLog.insert(entry.command);
  for (Value cmd : commands) {
    if (appliedSet_.contains(cmd) || inLog.contains(cmd)) continue;
    submit(cmd);
    inLog.insert(cmd);
  }
}

void RaftLogNode::resubmitUnapplied() {
  resubmitTimer_ = ctx().setTimer(resubmitEvery_);
  while (!pendingLocal_.empty() && appliedSet_.contains(pendingLocal_.front()))
    pendingLocal_.pop_front();
  if (pendingLocal_.empty()) return;
  std::vector<Value> unapplied;
  for (Value cmd : pendingLocal_)
    if (!appliedSet_.contains(cmd)) unapplied.push_back(cmd);
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
  if (id == arrivalTimer_) {
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
  if (!appliedSet_.insert(cmd).second) {
    ++dupSuppressed_;
    return;
  }
  applied_.push_back(cmd);
  const Tick now = ctx().now();
  commitTicks_.push_back(now);
  if (commandNode(cmd) == ctx().self()) {
    const auto arrived = arrivalTick_.find(cmd);
    if (arrived != arrivalTick_.end()) {
      latencies_.push_back(now - arrived->second);
      arrivalTick_.erase(arrived);
    }
    if (!replaying_) {
      workload_.onCommit(now);
      armArrivalTimer();
    }
  }
}

std::optional<Value> RaftLogNode::leaderBarrier() const {
  // The submit-side dedup in offerCommands makes the Raft §8 stall real
  // here: a new leader holding the stalled commands as prior-term entries
  // skips every re-offer of them, so without this barrier no current-term
  // entry would ever be appended and the tail would never commit.
  return kNoopCommand;
}

bool RaftLogNode::drained() const noexcept {
  for (Value cmd : pendingLocal_)
    if (!appliedSet_.contains(cmd)) return false;
  // No future arrival is scheduled. This deliberately also covers a
  // closed-loop client stalled on a command the crash erased before
  // replication (nothing will ever unstall it): the run should end, and
  // the termination audit already exempts faulty runs from full delivery.
  return workload_.nextArrivalTick(ctx().now()) == 0;
}

void RaftLogNode::onBecameLeader() {
  leaderEvents_.push_back({ctx().now(), currentTerm()});
  OOC_TRACE("svc-raft p", ctx().self(), " leads term ", currentTerm());
  // A fresh leader immediately appends everything it knows is unapplied —
  // its own pending commands; forwarded ones re-arrive via peers' retries.
  std::vector<Value> unapplied;
  for (Value cmd : pendingLocal_)
    if (!appliedSet_.contains(cmd)) unapplied.push_back(cmd);
  offerCommands(unapplied);
}

void RaftLogNode::onCommitAdvanced() {
  const raft::LogIndex now = commitIndex();
  if (now > lastBatchCommit_) {
    batchSizes_.push_back(static_cast<std::uint32_t>(now - lastBatchCommit_));
    lastBatchCommit_ = now;
  }
}

}  // namespace ooc::svc
