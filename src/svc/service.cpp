#include "svc/service.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/logging.hpp"

namespace ooc::svc {

namespace {
/// Catch-up rounds before a recovering node gives up (the counter resets
/// whenever a round makes progress, so this only stops retries against a
/// drained or dead cluster — liveness there is out of the fault budget).
constexpr int kMaxCatchupTries = 6;
/// Retired engines are dropped once the undecided frontier is this far
/// past them: every node ships a decree's rounds before advancing past it,
/// so no correct straggler can still need their traffic.
constexpr std::uint64_t kRetireHorizon = 4;
/// Retry period for fetching a missing batch payload.
constexpr Tick kFetchRetry = 32;
/// Retry period for restart catch-up rounds.
constexpr Tick kCatchupRetry = 64;
}  // namespace

/// Per-decree view of the node's Context: wraps engine traffic in a
/// DecreeMessage envelope and redirects decide() to the decree
/// bookkeeping.
class SvcNode::DecreeContextImpl final : public Context {
 public:
  DecreeContextImpl(SvcNode& host, std::uint64_t decree) noexcept
      : host_(host), decree_(decree) {}

  ProcessId self() const noexcept override { return host_.ctx().self(); }
  std::size_t processCount() const noexcept override {
    return host_.ctx().processCount();
  }
  Tick now() const noexcept override { return host_.ctx().now(); }
  Rng& rng() noexcept override { return host_.ctx().rng(); }

  void post(ProcessId to, MessagePtr msg) override {
    host_.ctx().post(to, makeMessage<DecreeMessage>(decree_, std::move(msg)));
  }
  void fanout(MessagePtr msg) override {
    host_.ctx().fanout(makeMessage<DecreeMessage>(decree_, std::move(msg)));
  }
  TimerId setTimer(Tick delay) override {
    const TimerId id = host_.ctx().setTimer(delay);
    host_.timerDecree_[id] = decree_;
    return id;
  }
  void cancelTimer(TimerId id) noexcept override {
    host_.timerDecree_.erase(id);
    host_.ctx().cancelTimer(id);
  }
  void decide(Value v) override { host_.onDecreeDecided(decree_, v); }

 private:
  SvcNode& host_;
  std::uint64_t decree_;
};

SvcNode::SvcNode(EngineFactory engineFactory, ClientFront front,
                 SvcNodeOptions options)
    : engineFactory_(std::move(engineFactory)),
      options_(options),
      front_(std::move(front)),
      journal_(options.durable, options.syncBeforeReply, options.storage) {
  if (options_.window == 0)
    throw std::invalid_argument("svc: window must be positive");
  if (options_.batchMax == 0)
    throw std::invalid_argument("svc: batchMax must be positive");
}

SvcNode::~SvcNode() = default;

void SvcNode::onStart() { front_.armArrivals(ctx()); }

void SvcNode::onRestart() {
  // Drop every volatile structure. The client front keeps its workload,
  // but commands in flight at the crash are gone unless the journal
  // remembers them.
  front_.reset();
  active_.clear();
  timerDecree_.clear();
  graveyard_.clear();
  decided_.clear();
  openProposals_.clear();
  announcedBinding_.clear();
  pendingCmds_.clear();
  unassigned_.clear();
  batchStore_.clear();
  decreeLog_.clear();
  committedBatches_.clear();
  noopDecrees_ = 0;
  commitIndex_ = 0;
  firstUndecided_ = 0;
  nextOpen_ = 0;
  batchSeq_ = 0;
  fetchTimer_ = 0;
  catchupTimer_ = 0;
  catchupTries_ = 0;

  if (journal_.wal()) {
    recoverFromJournal();
    recovering_ = false;
  } else {
    // No journal: the previous incarnation may have voted anywhere, so
    // abstain from every decree until the first catch-up reply bounds the
    // damage (quarantine provisionally covers everything).
    recovering_ = true;
    quarantine_ = options_.maxDecrees;
  }
  OOC_TRACE("svc p", ctx().self(), " restarts: commit=", commitIndex_,
            " quarantine=", quarantine_, recovering_ ? " (recovering)" : "");
  front_.armArrivals(ctx());
  fireCatchup();
}

void SvcNode::recoverFromJournal() {
  std::vector<Value> minted;  // in mint order
  std::vector<Value> formed;  // in formation order
  std::unordered_set<Value> batched;
  std::uint64_t maxOpen = 0;
  for (const auto& record : journal_.recover()) {
    store::RecordReader reader(record);
    switch (reader.word()) {
      case kRecCmd: {
        const Value cmd = store::toValue(reader.word());
        if (reader.complete()) minted.push_back(cmd);
        break;
      }
      case kRecBatch: {
        const Value id = store::toValue(reader.word());
        const auto words = reader.counted(1);
        if (!reader.complete()) break;
        std::vector<Value> cmds(words.size());
        std::ranges::transform(words, cmds.begin(), store::toValue);
        batched.insert(cmds.begin(), cmds.end());
        batchStore_[id] = std::move(cmds);
        formed.push_back(id);
        break;
      }
      case kRecOpen: {
        const std::uint64_t decree = reader.word();
        const Value proposal = store::toValue(reader.word());
        // A writer never opens a decree at or past maxDecrees, and one at
        // 2^64 - 1 would wrap maxOpen to 0 below.
        if (!reader.complete() || decree >= options_.maxDecrees) break;
        maxOpen = std::max(maxOpen, decree + 1);
        // Echoed foreign batches were journaled as the open's proposal but
        // must not be adopted back: requeueing one on loss would bind it
        // to a second decree while its owner re-proposes it too.
        if (proposal != kNoopBatch && batchNode(proposal) == ctx().self())
          openProposals_[decree] = proposal;
        break;
      }
      case kRecCommit: {
        const std::uint64_t decree = reader.word();
        const Value batch = store::toValue(reader.word());
        const auto cmds = reader.counted(1);
        if (!reader.complete() || decree != decreeLog_.size()) break;
        decreeLog_.push_back(batch);
        openProposals_.erase(decree);
        if (batch == kNoopBatch) {
          ++noopDecrees_;
          break;
        }
        committedBatches_.insert(batch);
        for (const std::uint64_t w : cmds) front_.restore(store::toValue(w));
        break;
      }
    }
  }
  commitIndex_ = decreeLog_.size();
  firstUndecided_ = commitIndex_;
  // Minted commands that never made it into a batch go back to pending;
  // formed batches whose decree outcome is unknown stay parked in
  // openProposals_ (requeued on loss via catch-up), the rest requeue now.
  for (Value cmd : minted) {
    if (!batched.contains(cmd) && !front_.isApplied(cmd))
      pendingCmds_.push_back(cmd);
  }
  std::unordered_set<Value> awaiting;
  for (const auto& [decree, batch] : openProposals_) awaiting.insert(batch);
  for (Value batch : formed) {
    if (!committedBatches_.contains(batch) && !awaiting.contains(batch))
      unassigned_.push_back(batch);
  }
  // The journaled opens bound everything the previous incarnation can have
  // voted in; never re-enter those decrees with a fresh (amnesiac) engine.
  quarantine_ = std::max(maxOpen, commitIndex_);
  nextOpen_ = quarantine_;
}

// --- client arrivals -------------------------------------------------------

void SvcNode::handleArrivals() {
  for (const Value cmd : front_.takeArrivals(ctx())) {
    pendingCmds_.push_back(cmd);
    journal_.persist({kRecCmd, store::toWord(cmd)});
  }
  formAndOpen();
}

// --- decree pipeline -------------------------------------------------------

Value SvcNode::takeProposal(std::uint64_t decree) {
  if (!unassigned_.empty()) {
    // Re-proposal after a loss: re-announce under the NEW decree binding
    // so joiners echo it there (peers already hold the payload, but the
    // binding is what keeps the batch live against no-op quorums).
    const Value batch = unassigned_.front();
    unassigned_.pop_front();
    ctx().fanout(makeMessage<BatchAnnounce>(batch, batchStore_[batch],
                                            decree));
    return batch;
  }
  const std::size_t take = std::min(options_.batchMax, pendingCmds_.size());
  if (take == 0) {
    // Nothing of our own: echo the batch an announce bound to this decree,
    // if any — joining with the owner's proposal instead of a no-op is
    // what lets a lone proposer win against reactive joiners.
    const auto bound = announcedBinding_.find(decree);
    if (bound != announcedBinding_.end() &&
        !committedBatches_.contains(bound->second) &&
        batchStore_.contains(bound->second)) {
      return bound->second;
    }
    return kNoopBatch;
  }
  const Value id = makeBatchId(
      ctx().self(), incarnationSequence(ctx().incarnation(), ++batchSeq_));
  std::vector<Value> cmds(pendingCmds_.begin(),
                          pendingCmds_.begin() +
                              static_cast<std::ptrdiff_t>(take));
  pendingCmds_.erase(pendingCmds_.begin(),
                     pendingCmds_.begin() +
                         static_cast<std::ptrdiff_t>(take));
  std::vector<std::uint64_t> record{kRecBatch, store::toWord(id), take};
  for (Value cmd : cmds) record.push_back(store::toWord(cmd));
  journal_.persist(record);
  batchStore_[id] = cmds;
  ctx().fanout(makeMessage<BatchAnnounce>(id, std::move(cmds), decree));
  return id;
}

void SvcNode::formAndOpen() {
  if (recovering_) return;
  // The window is anchored at the undecided frontier — or, right after a
  // recovery, at the quarantine boundary (the node re-enters the log there
  // while catch-up fills the decrees below).
  const std::uint64_t base = std::max(firstUndecided_, quarantine_);
  while (nextOpen_ < options_.maxDecrees &&
         nextOpen_ < base + options_.window &&
         (!unassigned_.empty() || !pendingCmds_.empty())) {
    openDecree(nextOpen_);
  }
}

void SvcNode::openThrough(std::uint64_t decree) {
  // Reactive joins bypass the window but stay contiguous, so every decree
  // between the frontier and the triggering traffic gets this node's
  // participation (with real work if any is pending, else a no-op).
  while (nextOpen_ <= decree && nextOpen_ < options_.maxDecrees)
    openDecree(nextOpen_);
}

void SvcNode::openDecree(std::uint64_t decree) {
  // Opens only ever take nextOpen_, and nextOpen_ jumps only while the ring
  // is empty (a restart, or a recovering catch-up, during which nothing
  // opens), so each open lands at the back of the ring.
  if (active_.empty()) {
    activeBase_ = decree;
  } else if (decree != activeBase_ + active_.size()) {
    throw std::logic_error("svc: decree opened out of order");
  }
  const Value proposal = takeProposal(decree);
  journal_.persist({kRecOpen, decree, store::toWord(proposal)});
  // Only OWN batches enter openProposals_ (echoed foreign ones are the
  // owner's to requeue — see the header's double-win note).
  if (proposal != kNoopBatch && batchNode(proposal) == ctx().self())
    openProposals_[decree] = proposal;
  ActiveDecree slot;
  slot.context = std::make_unique<DecreeContextImpl>(*this, decree);
  slot.engine = engineFactory_(decree, proposal, proposal != kNoopBatch);
  slot.engine->bind(*slot.context);
  Process* engine = slot.engine.get();
  active_.push_back(std::move(slot));
  nextOpen_ = std::max(nextOpen_, decree + 1);
  OOC_TRACE("svc p", ctx().self(), " opens decree ", decree, " proposing ",
            proposal);
  engine->onStart();
}

SvcNode::ActiveDecree* SvcNode::findActive(std::uint64_t decree) noexcept {
  if (decree < activeBase_ || decree - activeBase_ >= active_.size())
    return nullptr;
  return &active_[decree - activeBase_];
}

void SvcNode::handleDecreeTraffic(ProcessId from,
                                  const DecreeMessage& envelope) {
  const std::uint64_t decree = envelope.decree();
  if (decree >= options_.maxDecrees) return;
  if (recovering_ || decree < quarantine_) {
    // The previous incarnation may have voted here; abstain (the outcome
    // arrives via catch-up, and the fault budget covers our absence).
    return;
  }
  ActiveDecree* slot = findActive(decree);
  if (slot == nullptr) {
    if (decree < nextOpen_) {
      // Decided and pruned here. The sender is a straggler whose engine
      // lost its quorum partners — tell it the outcome from our applied
      // log or it ballots forever (its retries bound the chatter, and
      // learning the outcome is what stops them).
      if (decree < commitIndex_ && from != ctx().self())
        ctx().post(from, makeMessage<DecreeOutcome>(decree,
                                                    decreeLog_[decree]));
      return;
    }
    openThrough(decree);
    slot = findActive(decree);
    if (slot == nullptr) return;
  }
  slot->engine->onMessage(from, envelope.inner());
}

void SvcNode::onDecreeDecided(std::uint64_t decree, Value winner) {
  recordDecided(decree, winner);
  applyReady();
  pruneRetired();
  formAndOpen();
}

void SvcNode::recordDecided(std::uint64_t decree, Value winner) {
  if (decree < commitIndex_) return;  // already applied
  if (!decided_.emplace(decree, winner).second) return;  // already known
  OOC_TRACE("svc p", ctx().self(), " decree ", decree, " -> ", winner);
  announcedBinding_.erase(decree);
  // If our batch lost this decree, it fights again in a later one. (It can
  // never win two: re-proposal happens strictly after the loss is known.)
  const auto mine = openProposals_.find(decree);
  if (mine != openProposals_.end()) {
    if (mine->second != winner && !committedBatches_.contains(mine->second))
      unassigned_.push_back(mine->second);
    openProposals_.erase(mine);
  }
  while (decided_.contains(firstUndecided_)) ++firstUndecided_;
}

void SvcNode::applyReady() {
  bool progressed = false;
  for (;;) {
    const auto it = decided_.find(commitIndex_);
    if (it == decided_.end()) break;
    const Value batch = it->second;
    const auto payload =
        batch == kNoopBatch ? batchStore_.end() : batchStore_.find(batch);
    if (batch != kNoopBatch && payload == batchStore_.end()) {
      requestMissingBatch(batch);  // head-of-line blocked on the payload
      break;
    }
    decided_.erase(it);
    const Tick now = ctx().now();
    decreeLog_.push_back(batch);
    front_.recordCommit(now);
    std::vector<std::uint64_t> record{kRecCommit, commitIndex_,
                                      store::toWord(batch)};
    if (batch == kNoopBatch) {
      ++noopDecrees_;
      record.push_back(0);
    } else {
      committedBatches_.insert(batch);
      const std::vector<Value>& cmds = payload->second;
      front_.recordBatch(cmds.size());
      record.push_back(cmds.size());
      for (Value cmd : cmds) {
        record.push_back(store::toWord(cmd));
        front_.apply(cmd, now);
      }
    }
    journal_.persist(record);
    ++commitIndex_;
    firstUndecided_ = std::max(firstUndecided_, commitIndex_);
    progressed = true;
  }
  if (progressed) {
    front_.armArrivals(ctx());
    // Still below the quarantine: catch-up is the only transport for the
    // remaining outcomes, so keep rounds coming while they make progress.
    if (commitIndex_ < quarantine_ && !recovering_ && catchupTimer_ == 0) {
      catchupTries_ = 0;
      catchupTimer_ = ctx().setTimer(kCatchupRetry);
    }
  }
}

void SvcNode::requestMissingBatch(Value batchId) {
  if (fetchTimer_ != 0) return;  // one head-of-line fetch at a time
  ctx().fanout(makeMessage<BatchFetch>(batchId));
  fetchTimer_ = ctx().setTimer(kFetchRetry);
}

void SvcNode::pruneRetired() {
  // Engines park in the graveyard until the next top-level event: the
  // pruning call may sit below the pruned engine's own handler frame.
  while (!active_.empty() &&
         activeBase_ + kRetireHorizon <= firstUndecided_) {
    graveyard_.push_back(std::move(active_.front()));
    active_.pop_front();
    ++activeBase_;
  }
}

// --- catch-up --------------------------------------------------------------

void SvcNode::fireCatchup() {
  if (!recovering_ && commitIndex_ >= quarantine_) return;  // caught up
  if (catchupTries_ >= kMaxCatchupTries) return;
  ++catchupTries_;
  ctx().fanout(makeMessage<CatchupRequest>(commitIndex_));
  catchupTimer_ = ctx().setTimer(kCatchupRetry);
}

void SvcNode::replyCatchup(ProcessId to, std::uint64_t fromDecree) {
  if (fromDecree >= decreeLog_.size()) return;  // nothing they lack
  std::vector<Value> decrees(decreeLog_.begin() +
                                 static_cast<std::ptrdiff_t>(fromDecree),
                             decreeLog_.end());
  std::vector<std::pair<Value, std::vector<Value>>> batches;
  for (Value batch : decrees) {
    if (batch == kNoopBatch) continue;
    const auto payload = batchStore_.find(batch);
    if (payload != batchStore_.end())
      batches.emplace_back(batch, payload->second);
  }
  ctx().post(to, makeMessage<CatchupReply>(fromDecree, std::move(decrees),
                                           std::move(batches)));
}

void SvcNode::mergeCatchup(const CatchupReply& reply) {
  for (const auto& [id, cmds] : reply.batches())
    batchStore_.try_emplace(id, cmds);
  if (recovering_) {
    // First reply after a non-durable restart: the responder's applied
    // prefix plus the pipeline depth bounds how far our previous
    // incarnation can have participated (its opens trailed the cluster's
    // applied frontier by at most window on each side).
    recovering_ = false;
    const std::uint64_t horizon = reply.fromDecree() + reply.decrees().size();
    quarantine_ = std::min(options_.maxDecrees,
                           horizon + 2 * options_.window + 2);
    nextOpen_ = std::max(nextOpen_, quarantine_);
  }
  std::uint64_t decree = reply.fromDecree();
  for (Value winner : reply.decrees()) recordDecided(decree++, winner);
  applyReady();
  pruneRetired();
  formAndOpen();
}

// --- event plumbing --------------------------------------------------------

void SvcNode::onMessage(ProcessId from, const Message& message) {
  graveyard_.clear();
  if (const auto* envelope = message.as<DecreeMessage>()) {
    handleDecreeTraffic(from, *envelope);
    return;
  }
  if (const auto* announce = message.as<BatchAnnounce>()) {
    batchStore_.try_emplace(announce->batchId(), announce->commands());
    // Remember the binding for a decree we have not joined yet: if we open
    // it with nothing of our own, we echo this batch instead of a no-op.
    // First binding wins when two owners race for the same decree.
    if (announce->bindingDecree() != kNoBinding &&
        announce->bindingDecree() >= nextOpen_ &&
        announce->bindingDecree() >= quarantine_ && !recovering_) {
      announcedBinding_.emplace(announce->bindingDecree(),
                                announce->batchId());
    }
    applyReady();  // may unblock a head-of-line fetch
    return;
  }
  if (const auto* outcome = message.as<DecreeOutcome>()) {
    // Straggler rescue: the replier's applied log is final, so the
    // outcome can be recorded as if our engine had decided — even for a
    // quarantined decree (learning is not participating; catch-up feeds
    // recordDecided the same way).
    recordDecided(outcome->decree(), outcome->winner());
    applyReady();
    pruneRetired();
    formAndOpen();
    return;
  }
  if (const auto* fetch = message.as<BatchFetch>()) {
    const auto payload = batchStore_.find(fetch->batchId());
    if (payload != batchStore_.end()) {
      // No binding on fetch replies: the batch is typically decided
      // already, so echoing it anywhere would be wrong.
      ctx().post(from, makeMessage<BatchAnnounce>(fetch->batchId(),
                                                  payload->second));
    }
    return;
  }
  if (const auto* request = message.as<CatchupRequest>()) {
    if (from != ctx().self()) replyCatchup(from, request->fromDecree());
    return;
  }
  if (const auto* reply = message.as<CatchupReply>()) {
    mergeCatchup(*reply);
    return;
  }
}

void SvcNode::onTimer(TimerId id) {
  graveyard_.clear();
  if (front_.isArrivalTimer(id)) {
    handleArrivals();
    return;
  }
  if (id == fetchTimer_) {
    fetchTimer_ = 0;
    applyReady();  // re-requests if the payload is still missing
    return;
  }
  if (id == catchupTimer_) {
    catchupTimer_ = 0;
    fireCatchup();
    return;
  }
  const auto owner = timerDecree_.find(id);
  if (owner == timerDecree_.end()) return;
  const std::uint64_t decree = owner->second;
  timerDecree_.erase(owner);
  if (ActiveDecree* slot = findActive(decree)) slot->engine->onTimer(id);
}

}  // namespace ooc::svc
