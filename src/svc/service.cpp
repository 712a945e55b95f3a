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
      front_(std::move(front)) {
  if (options_.window == 0)
    throw std::invalid_argument("svc: window must be positive");
  if (options_.batchMax == 0)
    throw std::invalid_argument("svc: batchMax must be positive");
  if (options_.durable) {
    wal_ = std::make_unique<store::WriteAheadLog>(options_.storage);
  }
}

SvcNode::~SvcNode() = default;

void SvcNode::persist(std::vector<std::uint64_t> record) {
  if (!wal_) return;
  wal_->append(record);
  if (options_.syncBeforeReply) wal_->sync();
}

void SvcNode::onStart() { front_.armArrivals(ctx()); }

void SvcNode::onCrash() {
  if (wal_) wal_->crash(ctx().rng());
}

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

  if (wal_) {
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
  for (const auto& record : wal_->recover()) {
    if (record.empty()) continue;
    switch (record[0]) {
      case kRecCmd: {
        if (record.size() < 2) break;
        minted.push_back(dec(record[1]));
        break;
      }
      case kRecBatch: {
        if (record.size() < 3) break;
        const Value id = dec(record[1]);
        // A count read from the record is checked by subtraction, since
        // a sum could wrap (here and in kRecCommit).
        const std::size_t n = static_cast<std::size_t>(record[2]);
        if (n > record.size() - 3) break;
        std::vector<Value> cmds;
        cmds.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          cmds.push_back(dec(record[3 + i]));
          batched.insert(dec(record[3 + i]));
        }
        batchStore_[id] = std::move(cmds);
        formed.push_back(id);
        break;
      }
      case kRecOpen: {
        if (record.size() < 3) break;
        const std::uint64_t decree = record[1];
        maxOpen = std::max(maxOpen, decree + 1);
        // Echoed foreign batches were journaled as the open's proposal but
        // must not be adopted back: requeueing one on loss would bind it
        // to a second decree while its owner re-proposes it too.
        const Value proposal = dec(record[2]);
        if (proposal != kNoopBatch && batchNode(proposal) == ctx().self())
          openProposals_[decree] = proposal;
        break;
      }
      case kRecCommit: {
        if (record.size() < 4) break;
        const std::uint64_t decree = record[1];
        const Value batch = dec(record[2]);
        const std::size_t n = static_cast<std::size_t>(record[3]);
        if (n > record.size() - 4 || decree != decreeLog_.size()) break;
        decreeLog_.push_back(batch);
        openProposals_.erase(decree);
        if (batch == kNoopBatch) {
          ++noopDecrees_;
          break;
        }
        committedBatches_.insert(batch);
        for (std::size_t i = 0; i < n; ++i) front_.restore(dec(record[4 + i]));
        break;
      }
      default:
        break;
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
    persist({kRecCmd, enc(cmd)});
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
  std::vector<std::uint64_t> record{kRecBatch, enc(id), take};
  for (Value cmd : cmds) record.push_back(enc(cmd));
  persist(std::move(record));
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
  const Value proposal = takeProposal(decree);
  persist({kRecOpen, decree, enc(proposal)});
  // Only OWN batches enter openProposals_ (echoed foreign ones are the
  // owner's to requeue — see the header's double-win note).
  if (proposal != kNoopBatch && batchNode(proposal) == ctx().self())
    openProposals_[decree] = proposal;
  ActiveDecree slot;
  slot.context = std::make_unique<DecreeContextImpl>(*this, decree);
  slot.engine = engineFactory_(decree, proposal, proposal != kNoopBatch);
  slot.engine->bind(*slot.context);
  Process* engine = slot.engine.get();
  active_.emplace(decree, std::move(slot));
  nextOpen_ = std::max(nextOpen_, decree + 1);
  OOC_TRACE("svc p", ctx().self(), " opens decree ", decree, " proposing ",
            proposal);
  engine->onStart();
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
  auto it = active_.find(decree);
  if (it == active_.end()) {
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
    it = active_.find(decree);
    if (it == active_.end()) return;
  }
  it->second.engine->onMessage(from, envelope.inner());
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
    std::vector<std::uint64_t> record{kRecCommit, commitIndex_, enc(batch)};
    if (batch == kNoopBatch) {
      ++noopDecrees_;
      record.push_back(0);
    } else {
      committedBatches_.insert(batch);
      const std::vector<Value>& cmds = payload->second;
      front_.recordBatch(cmds.size());
      record.push_back(cmds.size());
      for (Value cmd : cmds) {
        record.push_back(enc(cmd));
        front_.apply(cmd, now);
      }
    }
    persist(std::move(record));
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
         active_.begin()->first + kRetireHorizon <= firstUndecided_) {
    graveyard_.push_back(std::move(active_.begin()->second));
    active_.erase(active_.begin());
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
  for (const auto& [id, cmds] : reply.batches()) batchStore_.emplace(id, cmds);
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
    batchStore_.emplace(announce->batchId(), announce->commands());
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
  const auto engine = active_.find(decree);
  if (engine != active_.end()) engine->second.engine->onTimer(id);
}

void SvcNode::onTick(Tick tick) {
  graveyard_.clear();
  std::vector<std::uint64_t> decrees;
  decrees.reserve(active_.size());
  for (const auto& [decree, unused] : active_) decrees.push_back(decree);
  for (const std::uint64_t decree : decrees) {
    const auto engine = active_.find(decree);
    if (engine != active_.end()) engine->second.engine->onTick(tick);
  }
}

}  // namespace ooc::svc
