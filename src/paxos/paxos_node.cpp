#include "paxos/paxos_node.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace ooc::paxos {
namespace {

// Journal record tags.
constexpr std::uint64_t kRecPromise = 1;  // {tag, promised ballot}
constexpr std::uint64_t kRecAccept = 2;   // {tag, ballot, value}
constexpr std::uint64_t kRecDecide = 3;   // {tag, value}

}  // namespace

PaxosNode::PaxosNode(Value input, PaxosConfig config)
    : input_(input),
      config_(config),
      journal_(config.durable, config.syncBeforeReply, config.storage) {}

void PaxosNode::onRestart() {
  // Drop every volatile field; the journal replay below rebuilds the
  // acceptor state (the part Paxos' safety proof requires to be stable).
  promised_ = 0;
  acceptedBallot_ = 0;
  acceptedValue_ = kNoValue;
  currentBallot_ = 0;
  attempt_ = 0;
  proposing_ = false;
  acceptRequested_ = false;
  promiseFrom_.assign(ctx().processCount(), false);
  promiseCount_ = 0;
  highestAcceptedSeen_ = 0;
  valueToPropose_ = kNoValue;
  acceptedTallies_.clear();
  decided_ = false;
  decision_ = kNoValue;
  retryTimer_ = 0;  // the simulator purged our timers at the crash
  backoff_ = 1.0;
  ++recoveries_;
  for (const std::vector<std::uint64_t>& rec : journal_.recover()) {
    store::RecordReader reader(rec);
    switch (reader.word()) {
      case kRecPromise: {
        // A max, as for the accept below: writers only raise the promise,
        // and no record may lower it under an accepted ballot.
        const Ballot ballot = reader.word();
        if (reader.complete()) promised_ = std::max(promised_, ballot);
        break;
      }
      case kRecAccept: {
        const Ballot ballot = reader.word();
        const Value value = store::toValue(reader.word());
        if (!reader.complete()) break;
        promised_ = std::max(promised_, ballot);
        acceptedBallot_ = ballot;
        acceptedValue_ = value;
        break;
      }
      case kRecDecide: {
        const Value value = store::toValue(reader.word());
        if (!reader.complete()) break;
        decided_ = true;
        decision_ = value;
        break;
      }
      default:
        break;  // unknown tag: ignore (forward compatibility)
    }
  }
  // Proposer bookkeeping is volatile; restart ballots past everything we
  // ever promised so our own proposals are not dead on arrival.
  attempt_ = promised_ / ctx().processCount() + 1;
  record(Confidence::kVacillate,
         acceptedBallot_ != 0 ? acceptedValue_ : input_);
  if (!decided_ && config_.propose) armRetryTimer();
}

void PaxosNode::record(Confidence confidence, Value value) {
  if (!confidenceLog_.empty() &&
      confidenceLog_.back().confidence == confidence &&
      confidenceLog_.back().value == value) {
    return;
  }
  confidenceLog_.push_back(ConfidenceChange{confidence, value, ctx().now()});
}

void PaxosNode::onStart() {
  promiseFrom_.assign(ctx().processCount(), false);
  record(Confidence::kVacillate, input_);
  if (config_.propose) armRetryTimer();
}

void PaxosNode::armRetryTimer() {
  if (retryTimer_ != 0) ctx().cancelTimer(retryTimer_);
  const auto span = static_cast<double>(ctx().rng().between(
      static_cast<std::int64_t>(config_.retryMin),
      static_cast<std::int64_t>(config_.retryMax)));
  const Tick delay = std::min<Tick>(
      config_.backoffCap, static_cast<Tick>(span * backoff_));
  retryTimer_ = ctx().setTimer(std::max<Tick>(1, delay));
}

void PaxosNode::onTimer(TimerId id) {
  if (id != retryTimer_ || decided_) return;
  // The reconciliator moment: no decision was learned in time; raise a
  // fresh ballot and back off harder for the next stalemate.
  ++reconciliatorInvocations_;
  record(Confidence::kVacillate,
         acceptedBallot_ != 0 ? acceptedValue_ : input_);
  startBallot();
  backoff_ = std::min(backoff_ * config_.backoffFactor,
                      static_cast<double>(config_.backoffCap));
  armRetryTimer();
}

void PaxosNode::startBallot() {
  ++attempt_;
  ++ballotsStarted_;
  currentBallot_ =
      attempt_ * ctx().processCount() + ctx().self() + 1;
  proposing_ = true;
  acceptRequested_ = false;
  promiseFrom_.assign(ctx().processCount(), false);
  promiseCount_ = 0;
  highestAcceptedSeen_ = 0;
  valueToPropose_ = input_;
  OOC_TRACE("paxos p", ctx().self(), " ballot ", currentBallot_);
  ctx().fanout(makeMessage<Prepare>(currentBallot_));
}

void PaxosNode::onMessage(ProcessId from, const Message& message) {
  if (const auto* msg = message.as<Prepare>()) {
    handlePrepare(from, *msg);
  } else if (const auto* msg = message.as<Promise>()) {
    handlePromise(from, *msg);
  } else if (const auto* msg = message.as<Accept>()) {
    handleAccept(from, *msg);
  } else if (const auto* msg = message.as<Accepted>()) {
    handleAccepted(from, *msg);
  } else if (const auto* msg = message.as<Nack>()) {
    handleNack(from, *msg);
  } else if (const auto* msg = message.as<DecidedAnnounce>()) {
    learn(msg->value);
  }
}

void PaxosNode::handlePrepare(ProcessId from, const Prepare& msg) {
  if (msg.ballot > promised_) {
    promised_ = msg.ballot;
    // The promise must hit stable storage before the reply leaves — a
    // forgotten promise lets a lower ballot slip through after a restart.
    journal_.persist({kRecPromise, promised_});
    ctx().post(from, makeMessage<Promise>(msg.ballot, acceptedBallot_,
                                          acceptedValue_));
  } else {
    ctx().post(from, makeMessage<Nack>(msg.ballot, promised_));
  }
}

void PaxosNode::handlePromise(ProcessId from, const Promise& msg) {
  if (!proposing_ || acceptRequested_ || msg.ballot != currentBallot_)
    return;
  if (from >= promiseFrom_.size() || promiseFrom_[from]) return;
  promiseFrom_[from] = true;
  ++promiseCount_;
  // Honour the highest already-accepted proposal among the promises —
  // the rule that makes chosen values stable.
  if (msg.acceptedBallot > highestAcceptedSeen_) {
    highestAcceptedSeen_ = msg.acceptedBallot;
    valueToPropose_ = msg.acceptedValue;
  }
  if (2 * promiseCount_ > ctx().processCount()) {
    acceptRequested_ = true;
    ctx().fanout(makeMessage<Accept>(currentBallot_, valueToPropose_));
  }
}

void PaxosNode::handleAccept(ProcessId, const Accept& msg) {
  if (msg.ballot < promised_) {
    // A stale proposer; no reply needed beyond its own Nacks from Prepare.
    return;
  }
  promised_ = msg.ballot;
  acceptedBallot_ = msg.ballot;
  acceptedValue_ = msg.value;
  journal_.persist(
      {kRecAccept, acceptedBallot_, store::toWord(acceptedValue_)});
  // Adopt-level knowledge: a majority-backed proposer pushed this value.
  record(Confidence::kAdopt, msg.value);
  ctx().fanout(makeMessage<Accepted>(msg.ballot, msg.value));
}

void PaxosNode::handleAccepted(ProcessId from, const Accepted& msg) {
  if (decided_) return;
  BallotTally& tally = acceptedTallies_[msg.ballot];
  if (tally.seen.empty()) {
    tally.seen.assign(ctx().processCount(), false);
    tally.value = msg.value;
  }
  if (from >= tally.seen.size() || tally.seen[from]) return;
  tally.seen[from] = true;
  ++tally.count;
  if (2 * tally.count > ctx().processCount()) learn(tally.value);
}

void PaxosNode::handleNack(ProcessId, const Nack& msg) {
  if (msg.ballot != currentBallot_ || !proposing_) return;
  ++nacksReceived_;
  // Jump past the competing ballot on the next attempt.
  const std::uint64_t neededAttempt = msg.promised / ctx().processCount();
  attempt_ = std::max(attempt_, neededAttempt);
  proposing_ = false;
}

void PaxosNode::learn(Value value) {
  if (decided_) return;
  decided_ = true;
  decision_ = value;
  decisionHistory_.push_back(value);
  journal_.persist({kRecDecide, store::toWord(value)});
  record(Confidence::kCommit, value);
  ctx().decide(value);
  if (retryTimer_ != 0) ctx().cancelTimer(retryTimer_);
  // Short-circuit for laggards; acceptor duties continue regardless.
  ctx().fanout(makeMessage<DecidedAnnounce>(value));
}

}  // namespace ooc::paxos
