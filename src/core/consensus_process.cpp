#include "core/consensus_process.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

#include "util/logging.hpp"

namespace ooc {

// Object-facing context: wraps the host process context, tagging every
// outbound message with the coordinates of the object being called into
// (the host's activeRound_/activeStage_) so it reaches the peer instance
// of the same object. Under lockstep the active object is always the
// frontier; a loose driver keeps tagging with its own, older round.
class ConsensusProcess::ObjectContextImpl final : public ObjectContext {
 public:
  explicit ObjectContextImpl(ConsensusProcess& host) noexcept : host_(host) {}

  ProcessId self() const noexcept override { return host_.ctx().self(); }
  std::size_t processCount() const noexcept override {
    return host_.ctx().processCount();
  }
  Tick now() const noexcept override { return host_.ctx().now(); }
  Rng& rng() noexcept override { return host_.ctx().rng(); }

  void post(ProcessId to, MessagePtr inner) override {
    host_.ctx().post(to, makeMessage<TaggedMessage>(host_.activeRound_,
                                                    host_.activeStage_,
                                                    std::move(inner)));
  }

  void fanout(MessagePtr inner) override {
    // One envelope, one shared inner payload, n recipients — the whole
    // broadcast allocates exactly one TaggedMessage.
    host_.ctx().fanout(makeMessage<TaggedMessage>(host_.activeRound_,
                                                  host_.activeStage_,
                                                  std::move(inner)));
  }

  TimerId setTimer(Tick delay) override {
    const TimerId id = host_.ctx().setTimer(delay);
    host_.noteTimerOwner(id);
    return id;
  }
  void cancelTimer(TimerId id) noexcept override {
    host_.dropTimerOwner(id);
    host_.ctx().cancelTimer(id);
  }

 private:
  ConsensusProcess& host_;
};

ConsensusProcess::ConsensusProcess(Value input,
                                   DetectorFactory detectorFactory,
                                   DriverFactory driverFactory,
                                   Options options)
    : value_(input),
      detectorFactory_(std::move(detectorFactory)),
      driverFactory_(std::move(driverFactory)),
      options_(options) {
  if (!detectorFactory_)
    throw std::invalid_argument("detector factory is required");
  if (!driverFactory_)
    throw std::invalid_argument("driver factory is required");
  objectContext_ = std::make_unique<ObjectContextImpl>(*this);
}

ConsensusProcess::~ConsensusProcess() = default;

template <typename Call>
bool ConsensusProcess::route(Round round, Stage stage, Call&& call) {
  // A live loose driver owns its round's drive traffic even after the
  // frontier moved past it (and even after the frontier retired).
  if (stage == Stage::kDrive) {
    for (auto& entry : loose_) {
      if (entry.round == round) {
        activeRound_ = round;
        activeStage_ = Stage::kDrive;
        call(*entry.driver);
        return true;
      }
    }
  }
  if (exhausted_ || round != round_ || stage != stage_) return false;
  const bool live = stage == Stage::kDetect ? detector_ != nullptr
                                            : driver_ != nullptr;
  if (!live) return true;  // the frontier object already completed
  activeRound_ = round;
  activeStage_ = stage;
  if (stage == Stage::kDetect) {
    call(*detector_);
  } else {
    call(*driver_);
  }
  return true;
}

void ConsensusProcess::onStart() {
  beginRound();
  pump();
}

void ConsensusProcess::beginRound() {
  if (options_.decideAfterRound > 0 && round_ >= options_.decideAfterRound &&
      !decided_) {
    // Fixed-round decision rule (classic Phase-King): the value held after
    // the configured number of completed rounds is final.
    decided_ = true;
    decisionValue_ = value_;
    decisionRound_ = round_;
    ctx().decide(value_);
    pruneBufferedAfterDecide();
  }
  const bool retired =
      decided_ && options_.participateRoundsAfterDecide > 0 &&
      round_ >= decisionRound_ + options_.participateRoundsAfterDecide;
  if (round_ >= options_.maxRounds || retired) {
    exhausted_ = true;
    detector_.reset();
    driver_.reset();
    // loose_ is intentionally kept: detached courtesy drives of earlier
    // rounds finish their exchanges so peers still waiting on the drive
    // wave are not starved by this process's retirement.
    return;
  }
  ++round_;
  stage_ = Stage::kDetect;
  driver_.reset();
  useDriverValue_ = false;
  if (!loose_.empty()) ++overlapWitnesses_;
  rounds_.emplace_back();
  rounds_.back().detectorInput = value_;
  detector_ = detectorFactory_(round_);
  detectorInvokedAt_ = ctx().now();
  OOC_TRACE("p", ctx().self(), " round ", round_, " detect(", value_, ")");
  activeRound_ = round_;
  activeStage_ = Stage::kDetect;
  detector_->invoke(*objectContext_, value_);
  replayBuffered();
}

void ConsensusProcess::invokeFrontierDriver(const Outcome& outcome) {
  stage_ = Stage::kDrive;
  driver_ = driverFactory_(round_);
  driverInvokedAt_ = ctx().now();
  activeRound_ = round_;
  activeStage_ = Stage::kDrive;
  driver_->invoke(*objectContext_, outcome);
  replayBuffered();
}

void ConsensusProcess::launchLooseDriver(const Outcome& outcome) {
  loose_.push_back(LooseDriver{round_, ctx().now(), driverFactory_(round_)});
  OOC_TRACE("p", ctx().self(), " round ", round_, " loose drive");
  activeRound_ = round_;
  activeStage_ = Stage::kDrive;
  loose_.back().driver->invoke(*objectContext_, outcome);
  replayBuffered();
}

void ConsensusProcess::pollLooseDrivers() {
  if (loose_.empty()) return;
  std::size_t kept = 0;
  for (auto& entry : loose_) {
    const auto driven = entry.driver->result();
    if (!driven) {
      loose_[kept++] = std::move(entry);
      continue;
    }
    rounds_[entry.round - 1].driverValue = *driven;
    OOC_TRACE("p", ctx().self(), " round ", entry.round, " loose driver -> ",
              *driven);
    if (options_.onDriverValue)
      options_.onDriverValue(entry.round, *driven, ctx().now());
    // The value is discarded: only courtesy drives detach.
  }
  loose_.resize(kept);
}

void ConsensusProcess::scheduleWakeup(PendingWake pending) {
  pending_ = pending;
  ++deferredActivations_;
  // Armed on the raw process context, not the object context: wakeups
  // belong to the host, never to an object's timer-ownership table.
  wakeTimer_ = ctx().setTimer(1);
}

void ConsensusProcess::onWakeup() {
  const PendingWake pending = pending_;
  pending_ = PendingWake::kNone;
  switch (pending) {
    case PendingWake::kNone:
      break;
    case PendingWake::kBeginRound:
      beginRound();
      break;
    case PendingWake::kInvokeDriver: {
      assert(pendingOutcome_.has_value());
      const Outcome outcome = *pendingOutcome_;
      pendingOutcome_.reset();
      invokeFrontierDriver(outcome);
      break;
    }
  }
  pump();
}

void ConsensusProcess::pump() {
  pollLooseDrivers();
  if (pending_ != PendingWake::kNone) return;  // successor already scheduled
  while (!exhausted_) {
    if (stage_ == Stage::kDetect) {
      if (!detector_) return;
      const auto outcome = detector_->result();
      if (!outcome) return;
      rounds_.back().detectorOutcome = *outcome;
      OOC_TRACE("p", ctx().self(), " round ", round_, " detector -> ",
                toString(*outcome));
      if (options_.onDetectorOutcome)
        options_.onDetectorOutcome(round_, *outcome, ctx().now());

      bool runDriver = options_.alwaysRunDriver;
      useDriverValue_ = false;
      switch (outcome->confidence) {
        case Confidence::kCommit:
          value_ = outcome->value;
          if (options_.decideAfterRound == 0 && !decided_) {
            decided_ = true;
            decisionValue_ = outcome->value;
            decisionRound_ = round_;
            ctx().decide(outcome->value);
            pruneBufferedAfterDecide();
          }
          break;
        case Confidence::kAdopt:
          if (options_.kind == TemplateKind::kAcConciliator) {
            runDriver = true;
            useDriverValue_ = true;
          } else {
            value_ = outcome->value;
          }
          break;
        case Confidence::kVacillate:
          assert(options_.kind == TemplateKind::kVacReconciliator &&
                 "AC detectors must not return vacillate");
          runDriver = true;
          useDriverValue_ = true;
          break;
      }

      detector_.reset();
      if (runDriver) {
        if (!useDriverValue_ && detachesCourtesyDrives(options_.scheduling)) {
          // ooo-driver: the drive wave of this round proceeds loose while
          // the next round's detector goes live immediately.
          launchLooseDriver(*outcome);
          beginRound();
          continue;
        }
        if (!advancesInline(options_.scheduling)) {
          pendingOutcome_ = *outcome;
          scheduleWakeup(PendingWake::kInvokeDriver);
          return;
        }
        invokeFrontierDriver(*outcome);
        continue;
      }
      if (!advancesInline(options_.scheduling)) {
        scheduleWakeup(PendingWake::kBeginRound);
        return;
      }
      beginRound();
      continue;
    }

    // Stage::kDrive
    if (!driver_) return;
    const auto driven = driver_->result();
    if (!driven) return;
    rounds_.back().driverValue = *driven;
    OOC_TRACE("p", ctx().self(), " round ", round_, " driver -> ", *driven);
    if (options_.onDriverValue)
      options_.onDriverValue(round_, *driven, ctx().now());
    if (useDriverValue_) value_ = *driven;
    if (!advancesInline(options_.scheduling)) {
      driver_.reset();  // completed: late drive messages are stale
      scheduleWakeup(PendingWake::kBeginRound);
      return;
    }
    beginRound();
  }
}

void ConsensusProcess::onMessage(ProcessId from, const Message& message) {
  const auto* tagged = message.as<TaggedMessage>();
  if (tagged == nullptr) return;  // not a template message; ignore
  dispatch(from, *tagged);
  pump();
}

void ConsensusProcess::dispatch(ProcessId from, const TaggedMessage& tagged) {
  if (route(tagged.round(), tagged.stage(), [&](auto& object) {
        object.onMessage(*objectContext_, from, tagged.inner());
      }))
    return;
  if (exhausted_) return;
  if (tagged.round() < round_) return;  // stale: round already finished
  // Same round but a stage we already passed: stale, drop.
  if (tagged.round() == round_ && tagged.stage() == Stage::kDetect &&
      stage_ == Stage::kDrive) {
    return;
  }
  // Bounded buffering after decide: with a retirement horizon configured,
  // rounds beyond decisionRound_ + participateRoundsAfterDecide can never
  // be reached (beginRound retires first), so buffering their messages
  // would only grow the queue until teardown. Drop them instead.
  if (decided_ && options_.participateRoundsAfterDecide > 0 &&
      tagged.round() >
          decisionRound_ + options_.participateRoundsAfterDecide) {
    ++bufferedDropped_;
    return;
  }
  // Future round/stage: buffer until this process gets there. The payload
  // is shared with the envelope (and with every other recipient buffering
  // the same broadcast) — no copy.
  buffered_.push_back(BufferedMessage{tagged.round(), tagged.stage(), from,
                                      tagged.innerPtr()});
  bufferedPeak_ = std::max(bufferedPeak_, buffered_.size());
}

void ConsensusProcess::replayBuffered() {
  // Deliver buffered messages now addressed to a live object, in arrival
  // order. New messages are never added during replay (objects only
  // consume here), so one pass compacts the survivors forward in place.
  std::size_t kept = 0;
  for (auto& entry : buffered_) {
    if (route(entry.round, entry.stage, [&](auto& object) {
          object.onMessage(*objectContext_, entry.from, *entry.inner);
        }))
      continue;
    if (entry.round > round_ ||
        (entry.round == round_ && stage_ == Stage::kDetect &&
         entry.stage == Stage::kDrive)) {
      buffered_[kept++] = std::move(entry);
    }
    // else: stale, drop
  }
  buffered_.resize(kept);
}

void ConsensusProcess::pruneBufferedAfterDecide() {
  if (options_.participateRoundsAfterDecide == 0) return;
  const Round horizon = decisionRound_ + options_.participateRoundsAfterDecide;
  const auto unreachable = [horizon](const BufferedMessage& entry) {
    return entry.round > horizon;
  };
  const auto removed =
      std::count_if(buffered_.begin(), buffered_.end(), unreachable);
  if (removed == 0) return;
  bufferedDropped_ += static_cast<std::uint64_t>(removed);
  buffered_.erase(
      std::remove_if(buffered_.begin(), buffered_.end(), unreachable),
      buffered_.end());
}

void ConsensusProcess::noteTimerOwner(TimerId id) {
  timerOwners_.emplace_back(id, activeRound_, activeStage_);
}

void ConsensusProcess::dropTimerOwner(TimerId id) noexcept {
  for (std::size_t i = 0; i < timerOwners_.size(); ++i) {
    if (std::get<0>(timerOwners_[i]) == id) {
      timerOwners_.erase(timerOwners_.begin() +
                         static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

bool ConsensusProcess::takeTimerOwner(TimerId id, Round& round,
                                      Stage& stage) noexcept {
  for (std::size_t i = 0; i < timerOwners_.size(); ++i) {
    if (std::get<0>(timerOwners_[i]) == id) {
      round = std::get<1>(timerOwners_[i]);
      stage = std::get<2>(timerOwners_[i]);
      timerOwners_.erase(timerOwners_.begin() +
                         static_cast<std::ptrdiff_t>(i));
      return true;
    }
  }
  return false;
}

void ConsensusProcess::onTimer(TimerId id) {
  if (wakeTimer_ && *wakeTimer_ == id) {
    wakeTimer_.reset();
    onWakeup();
    return;
  }
  // A timer reaches the object that armed it; once that object completed
  // or retired, the timer is stale and reaches nothing.
  Round ownerRound = 0;
  Stage ownerStage = Stage::kDetect;
  if (takeTimerOwner(id, ownerRound, ownerStage)) {
    route(ownerRound, ownerStage, [&](auto& object) {
      object.onTimer(*objectContext_, id);
    });
  }
  pump();
}

void ConsensusProcess::onTick(Tick tick) {
  // An object invoked earlier in this same tick (e.g. a round begun while
  // processing this tick's messages) must not see this barrier: its first
  // exchange closes at the NEXT barrier, keeping all lockstep processes on
  // the same calendar regardless of whether they advanced via a message or
  // via the barrier itself. Policies without a tick barrier (event-driven)
  // drop the forwarding entirely — their objects are async-mode and advance
  // on arrivals alone (registry-gated).
  if (forwardsTickBarrier(options_.scheduling)) {
    const Tick invokedAt =
        stage_ == Stage::kDetect ? detectorInvokedAt_ : driverInvokedAt_;
    if (tick > invokedAt) {
      route(round_, stage_, [&](auto& object) {
        object.onTick(*objectContext_, tick);
      });
    }
    for (auto& entry : loose_) {
      if (tick > entry.invokedAt) {
        activeRound_ = entry.round;
        activeStage_ = Stage::kDrive;
        entry.driver->onTick(*objectContext_, tick);
      }
    }
  }
  pump();
}

}  // namespace ooc
