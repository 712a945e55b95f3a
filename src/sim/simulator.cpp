#include "sim/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/run_arena.hpp"
#include "util/logging.hpp"

namespace ooc {

// ---------------------------------------------------------------------------
// Context implementation

class Simulator::ContextImpl final : public Context {
 public:
  ContextImpl(Simulator& sim, ProcessId id) noexcept : sim_(sim), id_(id) {}

  ProcessId self() const noexcept override { return id_; }
  std::size_t processCount() const noexcept override {
    return sim_.processes_.size();
  }
  Tick now() const noexcept override { return sim_.now_; }
  Rng& rng() noexcept override { return sim_.processes_[id_].rng; }

  void post(ProcessId to, MessagePtr msg) override {
    sim_.deliverSend(id_, to, std::move(msg));
  }

  void fanout(MessagePtr msg) override {
    for (ProcessId to = 0; to < sim_.processes_.size(); ++to)
      sim_.deliverSend(id_, to, msg);
  }

  TimerId setTimer(Tick delay) override { return sim_.armTimer(id_, delay); }
  void cancelTimer(TimerId id) noexcept override { sim_.disarmTimer(id); }

  void decide(Value v) override { sim_.recordDecision(id_, v); }

  std::uint32_t incarnation() const noexcept override {
    return sim_.processes_[id_].incarnation;
  }

 private:
  Simulator& sim_;
  ProcessId id_;
};

// ---------------------------------------------------------------------------
// Simulator

Simulator::Simulator(SimConfig config, std::unique_ptr<NetworkModel> network)
    : config_(config),
      network_(std::move(network)),
      networkRng_(Rng(config.seed).split(0xBEEF)),
      harnessRng_(Rng(config.seed).split(0xCAFE)) {
  if (!network_) throw std::invalid_argument("network model is required");
  // Per-run scratch vectors come from the thread-local run arena (see
  // sim/run_arena.hpp): a sweep worker hands the same warm buffers from
  // simulator to simulator, as it does the EventQueue's bucket storage.
  controlActions_ = run_arena::checkout<std::vector<std::function<void()>>>();
  timerOwner_ = run_arena::checkout<std::vector<ProcessId>>();
  scratchDelays_ = run_arena::checkout<std::vector<Tick>>();
}

Simulator::~Simulator() {
  run_arena::recycle(std::move(controlActions_));
  run_arena::recycle(std::move(timerOwner_));
  run_arena::recycle(std::move(scratchDelays_));
}

ProcessId Simulator::addProcess(std::unique_ptr<Process> process,
                                bool faulty) {
  if (started_)
    throw std::logic_error("cannot add processes after run() started");
  if (!process) throw std::invalid_argument("process must not be null");
  const auto id = static_cast<ProcessId>(processes_.size());
  Slot slot;
  slot.process = std::move(process);
  slot.context = std::make_unique<ContextImpl>(*this, id);
  slot.rng = Rng(config_.seed).split(0x1000 + id);
  slot.faulty = faulty;
  slot.process->bind(*slot.context);
  processes_.push_back(std::move(slot));
  decisions_.emplace_back();
  if (awaited(id)) ++awaitedCount_;
  return id;
}

void Simulator::setValidValues(std::vector<Value> values) {
  validValues_ = std::move(values);
}

void Simulator::crashAt(ProcessId id, Tick tick) {
  schedule(tick, [this, id] {
    if (id < processes_.size() && !processes_[id].crashed) {
      if (awaited(id)) --awaitedCount_;
      processes_[id].crashed = true;
      OOC_DEBUG("p", id, " crashed at tick ", now_);
    }
  });
}

void Simulator::restartAt(ProcessId id, Tick crashTick, Tick downtime) {
  if (id >= processes_.size())
    throw std::out_of_range("restartAt: unknown process");
  SimEvent crash;
  crash.at = crashTick;
  crash.kind = SimEvent::Kind::kCrash;
  crash.target = id;
  queue_.push(std::move(crash));
  SimEvent restart;
  restart.at = crashTick + std::max<Tick>(1, downtime);
  restart.kind = SimEvent::Kind::kRestart;
  restart.target = id;
  queue_.push(std::move(restart));
}

void Simulator::schedule(Tick tick, std::function<void()> action) {
  SimEvent event;
  event.at = tick;
  event.kind = SimEvent::Kind::kControl;
  event.cause = currentCause_;
  // The action body lives in controlActions_; the event just carries its
  // index (in the timer field) so SimEvent stays a flat value type.
  event.timer = static_cast<TimerId>(controlActions_.size());
  controlActions_.push_back(std::move(action));
  queue_.push(std::move(event));
}

void Simulator::setStopPredicate(
    std::function<bool(const Simulator&)> predicate) {
  stopPredicate_ = std::move(predicate);
}

void Simulator::stopWhenAllCorrectDecided() {
  setStopPredicate(
      [](const Simulator& sim) { return sim.allCorrectDecided(); });
}

bool Simulator::shouldStop() const {
  return stopPredicate_ && stopPredicate_(*this);
}

void Simulator::run() {
  if (started_) throw std::logic_error("run() may be called once");
  started_ = true;

  for (ProcessId id = 0; id < processes_.size(); ++id) {
    SimEvent event;
    event.at = 0;
    event.kind = SimEvent::Kind::kStart;
    event.target = id;
    queue_.push(std::move(event));
  }
  if (config_.lockstep) {
    // First barrier fires at tick 1: no message can arrive at tick 0, and
    // objects invoked during onStart must not see a barrier before their
    // first messages (their exchange calendar starts at the next tick).
    SimEvent barrier;
    barrier.at = 1;
    barrier.phase = 1;
    barrier.kind = SimEvent::Kind::kBarrier;
    queue_.push(std::move(barrier));
  }

  SimEvent event;
  while (!queue_.empty()) {
    if (shouldStop()) return;
    if (eventsProcessed_ >= config_.maxEvents) {
      hitCap_ = true;
      return;
    }
    queue_.pop(event);
    if (event.at > config_.maxTicks) {
      hitCap_ = true;
      return;
    }
    now_ = event.at;
    ++eventsProcessed_;
    if (observer_) observe(event);

    switch (event.kind) {
      case SimEvent::Kind::kStart: {
        Slot& slot = processes_[event.target];
        if (!slot.crashed) slot.process->onStart();
        break;
      }
      case SimEvent::Kind::kDeliver: {
        Slot& slot = processes_[event.target];
        if (!slot.crashed) {
          if (event.targetIncarnation != slot.incarnation) {
            // The target restarted after this message was sent: it belongs
            // to the previous incarnation and must not leak into the new
            // one (it could carry replies to requests the reborn process
            // never made).
            ++messagesDroppedStale_;
            break;
          }
          ++messagesDelivered_;
          slot.process->onMessage(event.from, *event.message);
        }
        break;
      }
      case SimEvent::Kind::kTimer: {
        // A released slot (kNoTimerOwner) means the timer was cancelled —
        // ids are never reused; the queue entry is simply dropped here, so
        // no tombstone bookkeeping can accumulate.
        const ProcessId owner = timerOwnerOf(event.timer);
        if (owner == kNoTimerOwner) break;
        releaseTimer(event.timer);
        ++timersFired_;
        Slot& slot = processes_[owner];
        if (!slot.crashed) slot.process->onTimer(event.timer);
        break;
      }
      case SimEvent::Kind::kControl:
        controlActions_[static_cast<std::size_t>(event.timer)]();
        break;
      case SimEvent::Kind::kCrash: {
        Slot& slot = processes_[event.target];
        if (!slot.crashed) {
          if (awaited(event.target)) --awaitedCount_;
          slot.crashed = true;
          // Stale timers must not survive into the next incarnation: purge
          // every armed timer this process owns (its queue entries become
          // inert, exactly like cancellation).
          purgeTimersOf(event.target);
          slot.process->onCrash();
          OOC_DEBUG("p", event.target, " crashed (restarting) at tick ", now_);
        }
        break;
      }
      case SimEvent::Kind::kRestart: {
        Slot& slot = processes_[event.target];
        if (slot.crashed) {
          slot.crashed = false;
          if (awaited(event.target)) ++awaitedCount_;
          ++slot.incarnation;
          ++restarts_;
          slot.process->onRestart();
          OOC_DEBUG("p", event.target, " restarted at tick ", now_,
                    " (incarnation ", slot.incarnation, ")");
        }
        break;
      }
      case SimEvent::Kind::kBarrier: {
        for (Slot& slot : processes_)
          if (!slot.crashed) slot.process->onTick(now_);
        SimEvent barrier;
        barrier.at = now_ + 1;
        barrier.phase = 1;
        barrier.kind = SimEvent::Kind::kBarrier;
        barrier.cause = currentCause_;
        queue_.push(std::move(barrier));
        break;
      }
    }
    // Drop the payload ref before the next pop so a delivered message whose
    // last alias this was is freed now, not at the next delivery.
    event.message.reset();
  }
}

void Simulator::deliverSend(ProcessId from, ProcessId to, MessagePtr msg) {
  if (to >= processes_.size())
    throw std::out_of_range("send to unknown process");
  if (processes_[from].crashed) return;

  ++messagesSent_;
  if (!processes_[from].faulty) ++messagesSentByCorrect_;

  scratchDelays_.clear();
  if (from == to) {
    // Self-delivery is always reliable and prompt.
    scratchDelays_.push_back(1);
  } else {
    network_->plan(from, to, now_, networkRng_, scratchDelays_);
  }
  if (scratchDelays_.empty()) {
    ++messagesDropped_;
    return;
  }
  messagesDuplicated_ += scratchDelays_.size() - 1;

  for (std::size_t i = 0; i < scratchDelays_.size(); ++i) {
    SimEvent event;
    event.at = now_ + std::max<Tick>(1, scratchDelays_[i]);
    event.kind = SimEvent::Kind::kDeliver;
    event.cause = currentCause_;
    event.target = to;
    event.from = from;
    event.targetIncarnation = processes_[to].incarnation;
    // Duplication-fault copies alias the payload: an extra delivery is an
    // extra ref, never a deep copy.
    event.message = i + 1 < scratchDelays_.size() ? msg : std::move(msg);
    queue_.push(std::move(event));
  }
}

void Simulator::observe(const SimEvent& event) {
  // The observed-stream index doubles as the causal parent for everything
  // this event's handler schedules (the handler runs right after this
  // observation, see run()).
  const std::uint64_t index = observedSeq_++;
  currentCause_ = index;
  TraceEvent out;
  out.at = event.at;
  switch (event.kind) {
    case SimEvent::Kind::kStart:
      out.kind = TraceEvent::Kind::kStart;
      out.a = event.target;
      break;
    case SimEvent::Kind::kDeliver:
      out.kind = TraceEvent::Kind::kDeliver;
      out.a = event.target;
      out.b = event.from;
      break;
    case SimEvent::Kind::kTimer:
      out.kind = TraceEvent::Kind::kTimer;
      // kNoTimerOwner and kNoTraceProcess are the same sentinel value, so a
      // cancelled timer maps straight through.
      out.a = timerOwnerOf(event.timer);
      out.aux = event.timer;
      break;
    case SimEvent::Kind::kControl:
      out.kind = TraceEvent::Kind::kControl;
      break;
    case SimEvent::Kind::kCrash:
      out.kind = TraceEvent::Kind::kCrash;
      out.a = event.target;
      // The incarnation that is dying. Every committed golden crashes at
      // incarnation 0, so stamping this stays byte-compatible with them.
      out.aux = processes_[event.target].incarnation;
      break;
    case SimEvent::Kind::kRestart:
      out.kind = TraceEvent::Kind::kRestart;
      out.a = event.target;
      // The incarnation the process is about to enter (bumped when the
      // event executes, right after this observation).
      out.aux = processes_[event.target].incarnation + 1;
      break;
    case SimEvent::Kind::kBarrier:
      out.kind = TraceEvent::Kind::kBarrier;
      break;
  }
  observer_->onEvent(out);
  // Payload text is rendered only on demand: describe() allocates and
  // formats, which the hot path skips entirely unless this observer opted
  // in (trace recording and the checker do not).
  if (event.kind == SimEvent::Kind::kDeliver && observer_->wantsMessageText())
    observer_->onMessageText(event.message->describe());
  if (observer_->wantsCausality())
    observer_->onCausal(CausalStamp{index, event.cause});
}

TimerId Simulator::armTimer(ProcessId id, Tick delay) {
  const TimerId timer = nextTimer_++;
  ++timersArmed_;
  // Invariant: timerBase_ + timerOwner_.size() == nextTimer_ - 1 held on
  // entry, so the new timer's slot is exactly the back of the table.
  timerOwner_.push_back(id);
  ++pendingTimers_;
  SimEvent event;
  event.at = now_ + std::max<Tick>(1, delay);
  event.kind = SimEvent::Kind::kTimer;
  event.cause = currentCause_;
  event.timer = timer;
  queue_.push(std::move(event));
  return timer;
}

ProcessId Simulator::timerOwnerOf(TimerId id) const noexcept {
  if (id < timerBase_) return kNoTimerOwner;
  const auto index = static_cast<std::size_t>(id - timerBase_);
  return index < timerOwner_.size() ? timerOwner_[index] : kNoTimerOwner;
}

void Simulator::releaseTimer(TimerId id) noexcept {
  const auto index = static_cast<std::size_t>(id - timerBase_);
  timerOwner_[index] = kNoTimerOwner;
  --pendingTimers_;
  if (pendingTimers_ == 0) {
    // Whole window dead: restart it empty at the next id.
    timerBase_ += timerOwner_.size();
    timerOwner_.clear();
    deadPrefix_ = 0;
    return;
  }
  if (index == deadPrefix_) {
    do {
      ++deadPrefix_;
    } while (deadPrefix_ < timerOwner_.size() &&
             timerOwner_[deadPrefix_] == kNoTimerOwner);
    // Trim in batches once the dead prefix dominates, so the trim's O(live)
    // move amortizes to O(1) per release and the table tracks the live id
    // span instead of the run's total timer churn.
    if (deadPrefix_ >= 512 && deadPrefix_ >= timerOwner_.size() / 2) {
      timerOwner_.erase(timerOwner_.begin(),
                        timerOwner_.begin() +
                            static_cast<std::ptrdiff_t>(deadPrefix_));
      timerBase_ += deadPrefix_;
      deadPrefix_ = 0;
    }
  }
}

void Simulator::disarmTimer(TimerId id) noexcept {
  if (timerOwnerOf(id) == kNoTimerOwner) return;
  releaseTimer(id);
  ++timersCancelled_;
}

void Simulator::purgeTimersOf(ProcessId id) noexcept {
  // Cold path (crash handling): mark in place, compact once at the end to
  // keep this loop safe against releaseTimer's batched trims.
  for (std::size_t i = deadPrefix_; i < timerOwner_.size(); ++i) {
    if (timerOwner_[i] == id) {
      timerOwner_[i] = kNoTimerOwner;
      --pendingTimers_;
      ++timersPurgedOnCrash_;
    }
  }
  if (pendingTimers_ == 0) {
    timerBase_ += timerOwner_.size();
    timerOwner_.clear();
    deadPrefix_ = 0;
  } else {
    while (deadPrefix_ < timerOwner_.size() &&
           timerOwner_[deadPrefix_] == kNoTimerOwner)
      ++deadPrefix_;
  }
}

void Simulator::recordDecision(ProcessId id, Value v) {
  Decision& decision = decisions_[id];
  // Decisions are irrevocable: repeats are ignored here. A restarted
  // process re-deciding a DIFFERENT value (committed-entry regression) is
  // caught by the harness-level decision-history monitors, which see every
  // incarnation's announcement (see RaftConsensus::decisionHistory).
  if (decision.decided) return;
  if (awaited(id)) --awaitedCount_;
  decision.decided = true;
  decision.value = v;
  decision.at = now_;
  OOC_DEBUG("p", id, " decided ", v, " at tick ", now_);
  if (observer_) {
    TraceEvent out;
    out.at = now_;
    out.kind = TraceEvent::Kind::kDecision;
    out.a = id;
    out.aux = static_cast<std::uint64_t>(v);
    observer_->onEvent(out);
    // The decision occupies its own slot in the observed stream, caused by
    // the event whose handler called decide(). currentCause_ is left
    // pointing at that handler event: anything else the handler schedules
    // is caused by the event, not by the decision announcement.
    if (observer_->wantsCausality())
      observer_->onCausal(CausalStamp{observedSeq_++, currentCause_});
    else
      ++observedSeq_;
  }

  if (processes_[id].faulty) return;  // Byzantine claims are not checked

  if (!validValues_.empty() &&
      std::find(validValues_.begin(), validValues_.end(), v) ==
          validValues_.end()) {
    validityViolated_ = true;
  }
  for (ProcessId other = 0; other < processes_.size(); ++other) {
    if (other == id || processes_[other].faulty) continue;
    if (decisions_[other].decided && decisions_[other].value != v) {
      agreementViolated_ = true;
    }
  }
}

bool Simulator::crashed(ProcessId id) const { return processes_.at(id).crashed; }

std::uint32_t Simulator::incarnation(ProcessId id) const {
  return processes_.at(id).incarnation;
}
bool Simulator::faulty(ProcessId id) const { return processes_.at(id).faulty; }

const Simulator::Decision& Simulator::decision(ProcessId id) const {
  return decisions_.at(id);
}

bool Simulator::allCorrectDecided() const { return awaitedCount_ == 0; }

std::size_t Simulator::correctDecisionCount() const {
  std::size_t count = 0;
  for (ProcessId id = 0; id < processes_.size(); ++id)
    if (!processes_[id].faulty && decisions_[id].decided) ++count;
  return count;
}

Process& Simulator::process(ProcessId id) { return *processes_.at(id).process; }

}  // namespace ooc
