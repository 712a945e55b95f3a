// Deterministic discrete-event simulator for message-passing protocols.
//
// A run is a pure function of (configuration, seed): events are ordered by
// (tick, phase, sequence-number), all randomness derives from the run seed,
// and handler execution is single-threaded. Synchronous (lockstep) protocols
// enable tick barriers: after all messages of a tick are delivered, every
// alive process receives onTick, which is where per-exchange computation of
// algorithms like Phase-King happens.
//
// The simulator doubles as the consensus run monitor: processes report
// decisions through Context::decide, and the simulator checks agreement and
// validity online and provides the customary "all correct processes have
// decided" stop condition.
//
// Hot-path layout (see DESIGN.md §8): events live in a tick-bucketed
// calendar queue (sim/event_queue.hpp) instead of a binary heap, payloads
// are refcounted and shared across fan-out and duplication (sim/message.hpp)
// so the non-fault delivery path performs zero message copies, timer
// ownership is a dense windowed table instead of a hash map, and trace text
// (Message::describe) is rendered only for observers that opted in.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/process.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ooc {

struct SimConfig {
  std::uint64_t seed = 1;
  /// Enables per-tick barriers (synchronous model).
  bool lockstep = false;
  /// Hard caps; exceeding either aborts the run and sets hitCap().
  Tick maxTicks = 1'000'000;
  std::uint64_t maxEvents = 50'000'000;
};

class Simulator final {
 public:
  struct Decision {
    bool decided = false;
    Value value = kNoValue;
    Tick at = 0;
  };

  Simulator(SimConfig config, std::unique_ptr<NetworkModel> network);
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Registers a processor; returns its id (assigned densely from 0).
  /// `faulty` marks a Byzantine processor: its decisions and inputs are
  /// excluded from agreement/validity checks and from allCorrectDecided().
  ProcessId addProcess(std::unique_ptr<Process> process, bool faulty = false);

  /// Declares the set of legal decision values (the correct processes'
  /// inputs). When set, any decision outside it flags validityViolated().
  void setValidValues(std::vector<Value> values);

  /// Schedules a crash: from `tick` on, the process executes no handlers,
  /// receives no messages, and sends nothing.
  void crashAt(ProcessId id, Tick tick);

  /// Schedules a crash at `crashTick` followed by a restart `downtime` ticks
  /// later. At the crash the process gets onCrash() (where durable storage
  /// applies its loss model), every timer it owns is purged, and all handlers
  /// stop. At the restart its incarnation number is bumped, onRestart() runs
  /// (volatile state reset + recovery from stable storage), and messages sent
  /// to the previous incarnation that are still in flight are discarded as
  /// stale at delivery time. Both transitions appear in recorded traces.
  void restartAt(ProcessId id, Tick crashTick, Tick downtime);

  /// Schedules an arbitrary control action (e.g. partition changes).
  void schedule(Tick tick, std::function<void()> action);

  /// Stops the run when `predicate(*this)` is true (checked after every
  /// event). Without a predicate the run ends when the event queue drains
  /// or a cap is hit.
  void setStopPredicate(std::function<bool(const Simulator&)> predicate);

  /// Convenience: stop once every correct (non-faulty, non-crashed) process
  /// has decided.
  void stopWhenAllCorrectDecided();

  /// Attaches a scheduler observer (non-owning; must outlive the run): every
  /// executed event and every reported decision is mirrored to it in
  /// deterministic execution order. Used for trace record/replay. Observers
  /// wanting rendered payload text opt in via wantsMessageText().
  void setScheduleObserver(ScheduleObserver* observer) noexcept {
    observer_ = observer;
  }

  /// Executes the run. May be called once.
  void run();

  // --- queries (valid during and after run) -------------------------------
  Tick now() const noexcept { return now_; }
  std::size_t processCount() const noexcept { return processes_.size(); }
  bool crashed(ProcessId id) const;
  bool faulty(ProcessId id) const;
  const Decision& decision(ProcessId id) const;
  /// True when every non-faulty, non-crashed process has decided.
  bool allCorrectDecided() const;
  /// Count of correct (non-faulty) processes that have decided (crashed
  /// processes' pre-crash decisions count).
  std::size_t correctDecisionCount() const;
  bool agreementViolated() const noexcept { return agreementViolated_; }
  bool validityViolated() const noexcept { return validityViolated_; }
  bool hitCap() const noexcept { return hitCap_; }
  std::uint64_t messagesSent() const noexcept { return messagesSent_; }
  std::uint64_t messagesSentByCorrect() const noexcept {
    return messagesSentByCorrect_;
  }
  std::uint64_t messagesDelivered() const noexcept {
    return messagesDelivered_;
  }
  /// Sends whose network plan produced no delivery (loss or partition).
  std::uint64_t messagesDropped() const noexcept { return messagesDropped_; }
  /// Extra delivery copies beyond the first (network duplication). The
  /// copies share one payload — duplication adds refs, not deep copies.
  std::uint64_t messagesDuplicated() const noexcept {
    return messagesDuplicated_;
  }
  std::uint64_t eventsProcessed() const noexcept { return eventsProcessed_; }
  // Timer churn: armed counts every setTimer, cancelled every disarm of a
  // still-armed timer, fired every timer event that reached its owner.
  std::uint64_t timersArmed() const noexcept { return timersArmed_; }
  std::uint64_t timersCancelled() const noexcept { return timersCancelled_; }
  std::uint64_t timersFired() const noexcept { return timersFired_; }
  /// Restart bookkeeping: executed restart events, deliveries discarded
  /// because the target restarted after the send (stale incarnation), and
  /// armed timers purged at a crash.
  std::uint64_t restarts() const noexcept { return restarts_; }
  std::uint64_t messagesDroppedStale() const noexcept {
    return messagesDroppedStale_;
  }
  std::uint64_t timersPurgedOnCrash() const noexcept {
    return timersPurgedOnCrash_;
  }
  /// Incarnation number of a process: 0 until its first restart, then +1
  /// per restart.
  std::uint32_t incarnation(ProcessId id) const;
  /// Number of currently armed (not yet fired or cancelled) timers. Must
  /// stay bounded on long runs: disarming releases the bookkeeping
  /// immediately (the queue entry is dropped lazily when its tick arrives).
  std::size_t pendingTimerCount() const noexcept { return pendingTimers_; }

  /// The network model, for runtime reconfiguration from schedule() hooks.
  NetworkModel& network() noexcept { return *network_; }

  /// Randomness stream for harness-level choices (e.g. which process to
  /// crash), derived from the run seed.
  Rng& harnessRng() noexcept { return harnessRng_; }

  Process& process(ProcessId id);

 private:
  class ContextImpl;

  void observe(const SimEvent& event);
  void deliverSend(ProcessId from, ProcessId to, MessagePtr msg);
  void recordDecision(ProcessId id, Value v);
  TimerId armTimer(ProcessId id, Tick delay);
  void disarmTimer(TimerId id) noexcept;
  void purgeTimersOf(ProcessId id) noexcept;
  /// Owner of an armed timer, or kNoTimerOwner if fired/cancelled/unknown.
  ProcessId timerOwnerOf(TimerId id) const noexcept;
  /// Releases a timer slot (fire or cancel) and compacts the table when the
  /// window has gone fully or mostly dead.
  void releaseTimer(TimerId id) noexcept;
  bool shouldStop() const;
  /// True for a correct (non-faulty, non-crashed) process that has not
  /// decided yet: the processes allCorrectDecided() waits for.
  bool awaited(ProcessId id) const noexcept {
    return !processes_[id].faulty && !processes_[id].crashed &&
           !decisions_[id].decided;
  }

  SimConfig config_;
  std::unique_ptr<NetworkModel> network_;
  Rng networkRng_;
  Rng harnessRng_;

  struct Slot {
    std::unique_ptr<Process> process;
    std::unique_ptr<ContextImpl> context;
    Rng rng{0};
    bool faulty = false;
    bool crashed = false;
    std::uint32_t incarnation = 0;
  };
  std::vector<Slot> processes_;

  EventQueue queue_;
  /// Control-action bodies, referenced by index from kControl events so the
  /// event layout stays a flat value type (no std::function per event).
  /// Append-only for the run's duration; runs are finite.
  std::vector<std::function<void()>> controlActions_;

  std::uint64_t nextTimer_ = 1;
  /// Sentinel in timerOwner_ for slots whose timer fired or was cancelled.
  static constexpr ProcessId kNoTimerOwner = static_cast<ProcessId>(-1);
  /// Owner of every armed timer, as a dense window over timer ids: slot
  /// `id - timerBase_` holds the owner, kNoTimerOwner once released. Timer
  /// ids are never reused and each id gets exactly one queue event, so a
  /// released slot doubles as the cancellation tombstone. The window is
  /// compacted as leading slots die (releaseTimer), so it stays bounded by
  /// the armed-timer churn, like the hash map it replaces — minus the
  /// hashing on the hot path.
  std::vector<ProcessId> timerOwner_;
  TimerId timerBase_ = 1;
  /// Slots [0, deadPrefix_) of timerOwner_ are all released; advanced as
  /// front timers die and trimmed off in batches (amortized O(1)).
  std::size_t deadPrefix_ = 0;
  std::size_t pendingTimers_ = 0;

  Tick now_ = 0;
  bool started_ = false;
  bool hitCap_ = false;

  /// Causal bookkeeping: index the next observed event will get in the
  /// observed stream, and the index of the event currently dispatching
  /// (the causal parent stamped onto every push its handler makes).
  /// Outside any dispatch — i.e. during pre-run setup — currentCause_ is
  /// kNoCausalParent, making pre-run injections causal roots.
  std::uint64_t observedSeq_ = 0;
  std::uint64_t currentCause_ = kNoCausalParent;

  std::vector<Decision> decisions_;
  /// Processes for which awaited() holds, kept current at every add,
  /// decision, crash and restart so allCorrectDecided() is O(1).
  std::size_t awaitedCount_ = 0;
  std::vector<Value> validValues_;
  bool agreementViolated_ = false;
  bool validityViolated_ = false;

  std::uint64_t messagesSent_ = 0;
  std::uint64_t messagesSentByCorrect_ = 0;
  std::uint64_t messagesDelivered_ = 0;
  std::uint64_t messagesDropped_ = 0;
  std::uint64_t messagesDuplicated_ = 0;
  std::uint64_t eventsProcessed_ = 0;
  std::uint64_t timersArmed_ = 0;
  std::uint64_t timersCancelled_ = 0;
  std::uint64_t timersFired_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t messagesDroppedStale_ = 0;
  std::uint64_t timersPurgedOnCrash_ = 0;

  std::function<bool(const Simulator&)> stopPredicate_;
  std::vector<Tick> scratchDelays_;
  ScheduleObserver* observer_ = nullptr;
};

}  // namespace ooc
