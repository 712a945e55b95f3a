// Process and Context: the API every simulated protocol is written against.
#pragma once

#include "sim/message.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ooc {

/// Per-process view of the simulation, provided by the Simulator when the
/// process is bound. All side effects of a protocol flow through it.
class Context {
 public:
  virtual ~Context() = default;

  virtual ProcessId self() const noexcept = 0;
  virtual std::size_t processCount() const noexcept = 0;
  virtual Tick now() const noexcept = 0;

  /// Per-process deterministic random stream (split from the run seed).
  virtual Rng& rng() noexcept = 0;

  /// Sends `msg` to `to` (which may be self()). Delivery is decided by the
  /// run's NetworkModel, except self-sends which are always delivered after
  /// one tick (a process can always talk to itself). The payload is
  /// enqueued without copying: build it with makeMessage<T>(...).
  virtual void post(ProcessId to, MessagePtr msg) = 0;

  /// Sends `msg` to every process, including the sender — the paper's
  /// "send <v> to all". One refcounted payload reaches every recipient.
  virtual void fanout(MessagePtr msg) = 0;

  /// Arms a one-shot timer firing after `delay` ticks (>= 1).
  virtual TimerId setTimer(Tick delay) = 0;
  virtual void cancelTimer(TimerId id) noexcept = 0;

  /// Reports this process's irrevocable consensus decision to the run's
  /// monitor. Per the paper (§4.1) processes keep participating after
  /// deciding; the monitor uses these reports for agreement/validity checks
  /// and for the all-decided stop condition.
  virtual void decide(Value v) = 0;

  /// This process's incarnation: 0 until its first crash-restart, then +1
  /// per restart. Messages addressed to a previous incarnation are dropped
  /// by the simulator before delivery.
  virtual std::uint32_t incarnation() const noexcept { return 0; }
};

/// Base class of every simulated processor. Handlers run atomically: the
/// simulator never interleaves two handler invocations of any processes
/// (single-threaded discrete-event execution), so protocols need no locks.
class Process {
 public:
  Process() = default;
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  virtual ~Process() = default;

  /// Called by the simulator before the run starts.
  void bind(Context& context) noexcept { context_ = &context; }

  /// Invoked once at tick 0, before any message can arrive.
  virtual void onStart() {}

  /// Invoked for every delivered message.
  virtual void onMessage(ProcessId from, const Message& message) = 0;

  /// Invoked when a timer armed via Context::setTimer fires.
  virtual void onTimer(TimerId /*id*/) {}

  /// Lockstep barrier: in synchronous runs, invoked at every tick after all
  /// of that tick's messages were delivered. Synchronous protocols do their
  /// per-exchange computation here.
  virtual void onTick(Tick /*tick*/) {}

  /// Invoked at the crash tick of a crash-restart (Simulator::restartAt),
  /// after the simulator purged this process's timers and before any
  /// further handler runs. This is where simulated stable storage applies
  /// its loss model (unsynced writes vanish, fault injection may tear the
  /// tail or corrupt a record). Volatile protocol state need not be touched
  /// here — onRestart() resets it.
  virtual void onCrash() {}

  /// Invoked at the restart tick, under the new incarnation. The process
  /// must discard all volatile state and re-initialize from whatever its
  /// stable storage recovers. The default treats a restart as a fresh boot
  /// (correct for stateless or non-durable processes).
  virtual void onRestart() { onStart(); }

 protected:
  Context& ctx() noexcept { return *context_; }
  const Context& ctx() const noexcept { return *context_; }

 private:
  Context* context_ = nullptr;
};

}  // namespace ooc
