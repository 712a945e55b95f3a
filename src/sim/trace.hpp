// Schedule traces: a compact record of every event the simulator's
// scheduler executed, plus every decision reported to the run monitor.
//
// Because a run is a pure function of (configuration, seed), a trace is not
// needed to *steer* a replay — re-executing the same configuration
// regenerates the same schedule. The trace's job is verification and
// diagnosis: a TraceVerifier attached to the replay proves, event for
// event, that the re-execution is bit-identical to the recorded run (and
// pinpoints the first divergence if a platform or code change broke
// determinism). The model checker (src/check/) serializes traces of
// violating runs next to their configurations so counterexamples travel as
// standalone files.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/run_arena.hpp"
#include "util/types.hpp"

namespace ooc {

/// One executed scheduler event (or reported decision), in execution order.
/// Field meaning by kind:
///   kStart    — a: started process
///   kDeliver  — a: receiver, b: sender
///   kTimer    — a: owner (kNoTraceProcess if the timer was cancelled),
///               aux: timer id
///   kControl  — (none)
///   kBarrier  — lockstep tick barrier
///   kDecision — a: decider, aux: decided value (bit-copied)
///   kCrash    — a: process crashing with a scheduled restart,
///               aux: the incarnation that dies with it
///   kRestart  — a: restarting process, aux: its new incarnation number
struct TraceEvent {
  enum class Kind : std::uint8_t {
    kStart,
    kDeliver,
    kTimer,
    kControl,
    kBarrier,
    kDecision,
    kCrash,
    kRestart,
  };

  Tick at = 0;
  Kind kind = Kind::kControl;
  ProcessId a = 0;
  ProcessId b = 0;
  std::uint64_t aux = 0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Sentinel owner for timer events whose timer had been cancelled.
inline constexpr ProcessId kNoTraceProcess = static_cast<ProcessId>(-1);

/// Sentinel causal parent for root events (initial starts, pre-run fault
/// and control injections): nothing the scheduler executed caused them.
inline constexpr std::uint64_t kNoCausalParent = ~std::uint64_t{0};

/// Causal annotation for one observed event. `index` is the event's
/// position in the observed stream (identical to its index in a recorded
/// Trace's events vector, decisions included); `cause` is the index of the
/// event whose handler scheduled it: a delivery points at the event whose
/// handler sent the message, a timer fire at the event whose handler armed
/// the timer, a decision at the event whose handler called decide(), a
/// barrier at the previous barrier. Stamps are a pure function of the
/// schedule, so they are as deterministic as the trace itself.
struct CausalStamp {
  std::uint64_t index = 0;
  std::uint64_t cause = kNoCausalParent;

  friend bool operator==(const CausalStamp&, const CausalStamp&) = default;
};

/// A full run trace: the executed event sequence plus the run's end-of-run
/// counters (filled in by whoever drove the run; see sim/simulator.hpp).
struct Trace {
  std::vector<TraceEvent> events;
  std::uint64_t messagesSent = 0;
  std::uint64_t messagesDelivered = 0;
  std::uint64_t eventsProcessed = 0;
  Tick endTick = 0;

  friend bool operator==(const Trace&, const Trace&) = default;
};

/// Scheduler hook: the simulator reports every executed event (and every
/// decision) to an attached observer, in deterministic execution order.
class ScheduleObserver {
 public:
  virtual ~ScheduleObserver() = default;
  virtual void onEvent(const TraceEvent& event) = 0;

  /// Opt-in to human-readable payload text. Message::describe() builds a
  /// string per delivery, which the hot path cannot afford — so the
  /// simulator renders it only when an attached observer returns true here
  /// (it is queried once per delivery, before describe() is called).
  virtual bool wantsMessageText() const noexcept { return false; }

  /// Delivered right after the kDeliver onEvent() it annotates, only when
  /// wantsMessageText() — carries Message::describe() of the payload.
  virtual void onMessageText(const std::string& /*text*/) {}

  /// Opt-in to causal stamps. When true, every onEvent() is followed by an
  /// onCausal() carrying the event's stream index and scheduling parent.
  /// The stamping bookkeeping runs whether or not any observer opts in (a
  /// single integer copy per push), so the schedule — and therefore every
  /// recorded trace — is byte-identical with the channel on or off.
  virtual bool wantsCausality() const noexcept { return false; }

  /// Delivered right after the onEvent() it annotates, only when
  /// wantsCausality().
  virtual void onCausal(const CausalStamp& /*stamp*/) {}
};

/// Observer that appends every event to a Trace. The event buffer is
/// checked out of the thread-local run arena (sim/run_arena.hpp) and
/// recycled on destruction, so back-to-back recorded runs on one sweep
/// worker reuse a warm buffer; a trace moved out of the recorder leaves a
/// capacity-0 vector behind, which recycle() drops.
class TraceRecorder final : public ScheduleObserver {
 public:
  TraceRecorder() {
    trace_.events = run_arena::checkout<std::vector<TraceEvent>>();
  }
  ~TraceRecorder() override { run_arena::recycle(std::move(trace_.events)); }

  void onEvent(const TraceEvent& event) override {
    trace_.events.push_back(event);
  }

  Trace& trace() noexcept { return trace_; }
  const Trace& trace() const noexcept { return trace_; }

 private:
  Trace trace_;
};

/// Observer that checks a live run against a recorded trace. The run is
/// bit-identical iff ok() after the run: every event matched and exactly
/// the recorded number of events occurred.
class TraceVerifier final : public ScheduleObserver {
 public:
  explicit TraceVerifier(const Trace& expected) noexcept
      : expected_(expected) {}

  void onEvent(const TraceEvent& event) override;

  /// Events seen so far.
  std::size_t position() const noexcept { return position_; }
  /// True when every event matched and the full trace was consumed.
  bool ok() const noexcept {
    return !divergence_ && position_ == expected_.events.size();
  }
  /// Human-readable description of the first mismatch (if any).
  const std::optional<std::string>& divergence() const noexcept {
    return divergence_;
  }

 private:
  const Trace& expected_;
  std::size_t position_ = 0;
  std::optional<std::string> divergence_;
};

/// One-line rendering of an event, e.g. "D @12 a=3 b=1" (diagnostics).
std::string toString(const TraceEvent& event);

/// Text (de)serialization of the trace section used inside counterexample
/// files: an `events N` header, one `e <at> <kind> <a> <b> <aux>` line per
/// event, then a `stats` line. parseTrace consumes exactly that section.
void serializeTrace(const Trace& trace, std::ostream& out);
Trace parseTrace(std::istream& in);  // throws std::runtime_error on bad input

}  // namespace ooc
