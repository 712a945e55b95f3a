// The generic consensus template (paper §3, Algorithms 1 and 2).
//
// One ConsensusProcess instance is one processor executing:
//
//   Consensus(v):
//     m <- 0
//     while true:
//       m <- m + 1
//       (X, sigma) <- Detector(v, m)          // VAC or AC
//       switch X:
//         vacillate: v <- Driver(X, sigma, m)  // VAC template only
//         adopt:     v <- sigma                // (AC template: v <- Driver)
//         commit:    v <- sigma; decide sigma
//
// Differences from the raw pseudocode, both called out in DESIGN.md:
//  * decide records the decision with the simulator monitor and the process
//    keeps participating (the paper's §4.1 note; Lemma 1's agreement step
//    needs deciders in the next round's detector).
//  * With Options::alwaysRunDriver the drive step runs every round for every
//    process and its value is used only when the template says so. This is
//    required by lockstep algorithms (Phase-King's king broadcasts every
//    round, and all processes must stay tick-aligned), and matches the
//    original Phase-King where a committing processor observes the king but
//    keeps its own value.
//
// *When* the next object of the loop is invoked is not fixed by the
// template: three predicates of the SchedulingPolicy (core/scheduling.hpp)
// decide it. Under the default lockstep policy the loop above runs inline
// and tick-aligned, exactly as before the policy split; event-driven defers
// each activation to a fresh wakeup event (per-process round skew);
// ooo-driver detaches courtesy drives into "loose" drivers that keep
// exchanging while the next round's detector is already live (DESIGN.md
// §14).
//
// *Which* object an event reaches is fixed, by one routing rule (route()):
// a message, buffered message, timer or tick barrier addressed to (round,
// stage) reaches a live loose driver of that round, else the frontier
// object at that coordinate, else nothing. A timer is addressed to the
// object that armed it, so one left armed by a completed object reaches no
// later object.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "core/objects.hpp"
#include "core/scheduling.hpp"
#include "core/tagged_message.hpp"
#include "sim/process.hpp"

namespace ooc {

/// Which template is executed.
enum class TemplateKind {
  /// Algorithm 1: VAC detector; driver (reconciliator) value is used on
  /// vacillate; adopt/commit take the detector's value.
  kVacReconciliator,
  /// Algorithm 2: AC detector; driver (conciliator) value is used on adopt;
  /// commit takes the detector's value. Detectors must never return
  /// vacillate under this template (asserted).
  kAcConciliator,
};

/// Per-round record kept for property auditing and experiments.
struct RoundRecord {
  Value detectorInput = kNoValue;
  std::optional<Outcome> detectorOutcome;
  std::optional<Value> driverValue;
};

class ConsensusProcess final : public Process {
 public:
  struct Options {
    TemplateKind kind = TemplateKind::kVacReconciliator;
    /// Round-advancement policy (core/scheduling.hpp). The default
    /// reproduces the classic inline lockstep loop byte-for-byte.
    SchedulingPolicy scheduling = SchedulingPolicy::kLockstep;
    /// Run the drive step every round regardless of the detector outcome
    /// (lockstep algorithms); the template still only *uses* the driver's
    /// value when the outcome calls for it.
    bool alwaysRunDriver = false;
    /// 0: decide when the detector commits (the paper's rule). Non-zero:
    /// decide the currently held value once this many rounds have
    /// completed, and never on commit (classic Phase-King: t+1 phases).
    /// Algorithms whose drivers lack validity under faults need the fixed
    /// round — with a Byzantine king, Phase-King's conciliator can hand
    /// adopters a value different from a just-committed one, breaking
    /// agreement (see EXPERIMENTS.md, "the early-decision gap").
    Round decideAfterRound = 0;
    /// Safety cap: after this many rounds the process stops participating
    /// (reported as non-termination by the harness).
    Round maxRounds = 100000;
    /// After deciding, keep participating for this many further rounds,
    /// then retire (stop sending and consuming). 0 = participate forever
    /// (the default; single-shot runs are stopped by the simulator once
    /// everyone decided). For Ben-Or-style detectors 1 extra round is
    /// enough: a commit in round m makes every correct process decide by
    /// round m+1 (used by the multi-slot replicated log, where instances
    /// must quiesce on their own).
    Round participateRoundsAfterDecide = 0;
    /// Telemetry taps (may be empty). Invoked the moment a round's
    /// detector/driver invocation returns, with the simulated tick — the
    /// live counterpart of the post-run rounds() record, used for metric
    /// collection and timeline annotation. Observation only: taps must not
    /// send, arm timers, or otherwise touch the run.
    std::function<void(Round, const Outcome&, Tick)> onDetectorOutcome;
    std::function<void(Round, Value, Tick)> onDriverValue;
  };

  ConsensusProcess(Value input, DetectorFactory detectorFactory,
                   DriverFactory driverFactory, Options options);
  ~ConsensusProcess() override;

  void onStart() override;
  void onMessage(ProcessId from, const Message& message) override;
  void onTimer(TimerId id) override;
  void onTick(Tick tick) override;

  // --- observations --------------------------------------------------------
  bool decided() const noexcept { return decided_; }
  Value decisionValue() const noexcept { return decisionValue_; }
  /// Round in which this process decided (valid when decided()).
  Round decisionRound() const noexcept { return decisionRound_; }
  /// Round currently being executed (1-based; 0 before start).
  Round currentRound() const noexcept { return round_; }
  bool exhaustedRounds() const noexcept { return exhausted_; }
  /// One record per completed or in-progress round, index m-1.
  const std::vector<RoundRecord>& rounds() const noexcept { return rounds_; }

  SchedulingPolicy schedulingPolicy() const noexcept {
    return options_.scheduling;
  }
  /// Rounds whose detector was invoked while a loose driver of an earlier
  /// round was still live — the structural witness of out-of-order
  /// scheduling. Always 0 under lockstep and event-driven (they never
  /// detach drives).
  std::uint64_t overlapWitnesses() const noexcept { return overlapWitnesses_; }
  /// Activations handed to a fresh wakeup event instead of running inline.
  /// Always 0 under lockstep and ooo-driver.
  std::uint64_t deferredActivations() const noexcept {
    return deferredActivations_;
  }
  /// Loose (detached courtesy) drivers still exchanging.
  std::size_t looseDriversLive() const noexcept { return loose_.size(); }
  /// Future-round messages currently buffered / high-water mark / dropped
  /// because they could never be consumed before post-decide retirement
  /// (the bounded-buffer rule; see dispatch()).
  std::size_t bufferedCount() const noexcept { return buffered_.size(); }
  std::size_t bufferedPeak() const noexcept { return bufferedPeak_; }
  std::uint64_t bufferedDropped() const noexcept { return bufferedDropped_; }

 private:
  class ObjectContextImpl;
  struct BufferedMessage {
    Round round;
    Stage stage;
    ProcessId from;
    /// Shared with the in-flight envelope — buffering never copies.
    MessagePtr inner;
  };
  /// A detached courtesy drive (ooo-driver policy): keeps exchanging for
  /// its own round while the frontier has already moved on. Its value is
  /// never used — the template only detaches drives whose value it would
  /// discard anyway.
  struct LooseDriver {
    Round round;
    Tick invokedAt;
    std::unique_ptr<Driver> driver;
  };
  /// What a scheduled wakeup event will do (event-driven policy).
  enum class PendingWake { kNone, kBeginRound, kInvokeDriver };

  /// The one routing rule: hands the object addressed by (round, stage) to
  /// `call` — a live loose driver of `round` for a drive coordinate, else
  /// the frontier object when (round, stage) is the frontier. Returns false
  /// when no live object has that coordinate; true also when the frontier
  /// object there already completed (`call` is then not invoked).
  template <typename Call>
  bool route(Round round, Stage stage, Call&& call);
  void beginRound();
  /// Advances through completed objects until blocked on communication.
  void pump();
  void dispatch(ProcessId from, const TaggedMessage& tagged);
  void replayBuffered();
  void invokeFrontierDriver(const Outcome& outcome);
  void launchLooseDriver(const Outcome& outcome);
  void pollLooseDrivers();
  void scheduleWakeup(PendingWake pending);
  void onWakeup();
  void pruneBufferedAfterDecide();
  void noteTimerOwner(TimerId id);
  void dropTimerOwner(TimerId id) noexcept;
  bool takeTimerOwner(TimerId id, Round& round, Stage& stage) noexcept;

  Value value_;
  DetectorFactory detectorFactory_;
  DriverFactory driverFactory_;
  Options options_;

  std::unique_ptr<ObjectContextImpl> objectContext_;
  std::unique_ptr<AgreementDetector> detector_;
  std::unique_ptr<Driver> driver_;
  std::vector<LooseDriver> loose_;

  Round round_ = 0;
  Stage stage_ = Stage::kDetect;
  /// Coordinates of the object currently being called into: outbound
  /// messages and armed timers are attributed to it. Under lockstep this
  /// always equals (round_, stage_); with loose drivers it may lag.
  Round activeRound_ = 0;
  Stage activeStage_ = Stage::kDetect;
  /// Ticks at which the current objects were invoked: a lockstep barrier for
  /// tick T must not reach an object invoked at T (its exchange calendar
  /// starts at the next barrier).
  Tick detectorInvokedAt_ = 0;
  Tick driverInvokedAt_ = 0;
  /// Whether the current driver's value will be adopted when it completes.
  bool useDriverValue_ = false;
  bool decided_ = false;
  Value decisionValue_ = kNoValue;
  Round decisionRound_ = 0;
  bool exhausted_ = false;

  PendingWake pending_ = PendingWake::kNone;
  std::optional<Outcome> pendingOutcome_;
  std::optional<TimerId> wakeTimer_;
  /// Timer ownership by (round, stage): onTimer routes each timer to the
  /// coordinate of the object that armed it.
  std::vector<std::tuple<TimerId, Round, Stage>> timerOwners_;

  std::uint64_t overlapWitnesses_ = 0;
  std::uint64_t deferredActivations_ = 0;
  std::size_t bufferedPeak_ = 0;
  std::uint64_t bufferedDropped_ = 0;

  std::vector<RoundRecord> rounds_;
  std::vector<BufferedMessage> buffered_;
};

}  // namespace ooc
