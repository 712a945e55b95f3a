// The object roles of the decomposition framework (paper §2–§3).
//
// A consensus round is detect-then-drive:
//   * an AgreementDetector (adopt-commit or vacillate-adopt-commit) observes
//     the system and reports how close it is to agreement;
//   * a Driver (conciliator or reconciliator) shakes the preferences so a
//     later round can commit.
//
// Both roles are distributed objects: one invocation spans message exchanges
// among all processes. The library represents an invocation as a per-process
// *instance* that is fed the messages addressed to it (the hosting
// ConsensusProcess tags and routes messages by (round, stage)) and exposes a
// poll-style result(). Instances are single-use: one object per process per
// round.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "core/confidence.hpp"
#include "sim/message.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace ooc {

/// Communication surface handed to object instances. Messages sent here are
/// automatically tagged with the hosting process's (round, stage) and routed
/// to the peer instance of the same object.
class ObjectContext {
 public:
  virtual ~ObjectContext() = default;

  virtual ProcessId self() const noexcept = 0;
  virtual std::size_t processCount() const noexcept = 0;
  virtual Tick now() const noexcept = 0;
  virtual Rng& rng() noexcept = 0;

  /// Mirrors Context::post/fanout: the inner payload is enveloped once and
  /// the envelope shared across recipients — zero per-recipient copies.
  virtual void post(ProcessId to, MessagePtr inner) = 0;
  virtual void fanout(MessagePtr inner) = 0;

  virtual TimerId setTimer(Tick delay) = 0;
  virtual void cancelTimer(TimerId id) noexcept = 0;
};

/// Detector role: adopt-commit (never returns vacillate) or
/// vacillate-adopt-commit. Contracts (paper §2):
///   Validity     — returned values are some process's input.
///   Termination  — result() becomes non-empty after finitely many steps.
///   Convergence  — unanimous input v  =>  everyone gets (commit, v).
///   Coherence over adopt & commit — someone got (commit, u) => everyone
///     got (commit, u) or (adopt, u).
///   Coherence over vacillate & adopt (VAC only) — nobody committed and
///     someone got (adopt, u) => everyone got (adopt, u) or (vacillate, *).
class AgreementDetector {
 public:
  AgreementDetector() = default;
  AgreementDetector(const AgreementDetector&) = delete;
  AgreementDetector& operator=(const AgreementDetector&) = delete;
  virtual ~AgreementDetector() = default;

  /// Starts the invocation with input `v`. Called exactly once.
  virtual void invoke(ObjectContext& ctx, Value v) = 0;

  /// Feeds a message addressed to this instance.
  virtual void onMessage(ObjectContext& ctx, ProcessId from,
                         const Message& inner) = 0;

  /// Lockstep tick barrier (synchronous objects only).
  virtual void onTick(ObjectContext& /*ctx*/, Tick /*tick*/) {}

  virtual void onTimer(ObjectContext& /*ctx*/, TimerId /*id*/) {}

  /// Non-empty once the invocation has returned.
  virtual std::optional<Outcome> result() const = 0;
};

/// Driver role: conciliator (probabilistic agreement: with probability > 0
/// all invokers return the same value) or reconciliator (weak agreement:
/// with probability 1, eventually all invokers of some round share a value
/// consistent with that round's adopt values).
class Driver {
 public:
  Driver() = default;
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;
  virtual ~Driver() = default;

  /// Starts the invocation. `detected` is this process's outcome from the
  /// detect step of the same round (the template's (X, sigma)).
  virtual void invoke(ObjectContext& ctx, const Outcome& detected) = 0;

  virtual void onMessage(ObjectContext& ctx, ProcessId from,
                         const Message& inner) = 0;
  virtual void onTick(ObjectContext& /*ctx*/, Tick /*tick*/) {}
  virtual void onTimer(ObjectContext& /*ctx*/, TimerId /*id*/) {}

  virtual std::optional<Value> result() const = 0;
};

/// Factories instantiate the per-round, per-process object instances. The
/// round number is the template's phase argument `m` (1-based); objects like
/// Phase-King's conciliator derive the round's king from it.
using DetectorFactory =
    std::function<std::unique_ptr<AgreementDetector>(Round m)>;
using DriverFactory = std::function<std::unique_ptr<Driver>(Round m)>;

}  // namespace ooc
