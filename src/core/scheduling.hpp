// Round-scheduling policies for the consensus template (ROADMAP item 3).
//
// The paper's Algorithm 1/2 loop is written as lockstep detect→drive
// rounds, but van Renesse's "Asynchronous Consensus Without Rounds" shows
// the round structure is incidental to correctness: what matters is that
// detector outcomes gate value updates, not that every process walks the
// same round at the same tick. The template therefore treats round
// advancement as a pluggable policy:
//
//   * lockstep      — the classic loop: an object's successor is invoked
//                     inline the moment it completes, courtesy drives block
//                     the round, and tick barriers are forwarded so
//                     synchronous objects stay on one exchange calendar.
//                     Byte-identical to the pre-policy engine (all committed
//                     goldens are pinned against it).
//   * event-driven  — successor activation is deferred to a fresh wakeup
//                     event instead of running inline, and no tick barrier
//                     is forwarded: each process advances on its own
//                     message-arrival cadence, so rounds skew across
//                     processes (Lynch–Sastry style asynchronous
//                     activation). Requires async-mode objects.
//   * ooo-driver    — out-of-order drives: a courtesy drive (one whose
//                     value the template will not use) detaches into a
//                     "loose" driver that keeps exchanging while the next
//                     round's detector is already live, pipelining the
//                     drive wave of round m under the detect wave of m+1.
//
// The policy is capability-gated by the composition registry (a lockstep
// detector cannot run under skew; the timer reconciliator's timeout race
// presumes round-aligned exchanges — see DESIGN.md §14) and serialized in
// scenarios, counterexamples, and service configs.
#pragma once

#include <optional>
#include <string>

namespace ooc {

enum class SchedulingPolicy {
  kLockstep,
  kEventDriven,
  kOooDriver,
};

const char* toString(SchedulingPolicy policy) noexcept;

/// Parses the wire names "lockstep", "event-driven", "ooo-driver";
/// nullopt on anything else.
std::optional<SchedulingPolicy> parseSchedulingPolicy(
    const std::string& name) noexcept;

// The three questions the hosting ConsensusProcess asks at each
// round-advancement decision point. They are pure functions of the policy:
// all scheduling state (live objects, buffered messages, pending wakeups)
// stays in the host.

/// Invoke a completed object's successor inline, within the event that
/// completed it. When false the host schedules a fresh wakeup event and
/// activates the successor there (event-driven skew).
constexpr bool advancesInline(SchedulingPolicy policy) noexcept {
  return policy != SchedulingPolicy::kEventDriven;
}

/// Detach courtesy drives (driver value unused by the template) into
/// loose drivers that run concurrently with the next round's detector.
constexpr bool detachesCourtesyDrives(SchedulingPolicy policy) noexcept {
  return policy == SchedulingPolicy::kOooDriver;
}

/// Forward lockstep tick barriers to live objects. Policies that drop
/// the barrier only compose with async-mode objects (registry-gated).
constexpr bool forwardsTickBarrier(SchedulingPolicy policy) noexcept {
  return policy != SchedulingPolicy::kEventDriven;
}

}  // namespace ooc
