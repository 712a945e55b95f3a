// Rotating-coordinator reconciliator (Chandra–Toueg, consumed through the
// compose registry's oracle role). Slot-compatible with the coin and timer
// reconciliators: one instance per process per round, fed its round's
// messages by the hosting ConsensusProcess.
//
// Round m's coordinator is (m - 1) mod n. The coordinator fanouts a claim
// carrying its own detected value; every other invoker waits for the
// claim, periodically probing the oracle:
//
//   kEventualLeader (Ω / ◇S) — if the probe finds the coordinator
//     suspected, the invoker gives up on this round's coordinator and
//     returns its own value (the CT "move to the next round with your
//     current estimate" arm). Once the oracle stabilizes, the first round
//     whose coordinator is the commonly-trusted correct leader goes
//     unanimous, and the VAC detector commits in the next round — weak
//     agreement with probability 1, exactly the reconciliator contract.
//
//   kPerfect (P) — instead of falling back, the invoker *rotates past*
//     suspected candidates: the acting coordinator is the first
//     unsuspected id from (m-1) mod n onward, and whoever finds itself
//     acting claims. Sound only under strong accuracy (a live coordinator
//     is never skipped, so two claimants can never race); the registry
//     rejects this trust mode under ◇S/Ω with a §5-style diagnostic.
//
// Claims are trusted verbatim (crash model only) and fanned out as one
// shared payload.
#pragma once

#include <memory>
#include <optional>

#include "core/objects.hpp"
#include "fd/oracle.hpp"

namespace ooc::fd {

class CoordinatorReconciliator final : public Driver {
 public:
  enum class Trust {
    kEventualLeader,  // suspect => fall back to own value (CT)
    kPerfect,         // suspect => rotate to the next candidate
  };

  CoordinatorReconciliator(std::shared_ptr<const Oracle> oracle, Round round,
                           Trust trust, Tick probePeriod);

  void invoke(ObjectContext& ctx, const Outcome& detected) override;
  void onMessage(ObjectContext& ctx, ProcessId from,
                 const Message& inner) override;
  void onTimer(ObjectContext& ctx, TimerId id) override;
  std::optional<Value> result() const override { return value_; }

  static DriverFactory factory(std::shared_ptr<const Oracle> oracle,
                               Trust trust, Tick probePeriod = 8);

 private:
  /// The acting coordinator as this process sees it now: round-robin base
  /// for kEventualLeader; first unsuspected candidate for kPerfect.
  ProcessId candidate(ObjectContext& ctx) const;
  void claimOrProbe(ObjectContext& ctx);

  std::shared_ptr<const Oracle> oracle_;
  Round round_;
  Trust trust_;
  Tick probePeriod_;
  Value own_ = kNoValue;
  bool invoked_ = false;
  std::optional<TimerId> timer_;
  std::optional<Value> claimed_;  // first claim heard (possibly pre-invoke)
  std::optional<Value> value_;
};

}  // namespace ooc::fd
