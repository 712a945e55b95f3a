// Ben-Or's vacillate-adopt-commit object (paper §4.2, Algorithm 5).
//
// Asynchronous message-passing, t crash failures with t < n/2:
//
//   VAC(v, m):
//     send <1, v> to all; wait for n-t <1, *> messages
//     if more than n/2 of them carry the same value w: send <2, w, ratify>
//     else: send <2, ?>
//     wait for n-t <2, *> messages
//     if more than t <2, w, ratify>:      return (commit, w)
//     else if received any <2, w, ratify>: return (adopt, w)
//     else:                                return (vacillate, v)
//
// Counting is per distinct sender (a duplicated delivery must not inflate a
// tally). Reports that arrive before this process finished phase one are
// tallied immediately — the evaluation simply waits until our own report is
// sent and n-t reports are in; evaluating on more than n-t reports keeps
// every guarantee (the t+1-senders intersection argument only needs "at
// least n-t received").
//
// The tallies are one flat per-sender table, read once at each threshold:
// phase one finds the only value that can hold more than n/2 with a
// Boyer-Moore vote, and phase two commits the first value, in sender order,
// that more than t senders ratified (two such values cannot exist in a
// crash-only run: two phase-one majorities of n intersect).
#pragma once

#include <optional>
#include <vector>

#include "core/objects.hpp"

namespace ooc::benor {

class BenOrVac final : public AgreementDetector {
 public:
  /// `faultTolerance` is t, the number of tolerated crash failures; the
  /// object waits for quorums of (n - t). Requires 2t < n.
  explicit BenOrVac(std::size_t faultTolerance);

  void invoke(ObjectContext& ctx, Value v) override;
  void onMessage(ObjectContext& ctx, ProcessId from,
                 const Message& inner) override;
  std::optional<Outcome> result() const override { return outcome_; }

  /// Factory for the consensus template.
  static DetectorFactory factory(std::size_t faultTolerance);

 private:
  void maybeFinishPhaseOne(ObjectContext& ctx);
  void maybeFinish();

  std::size_t t_;
  Value input_ = kNoValue;
  bool invoked_ = false;
  bool reportSent_ = false;
  std::optional<Outcome> outcome_;

  /// What one sender said this round; the flags dedup its deliveries.
  struct Sender {
    Value proposal = kNoValue;
    Value ratified = kNoValue;  // meaningful only when `ratifies`
    bool proposed = false;
    bool reported = false;
    bool ratifies = false;
  };

  std::vector<Sender> senders_;  // indexed by ProcessId, sized n on invoke
  std::size_t proposalCount_ = 0;
  std::size_t reportCount_ = 0;
  std::optional<Value> anyRatified_;
};

}  // namespace ooc::benor
