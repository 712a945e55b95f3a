#include "benor/monolithic.hpp"

#include <stdexcept>

namespace ooc::benor {

MonolithicBenOr::MonolithicBenOr(Value input, std::size_t faultTolerance,
                                 Round maxRounds)
    : preference_(input), t_(faultTolerance), maxRounds_(maxRounds) {}

MonolithicBenOr::RoundTally& MonolithicBenOr::tally(Round r) {
  RoundTally& entry = tallies_[r];
  if (entry.from.empty()) entry.from.resize(ctx().processCount());
  return entry;
}

void MonolithicBenOr::onStart() {
  if (2 * t_ >= ctx().processCount())
    throw std::invalid_argument("Ben-Or requires t < n/2");
  enterRound(1);
}

void MonolithicBenOr::enterRound(Round r) {
  round_ = r;
  tallies_.erase(tallies_.begin(), tallies_.lower_bound(r));
  ctx().fanout(makeMessage<ClassicMessage>(r, /*phase=*/1, false, preference_));
  tryAdvance();
}

void MonolithicBenOr::onMessage(ProcessId from, const Message& message) {
  const auto* msg = message.as<ClassicMessage>();
  if (msg == nullptr) return;
  if (msg->round < round_) return;  // stale round

  RoundTally& entry = tally(msg->round);
  if (from >= entry.from.size()) return;
  RoundTally::Slot& slot = entry.from[from];
  if (msg->phase == 1) {
    if (slot.hasProposal) return;
    slot.hasProposal = true;
    slot.proposal = msg->value;
    ++entry.proposals;
  } else {
    if (slot.hasReport) return;
    slot.hasReport = true;
    ++entry.reports;
    if (msg->ratify) {
      slot.ratify = true;
      slot.report = msg->value;
      if (!entry.anyRatified) entry.anyRatified = msg->value;
    }
  }
  tryAdvance();
}

void MonolithicBenOr::tryAdvance() {
  const std::size_t n = ctx().processCount();
  for (;;) {
    if (round_ > maxRounds_) return;
    RoundTally& entry = tally(round_);

    if (!entry.reportSent) {
      if (entry.proposals < n - t_) return;
      entry.reportSent = true;
      // Majority vote (Boyer-Moore): pairing off unequal proposals leaves
      // the only value that can exceed n/2; then count it.
      Value leader = kNoValue;
      std::size_t margin = 0;
      for (const RoundTally::Slot& slot : entry.from) {
        if (!slot.hasProposal) continue;
        if (margin == 0) leader = slot.proposal;
        if (slot.proposal == leader) {
          ++margin;
        } else {
          --margin;
        }
      }
      std::size_t backers = 0;
      for (const RoundTally::Slot& slot : entry.from)
        if (slot.hasProposal && slot.proposal == leader) ++backers;
      ctx().fanout(2 * backers > n
                       ? makeMessage<ClassicMessage>(round_, 2, true, leader)
                       : makeMessage<ClassicMessage>(round_, 2, false,
                                                     kNoValue));
    }

    if (entry.reports < n - t_) return;

    std::optional<Value> committed;
    for (std::size_t i = 0; i < entry.from.size() && !committed; ++i) {
      if (!entry.from[i].ratify) continue;
      const Value value = entry.from[i].report;
      std::size_t count = 0;
      for (std::size_t j = i; j < entry.from.size(); ++j)
        if (entry.from[j].ratify && entry.from[j].report == value) ++count;
      if (count > t_) committed = value;
    }
    if (committed) {
      preference_ = *committed;
      if (!decided_) {
        decided_ = true;
        decisionValue_ = *committed;
        decisionRound_ = round_;
        ctx().decide(*committed);
      }
    } else if (entry.anyRatified) {
      preference_ = *entry.anyRatified;
    } else {
      preference_ = ctx().rng().coin();
    }
    // Advance; enterRound re-runs this loop via its own tryAdvance, so
    // return here to avoid double-advancing.
    enterRound(round_ + 1);
    return;
  }
}

}  // namespace ooc::benor
