#include "benor/vac.hpp"

#include <stdexcept>

#include "benor/messages.hpp"

namespace ooc::benor {

BenOrVac::BenOrVac(std::size_t faultTolerance) : t_(faultTolerance) {}

void BenOrVac::invoke(ObjectContext& ctx, Value v) {
  if (2 * t_ >= ctx.processCount())
    throw std::invalid_argument("Ben-Or requires t < n/2");
  input_ = v;
  invoked_ = true;
  senders_.assign(ctx.processCount(), Sender{});
  ctx.fanout(makeMessage<ProposalMessage>(v));
}

void BenOrVac::onMessage(ObjectContext& ctx, ProcessId from,
                         const Message& inner) {
  if (!invoked_ || outcome_) return;

  if (const auto* proposal = inner.as<ProposalMessage>()) {
    if (from >= senders_.size() || senders_[from].proposed) return;
    senders_[from].proposed = true;
    senders_[from].proposal = proposal->value;
    ++proposalCount_;
    maybeFinishPhaseOne(ctx);
    return;
  }

  if (const auto* report = inner.as<ReportMessage>()) {
    if (from >= senders_.size() || senders_[from].reported) return;
    Sender& sender = senders_[from];
    sender.reported = true;
    ++reportCount_;
    if (report->ratify) {
      sender.ratifies = true;
      sender.ratified = report->value;
      if (!anyRatified_) anyRatified_ = report->value;
    }
    maybeFinish();
  }
}

void BenOrVac::maybeFinishPhaseOne(ObjectContext& ctx) {
  const std::size_t n = ctx.processCount();
  if (reportSent_ || proposalCount_ < n - t_) return;
  reportSent_ = true;

  // At most one value can exceed n/2, and it holds a majority of the
  // received proposals, so a Boyer-Moore vote names it; one more pass
  // checks that it really exceeds n/2.
  Value candidate = kNoValue;
  std::size_t lead = 0;
  for (const Sender& sender : senders_) {
    if (!sender.proposed) continue;
    if (lead == 0) {
      candidate = sender.proposal;
      lead = 1;
    } else if (sender.proposal == candidate) {
      ++lead;
    } else {
      --lead;
    }
  }
  std::size_t votes = 0;
  for (const Sender& sender : senders_)
    if (sender.proposed && sender.proposal == candidate) ++votes;
  if (2 * votes > n) {
    ctx.fanout(makeMessage<ReportMessage>(/*ratify=*/true, candidate));
  } else {
    ctx.fanout(makeMessage<ReportMessage>(/*ratify=*/false, kNoValue));
  }
  maybeFinish();
}

void BenOrVac::maybeFinish() {
  if (outcome_ || !reportSent_ || reportCount_ < senders_.size() - t_)
    return;

  // The first value in sender order ratified by more than t senders;
  // counting from its first ratifier sees every ratify of it.
  for (std::size_t first = 0; first < senders_.size(); ++first) {
    if (!senders_[first].ratifies) continue;
    const Value value = senders_[first].ratified;
    std::size_t count = 0;
    for (std::size_t i = first; i < senders_.size(); ++i)
      if (senders_[i].ratifies && senders_[i].ratified == value) ++count;
    if (count > t_) {
      outcome_ = Outcome{Confidence::kCommit, value};
      return;
    }
  }
  if (anyRatified_) {
    outcome_ = Outcome{Confidence::kAdopt, *anyRatified_};
    return;
  }
  outcome_ = Outcome{Confidence::kVacillate, input_};
}

DetectorFactory BenOrVac::factory(std::size_t faultTolerance) {
  return [faultTolerance](Round) {
    return std::make_unique<BenOrVac>(faultTolerance);
  };
}

}  // namespace ooc::benor
