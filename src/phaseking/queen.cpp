#include "phaseking/queen.hpp"

#include <memory>
#include <stdexcept>

#include "core/tagged_message.hpp"
#include "phaseking/messages.hpp"

namespace ooc::phaseking {
namespace {
Value binarize(Value v) noexcept { return v == 0 ? 0 : 1; }
}  // namespace

PhaseQueenAc::PhaseQueenAc(std::size_t faultTolerance)
    : t_(faultTolerance) {}

void PhaseQueenAc::invoke(ObjectContext& ctx, Value v) {
  if (4 * t_ >= ctx.processCount())
    throw std::invalid_argument("Phase-Queen requires 4t < n");
  seen_.assign(ctx.processCount(), false);
  ctx.fanout(makeMessage<ExchangeMessage>(1, binarize(v)));
}

void PhaseQueenAc::onMessage(ObjectContext&, ProcessId from,
                             const Message& inner) {
  const auto* exchange = inner.as<ExchangeMessage>();
  if (exchange == nullptr || outcome_ || exchange->exchange != 1) return;
  if (from >= seen_.size() || seen_[from]) return;
  seen_[from] = true;
  if (exchange->value == 0 || exchange->value == 1)
    ++tally_[static_cast<std::size_t>(exchange->value)];
}

void PhaseQueenAc::onTick(ObjectContext& ctx, Tick) {
  if (outcome_) return;
  const std::size_t n = ctx.processCount();
  const Value w = tally_[1] > tally_[0] ? 1 : 0;
  const bool strong = tally_[static_cast<std::size_t>(w)] >= n - t_;
  outcome_ =
      Outcome{strong ? Confidence::kCommit : Confidence::kAdopt, w};
}

DetectorFactory PhaseQueenAc::factory(std::size_t faultTolerance) {
  return [faultTolerance](Round) {
    return std::make_unique<PhaseQueenAc>(faultTolerance);
  };
}

QueenConciliator::QueenConciliator(Round round) : round_(round) {}

void QueenConciliator::invoke(ObjectContext& ctx, const Outcome& detected) {
  fallback_ = binarize(detected.value);
  if (ctx.self() == queenOf(round_, ctx.processCount()))
    ctx.fanout(makeMessage<KingMessage>(binarize(detected.value)));
}

void QueenConciliator::onMessage(ObjectContext& ctx, ProcessId from,
                                 const Message& inner) {
  const auto* queen = inner.as<KingMessage>();
  if (queen == nullptr || value_) return;
  if (from != queenOf(round_, ctx.processCount())) return;
  value_ = binarize(queen->value);
}

void QueenConciliator::onTick(ObjectContext&, Tick) {
  if (!value_) value_ = fallback_;
}

DriverFactory QueenConciliator::factory() {
  return [](Round m) { return std::make_unique<QueenConciliator>(m); };
}

PhaseQueenByzantine::PhaseQueenByzantine(ByzantineStrategy strategy)
    : strategy_(strategy) {}

void PhaseQueenByzantine::onStart() { act(0); }
void PhaseQueenByzantine::onTick(Tick tick) { act(tick); }

void PhaseQueenByzantine::act(Tick tick) {
  if (strategy_ == ByzantineStrategy::kSilent) return;
  const auto round = static_cast<Round>(tick / 2 + 1);
  const int slot = static_cast<int>(tick % 2);  // 0: exchange, 1: queen
  const std::size_t n = ctx().processCount();

  for (ProcessId dest = 0; dest < n; ++dest) {
    Value v;
    switch (strategy_) {
      case ByzantineStrategy::kSilent:
        return;
      case ByzantineStrategy::kRandom:
        v = static_cast<Value>(ctx().rng().below(3));
        break;
      case ByzantineStrategy::kLyingKing:
        if (slot == 0) {
          v = 0;  // protocol-abiding in the exchange
        } else {
          if (QueenConciliator::queenOf(round, n) != ctx().self()) return;
          v = dest < n / 2 ? 0 : 1;
        }
        break;
      default:  // equivocate / anti-king: split
        v = dest < n / 2 ? 0 : 1;
        break;
    }
    MessagePtr inner;
    Stage stage = Stage::kDetect;
    if (slot == 0) {
      inner = makeMessage<ExchangeMessage>(1, v);
    } else {
      inner = makeMessage<KingMessage>(v);
      stage = Stage::kDrive;
    }
    ctx().post(dest,
               makeMessage<TaggedMessage>(round, stage, std::move(inner)));
  }
}

}  // namespace ooc::phaseking
