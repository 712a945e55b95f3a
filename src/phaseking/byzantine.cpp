#include "phaseking/byzantine.hpp"

#include <memory>

#include "core/tagged_message.hpp"
#include "phaseking/conciliator.hpp"
#include "phaseking/messages.hpp"

namespace ooc::phaseking {

const char* toString(ByzantineStrategy strategy) noexcept {
  switch (strategy) {
    case ByzantineStrategy::kSilent: return "silent";
    case ByzantineStrategy::kRandom: return "random";
    case ByzantineStrategy::kEquivocate: return "equivocate";
    case ByzantineStrategy::kLyingKing: return "lying-king";
    case ByzantineStrategy::kAntiKing: return "anti-king";
  }
  return "?";
}

PhaseKingByzantine::PhaseKingByzantine(ByzantineStrategy strategy, Wire wire)
    : strategy_(strategy), wire_(wire) {}

void PhaseKingByzantine::onStart() { act(0); }
void PhaseKingByzantine::onTick(Tick tick) { act(tick); }

void PhaseKingByzantine::act(Tick tick) {
  if (strategy_ == ByzantineStrategy::kSilent) return;
  const auto round = static_cast<Round>(tick / 3 + 1);
  const int slot = static_cast<int>(tick % 3);  // 0: ex1, 1: ex2, 2: king
  const std::size_t n = ctx().processCount();

  if (slot == 2) {
    // King slot. Sending a forged king message is only effective when this
    // processor actually reigns (receivers verify the sender id), but
    // strategies send regardless — hostile traffic must be harmless.
    const bool reigning = KingConciliator::kingOf(round, n) == ctx().self();
    for (ProcessId dest = 0; dest < n; ++dest) {
      Value v;
      switch (strategy_) {
        case ByzantineStrategy::kRandom:
          v = ctx().rng().coin();
          break;
        case ByzantineStrategy::kLyingKing:
          if (!reigning) return;  // behaves honestly unless it reigns
          v = dest < n / 2 ? 0 : 1;
          break;
        default:
          v = dest < n / 2 ? 0 : 1;
          break;
      }
      emit(dest, round, /*exchange=*/3, v);
    }
    return;
  }

  const int exchange = slot + 1;
  for (ProcessId dest = 0; dest < n; ++dest)
    emit(dest, round, exchange, pick(dest, exchange));
}

Value PhaseKingByzantine::pick(ProcessId dest, int exchange) {
  const std::size_t n = ctx().processCount();
  switch (strategy_) {
    case ByzantineStrategy::kSilent:
      return 0;  // unreachable
    case ByzantineStrategy::kRandom:
      return static_cast<Value>(ctx().rng().below(3));
    case ByzantineStrategy::kEquivocate:
      return dest < n / 2 ? 0 : 1;
    case ByzantineStrategy::kLyingKing:
      return 0;  // protocol-abiding in the exchanges
    case ByzantineStrategy::kAntiKing:
      return exchange == 2 ? 2 : (dest < n / 2 ? 0 : 1);
  }
  return 0;
}

void PhaseKingByzantine::emit(ProcessId dest, Round round, int exchange,
                              Value value) {
  if (wire_ == Wire::kClassic) {
    ctx().post(dest, makeMessage<ClassicPkMessage>(round, exchange, value));
    return;
  }
  MessagePtr inner;
  Stage stage = Stage::kDetect;
  if (exchange == 3) {
    inner = makeMessage<KingMessage>(value);
    stage = Stage::kDrive;
  } else {
    inner = makeMessage<ExchangeMessage>(exchange, value);
  }
  ctx().post(dest,
             makeMessage<TaggedMessage>(round, stage, std::move(inner)));
}

}  // namespace ooc::phaseking
