#include "benor/async_byzantine.hpp"

#include <memory>

#include "benor/messages.hpp"
#include "core/tagged_message.hpp"

namespace ooc::benor {

const char* toString(AsyncByzantineStrategy strategy) noexcept {
  switch (strategy) {
    case AsyncByzantineStrategy::kSilent: return "silent";
    case AsyncByzantineStrategy::kEquivocate: return "equivocate";
    case AsyncByzantineStrategy::kRandom: return "random";
    case AsyncByzantineStrategy::kContrarian: return "contrarian";
  }
  return "?";
}

void AsyncByzantine::onMessage(ProcessId, const Message& message) {
  if (strategy_ == AsyncByzantineStrategy::kSilent) return;
  const auto* tagged = message.as<TaggedMessage>();
  if (tagged == nullptr || tagged->stage() != Stage::kDetect) return;
  if (!attacked_.insert(tagged->round()).second) return;
  attackRound(tagged->round());
}

void AsyncByzantine::attackRound(Round round) {
  const std::size_t n = ctx().processCount();
  auto send = [&](ProcessId dest, MessagePtr inner) {
    ctx().post(dest, makeMessage<TaggedMessage>(round, Stage::kDetect,
                                                std::move(inner)));
  };

  for (ProcessId dest = 0; dest < n; ++dest) {
    switch (strategy_) {
      case AsyncByzantineStrategy::kSilent:
        return;
      case AsyncByzantineStrategy::kEquivocate: {
        const Value v = dest < n / 2 ? 0 : 1;
        send(dest, makeMessage<ProposalMessage>(v));
        send(dest, makeMessage<ReportMessage>(true, v));
        break;
      }
      case AsyncByzantineStrategy::kRandom: {
        // Garbage values included: receivers must discard them.
        const Value proposal = static_cast<Value>(ctx().rng().below(4));
        const Value ratified = static_cast<Value>(ctx().rng().below(4));
        send(dest, makeMessage<ProposalMessage>(proposal));
        send(dest, makeMessage<ReportMessage>(ctx().rng().coin() == 1,
                                              ratified));
        break;
      }
      case AsyncByzantineStrategy::kContrarian: {
        // Push the bit opposite to the round parity (a cheap proxy for
        // "whatever the majority currently is not").
        const Value v = static_cast<Value>(round % 2);
        send(dest, makeMessage<ProposalMessage>(v));
        send(dest, makeMessage<ReportMessage>(true, v));
        break;
      }
    }
  }
}

}  // namespace ooc::benor
