// Wire types of the multi-decree service: the decree envelope around
// consensus-engine traffic, batch-payload dissemination, and the restart
// catch-up protocol.
//
// Decrees carry batch IDS through consensus, not batch contents — the
// library's consensus Value is 64 bits, so the payload (the batched client
// commands) travels out-of-band: the proposer fanouts a BatchAnnounce when
// it forms the batch, and any node that must apply a batch it never
// received fetches it (BatchFetch -> BatchAnnounce reply). This is the
// standard Multi-Paxos separation of ordering from dissemination.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/message.hpp"
#include "util/types.hpp"

namespace ooc::svc {

/// Decree-number envelope around consensus-engine traffic. The inner
/// payload is shared: forwarding the envelope adds a ref, never a copy.
class DecreeMessage final : public MessageBase<DecreeMessage> {
 public:
  DecreeMessage(std::uint64_t decree, MessagePtr inner)
      : decree_(decree), inner_(std::move(inner)) {}

  std::uint64_t decree() const noexcept { return decree_; }
  const Message& inner() const noexcept { return *inner_; }
  const MessagePtr& innerPtr() const noexcept { return inner_; }

  std::string describe() const override {
    return "[decree " + std::to_string(decree_) + "] " + inner_->describe();
  }

 private:
  std::uint64_t decree_;
  MessagePtr inner_;
};

/// "This announce carries no decree binding" (fetch replies: the batch may
/// already be decided, so echoing it anywhere would be wrong).
inline constexpr std::uint64_t kNoBinding = ~std::uint64_t{0};

/// Batch payload dissemination: the proposer fanouts this when it proposes
/// the batch; it doubles as the reply to a BatchFetch. `bindingDecree`
/// names the decree the owner is proposing the batch in, so nodes that
/// join that decree with nothing of their own can ECHO the batch instead
/// of a no-op (the leaderless analogue of voting for the announced client
/// command). Without the echo, a lone proposer starves under fixed-delay
/// schedules: the no-op joiners' lottery quorums deterministically close
/// among themselves and decide no-op forever.
class BatchAnnounce final : public MessageBase<BatchAnnounce> {
 public:
  BatchAnnounce(Value batchId, std::vector<Value> commands,
                std::uint64_t bindingDecree = kNoBinding)
      : batchId_(batchId),
        commands_(std::move(commands)),
        bindingDecree_(bindingDecree) {}

  Value batchId() const noexcept { return batchId_; }
  const std::vector<Value>& commands() const noexcept { return commands_; }
  std::uint64_t bindingDecree() const noexcept { return bindingDecree_; }

  std::string describe() const override {
    return "BatchAnnounce{batch=" + std::to_string(batchId_) +
           ", cmds=" + std::to_string(commands_.size()) +
           (bindingDecree_ == kNoBinding
                ? "}"
                : ", decree=" + std::to_string(bindingDecree_) + "}");
  }

 private:
  Value batchId_;
  std::vector<Value> commands_;
  std::uint64_t bindingDecree_;
};

/// Straggler rescue: sent in reply to consensus traffic for a decree the
/// receiver has already applied and pruned. Without it a node whose
/// engine lost its quorum partners (they decided, advanced past the
/// retire horizon, and now drop the decree's traffic) would ballot
/// forever: the outcome is final in the replier's applied log, so it is
/// simply told. This is the per-decree analogue of Raft's leader
/// completing a lagging follower from its own log.
class DecreeOutcome final : public MessageBase<DecreeOutcome> {
 public:
  DecreeOutcome(std::uint64_t decree, Value winner)
      : decree_(decree), winner_(winner) {}

  std::uint64_t decree() const noexcept { return decree_; }
  Value winner() const noexcept { return winner_; }

  std::string describe() const override {
    return "DecreeOutcome{decree=" + std::to_string(decree_) +
           ", winner=" + std::to_string(winner_) + "}";
  }

 private:
  std::uint64_t decree_;
  Value winner_;
};

/// Request for a batch payload this node must apply but never received
/// (announce still in flight, or lost to a crash).
class BatchFetch final : public MessageBase<BatchFetch> {
 public:
  explicit BatchFetch(Value batchId) : batchId_(batchId) {}

  Value batchId() const noexcept { return batchId_; }

  std::string describe() const override {
    return "BatchFetch{batch=" + std::to_string(batchId_) + "}";
  }

 private:
  Value batchId_;
};

/// Restart catch-up: a recovered node asks the cluster for the committed
/// decrees from its recovered prefix on.
class CatchupRequest final : public MessageBase<CatchupRequest> {
 public:
  explicit CatchupRequest(std::uint64_t fromDecree)
      : fromDecree_(fromDecree) {}

  std::uint64_t fromDecree() const noexcept { return fromDecree_; }

  std::string describe() const override {
    return "CatchupRequest{from=" + std::to_string(fromDecree_) + "}";
  }

 private:
  std::uint64_t fromDecree_;
};

/// Catch-up reply: the responder's applied decrees from the requested
/// index (final — applied prefixes never change), with the non-noop batch
/// payloads the requester will need to execute them.
class CatchupReply final : public MessageBase<CatchupReply> {
 public:
  CatchupReply(std::uint64_t fromDecree, std::vector<Value> decrees,
               std::vector<std::pair<Value, std::vector<Value>>> batches)
      : fromDecree_(fromDecree),
        decrees_(std::move(decrees)),
        batches_(std::move(batches)) {}

  std::uint64_t fromDecree() const noexcept { return fromDecree_; }
  /// Batch id per decree, for decrees fromDecree, fromDecree+1, ...
  const std::vector<Value>& decrees() const noexcept { return decrees_; }
  const std::vector<std::pair<Value, std::vector<Value>>>& batches()
      const noexcept {
    return batches_;
  }

  std::string describe() const override {
    return "CatchupReply{from=" + std::to_string(fromDecree_) +
           ", decrees=" + std::to_string(decrees_.size()) + "}";
  }

 private:
  std::uint64_t fromDecree_;
  std::vector<Value> decrees_;
  std::vector<std::pair<Value, std::vector<Value>>> batches_;
};

}  // namespace ooc::svc
