// Message abstraction for the simulated message-passing network.
//
// Protocol messages are ordinary structs deriving from Message via the CRTP
// helper MessageBase, which supplies a static type tag.
// Receivers downcast with Message::as<T>() — an exact-type tag compare, not
// a dynamic_cast — and must treat every field as untrusted, since a
// Byzantine sender can put anything in them.
//
// Payload ownership: in-flight messages are refcounted and immutable
// (MessagePtr = shared_ptr<const Message>), so a broadcast or a network
// duplication fault shares one payload across every delivery instead of
// deep-copying per recipient. Nothing in the delivery path copies a
// payload.
//
// Payload storage: makeMessage puts the message and its refcounts in one
// block from the thread-local block pool (run_arena::BlockAllocator, see
// sim/run_arena.hpp), so a block freed by one delivery is reused by the
// next send on that thread instead of going back through malloc.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "sim/run_arena.hpp"

namespace ooc {

class Message;

/// Refcounted immutable payload: how messages travel through the
/// simulator. Build one with makeMessage<T>(...) (below).
using MessagePtr = std::shared_ptr<const Message>;

/// A message type's identity, assigned on first use (see tagOf).
using MessageTag = std::uint32_t;

namespace detail {
/// Hands out process-unique tags; thread-safe (the checker's sweep workers
/// run simulations concurrently). Assignment order depends on which type is
/// seen first and is never serialized or compared across runs, so it cannot
/// affect determinism.
MessageTag nextMessageTag() noexcept;
}  // namespace detail

/// The tag of concrete message type T (stable for the process lifetime).
template <typename T>
MessageTag tagOf() noexcept {
  static const MessageTag tag = detail::nextMessageTag();
  return tag;
}

class Message {
 public:
  Message(const Message&) = default;
  Message& operator=(const Message&) = default;
  virtual ~Message() = default;

  /// Human-readable rendering for traces and logs. Built lazily: the
  /// simulator only calls this when a log sink or an observer opted in
  /// (ScheduleObserver::wantsMessageText).
  virtual std::string describe() const = 0;

  MessageTag tag() const noexcept { return tag_; }

  /// Checked downcast; returns nullptr when the payload is another type.
  /// Matches the exact concrete type only (every protocol message is a
  /// final class), via a tag compare instead of a dynamic_cast.
  template <typename T>
  const T* as() const noexcept {
    return tag_ == tagOf<T>() ? static_cast<const T*>(this) : nullptr;
  }

 protected:
  /// Concrete types get their tag through MessageBase.
  explicit Message(MessageTag tag) noexcept : tag_(tag) {}

 private:
  MessageTag tag_;
};

/// CRTP base supplying the type tag for a concrete message type. Every
/// concrete message must derive from this (directly or via
/// `class M final : public MessageBase<M>`), so that as<M>() can resolve by
/// tag.
template <typename Derived>
class MessageBase : public Message {
 public:
  MessageBase() noexcept : Message(tagOf<Derived>()) {}
};

/// Builds a shared, immutable payload in place, in a pooled block:
///   ctx.fanout(makeMessage<ProposalMessage>(round, value));
template <typename T, typename... Args>
std::shared_ptr<const T> makeMessage(Args&&... args) {
  return std::allocate_shared<const T>(run_arena::BlockAllocator<T>{},
                                       std::forward<Args>(args)...);
}

}  // namespace ooc
