// Envelope that routes object-protocol messages to the right per-round
// object instance inside a ConsensusProcess.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "sim/message.hpp"
#include "util/types.hpp"

namespace ooc {

/// Which of the round's two steps a message belongs to.
enum class Stage : unsigned char { kDetect = 0, kDrive = 1 };

inline const char* toString(Stage s) noexcept {
  return s == Stage::kDetect ? "detect" : "drive";
}

/// (round, stage)-tagged envelope around an object's inner message. The
/// inner payload is shared (immutable, refcounted): fanning the envelope
/// out or buffering the payload for replay adds a ref, never a deep copy.
class TaggedMessage final : public MessageBase<TaggedMessage> {
 public:
  TaggedMessage(Round round, Stage stage, MessagePtr inner)
      : round_(round), stage_(stage), inner_(std::move(inner)) {
    if (!inner_) throw std::invalid_argument("inner message is required");
  }

  Round round() const noexcept { return round_; }
  Stage stage() const noexcept { return stage_; }
  const Message& inner() const noexcept { return *inner_; }
  /// The shared inner payload — what receivers keep when they buffer.
  const MessagePtr& innerPtr() const noexcept { return inner_; }

  std::string describe() const override {
    return "[r" + std::to_string(round_) + "/" + toString(stage_) + "] " +
           inner_->describe();
  }

 private:
  Round round_;
  Stage stage_;
  MessagePtr inner_;
};

}  // namespace ooc
