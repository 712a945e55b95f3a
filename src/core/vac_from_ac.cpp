#include "core/vac_from_ac.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace ooc {
namespace {

/// Inner envelope distinguishing messages of the two sub-ACs. The inner
/// payload is shared: fanning the envelope out or buffering it adds a ref.
class SubMessage final : public MessageBase<SubMessage> {
 public:
  SubMessage(int index, MessagePtr inner)
      : index_(index), inner_(std::move(inner)) {}

  int index() const noexcept { return index_; }
  const Message& inner() const noexcept { return *inner_; }
  const MessagePtr& innerPtr() const noexcept { return inner_; }

  std::string describe() const override {
    return "ac" + std::to_string(index_) + ":" + inner_->describe();
  }

 private:
  int index_;
  MessagePtr inner_;
};

}  // namespace

/// Context handed to a sub-AC: wraps outbound messages in SubMessage so the
/// peer composite can route them to its matching sub-instance.
class VacFromTwoAc::SubContext final : public ObjectContext {
 public:
  SubContext(int index) noexcept : index_(index) {}

  void attach(ObjectContext& outer) noexcept { outer_ = &outer; }

  ProcessId self() const noexcept override { return outer_->self(); }
  std::size_t processCount() const noexcept override {
    return outer_->processCount();
  }
  Tick now() const noexcept override { return outer_->now(); }
  Rng& rng() noexcept override { return outer_->rng(); }

  void post(ProcessId to, MessagePtr inner) override {
    outer_->post(to, makeMessage<SubMessage>(index_, std::move(inner)));
  }
  void fanout(MessagePtr inner) override {
    outer_->fanout(makeMessage<SubMessage>(index_, std::move(inner)));
  }
  TimerId setTimer(Tick delay) override { return outer_->setTimer(delay); }
  void cancelTimer(TimerId id) noexcept override { outer_->cancelTimer(id); }

 private:
  int index_;
  ObjectContext* outer_ = nullptr;
};

VacFromTwoAc::VacFromTwoAc(std::unique_ptr<AgreementDetector> first,
                           std::unique_ptr<AgreementDetector> second)
    : first_(std::move(first)), second_(std::move(second)) {
  if (!first_ || !second_)
    throw std::invalid_argument("both AC instances are required");
  subContext0_ = std::make_unique<SubContext>(0);
  subContext1_ = std::make_unique<SubContext>(1);
}

VacFromTwoAc::~VacFromTwoAc() = default;

void VacFromTwoAc::invoke(ObjectContext& ctx, Value v) {
  subContext0_->attach(ctx);
  subContext1_->attach(ctx);
  first_->invoke(*subContext0_, v);
  advance(ctx);
}

void VacFromTwoAc::onMessage(ObjectContext& ctx, ProcessId from,
                             const Message& inner) {
  const auto* sub = inner.as<SubMessage>();
  if (sub == nullptr) return;  // foreign payload; ignore
  if (sub->index() == 0) {
    // Messages for AC1 after it finished locally are stale (our AC1 already
    // returned; the object no longer needs them).
    if (phase_ == 0) first_->onMessage(*subContext0_, from, sub->inner());
  } else {
    if (phase_ == 1) {
      second_->onMessage(*subContext1_, from, sub->inner());
    } else {
      // A faster peer is already in AC2; hold its message until we get
      // there — sharing the payload with the envelope, no copy.
      bufferedForSecond_.push_back(Buffered{from, sub->innerPtr()});
    }
  }
  advance(ctx);
}

void VacFromTwoAc::onTick(ObjectContext& ctx, Tick tick) {
  active().onTick(phase_ == 0 ? *subContext0_ : *subContext1_, tick);
  advance(ctx);
}

void VacFromTwoAc::onTimer(ObjectContext& ctx, TimerId id) {
  active().onTimer(phase_ == 0 ? *subContext0_ : *subContext1_, id);
  advance(ctx);
}

void VacFromTwoAc::advance(ObjectContext&) {
  if (final_) return;
  if (phase_ == 0) {
    const auto outcome = first_->result();
    if (!outcome) return;
    if (outcome->confidence == Confidence::kVacillate)
      throw std::logic_error("VacFromTwoAc requires genuine AC objects");
    firstOutcome_ = *outcome;
    phase_ = 1;
    second_->invoke(*subContext1_, outcome->value);
    for (auto& held : bufferedForSecond_)
      second_->onMessage(*subContext1_, held.from, *held.inner);
    bufferedForSecond_.clear();
  }
  if (phase_ == 1) {
    const auto outcome = second_->result();
    if (!outcome) return;
    if (outcome->confidence == Confidence::kVacillate)
      throw std::logic_error("VacFromTwoAc requires genuine AC objects");
    Confidence level = Confidence::kVacillate;
    if (outcome->confidence == Confidence::kCommit) {
      level = firstOutcome_->confidence == Confidence::kCommit
                  ? Confidence::kCommit
                  : Confidence::kAdopt;
    }
    final_ = Outcome{level, outcome->value};
  }
}

std::optional<Outcome> VacFromTwoAc::result() const { return final_; }

DetectorFactory VacFromTwoAc::liftFactory(DetectorFactory acFactory) {
  return [acFactory = std::move(acFactory)](Round m) {
    // Give the two sub-ACs distinct round identities so any round-derived
    // internals (e.g. rotating roles) differ; routing is by SubMessage index,
    // not by these numbers.
    return std::make_unique<VacFromTwoAc>(acFactory(2 * m - 1),
                                          acFactory(2 * m));
  };
}

AcFromVac::AcFromVac(std::unique_ptr<AgreementDetector> vac)
    : vac_(std::move(vac)) {
  if (!vac_) throw std::invalid_argument("VAC instance is required");
}

std::optional<Outcome> AcFromVac::result() const {
  auto outcome = vac_->result();
  if (outcome && outcome->confidence == Confidence::kVacillate)
    outcome->confidence = Confidence::kAdopt;
  return outcome;
}

DetectorFactory AcFromVac::liftFactory(DetectorFactory vacFactory) {
  return [vacFactory = std::move(vacFactory)](Round m) {
    return std::make_unique<AcFromVac>(vacFactory(m));
  };
}

}  // namespace ooc
