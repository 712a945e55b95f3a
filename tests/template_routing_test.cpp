// Message-routing unit tests for the ConsensusProcess engine: buffering of
// future rounds/stages, dropping of stale traffic, lockstep tick
// suppression, and the drive-stage plumbing — driven through a manual
// Context with scripted objects.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/consensus_process.hpp"
#include "core/tagged_message.hpp"
#include "sim/process.hpp"

namespace ooc {
namespace {

struct ProbeMsg final : MessageBase<ProbeMsg> {
  explicit ProbeMsg(int payload = 0) : payload(payload) {}
  int payload;
  std::string describe() const override { return "probe"; }
};

/// Detector completing once it has received `needed` probe messages;
/// records everything it sees, timers included.
class CountingDetector final : public AgreementDetector {
 public:
  CountingDetector(int needed, Confidence confidence,
                   std::vector<int>* seen,
                   std::vector<TimerId>* timers = nullptr)
      : needed_(needed), confidence_(confidence), seen_(seen),
        timers_(timers) {}

  void invoke(ObjectContext& ctx, Value v) override {
    value_ = v;
    ctx.fanout(makeMessage<ProbeMsg>(0));
    if (needed_ == 0) done_ = true;
  }
  void onMessage(ObjectContext&, ProcessId, const Message& inner) override {
    const auto* probe = inner.as<ProbeMsg>();
    if (probe == nullptr) return;
    if (seen_) seen_->push_back(probe->payload);
    if (++count_ >= needed_) done_ = true;
  }
  void onTimer(ObjectContext&, TimerId id) override {
    if (timers_) timers_->push_back(id);
  }
  std::optional<Outcome> result() const override {
    return done_ ? std::optional<Outcome>(Outcome{confidence_, value_})
                 : std::nullopt;
  }

 private:
  int needed_;
  Confidence confidence_;
  std::vector<int>* seen_;
  std::vector<TimerId>* timers_;
  Value value_ = kNoValue;
  int count_ = 0;
  bool done_ = false;
};

/// Driver completing after one probe message.
class WaitingDriver final : public Driver {
 public:
  explicit WaitingDriver(std::vector<int>* seen) : seen_(seen) {}
  void invoke(ObjectContext&, const Outcome& detected) override {
    value_ = detected.value;
  }
  void onMessage(ObjectContext&, ProcessId, const Message& inner) override {
    const auto* probe = inner.as<ProbeMsg>();
    if (probe == nullptr) return;
    if (seen_) seen_->push_back(probe->payload);
    done_ = true;
  }
  std::optional<Value> result() const override {
    return done_ ? std::optional<Value>(value_) : std::nullopt;
  }

 private:
  std::vector<int>* seen_;
  Value value_ = kNoValue;
  bool done_ = false;
};

/// Driver arming a timer when invoked and completing on its first probe
/// message without cancelling that timer.
class TimerLeavingDriver final : public Driver {
 public:
  explicit TimerLeavingDriver(TimerId* armed) : armed_(armed) {}
  void invoke(ObjectContext& ctx, const Outcome& detected) override {
    value_ = detected.value;
    *armed_ = ctx.setTimer(10);
  }
  void onMessage(ObjectContext&, ProcessId, const Message& inner) override {
    if (inner.as<ProbeMsg>() != nullptr) done_ = true;
  }
  std::optional<Value> result() const override {
    return done_ ? std::optional<Value>(value_) : std::nullopt;
  }

 private:
  TimerId* armed_;
  Value value_ = kNoValue;
  bool done_ = false;
};

class ManualHostContext final : public Context {
 public:
  ProcessId self() const noexcept override { return 0; }
  std::size_t processCount() const noexcept override { return 3; }
  Tick now() const noexcept override { return now_; }
  Rng& rng() noexcept override { return rng_; }
  void post(ProcessId, MessagePtr msg) override {
    outbound.push_back(std::move(msg));
  }
  void fanout(MessagePtr msg) override { outbound.push_back(std::move(msg)); }
  TimerId setTimer(Tick) override { return ++timers; }
  void cancelTimer(TimerId) noexcept override {}
  void decide(Value v) override { decisions.push_back(v); }

  std::vector<MessagePtr> outbound;
  std::vector<Value> decisions;
  Tick now_ = 0;
  TimerId timers = 0;

 private:
  Rng rng_{3};
};

struct Harness {
  explicit Harness(int detectorNeeds = 1,
                   Confidence confidence = Confidence::kVacillate) {
    ConsensusProcess::Options options;
    options.kind = TemplateKind::kVacReconciliator;
    options.maxRounds = 50;
    process = std::make_unique<ConsensusProcess>(
        7,
        [=, this](Round) {
          return std::make_unique<CountingDetector>(detectorNeeds,
                                                    confidence, &detectorSaw);
        },
        [this](Round) { return std::make_unique<WaitingDriver>(&driverSaw); },
        options);
    process->bind(ctx);
    process->onStart();
  }

  void deliver(Round round, Stage stage, int payload, ProcessId from = 1) {
    process->onMessage(from, TaggedMessage(round, stage,
                                           std::make_unique<ProbeMsg>(payload)));
  }

  ManualHostContext ctx;
  std::unique_ptr<ConsensusProcess> process;
  std::vector<int> detectorSaw;
  std::vector<int> driverSaw;
};

TEST(TemplateRouting, CurrentRoundDetectMessagesDispatchImmediately) {
  Harness h(/*detectorNeeds=*/2);
  h.deliver(1, Stage::kDetect, 11);
  EXPECT_EQ(h.detectorSaw, std::vector<int>({11}));
  EXPECT_EQ(h.process->currentRound(), 1u);
}

TEST(TemplateRouting, FutureRoundMessagesAreBufferedAndReplayedInOrder) {
  Harness h(/*detectorNeeds=*/2);
  h.deliver(2, Stage::kDetect, 21);  // future round: buffer
  h.deliver(2, Stage::kDetect, 22);
  EXPECT_TRUE(h.detectorSaw.empty());

  // Finish round 1 (detector needs 2, then vacillate -> driver needs 1).
  h.deliver(1, Stage::kDetect, 11);
  h.deliver(1, Stage::kDetect, 12);
  h.deliver(1, Stage::kDrive, 13);
  EXPECT_EQ(h.process->currentRound(), 2u);
  // The buffered round-2 messages must have replayed, in arrival order.
  EXPECT_EQ(h.detectorSaw, std::vector<int>({11, 12, 21, 22}));
}

TEST(TemplateRouting, StaleRoundMessagesAreDropped) {
  Harness h(/*detectorNeeds=*/1);
  h.deliver(1, Stage::kDetect, 11);
  h.deliver(1, Stage::kDrive, 12);
  ASSERT_EQ(h.process->currentRound(), 2u);
  h.deliver(1, Stage::kDetect, 99);  // stale
  h.deliver(1, Stage::kDrive, 98);   // stale
  EXPECT_EQ(h.detectorSaw, std::vector<int>({11}));
  EXPECT_EQ(h.driverSaw, std::vector<int>({12}));
}

TEST(TemplateRouting, DetectMessagesAfterStageAdvanceAreDropped) {
  Harness h(/*detectorNeeds=*/1);
  h.deliver(1, Stage::kDetect, 11);  // detector completes, stage -> drive
  h.deliver(1, Stage::kDetect, 99);  // stale within the same round
  h.deliver(1, Stage::kDrive, 12);
  EXPECT_EQ(h.detectorSaw, std::vector<int>({11}));
  EXPECT_EQ(h.process->currentRound(), 2u);
}

TEST(TemplateRouting, DriveMessagesBufferWhileDetecting) {
  Harness h(/*detectorNeeds=*/2);
  h.deliver(1, Stage::kDrive, 31);  // a faster peer is already driving
  EXPECT_TRUE(h.driverSaw.empty());
  h.deliver(1, Stage::kDetect, 11);
  h.deliver(1, Stage::kDetect, 12);
  // Detector done -> driver invoked -> buffered drive message replayed.
  EXPECT_EQ(h.driverSaw, std::vector<int>({31}));
  EXPECT_EQ(h.process->currentRound(), 2u);
}

TEST(TemplateRouting, ForeignMessagesIgnored) {
  Harness h(/*detectorNeeds=*/1);
  h.process->onMessage(1, ProbeMsg(55));  // untagged
  EXPECT_TRUE(h.detectorSaw.empty());
  EXPECT_EQ(h.process->currentRound(), 1u);
}

TEST(TemplateRouting, CommitDecidesAndContinues) {
  Harness h(/*detectorNeeds=*/1, Confidence::kCommit);
  h.deliver(1, Stage::kDetect, 11);
  ASSERT_EQ(h.ctx.decisions.size(), 1u);
  EXPECT_EQ(h.ctx.decisions[0], 7);
  EXPECT_TRUE(h.process->decided());
  EXPECT_EQ(h.process->decisionRound(), 1u);
  // Keeps participating: round 2 detector is live.
  EXPECT_EQ(h.process->currentRound(), 2u);
  h.deliver(2, Stage::kDetect, 21);
  EXPECT_EQ(h.detectorSaw.back(), 21);
  // Decision is single-shot.
  EXPECT_EQ(h.ctx.decisions.size(), 1u);
}

TEST(TemplateRouting, RetiresAfterConfiguredExtraRounds) {
  ConsensusProcess::Options options;
  options.kind = TemplateKind::kVacReconciliator;
  options.participateRoundsAfterDecide = 1;
  ManualHostContext ctx;
  ConsensusProcess process(
      7,
      [](Round) {
        return std::make_unique<CountingDetector>(1, Confidence::kCommit,
                                                  nullptr);
      },
      [](Round) { return std::make_unique<WaitingDriver>(nullptr); },
      options);
  process.bind(ctx);
  process.onStart();

  process.onMessage(1, TaggedMessage(1, Stage::kDetect,
                                     std::make_unique<ProbeMsg>(1)));
  EXPECT_TRUE(process.decided());
  EXPECT_EQ(process.currentRound(), 2u);  // one extra round
  process.onMessage(1, TaggedMessage(2, Stage::kDetect,
                                     std::make_unique<ProbeMsg>(2)));
  EXPECT_TRUE(process.exhaustedRounds());  // retired after round 2
  const auto sends = ctx.outbound.size();
  process.onMessage(1, TaggedMessage(3, Stage::kDetect,
                                     std::make_unique<ProbeMsg>(3)));
  EXPECT_EQ(ctx.outbound.size(), sends) << "retired process must stay quiet";
}

TEST(TemplateRouting, PostDecideBufferingIsBoundedByTheRetirementHorizon) {
  // With a retirement horizon configured, rounds beyond decisionRound +
  // participateRoundsAfterDecide can never be reached, so their messages
  // must not accumulate: already-buffered ones are pruned at decide time
  // and later arrivals are dropped on arrival. Without the bound a
  // decided-but-participating process (the svc per-decree engines) would
  // buffer every straggler until teardown.
  ConsensusProcess::Options options;
  options.kind = TemplateKind::kVacReconciliator;
  options.participateRoundsAfterDecide = 2;
  ManualHostContext ctx;
  ConsensusProcess process(
      7,
      [](Round) {
        return std::make_unique<CountingDetector>(1, Confidence::kCommit,
                                                  nullptr);
      },
      [](Round) { return std::make_unique<WaitingDriver>(nullptr); },
      options);
  process.bind(ctx);
  process.onStart();

  // Far-future message buffered while undecided (nothing is bounded yet).
  process.onMessage(1, TaggedMessage(9, Stage::kDetect,
                                     std::make_unique<ProbeMsg>(90)));
  EXPECT_EQ(process.bufferedCount(), 1u);
  EXPECT_EQ(process.bufferedDropped(), 0u);

  // Decide in round 1: horizon = 1 + 2 = 3, so the round-9 entry is
  // unreachable and pruned.
  process.onMessage(1, TaggedMessage(1, Stage::kDetect,
                                     std::make_unique<ProbeMsg>(1)));
  ASSERT_TRUE(process.decided());
  EXPECT_EQ(process.currentRound(), 2u);
  EXPECT_EQ(process.bufferedCount(), 0u);
  EXPECT_EQ(process.bufferedDropped(), 1u);

  // Beyond-horizon arrivals drop instead of buffering...
  process.onMessage(1, TaggedMessage(4, Stage::kDetect,
                                     std::make_unique<ProbeMsg>(40)));
  EXPECT_EQ(process.bufferedCount(), 0u);
  EXPECT_EQ(process.bufferedDropped(), 2u);

  // ...while rounds the process will still visit buffer as before.
  process.onMessage(1, TaggedMessage(3, Stage::kDetect,
                                     std::make_unique<ProbeMsg>(30)));
  EXPECT_EQ(process.bufferedCount(), 1u);
  EXPECT_EQ(process.bufferedPeak(), 1u);
}

TEST(TemplateRouting, AcTemplateRejectsNothingButRoutesAdoptToDriver) {
  ConsensusProcess::Options options;
  options.kind = TemplateKind::kAcConciliator;
  ManualHostContext ctx;
  std::vector<int> driverSaw;
  ConsensusProcess process(
      3,
      [](Round) {
        return std::make_unique<CountingDetector>(1, Confidence::kAdopt,
                                                  nullptr);
      },
      [&driverSaw](Round) {
        return std::make_unique<WaitingDriver>(&driverSaw);
      },
      options);
  process.bind(ctx);
  process.onStart();
  process.onMessage(1, TaggedMessage(1, Stage::kDetect,
                                     std::make_unique<ProbeMsg>(1)));
  // Adopt under the AC template: the driver is consulted.
  process.onMessage(1, TaggedMessage(1, Stage::kDrive,
                                     std::make_unique<ProbeMsg>(41)));
  EXPECT_EQ(driverSaw, std::vector<int>({41}));
  EXPECT_EQ(process.currentRound(), 2u);
}

TEST(TemplateRouting, FixedRoundDecisionRule) {
  ConsensusProcess::Options options;
  options.kind = TemplateKind::kAcConciliator;
  options.decideAfterRound = 2;
  ManualHostContext ctx;
  ConsensusProcess process(
      9,
      [](Round) {
        return std::make_unique<CountingDetector>(1, Confidence::kCommit,
                                                  nullptr);
      },
      [](Round) { return std::make_unique<WaitingDriver>(nullptr); },
      options);
  process.bind(ctx);
  process.onStart();

  process.onMessage(1, TaggedMessage(1, Stage::kDetect,
                                     std::make_unique<ProbeMsg>(1)));
  EXPECT_FALSE(process.decided()) << "commit must not decide under this rule";
  process.onMessage(1, TaggedMessage(2, Stage::kDetect,
                                     std::make_unique<ProbeMsg>(2)));
  EXPECT_TRUE(process.decided());
  EXPECT_EQ(process.decisionRound(), 2u);
  EXPECT_EQ(process.decisionValue(), 9);
}

TEST(TemplateRouting, LooseDriversKeepTheirRoundsDriveTraffic) {
  // Under ooo-driver a courtesy drive detaches into a loose driver and the
  // next round's detector goes live at once. Drive traffic of the loose
  // driver's round still reaches it: arriving after the frontier moved on,
  // and buffered before the drive detached.
  ConsensusProcess::Options options;
  options.kind = TemplateKind::kVacReconciliator;
  options.scheduling = SchedulingPolicy::kOooDriver;
  options.alwaysRunDriver = true;
  options.maxRounds = 50;
  ManualHostContext ctx;
  std::vector<int> driverSaw;
  ConsensusProcess process(
      7,
      [](Round) {
        return std::make_unique<CountingDetector>(1, Confidence::kAdopt,
                                                  nullptr);
      },
      [&driverSaw](Round) {
        return std::make_unique<WaitingDriver>(&driverSaw);
      },
      options);
  process.bind(ctx);
  process.onStart();
  const auto deliver = [&](Round round, Stage stage, int payload) {
    process.onMessage(1, TaggedMessage(round, stage,
                                       std::make_unique<ProbeMsg>(payload)));
  };

  deliver(1, Stage::kDetect, 11);  // adopt: round 1's drive detaches
  ASSERT_EQ(process.currentRound(), 2u);
  ASSERT_EQ(process.looseDriversLive(), 1u);
  deliver(1, Stage::kDrive, 12);
  EXPECT_EQ(driverSaw, std::vector<int>({12}));
  EXPECT_EQ(process.looseDriversLive(), 0u);

  deliver(2, Stage::kDrive, 21);  // buffered while round 2 detects
  EXPECT_EQ(process.bufferedCount(), 1u);
  deliver(2, Stage::kDetect, 22);  // round 2's drive detaches, replays 21
  EXPECT_EQ(driverSaw, std::vector<int>({12, 21}));
  EXPECT_EQ(process.currentRound(), 3u);
  EXPECT_EQ(process.bufferedCount(), 0u);
  EXPECT_TRUE(process.rounds()[0].driverValue.has_value());
}

TEST(TemplateRouting, StaleTimersReachNoLaterObjectUnderEveryPolicy) {
  // A timer reaches the object that armed it. Round 1's driver completes
  // by message and leaves its timer armed; when that timer fires after
  // round 2 began, it is stale and must not reach round 2's detector.
  for (const SchedulingPolicy policy :
       {SchedulingPolicy::kLockstep, SchedulingPolicy::kEventDriven,
        SchedulingPolicy::kOooDriver}) {
    ConsensusProcess::Options options;
    options.kind = TemplateKind::kVacReconciliator;
    options.scheduling = policy;
    options.maxRounds = 50;
    ManualHostContext ctx;
    TimerId armed = 0;
    std::vector<TimerId> detectorTimers;
    ConsensusProcess process(
        7,
        [&detectorTimers](Round) {
          return std::make_unique<CountingDetector>(
              1, Confidence::kVacillate, nullptr, &detectorTimers);
        },
        [&armed](Round) {
          return std::make_unique<TimerLeavingDriver>(&armed);
        },
        options);
    process.bind(ctx);
    process.onStart();
    // Event-driven defers each activation to a wakeup: the host's latest
    // timer. The other policies advance inline.
    const auto fireWakeup = [&] {
      if (!advancesInline(policy)) process.onTimer(ctx.timers);
    };

    process.onMessage(1, TaggedMessage(1, Stage::kDetect,
                                       std::make_unique<ProbeMsg>(1)));
    fireWakeup();
    ASSERT_NE(armed, TimerId{0}) << toString(policy);
    process.onMessage(1, TaggedMessage(1, Stage::kDrive,
                                       std::make_unique<ProbeMsg>(2)));
    fireWakeup();
    ASSERT_EQ(process.currentRound(), 2u) << toString(policy);

    process.onTimer(armed);
    EXPECT_TRUE(detectorTimers.empty())
        << toString(policy) << ": a stale timer reached round 2's detector";
  }
}

}  // namespace
}  // namespace ooc
