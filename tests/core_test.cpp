// Unit tests for the core framework: the consensus template engine, message
// routing/buffering, the §5 constructions, and the property auditors.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/consensus_process.hpp"
#include "core/objects.hpp"
#include "core/properties.hpp"
#include "core/tagged_message.hpp"
#include "core/vac_from_ac.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace ooc {
namespace {

// ---------------------------------------------------------------------------
// Mock objects

struct EchoMsg final : MessageBase<EchoMsg> {
  explicit EchoMsg(Value v) : v(v) {}
  Value v;
  std::string describe() const override { return "echo"; }
};

/// Detector that completes after hearing from every process; commits when
/// all echoed values agree, vacillates otherwise (adopt on a scripted round).
class MockDetector final : public AgreementDetector {
 public:
  explicit MockDetector(Confidence onDisagree)
      : onDisagree_(onDisagree) {}

  void invoke(ObjectContext& ctx, Value v) override {
    mine_ = v;
    values_.assign(ctx.processCount(), kNoValue);
    ctx.fanout(makeMessage<EchoMsg>(v));
  }
  void onMessage(ObjectContext&, ProcessId from,
                 const Message& inner) override {
    const auto* echo = inner.as<EchoMsg>();
    if (echo == nullptr || outcome_) return;
    if (values_.at(from) == kNoValue) {
      values_[from] = echo->v;
      ++heard_;
    }
    if (heard_ == values_.size()) {
      bool unanimous = true;
      for (Value v : values_) unanimous = unanimous && v == values_[0];
      outcome_ = unanimous ? Outcome{Confidence::kCommit, values_[0]}
                           : Outcome{onDisagree_, mine_};
    }
  }
  std::optional<Outcome> result() const override { return outcome_; }

 private:
  Confidence onDisagree_;
  Value mine_ = kNoValue;
  std::vector<Value> values_;
  std::size_t heard_ = 0;
  std::optional<Outcome> outcome_;
};

/// Driver returning a fixed value immediately.
class FixedDriver final : public Driver {
 public:
  explicit FixedDriver(Value v) : v_(v) {}
  void invoke(ObjectContext&, const Outcome&) override { ready_ = true; }
  void onMessage(ObjectContext&, ProcessId, const Message&) override {}
  std::optional<Value> result() const override {
    return ready_ ? std::optional<Value>(v_) : std::nullopt;
  }

 private:
  Value v_;
  bool ready_ = false;
};

ConsensusProcess::Options vacOptions(Round maxRounds = 50) {
  ConsensusProcess::Options options;
  options.kind = TemplateKind::kVacReconciliator;
  options.maxRounds = maxRounds;
  return options;
}

// ---------------------------------------------------------------------------
// Template engine

TEST(ConsensusTemplate, UnanimousInputsDecideInRoundOne) {
  Simulator sim(SimConfig{}, std::make_unique<SynchronousNetwork>());
  std::vector<ConsensusProcess*> procs;
  for (int i = 0; i < 4; ++i) {
    auto p = std::make_unique<ConsensusProcess>(
        7,
        [](Round) {
          return std::make_unique<MockDetector>(Confidence::kVacillate);
        },
        [](Round) { return std::make_unique<FixedDriver>(0); },
        vacOptions());
    procs.push_back(p.get());
    sim.addProcess(std::move(p));
  }
  sim.stopWhenAllCorrectDecided();
  sim.run();
  ASSERT_TRUE(sim.allCorrectDecided());
  for (auto* p : procs) {
    EXPECT_EQ(p->decisionValue(), 7);
    EXPECT_EQ(p->decisionRound(), 1u);
  }
  EXPECT_FALSE(sim.agreementViolated());
}

TEST(ConsensusTemplate, VacillateRoutesThroughDriver) {
  // Mixed inputs; driver forces everyone to 5, so round 2 commits 5.
  Simulator sim(SimConfig{}, std::make_unique<SynchronousNetwork>());
  std::vector<ConsensusProcess*> procs;
  for (int i = 0; i < 4; ++i) {
    auto p = std::make_unique<ConsensusProcess>(
        i % 2,
        [](Round) {
          return std::make_unique<MockDetector>(Confidence::kVacillate);
        },
        [](Round) { return std::make_unique<FixedDriver>(5); },
        vacOptions());
    procs.push_back(p.get());
    sim.addProcess(std::move(p));
  }
  sim.stopWhenAllCorrectDecided();
  sim.run();
  ASSERT_TRUE(sim.allCorrectDecided());
  for (auto* p : procs) {
    EXPECT_EQ(p->decisionValue(), 5);
    EXPECT_EQ(p->decisionRound(), 2u);
    ASSERT_GE(p->rounds().size(), 2u);
    EXPECT_EQ(p->rounds()[0].driverValue, std::optional<Value>(5));
  }
}

TEST(ConsensusTemplate, AdoptKeepsDetectorValueInVacTemplate) {
  // VAC template: adopt must NOT consult the driver.
  Simulator sim(SimConfig{}, std::make_unique<SynchronousNetwork>());
  std::vector<ConsensusProcess*> procs;
  for (int i = 0; i < 4; ++i) {
    auto p = std::make_unique<ConsensusProcess>(
        i % 2,
        [](Round) {
          return std::make_unique<MockDetector>(Confidence::kAdopt);
        },
        [](Round) { return std::make_unique<FixedDriver>(99); },
        vacOptions(/*maxRounds=*/6));
    procs.push_back(p.get());
    sim.addProcess(std::move(p));
  }
  sim.run();
  // MockDetector adopts each processor's own value on disagreement, so
  // preferences never change and no one decides — but crucially the driver
  // must never have been consulted in the VAC template's adopt case.
  for (auto* p : procs) {
    EXPECT_TRUE(p->exhaustedRounds());
    EXPECT_FALSE(p->decided());
    for (const RoundRecord& record : p->rounds()) {
      EXPECT_FALSE(record.driverValue.has_value());
      ASSERT_TRUE(record.detectorOutcome.has_value());
      EXPECT_EQ(record.detectorOutcome->confidence, Confidence::kAdopt);
    }
  }
}

TEST(ConsensusTemplate, AcTemplateRoutesAdoptThroughConciliator) {
  Simulator sim(SimConfig{}, std::make_unique<SynchronousNetwork>());
  ConsensusProcess::Options options;
  options.kind = TemplateKind::kAcConciliator;
  options.maxRounds = 50;
  std::vector<ConsensusProcess*> procs;
  for (int i = 0; i < 4; ++i) {
    auto p = std::make_unique<ConsensusProcess>(
        i % 2,
        [](Round) {
          return std::make_unique<MockDetector>(Confidence::kAdopt);
        },
        [](Round) { return std::make_unique<FixedDriver>(1); }, options);
    procs.push_back(p.get());
    sim.addProcess(std::move(p));
  }
  sim.stopWhenAllCorrectDecided();
  sim.run();
  ASSERT_TRUE(sim.allCorrectDecided());
  for (auto* p : procs) {
    EXPECT_EQ(p->decisionValue(), 1);
    EXPECT_EQ(p->decisionRound(), 2u);  // round 1 conciliates, round 2 commits
    EXPECT_EQ(p->rounds()[0].driverValue, std::optional<Value>(1));
  }
}

TEST(ConsensusTemplate, MaxRoundsStopsParticipation) {
  Simulator sim(SimConfig{}, std::make_unique<SynchronousNetwork>());
  std::vector<ConsensusProcess*> procs;
  for (int i = 0; i < 2; ++i) {
    auto p = std::make_unique<ConsensusProcess>(
        i,  // split inputs
        [](Round) {
          return std::make_unique<MockDetector>(Confidence::kVacillate);
        },
        // Driver keeps values split forever.
        [i](Round) { return std::make_unique<FixedDriver>(i); },
        vacOptions(/*maxRounds=*/5));
    procs.push_back(p.get());
    sim.addProcess(std::move(p));
  }
  sim.run();  // runs until queue drains (processes give up)
  for (auto* p : procs) {
    EXPECT_TRUE(p->exhaustedRounds());
    EXPECT_FALSE(p->decided());
    EXPECT_EQ(p->rounds().size(), 5u);
  }
}

TEST(ConsensusTemplate, DecidersKeepParticipating) {
  // One slow link must not prevent the run from completing: deciders keep
  // answering later rounds (paper §4.1 note).
  SimConfig config;
  config.seed = 3;
  UniformDelayNetwork::Options net;
  net.minDelay = 1;
  net.maxDelay = 30;  // heavy skew so processes decide in different rounds
  Simulator sim(config, std::make_unique<UniformDelayNetwork>(net));
  std::vector<ConsensusProcess*> procs;
  for (int i = 0; i < 5; ++i) {
    auto p = std::make_unique<ConsensusProcess>(
        3,
        [](Round) {
          return std::make_unique<MockDetector>(Confidence::kVacillate);
        },
        [](Round) { return std::make_unique<FixedDriver>(3); }, vacOptions());
    procs.push_back(p.get());
    sim.addProcess(std::move(p));
  }
  sim.stopWhenAllCorrectDecided();
  sim.run();
  EXPECT_TRUE(sim.allCorrectDecided());
  EXPECT_FALSE(sim.agreementViolated());
}

TEST(TaggedMessage, EnvelopeSharesImmutableInner) {
  const MessagePtr inner = makeMessage<EchoMsg>(9);
  const MessagePtr msg = makeMessage<TaggedMessage>(3, Stage::kDrive, inner);
  const auto* typed = msg->as<TaggedMessage>();
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->round(), 3u);
  EXPECT_EQ(typed->stage(), Stage::kDrive);
  EXPECT_EQ(typed->inner().as<EchoMsg>()->v, 9);
  // Payloads are immutable and refcounted: the envelope shares the inner
  // message instead of deep-copying it (see sim/message.hpp).
  EXPECT_EQ(&typed->inner(), inner.get());
  EXPECT_EQ(typed->innerPtr(), inner);
}

TEST(TaggedMessage, RejectsNullInner) {
  EXPECT_THROW(TaggedMessage(1, Stage::kDetect, nullptr),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// §5 constructions

/// Scripted AC for construction tests: completes immediately.
class ScriptedAc final : public AgreementDetector {
 public:
  explicit ScriptedAc(Outcome outcome) : outcome_(outcome) {}
  void invoke(ObjectContext&, Value) override { ready_ = true; }
  void onMessage(ObjectContext&, ProcessId, const Message&) override {}
  std::optional<Outcome> result() const override {
    return ready_ ? std::optional<Outcome>(outcome_) : std::nullopt;
  }

 private:
  Outcome outcome_;
  bool ready_ = false;
};

class NullObjectContext final : public ObjectContext {
 public:
  ProcessId self() const noexcept override { return 0; }
  std::size_t processCount() const noexcept override { return 1; }
  Tick now() const noexcept override { return 0; }
  Rng& rng() noexcept override { return rng_; }
  void post(ProcessId, MessagePtr) override {}
  void fanout(MessagePtr) override {}
  TimerId setTimer(Tick) override { return 0; }
  void cancelTimer(TimerId) noexcept override {}

 private:
  Rng rng_{0};
};

Outcome runVacFromTwoAc(Outcome first, Outcome second) {
  VacFromTwoAc vac(std::make_unique<ScriptedAc>(first),
                   std::make_unique<ScriptedAc>(second));
  NullObjectContext ctx;
  vac.invoke(ctx, first.value);
  const auto result = vac.result();
  EXPECT_TRUE(result.has_value());
  return *result;
}

TEST(VacFromTwoAc, CommitCommitGivesCommit) {
  const Outcome out = runVacFromTwoAc({Confidence::kCommit, 1},
                                      {Confidence::kCommit, 1});
  EXPECT_EQ(out, (Outcome{Confidence::kCommit, 1}));
}

TEST(VacFromTwoAc, AdoptCommitGivesAdopt) {
  const Outcome out = runVacFromTwoAc({Confidence::kAdopt, 1},
                                      {Confidence::kCommit, 1});
  EXPECT_EQ(out, (Outcome{Confidence::kAdopt, 1}));
}

TEST(VacFromTwoAc, AnyAdoptSecondGivesVacillate) {
  EXPECT_EQ(runVacFromTwoAc({Confidence::kCommit, 0},
                            {Confidence::kAdopt, 0})
                .confidence,
            Confidence::kVacillate);
  EXPECT_EQ(runVacFromTwoAc({Confidence::kAdopt, 0},
                            {Confidence::kAdopt, 1})
                .confidence,
            Confidence::kVacillate);
}

TEST(VacFromTwoAc, ValueComesFromSecondAc) {
  const Outcome out = runVacFromTwoAc({Confidence::kAdopt, 0},
                                      {Confidence::kAdopt, 4});
  EXPECT_EQ(out.value, 4);
}

TEST(VacFromTwoAc, RejectsVacillatingSubObject) {
  VacFromTwoAc vac(
      std::make_unique<ScriptedAc>(Outcome{Confidence::kVacillate, 0}),
      std::make_unique<ScriptedAc>(Outcome{Confidence::kCommit, 0}));
  NullObjectContext ctx;
  EXPECT_THROW(vac.invoke(ctx, 0), std::logic_error);
}

TEST(AcFromVac, RelabelsVacillateAsAdopt) {
  AcFromVac ac(std::make_unique<ScriptedAc>(
      Outcome{Confidence::kVacillate, 3}));
  NullObjectContext ctx;
  ac.invoke(ctx, 3);
  ASSERT_TRUE(ac.result().has_value());
  EXPECT_EQ(*ac.result(), (Outcome{Confidence::kAdopt, 3}));
}

TEST(AcFromVac, PassesThroughAdoptAndCommit) {
  for (Confidence c : {Confidence::kAdopt, Confidence::kCommit}) {
    AcFromVac ac(std::make_unique<ScriptedAc>(Outcome{c, 1}));
    NullObjectContext ctx;
    ac.invoke(ctx, 1);
    ASSERT_TRUE(ac.result().has_value());
    EXPECT_EQ(ac.result()->confidence, c);
  }
}

// ---------------------------------------------------------------------------
// Property auditors

TEST(Audit, ValidityFlagsForeignValues) {
  const auto audit = auditRound(
      {0, 1}, {Outcome{Confidence::kAdopt, 5}, std::nullopt});
  EXPECT_FALSE(audit.validity);
}

TEST(Audit, ValidityOptionsSkipLevels) {
  AuditOptions options;
  options.requireAdoptValidity = false;
  const auto audit = auditRound(
      {0, 1}, {Outcome{Confidence::kAdopt, 5}, std::nullopt}, options);
  EXPECT_TRUE(audit.validity);
  // Commit-level validity is never skippable.
  const auto commitAudit = auditRound(
      {0, 1}, {Outcome{Confidence::kCommit, 5}, std::nullopt}, options);
  EXPECT_FALSE(commitAudit.validity);
}

TEST(Audit, ConvergenceRequiresCommitOnUnanimity) {
  const auto bad = auditRound(
      {1, 1}, {Outcome{Confidence::kCommit, 1}, Outcome{Confidence::kAdopt, 1}});
  EXPECT_FALSE(bad.convergence);
  const auto good = auditRound(
      {1, 1},
      {Outcome{Confidence::kCommit, 1}, Outcome{Confidence::kCommit, 1}});
  EXPECT_TRUE(good.convergence);
}

TEST(Audit, ConvergenceNotRequiredOnMixedInputs) {
  const auto audit = auditRound(
      {0, 1},
      {Outcome{Confidence::kVacillate, 0}, Outcome{Confidence::kVacillate, 1}});
  EXPECT_TRUE(audit.convergence);
}

TEST(Audit, CoherenceAdoptCommitViolations) {
  // Commit alongside vacillate: violation.
  EXPECT_FALSE(auditRound({0, 1}, {Outcome{Confidence::kCommit, 0},
                                   Outcome{Confidence::kVacillate, 1}})
                   .coherenceAdoptCommit);
  // Commit alongside adopt of a different value: violation.
  EXPECT_FALSE(auditRound({0, 1}, {Outcome{Confidence::kCommit, 0},
                                   Outcome{Confidence::kAdopt, 1}})
                   .coherenceAdoptCommit);
  // Two commits with different values: violation.
  EXPECT_FALSE(auditRound({0, 1}, {Outcome{Confidence::kCommit, 0},
                                   Outcome{Confidence::kCommit, 1}})
                   .coherenceAdoptCommit);
  // Commit + matching adopt: fine.
  EXPECT_TRUE(auditRound({0, 1}, {Outcome{Confidence::kCommit, 1},
                                  Outcome{Confidence::kAdopt, 1}})
                  .coherenceAdoptCommit);
}

TEST(Audit, CoherenceVacillateAdoptViolations) {
  // No commit; two adopts with different values: violation.
  EXPECT_FALSE(auditRound({0, 1}, {Outcome{Confidence::kAdopt, 0},
                                   Outcome{Confidence::kAdopt, 1}})
                   .coherenceVacillateAdopt);
  // Adopt + vacillate with any value: fine.
  EXPECT_TRUE(auditRound({0, 1}, {Outcome{Confidence::kAdopt, 0},
                                  Outcome{Confidence::kVacillate, 1}})
                  .coherenceVacillateAdopt);
  // With a commit present this check is vacuous (the other one applies).
  EXPECT_TRUE(auditRound({0, 1}, {Outcome{Confidence::kCommit, 0},
                                  Outcome{Confidence::kAdopt, 1}})
                  .coherenceVacillateAdopt);
}

TEST(Audit, IncompleteOutcomesAreSkipped) {
  const auto audit =
      auditRound({0, 1}, {std::nullopt, Outcome{Confidence::kAdopt, 1}});
  EXPECT_TRUE(audit.ok());
}

TEST(Audit, ClassificationFlags) {
  const auto audit = auditRound(
      {0, 1, 1}, {Outcome{Confidence::kVacillate, 0},
                  Outcome{Confidence::kAdopt, 1},
                  std::nullopt});
  EXPECT_FALSE(audit.anyCommit);
  EXPECT_TRUE(audit.anyAdopt);
  EXPECT_TRUE(audit.anyVacillate);
}

}  // namespace
}  // namespace ooc
