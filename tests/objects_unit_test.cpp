// Object-level unit tests: each detector/driver driven directly through a
// manual ObjectContext with hand-crafted message sequences, pinning the
// exact thresholds and edge cases of every algorithm object.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "benor/byzantine_vac.hpp"
#include "benor/messages.hpp"
#include "benor/reconciliators.hpp"
#include "benor/vac.hpp"
#include "phaseking/adopt_commit.hpp"
#include "phaseking/conciliator.hpp"
#include "phaseking/messages.hpp"
#include "phaseking/queen.hpp"
#include "raft/decentralized.hpp"

namespace ooc {
namespace {

class ManualObjectContext final : public ObjectContext {
 public:
  explicit ManualObjectContext(std::size_t n, ProcessId self = 0)
      : n_(n), self_(self) {}

  ProcessId self() const noexcept override { return self_; }
  std::size_t processCount() const noexcept override { return n_; }
  Tick now() const noexcept override { return 0; }
  Rng& rng() noexcept override { return rng_; }

  void post(ProcessId to, MessagePtr inner) override {
    sent.emplace_back(to, std::move(inner));
  }
  void fanout(MessagePtr inner) override {
    broadcasts.push_back(std::move(inner));
  }
  TimerId setTimer(Tick) override { return 0; }
  void cancelTimer(TimerId) noexcept override {}

  template <typename T>
  const T* lastBroadcast() const {
    for (auto it = broadcasts.rbegin(); it != broadcasts.rend(); ++it)
      if (const T* typed = (*it)->template as<T>()) return typed;
    return nullptr;
  }

  std::vector<std::pair<ProcessId, MessagePtr>> sent;
  std::vector<MessagePtr> broadcasts;

 private:
  std::size_t n_;
  ProcessId self_;
  Rng rng_{5};
};

// ---------------------------------------------------------------------------
// Phase-King AC (Algorithm 3): n = 4, t = 1, quorum n - t = 3.

struct PkAcBench {
  PkAcBench() : ctx(4), ac(1) {}
  void feedExchange1(std::vector<Value> values) {
    for (ProcessId from = 0; from < values.size(); ++from)
      ac.onMessage(ctx, from, phaseking::ExchangeMessage(1, values[from]));
    ac.onTick(ctx, 1);
  }
  void feedExchange2(std::vector<Value> values) {
    for (ProcessId from = 0; from < values.size(); ++from)
      ac.onMessage(ctx, from, phaseking::ExchangeMessage(2, values[from]));
    ac.onTick(ctx, 2);
  }
  ManualObjectContext ctx;
  phaseking::PhaseKingAc ac;
};

TEST(PhaseKingAcUnit, UnanimousCommits) {
  PkAcBench bench;
  bench.ac.invoke(bench.ctx, 1);
  bench.feedExchange1({1, 1, 1, 1});
  const auto* relay = bench.ctx.lastBroadcast<phaseking::ExchangeMessage>();
  ASSERT_NE(relay, nullptr);
  EXPECT_EQ(relay->value, 1) << "C(1) = 4 >= 3 must select 1";
  bench.feedExchange2({1, 1, 1, 1});
  ASSERT_TRUE(bench.ac.result().has_value());
  EXPECT_EQ(*bench.ac.result(), (Outcome{Confidence::kCommit, 1}));
}

TEST(PhaseKingAcUnit, SplitFirstExchangeYieldsSentinel) {
  PkAcBench bench;
  bench.ac.invoke(bench.ctx, 0);
  bench.feedExchange1({0, 0, 1, 1});  // no value reaches n - t = 3
  const auto* relay = bench.ctx.lastBroadcast<phaseking::ExchangeMessage>();
  ASSERT_NE(relay, nullptr);
  EXPECT_EQ(relay->value, 2) << "sentinel expected on split";
  bench.feedExchange2({2, 2, 2, 2});
  ASSERT_TRUE(bench.ac.result().has_value());
  EXPECT_EQ(bench.ac.result()->confidence, Confidence::kAdopt);
  EXPECT_EQ(bench.ac.result()->value, 2) << "the documented validity gap";
}

TEST(PhaseKingAcUnit, DownToLoopPrefersSmallestThresholdValue) {
  PkAcBench bench;
  bench.ac.invoke(bench.ctx, 0);
  bench.feedExchange1({0, 0, 0, 1});
  // D(0) = 2 > t and D(2) = 2 > t: the 2-downto-0 loop must end at 0.
  bench.feedExchange2({0, 0, 2, 2});
  ASSERT_TRUE(bench.ac.result().has_value());
  EXPECT_EQ(bench.ac.result()->value, 0);
  EXPECT_EQ(bench.ac.result()->confidence, Confidence::kAdopt);
}

TEST(PhaseKingAcUnit, DuplicateSendersCountOnce) {
  PkAcBench bench;
  bench.ac.invoke(bench.ctx, 1);
  // Byzantine process 3 votes five times for 1; only the first counts, so
  // C(1) = 2 < 3 and the sentinel wins.
  for (int i = 0; i < 5; ++i)
    bench.ac.onMessage(bench.ctx, 3, phaseking::ExchangeMessage(1, 1));
  bench.ac.onMessage(bench.ctx, 0, phaseking::ExchangeMessage(1, 1));
  bench.ac.onMessage(bench.ctx, 1, phaseking::ExchangeMessage(1, 0));
  bench.ac.onMessage(bench.ctx, 2, phaseking::ExchangeMessage(1, 0));
  bench.ac.onTick(bench.ctx, 1);
  const auto* relay = bench.ctx.lastBroadcast<phaseking::ExchangeMessage>();
  ASSERT_NE(relay, nullptr);
  EXPECT_EQ(relay->value, 2);
}

TEST(PhaseKingAcUnit, OutOfDomainBallotsDiscarded) {
  PkAcBench bench;
  bench.ac.invoke(bench.ctx, 1);
  bench.feedExchange1({1, 1, 7, -3});  // two garbage ballots
  const auto* relay = bench.ctx.lastBroadcast<phaseking::ExchangeMessage>();
  ASSERT_NE(relay, nullptr);
  EXPECT_EQ(relay->value, 2) << "garbage must not reach a quorum";
}

TEST(PhaseKingAcUnit, RejectsBadTolerance) {
  ManualObjectContext ctx(3);
  phaseking::PhaseKingAc ac(1);  // 3t = 3 >= n
  EXPECT_THROW(ac.invoke(ctx, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// King conciliator (Algorithm 4). Round 1's king is process 0.

TEST(KingConciliatorUnit, TakesTheKingsValue) {
  ManualObjectContext ctx(4, /*self=*/2);
  phaseking::KingConciliator conciliator(1);
  conciliator.invoke(ctx, Outcome{Confidence::kAdopt, 0});
  EXPECT_TRUE(ctx.broadcasts.empty()) << "only the king broadcasts";
  conciliator.onMessage(ctx, 0, phaseking::KingMessage(1));
  ASSERT_TRUE(conciliator.result().has_value());
  EXPECT_EQ(*conciliator.result(), 1);
}

TEST(KingConciliatorUnit, KingBroadcastsMinOneOfValue) {
  ManualObjectContext ctx(4, /*self=*/0);  // we are the king
  phaseking::KingConciliator conciliator(1);
  conciliator.invoke(ctx, Outcome{Confidence::kAdopt, 2});  // sentinel in
  const auto* sent = ctx.lastBroadcast<phaseking::KingMessage>();
  ASSERT_NE(sent, nullptr);
  EXPECT_EQ(sent->value, 1) << "MIN(1, 2) = 1";
}

TEST(KingConciliatorUnit, ImposterIgnoredAndSilentKingFallsBack) {
  ManualObjectContext ctx(4, /*self=*/2);
  phaseking::KingConciliator conciliator(1);
  conciliator.invoke(ctx, Outcome{Confidence::kAdopt, 0});
  conciliator.onMessage(ctx, 3, phaseking::KingMessage(1));  // not the king
  EXPECT_FALSE(conciliator.result().has_value());
  conciliator.onTick(ctx, 3);  // end of exchange, king stayed silent
  ASSERT_TRUE(conciliator.result().has_value());
  EXPECT_EQ(*conciliator.result(), 0) << "fallback to own value";
}

TEST(KingConciliatorUnit, HostileKingPayloadClamped) {
  ManualObjectContext ctx(4, /*self=*/2);
  phaseking::KingConciliator conciliator(1);
  conciliator.invoke(ctx, Outcome{Confidence::kAdopt, 0});
  conciliator.onMessage(ctx, 0, phaseking::KingMessage(999));
  ASSERT_TRUE(conciliator.result().has_value());
  EXPECT_EQ(*conciliator.result(), 1) << "clamped into {0,1}";
}

// ---------------------------------------------------------------------------
// Phase-Queen AC: n = 5, t = 1, commit needs count >= n - t = 4.

TEST(PhaseQueenAcUnit, ThresholdTable) {
  struct Case {
    std::vector<Value> ballots;
    Confidence confidence;
    Value value;
  };
  const std::vector<Case> cases = {
      {{1, 1, 1, 1, 1}, Confidence::kCommit, 1},
      {{1, 1, 1, 1, 0}, Confidence::kCommit, 1},   // 4 >= 4
      {{1, 1, 1, 0, 0}, Confidence::kAdopt, 1},    // plurality only
      {{0, 0, 1, 1, 7}, Confidence::kAdopt, 0},    // tie -> 0, junk dropped
      {{0, 0, 0, 0, 0}, Confidence::kCommit, 0},
  };
  for (const Case& c : cases) {
    ManualObjectContext ctx(5);
    phaseking::PhaseQueenAc ac(1);
    ac.invoke(ctx, c.ballots[0]);
    for (ProcessId from = 0; from < 5; ++from)
      ac.onMessage(ctx, from, phaseking::ExchangeMessage(1, c.ballots[from]));
    ac.onTick(ctx, 1);
    ASSERT_TRUE(ac.result().has_value());
    EXPECT_EQ(ac.result()->confidence, c.confidence);
    EXPECT_EQ(ac.result()->value, c.value);
  }
}

TEST(PhaseQueenAcUnit, RejectsKingLevelTolerance) {
  ManualObjectContext ctx(8);
  phaseking::PhaseQueenAc ac(2);  // 4t = 8 >= n
  EXPECT_THROW(ac.invoke(ctx, 0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Ben-Or VAC (Algorithm 5): n = 5, t = 2, quorum 3.

struct BenOrBench {
  BenOrBench() : ctx(5), vac(2) { vac.invoke(ctx, 1); }
  ManualObjectContext ctx;
  benor::BenOrVac vac;
};

TEST(BenOrVacUnit, RatifiesOnMajorityOfAllN) {
  BenOrBench bench;
  for (ProcessId from = 0; from < 3; ++from)
    bench.vac.onMessage(bench.ctx, from, benor::ProposalMessage(1));
  const auto* report = bench.ctx.lastBroadcast<benor::ReportMessage>();
  ASSERT_NE(report, nullptr);
  EXPECT_TRUE(report->ratify) << "3 of 5 > n/2";
  EXPECT_EQ(report->value, 1);
}

TEST(BenOrVacUnit, AbstainsWithoutMajority) {
  BenOrBench bench;
  bench.vac.onMessage(bench.ctx, 0, benor::ProposalMessage(1));
  bench.vac.onMessage(bench.ctx, 1, benor::ProposalMessage(0));
  bench.vac.onMessage(bench.ctx, 2, benor::ProposalMessage(0));
  const auto* report = bench.ctx.lastBroadcast<benor::ReportMessage>();
  ASSERT_NE(report, nullptr);
  EXPECT_FALSE(report->ratify) << "2 of 5 is not > n/2";
}

TEST(BenOrVacUnit, OutcomeThresholds) {
  // commit: > t = 2 ratifies; adopt: >= 1; vacillate: none.
  struct Case {
    ProcessId ratifies;
    Confidence confidence;
  };
  for (const Case c : {Case{3, Confidence::kCommit},
                       Case{1, Confidence::kAdopt},
                       Case{0, Confidence::kVacillate}}) {
    BenOrBench bench;
    for (ProcessId from = 0; from < 3; ++from)
      bench.vac.onMessage(bench.ctx, from, benor::ProposalMessage(1));
    for (ProcessId from = 0; from < 3; ++from) {
      const bool ratify = from < c.ratifies;
      bench.vac.onMessage(
          bench.ctx, from,
          benor::ReportMessage(ratify, ratify ? 1 : kNoValue));
    }
    ASSERT_TRUE(bench.vac.result().has_value());
    EXPECT_EQ(bench.vac.result()->confidence, c.confidence);
  }
}

TEST(BenOrVacUnit, EarlyReportsBufferedUntilQuorum) {
  // Phase-2 reports arriving before our own report must tally but not
  // complete the object until phase 1 finishes.
  BenOrBench bench;
  for (ProcessId from = 0; from < 3; ++from)
    bench.vac.onMessage(bench.ctx, from, benor::ReportMessage(true, 1));
  EXPECT_FALSE(bench.vac.result().has_value());
  for (ProcessId from = 0; from < 3; ++from)
    bench.vac.onMessage(bench.ctx, from, benor::ProposalMessage(1));
  ASSERT_TRUE(bench.vac.result().has_value());
  EXPECT_EQ(bench.vac.result()->confidence, Confidence::kCommit);
}

TEST(BenOrVacUnit, ReportIgnoresArrivalOrder) {
  // n = 9, t = 2: the report goes out on the 7th distinct proposal and
  // ratifies a value only when more than 9/2 of all n proposed it.
  constexpr std::size_t kN = 9;
  constexpr std::size_t kT = 2;
  const auto reportAfter = [&](const std::vector<Value>& proposals,
                               std::vector<ProcessId> order) {
    std::vector<std::pair<bool, Value>> reports;
    do {
      ManualObjectContext ctx(kN);
      benor::BenOrVac vac(kT);
      vac.invoke(ctx, 1);
      for (ProcessId from : order)
        vac.onMessage(ctx, from, benor::ProposalMessage(proposals[from]));
      const auto* report = ctx.lastBroadcast<benor::ReportMessage>();
      EXPECT_NE(report, nullptr);
      if (report != nullptr) reports.emplace_back(report->ratify, report->value);
    } while (std::next_permutation(order.begin(), order.end()));
    return reports;
  };
  std::vector<ProcessId> senders(kN - kT);
  std::iota(senders.begin(), senders.end(), ProcessId{0});

  // Five 2s among seven proposals: every arrival order ratifies 2.
  for (const auto& [ratify, value] :
       reportAfter({2, 0, 2, 1, 2, 2, 2}, senders)) {
    ASSERT_TRUE(ratify);
    ASSERT_EQ(value, 2);
  }
  // Four 2s are a majority of the seven received but not of n: abstain.
  for (const auto& [ratify, value] :
       reportAfter({0, 2, 2, 1, 0, 2, 2}, senders))
    ASSERT_FALSE(ratify);
}

TEST(BenOrVacUnit, DuplicateAndOutOfRangeSendersAreIgnored) {
  ManualObjectContext ctx(9);
  benor::BenOrVac vac(2);
  vac.invoke(ctx, 1);
  for (ProcessId from = 0; from < 6; ++from)
    vac.onMessage(ctx, from, benor::ProposalMessage(from < 4 ? 2 : 0));
  // A repeat from p0 and two senders outside [0, n), all for 2: were any
  // of them counted, the quorum would be in with a majority for 2.
  vac.onMessage(ctx, 0, benor::ProposalMessage(2));
  vac.onMessage(ctx, 9, benor::ProposalMessage(2));
  vac.onMessage(ctx, 100, benor::ProposalMessage(2));
  EXPECT_EQ(ctx.lastBroadcast<benor::ReportMessage>(), nullptr);
  vac.onMessage(ctx, 6, benor::ProposalMessage(1));
  const auto* report = ctx.lastBroadcast<benor::ReportMessage>();
  ASSERT_NE(report, nullptr);
  EXPECT_FALSE(report->ratify) << "four 2s of n = 9";
}

TEST(BenOrVacUnit, CommitNeedsMoreThanTRatifies) {
  // n = 9, t = 2: exactly t ratifies adopt, t + 1 commit; a repeated
  // ratify from one sender counts once.
  for (const std::size_t ratifies : {std::size_t{2}, std::size_t{3}}) {
    ManualObjectContext ctx(9);
    benor::BenOrVac vac(2);
    vac.invoke(ctx, 1);
    for (ProcessId from = 0; from < 7; ++from)
      vac.onMessage(ctx, from, benor::ProposalMessage(2));
    vac.onMessage(ctx, 0, benor::ReportMessage(true, 2));  // repeated below
    for (ProcessId from = 0; from < 7; ++from) {
      const bool ratify = from < ratifies;
      vac.onMessage(ctx, from,
                    benor::ReportMessage(ratify, ratify ? 2 : kNoValue));
    }
    ASSERT_TRUE(vac.result().has_value());
    EXPECT_EQ(vac.result()->confidence,
              ratifies > 2 ? Confidence::kCommit : Confidence::kAdopt)
        << ratifies << " ratifies";
    EXPECT_EQ(vac.result()->value, 2);
  }
}

// ---------------------------------------------------------------------------
// Byzantine Ben-Or VAC: n = 11, t = 2.

struct ByzBenOrBench {
  ByzBenOrBench() : ctx(11), vac(2) { vac.invoke(ctx, 1); }
  void finishPhaseOne(Value value, int count) {
    for (ProcessId from = 0; from < 9; ++from) {
      bench(from, from < static_cast<ProcessId>(count) ? value
                                                       : 1 - value);
    }
  }
  void bench(ProcessId from, Value v) {
    vac.onMessage(ctx, from, benor::ProposalMessage(v));
  }
  ManualObjectContext ctx;
  benor::ByzantineBenOrVac vac;
};

TEST(ByzantineBenOrVacUnit, SupermajorityThresholdIsNPlusTOverTwo) {
  // n + t = 13: ratify needs count > 6.5, i.e. >= 7 of the 9 received.
  {
    ByzBenOrBench bench;
    bench.finishPhaseOne(1, 7);
    const auto* report = bench.ctx.lastBroadcast<benor::ReportMessage>();
    ASSERT_NE(report, nullptr);
    EXPECT_TRUE(report->ratify);
  }
  {
    ByzBenOrBench bench;
    bench.finishPhaseOne(1, 6);
    const auto* report = bench.ctx.lastBroadcast<benor::ReportMessage>();
    ASSERT_NE(report, nullptr);
    EXPECT_FALSE(report->ratify);
  }
}

TEST(ByzantineBenOrVacUnit, ForgedRatifiesBelowThresholdsAreHarmless) {
  ByzBenOrBench bench;
  bench.finishPhaseOne(1, 9);
  // t = 2 forged ratifies of 0 (> t needed to adopt): must not flip.
  bench.vac.onMessage(bench.ctx, 9, benor::ReportMessage(true, 0));
  bench.vac.onMessage(bench.ctx, 10, benor::ReportMessage(true, 0));
  // 7 honest ratifies of 1 (> 3t = 6 commits).
  for (ProcessId from = 0; from < 7; ++from)
    bench.vac.onMessage(bench.ctx, from, benor::ReportMessage(true, 1));
  ASSERT_TRUE(bench.vac.result().has_value());
  EXPECT_EQ(*bench.vac.result(), (Outcome{Confidence::kCommit, 1}));
}

TEST(ByzantineBenOrVacUnit, CommitNeedsMoreThanThreeT) {
  ByzBenOrBench bench;
  bench.finishPhaseOne(1, 9);
  // Exactly 3t = 6 ratifies: adopt, not commit; plus 3 abstains to finish.
  for (ProcessId from = 0; from < 6; ++from)
    bench.vac.onMessage(bench.ctx, from, benor::ReportMessage(true, 1));
  for (ProcessId from = 6; from < 9; ++from)
    bench.vac.onMessage(bench.ctx, from,
                        benor::ReportMessage(false, kNoValue));
  ASSERT_TRUE(bench.vac.result().has_value());
  EXPECT_EQ(bench.vac.result()->confidence, Confidence::kAdopt);
}

TEST(ByzantineBenOrVacUnit, RejectsNonBinaryAndBadTolerance) {
  ManualObjectContext ctx(11);
  benor::ByzantineBenOrVac vac(2);
  EXPECT_THROW(vac.invoke(ctx, 5), std::invalid_argument);
  ManualObjectContext small(10);
  benor::ByzantineBenOrVac tooBig(2);  // 5t = 10 >= n
  EXPECT_THROW(tooBig.invoke(small, 1), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Reconciliators

TEST(ReconciliatorUnit, CommonCoinIsCommonAndRoundDependent) {
  benor::CommonCoinReconciliator a(42, 3);
  benor::CommonCoinReconciliator b(42, 3);
  ManualObjectContext ctx(4);
  a.invoke(ctx, Outcome{});
  b.invoke(ctx, Outcome{});
  EXPECT_EQ(a.result(), b.result());

  bool differs = false;
  for (Round m = 1; m <= 64 && !differs; ++m) {
    benor::CommonCoinReconciliator c(42, m);
    c.invoke(ctx, Outcome{});
    differs = c.result() != a.result();
  }
  EXPECT_TRUE(differs) << "coin constant across rounds";
}

TEST(ReconciliatorUnit, BiasedCoinExtremes) {
  ManualObjectContext ctx(4);
  for (int i = 0; i < 20; ++i) {
    benor::BiasedCoinReconciliator zero(0.0);
    zero.invoke(ctx, Outcome{});
    EXPECT_EQ(*zero.result(), 0);
    benor::BiasedCoinReconciliator one(1.0);
    one.invoke(ctx, Outcome{});
    EXPECT_EQ(*one.result(), 1);
  }
}

TEST(ReconciliatorUnit, KeepValueReturnsDetectedValue) {
  ManualObjectContext ctx(4);
  benor::KeepValueReconciliator keep;
  keep.invoke(ctx, Outcome{Confidence::kVacillate, 37});
  EXPECT_EQ(*keep.result(), 37);
}

TEST(ReconciliatorUnit, LotteryPicksSharedMinimumTicket) {
  // Two processes with the same (seed, round) must agree on the winner
  // when they see the same tickets.
  const auto runOne = [](ProcessId self) {
    ManualObjectContext ctx(4, self);
    benor::LotteryReconciliator lottery(1, 99, 2);
    lottery.invoke(ctx, Outcome{Confidence::kVacillate, 10 + self});
    for (ProcessId from = 0; from < 3; ++from) {
      lottery.onMessage(ctx, from,
                        benor::LotteryTicketMessage(100 + from));
    }
    EXPECT_TRUE(lottery.result().has_value());
    return *lottery.result();
  };
  EXPECT_EQ(runOne(0), runOne(3));
}

TEST(ReconciliatorUnit, LotteryWaitsForQuorum) {
  ManualObjectContext ctx(4);
  benor::LotteryReconciliator lottery(1, 99, 1);  // quorum 3
  lottery.invoke(ctx, Outcome{Confidence::kVacillate, 0});
  lottery.onMessage(ctx, 1, benor::LotteryTicketMessage(5));
  lottery.onMessage(ctx, 1, benor::LotteryTicketMessage(5));  // duplicate
  EXPECT_FALSE(lottery.result().has_value());
  lottery.onMessage(ctx, 2, benor::LotteryTicketMessage(6));
  lottery.onMessage(ctx, 3, benor::LotteryTicketMessage(7));
  EXPECT_TRUE(lottery.result().has_value());
}

// ---------------------------------------------------------------------------
// Decentralized-Raft VAC mirrors Ben-Or's thresholds

TEST(DecentralizedVacUnit, MirrorsBenOrOutcomes) {
  ManualObjectContext ctx(5);
  raft::DecentralizedRaftVac vac(2);
  vac.invoke(ctx, 1);
  for (ProcessId from = 0; from < 3; ++from)
    vac.onMessage(ctx, from, raft::DecProposeMessage(1));
  const auto* commitMsg = ctx.lastBroadcast<raft::DecCommitMessage>();
  ASSERT_NE(commitMsg, nullptr);
  EXPECT_TRUE(commitMsg->commit);
  for (ProcessId from = 0; from < 3; ++from)
    vac.onMessage(ctx, from, raft::DecCommitMessage(true, 1));
  ASSERT_TRUE(vac.result().has_value());
  EXPECT_EQ(*vac.result(), (Outcome{Confidence::kCommit, 1}));
}

}  // namespace
}  // namespace ooc
