// Unit tests for the discrete-event simulator: ordering, delivery,
// timers, crashes, network models, lockstep barriers, determinism, and the
// decision monitor.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/message.hpp"
#include "sim/network.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"

namespace ooc {
namespace {

struct Ping final : MessageBase<Ping> {
  explicit Ping(int payload = 0) : payload(payload) {}
  int payload;
  std::string describe() const override {
    return "ping(" + std::to_string(payload) + ")";
  }
};

/// Records everything that happens to it.
class Recorder : public Process {
 public:
  void onStart() override { started = true; }
  void onMessage(ProcessId from, const Message& message) override {
    const auto* ping = message.as<Ping>();
    ASSERT_NE(ping, nullptr);
    received.emplace_back(from, ping->payload);
    receiveTicks.push_back(ctx().now());
  }
  void onTimer(TimerId id) override { timersFired.push_back(id); }
  void onTick(Tick tick) override { ticks.push_back(tick); }

  bool started = false;
  std::vector<std::pair<ProcessId, int>> received;
  std::vector<Tick> receiveTicks;
  std::vector<TimerId> timersFired;
  std::vector<Tick> ticks;
};

/// Sends a configurable batch of messages / timers at start.
class Sender : public Process {
 public:
  explicit Sender(std::function<void(Context&)> onStartAction)
      : action_(std::move(onStartAction)) {}
  void onStart() override { action_(ctx()); }
  void onMessage(ProcessId, const Message&) override {}

 private:
  std::function<void(Context&)> action_;
};

std::unique_ptr<NetworkModel> sync() {
  return std::make_unique<SynchronousNetwork>();
}

TEST(Simulator, StartsEveryProcess) {
  Simulator sim(SimConfig{}, sync());
  auto* a = new Recorder;
  auto* b = new Recorder;
  sim.addProcess(std::unique_ptr<Process>(a));
  sim.addProcess(std::unique_ptr<Process>(b));
  sim.run();
  EXPECT_TRUE(a->started);
  EXPECT_TRUE(b->started);
}

TEST(Simulator, SynchronousDeliveryTakesOneTick) {
  Simulator sim(SimConfig{}, sync());
  sim.addProcess(std::make_unique<Sender>(
      [](Context& ctx) { ctx.post(1, makeMessage<Ping>(7)); }));
  auto* receiver = new Recorder;
  sim.addProcess(std::unique_ptr<Process>(receiver));
  sim.run();
  ASSERT_EQ(receiver->received.size(), 1u);
  EXPECT_EQ(receiver->received[0], std::make_pair(ProcessId{0}, 7));
  EXPECT_EQ(receiver->receiveTicks[0], 1u);
}

TEST(Simulator, BroadcastReachesEveryoneIncludingSelf) {
  Simulator sim(SimConfig{}, sync());
  auto* a = new Recorder;
  class BroadcastOnStart : public Recorder {
   public:
    void onStart() override { ctx().fanout(makeMessage<Ping>(3)); }
  };
  auto* b = new BroadcastOnStart;
  sim.addProcess(std::unique_ptr<Process>(a));
  sim.addProcess(std::unique_ptr<Process>(b));
  sim.run();
  ASSERT_EQ(a->received.size(), 1u);
  ASSERT_EQ(b->received.size(), 1u);  // self-delivery
  EXPECT_EQ(b->received[0].first, 1u);
}

TEST(Simulator, FifoOrderPreservedAtSameTickBySequence) {
  Simulator sim(SimConfig{}, sync());
  sim.addProcess(std::make_unique<Sender>([](Context& ctx) {
    ctx.post(1, makeMessage<Ping>(1));
    ctx.post(1, makeMessage<Ping>(2));
    ctx.post(1, makeMessage<Ping>(3));
  }));
  auto* receiver = new Recorder;
  sim.addProcess(std::unique_ptr<Process>(receiver));
  sim.run();
  ASSERT_EQ(receiver->received.size(), 3u);
  EXPECT_EQ(receiver->received[0].second, 1);
  EXPECT_EQ(receiver->received[1].second, 2);
  EXPECT_EQ(receiver->received[2].second, 3);
}

TEST(Simulator, TimerFiresAtRequestedDelay) {
  Simulator sim(SimConfig{}, sync());
  class TimerProcess : public Recorder {
   public:
    void onStart() override { id = ctx().setTimer(5); }
    void onTimer(TimerId timerId) override {
      fireTick = ctx().now();
      fired = (timerId == id);
    }
    TimerId id = 0;
    Tick fireTick = 0;
    bool fired = false;
  };
  auto* p = new TimerProcess;
  sim.addProcess(std::unique_ptr<Process>(p));
  sim.run();
  EXPECT_TRUE(p->fired);
  EXPECT_EQ(p->fireTick, 5u);
}

TEST(Simulator, CancelledTimerDoesNotFire) {
  Simulator sim(SimConfig{}, sync());
  class CancelProcess : public Recorder {
   public:
    void onStart() override {
      const TimerId id = ctx().setTimer(5);
      ctx().cancelTimer(id);
    }
  };
  auto* p = new CancelProcess;
  sim.addProcess(std::unique_ptr<Process>(p));
  sim.run();
  EXPECT_TRUE(p->timersFired.empty());
}

// Regression: arming and immediately disarming many timers must not
// accumulate per-timer bookkeeping (cancelled ids used to pile up in a
// tombstone set until their heap entries drained).
TEST(Simulator, MassTimerChurnLeavesNoPendingState) {
  Simulator sim(SimConfig{}, sync());
  class Churner : public Recorder {
   public:
    void onStart() override {
      for (int i = 0; i < 100000; ++i) {
        const TimerId id = ctx().setTimer(1000);
        ctx().cancelTimer(id);
      }
      keep = ctx().setTimer(3);
    }
    TimerId keep = 0;
  };
  auto* p = new Churner;
  sim.addProcess(std::unique_ptr<Process>(p));
  sim.run();
  ASSERT_EQ(p->timersFired.size(), 1u);
  EXPECT_EQ(p->timersFired.front(), p->keep);
  EXPECT_EQ(sim.pendingTimerCount(), 0u);
}

TEST(Simulator, CrashedProcessReceivesNothing) {
  Simulator sim(SimConfig{}, sync());
  sim.addProcess(std::make_unique<Sender>([](Context& ctx) {
    ctx.setTimer(10);  // keep the run alive
    ctx.post(1, makeMessage<Ping>(1));
  }));
  auto* victim = new Recorder;
  sim.addProcess(std::unique_ptr<Process>(victim));
  sim.crashAt(1, 0);  // crash before delivery
  sim.run();
  EXPECT_TRUE(victim->received.empty());
  EXPECT_TRUE(sim.crashed(1));
}

TEST(Simulator, CrashedProcessCannotSend) {
  Simulator sim(SimConfig{}, sync());
  class LateSender : public Process {
   public:
    void onStart() override { ctx().setTimer(5); }
    void onTimer(TimerId) override {
      ctx().post(1, makeMessage<Ping>(9));
    }
    void onMessage(ProcessId, const Message&) override {}
  };
  sim.addProcess(std::make_unique<LateSender>());
  auto* receiver = new Recorder;
  sim.addProcess(std::unique_ptr<Process>(receiver));
  sim.crashAt(0, 2);  // crash before its timer fires
  sim.run();
  EXPECT_TRUE(receiver->received.empty());
}

TEST(Simulator, DecisionMonitorChecksAgreement) {
  Simulator sim(SimConfig{}, sync());
  class Decider : public Process {
   public:
    explicit Decider(Value v) : v_(v) {}
    void onStart() override { ctx().decide(v_); }
    void onMessage(ProcessId, const Message&) override {}
    Value v_;
  };
  sim.addProcess(std::make_unique<Decider>(0));
  sim.addProcess(std::make_unique<Decider>(1));
  sim.run();
  EXPECT_TRUE(sim.agreementViolated());
  EXPECT_TRUE(sim.allCorrectDecided());
}

TEST(Simulator, DecisionMonitorChecksValidity) {
  Simulator sim(SimConfig{}, sync());
  class Decider : public Process {
   public:
    void onStart() override { ctx().decide(99); }
    void onMessage(ProcessId, const Message&) override {}
  };
  sim.addProcess(std::make_unique<Decider>());
  sim.setValidValues({0, 1});
  sim.run();
  EXPECT_TRUE(sim.validityViolated());
}

TEST(Simulator, FaultyProcessesExcludedFromChecks) {
  Simulator sim(SimConfig{}, sync());
  class Decider : public Process {
   public:
    explicit Decider(Value v) : v_(v) {}
    void onStart() override { ctx().decide(v_); }
    void onMessage(ProcessId, const Message&) override {}
    Value v_;
  };
  sim.addProcess(std::make_unique<Decider>(0));
  sim.addProcess(std::make_unique<Decider>(1), /*faulty=*/true);
  sim.setValidValues({0});
  sim.run();
  EXPECT_FALSE(sim.agreementViolated());
  EXPECT_FALSE(sim.validityViolated());
}

TEST(Simulator, RepeatDecisionsIgnored) {
  Simulator sim(SimConfig{}, sync());
  class DoubleDecider : public Process {
   public:
    void onStart() override {
      ctx().decide(0);
      ctx().decide(1);  // must be ignored
    }
    void onMessage(ProcessId, const Message&) override {}
  };
  sim.addProcess(std::make_unique<DoubleDecider>());
  sim.run();
  EXPECT_FALSE(sim.agreementViolated());
  EXPECT_EQ(sim.decision(0).value, 0);
}

TEST(Simulator, StopPredicateEndsRun) {
  SimConfig config;
  config.lockstep = true;  // barrier keeps the queue alive forever
  config.maxTicks = 1000;
  Simulator sim(config, sync());
  auto* p = new Recorder;
  sim.addProcess(std::unique_ptr<Process>(p));
  sim.setStopPredicate(
      [](const Simulator& s) { return s.now() >= 50; });
  sim.run();
  EXPECT_GE(sim.now(), 50u);
  EXPECT_LT(sim.now(), 60u);
  EXPECT_FALSE(sim.hitCap());
}

TEST(Simulator, LockstepBarrierStartsAtTickOne) {
  SimConfig config;
  config.lockstep = true;
  Simulator sim(config, sync());
  auto* p = new Recorder;
  sim.addProcess(std::unique_ptr<Process>(p));
  sim.setStopPredicate([](const Simulator& s) { return s.now() >= 5; });
  sim.run();
  ASSERT_FALSE(p->ticks.empty());
  EXPECT_EQ(p->ticks.front(), 1u);
  for (std::size_t i = 1; i < p->ticks.size(); ++i)
    EXPECT_EQ(p->ticks[i], p->ticks[i - 1] + 1);
}

TEST(Simulator, MaxTickCapReported) {
  SimConfig config;
  config.lockstep = true;
  config.maxTicks = 20;
  Simulator sim(config, sync());
  sim.addProcess(std::make_unique<Recorder>());
  sim.run();
  EXPECT_TRUE(sim.hitCap());
}

TEST(Simulator, ScheduledControlActionsRun) {
  Simulator sim(SimConfig{}, sync());
  sim.addProcess(std::make_unique<Recorder>());
  bool ran = false;
  Tick at = 0;
  sim.schedule(17, [&] {
    ran = true;
    at = sim.now();
  });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(at, 17u);
}

TEST(Simulator, MessageCountersTrackSends) {
  Simulator sim(SimConfig{}, sync());
  sim.addProcess(std::make_unique<Sender>([](Context& ctx) {
    ctx.post(1, makeMessage<Ping>());
    ctx.post(1, makeMessage<Ping>());
  }));
  sim.addProcess(std::make_unique<Recorder>(), /*faulty=*/true);
  sim.run();
  EXPECT_EQ(sim.messagesSent(), 2u);
  EXPECT_EQ(sim.messagesSentByCorrect(), 2u);
  EXPECT_EQ(sim.messagesDelivered(), 2u);
}

TEST(Simulator, DeterministicAcrossRuns) {
  // Hash the full delivery schedule (who received what when): identical for
  // equal seeds, different for different seeds.
  auto run = [](std::uint64_t seed) {
    SimConfig config;
    config.seed = seed;
    UniformDelayNetwork::Options net;
    net.minDelay = 1;
    net.maxDelay = 20;
    Simulator sim(config, std::make_unique<UniformDelayNetwork>(net));
    class Chatter : public Process {
     public:
      explicit Chatter(std::uint64_t* hash) : hash_(hash) {}
      void onStart() override { ctx().fanout(makeMessage<Ping>(0)); }
      void onMessage(ProcessId from, const Message&) override {
        *hash_ = *hash_ * 1099511628211ull ^
                 (ctx().now() * 31 + from * 7 + ctx().self());
        if (++count_ < 20) ctx().fanout(makeMessage<Ping>(count_));
      }
      std::uint64_t* hash_;
      int count_ = 0;
    };
    std::uint64_t hash = 14695981039346656037ull;
    for (int i = 0; i < 4; ++i)
      sim.addProcess(std::make_unique<Chatter>(&hash));
    sim.run();
    return std::make_tuple(hash, sim.messagesSent(), sim.eventsProcessed());
  };
  EXPECT_EQ(run(123), run(123));
  EXPECT_NE(run(123), run(456));
}

TEST(UniformDelayNetwork, RespectsBounds) {
  UniformDelayNetwork::Options options;
  options.minDelay = 3;
  options.maxDelay = 9;
  UniformDelayNetwork net(options);
  Rng rng(1);
  std::vector<Tick> delays;
  for (int i = 0; i < 500; ++i) {
    delays.clear();
    net.plan(0, 1, 0, rng, delays);
    ASSERT_EQ(delays.size(), 1u);
    EXPECT_GE(delays[0], 3u);
    EXPECT_LE(delays[0], 9u);
  }
}

TEST(UniformDelayNetwork, DropsAtConfiguredRate) {
  UniformDelayNetwork::Options options;
  options.dropProbability = 0.5;
  UniformDelayNetwork net(options);
  Rng rng(2);
  int dropped = 0;
  std::vector<Tick> delays;
  constexpr int kTrials = 10000;
  for (int i = 0; i < kTrials; ++i) {
    delays.clear();
    net.plan(0, 1, 0, rng, delays);
    dropped += delays.empty() ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(dropped) / kTrials, 0.5, 0.03);
}

TEST(UniformDelayNetwork, DuplicatesAtConfiguredRate) {
  UniformDelayNetwork::Options options;
  options.duplicateProbability = 0.25;
  UniformDelayNetwork net(options);
  Rng rng(3);
  int duplicated = 0;
  std::vector<Tick> delays;
  constexpr int kTrials = 10000;
  for (int i = 0; i < kTrials; ++i) {
    delays.clear();
    net.plan(0, 1, 0, rng, delays);
    duplicated += delays.size() == 2 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(duplicated) / kTrials, 0.25, 0.02);
}

TEST(UniformDelayNetwork, RejectsBadOptions) {
  UniformDelayNetwork::Options zeroMin;
  zeroMin.minDelay = 0;
  EXPECT_THROW(UniformDelayNetwork{zeroMin}, std::invalid_argument);
  UniformDelayNetwork::Options inverted;
  inverted.minDelay = 5;
  inverted.maxDelay = 2;
  EXPECT_THROW(UniformDelayNetwork{inverted}, std::invalid_argument);
}

TEST(PartitionedNetwork, SeversCrossGroupLinks) {
  PartitionedNetwork net(std::make_unique<SynchronousNetwork>());
  Rng rng(4);
  std::vector<Tick> delays;

  net.setPartition({0, 0, 1, 1});
  net.plan(0, 2, 0, rng, delays);
  EXPECT_TRUE(delays.empty());  // cross-partition: dropped
  net.plan(0, 1, 0, rng, delays);
  EXPECT_EQ(delays.size(), 1u);  // same partition: delivered

  delays.clear();
  net.clearPartition();
  net.plan(0, 2, 0, rng, delays);
  EXPECT_EQ(delays.size(), 1u);  // healed
}

TEST(PartitionedNetwork, EndToEndPartitionAndHeal) {
  Simulator sim(SimConfig{},
                std::make_unique<PartitionedNetwork>(sync()));
  auto& net = dynamic_cast<PartitionedNetwork&>(sim.network());

  class PeriodicSender : public Process {
   public:
    void onStart() override { tickSend(); }
    void onTimer(TimerId) override { tickSend(); }
    void onMessage(ProcessId, const Message&) override {}
    void tickSend() {
      if (ctx().now() > 20) return;
      ctx().post(1, makeMessage<Ping>(static_cast<int>(ctx().now())));
      ctx().setTimer(1);
    }
  };
  sim.addProcess(std::make_unique<PeriodicSender>());
  auto* receiver = new Recorder;
  sim.addProcess(std::unique_ptr<Process>(receiver));

  sim.schedule(5, [&net] { net.setPartition({0, 1}); });
  sim.schedule(15, [&net] { net.clearPartition(); });
  sim.run();

  // Messages sent in [5,15) were dropped; the rest arrived.
  for (Tick tick : receiver->receiveTicks) {
    EXPECT_TRUE(tick <= 5 || tick > 15) << "leaked through at " << tick;
  }
  EXPECT_GT(receiver->received.size(), 5u);
  EXPECT_LT(receiver->received.size(), 21u);
}

TEST(Message, AsReturnsNullForWrongType) {
  Ping ping(1);
  struct Other final : MessageBase<Other> {
    std::string describe() const override { return "other"; }
  };
  const Message& base = ping;
  EXPECT_EQ(base.as<Other>(), nullptr);
  EXPECT_NE(base.as<Ping>(), nullptr);
}

}  // namespace
}  // namespace ooc
