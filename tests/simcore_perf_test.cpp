// Guardrails for the simulator hot-path overhaul (shared-payload fan-out,
// tag dispatch, calendar event queue, lazy trace text):
//
//  * golden-trace determinism — the pinned scenarios must serialize
//    byte-identically to the artifacts in tests/golden/ (recorded before
//    the overhaul), proving the calendar queue and shared payloads did not
//    move a single event;
//  * payload aliasing — a fan-out constructs exactly one message instance
//    and every recipient sees the same object; duplication faults add
//    refs, not copies;
//  * calendar ordering — timers beyond the queue's 1024-tick bucket window
//    fire in tick order through the overflow heap and cursor jumps;
//  * lazy rendering — Message::describe() runs only for observers that
//    opted in via ScheduleObserver::wantsMessageText().
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/golden.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "sweep/scheduler.hpp"

namespace ooc {
namespace {

// ---------------------------------------------------------------------------
// Golden-trace determinism

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden artifact: " << path
                         << " (regenerate with tools/golden_gen)";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(GoldenTrace, RecordedRunsAreByteIdentical) {
  const auto fixtures = check::goldenFixtures();
  // Six pre-policy fixtures (pinned under the lockstep scheduler) plus the
  // non-lockstep skew witness compose-ooo-skew-n5.
  ASSERT_GE(fixtures.size(), 7u);
  for (const auto& fixture : fixtures) {
    const std::string expected =
        readFile(std::string(OOC_GOLDEN_DIR "/") + fixture.name + ".golden");
    const std::string actual = check::renderGolden(fixture);
    // EQ on the whole string (not a line diff): the guarantee is bytes.
    EXPECT_EQ(actual, expected)
        << "schedule or serialization drift in fixture " << fixture.name;
  }
}

TEST(GoldenTrace, ParallelWorkersRenderByteIdenticalGoldens) {
  // Same artifacts, rendered through the experiment scheduler's worker
  // pool: per-worker arena reuse (bucket rings, timer tables, trace
  // buffers recycled across runs) must not move a single byte relative to
  // the sequential renders above.
  const auto fixtures = check::goldenFixtures();
  ASSERT_GE(fixtures.size(), 7u);
  std::vector<std::string> rendered(fixtures.size());
  sweep::Options options;
  options.threads = fixtures.size();
  sweep::parallelFor(
      fixtures.size(),
      [&](std::size_t index, sweep::Control&) {
        rendered[index] = check::renderGolden(fixtures[index]);
      },
      options);
  for (std::size_t i = 0; i < fixtures.size(); ++i) {
    const std::string expected =
        readFile(std::string(OOC_GOLDEN_DIR "/") + fixtures[i].name +
                 ".golden");
    EXPECT_EQ(rendered[i], expected)
        << "parallel render drift in fixture " << fixtures[i].name;
  }
}

// ---------------------------------------------------------------------------
// Payload aliasing

int countedConstructed = 0;
int countedDescribed = 0;

struct CountedMsg final : MessageBase<CountedMsg> {
  explicit CountedMsg(int v = 0) : v(v) { ++countedConstructed; }
  CountedMsg(const CountedMsg& other) : MessageBase(other), v(other.v) {
    ++countedConstructed;
  }
  int v;
  std::string describe() const override {
    ++countedDescribed;
    return "counted(" + std::to_string(v) + ")";
  }
};

/// Records the identity of every delivered payload.
class AddressRecorder : public Process {
 public:
  void onMessage(ProcessId, const Message& message) override {
    addresses.push_back(&message);
  }
  std::vector<const Message*> addresses;
};

class FanoutSender final : public AddressRecorder {
 public:
  void onStart() override { ctx().fanout(makeMessage<CountedMsg>(7)); }
};

TEST(PayloadSharing, FanoutConstructsOnceAndAliasesEveryDelivery) {
  countedConstructed = 0;
  constexpr std::size_t kN = 8;
  Simulator sim(SimConfig{}, std::make_unique<SynchronousNetwork>());
  std::vector<AddressRecorder*> procs;
  procs.push_back(new FanoutSender);
  sim.addProcess(std::unique_ptr<Process>(procs.back()));
  for (std::size_t i = 1; i < kN; ++i) {
    procs.push_back(new AddressRecorder);
    sim.addProcess(std::unique_ptr<Process>(procs.back()));
  }
  sim.run();

  EXPECT_EQ(countedConstructed, 1);  // one instance for the whole broadcast
  EXPECT_EQ(sim.messagesSent(), kN);
  EXPECT_EQ(sim.messagesDelivered(), kN);
  const Message* shared = nullptr;
  for (AddressRecorder* proc : procs) {
    ASSERT_EQ(proc->addresses.size(), 1u);
    if (shared == nullptr) shared = proc->addresses.front();
    EXPECT_EQ(proc->addresses.front(), shared)
        << "a recipient saw a copy instead of the shared payload";
  }
}

class DuplicatedSender final : public AddressRecorder {
 public:
  void onStart() override {
    for (int i = 0; i < 10; ++i) ctx().post(1, makeMessage<CountedMsg>(i));
  }
};

TEST(PayloadSharing, DuplicationFaultsAddRefsNotCopies) {
  countedConstructed = 0;
  UniformDelayNetwork::Options network;
  network.minDelay = 1;
  network.maxDelay = 3;
  network.duplicateProbability = 1.0;  // every send is duplicated
  Simulator sim(SimConfig{},
                std::make_unique<UniformDelayNetwork>(network));
  sim.addProcess(std::make_unique<DuplicatedSender>());
  auto* receiver = new AddressRecorder;
  sim.addProcess(std::unique_ptr<Process>(receiver));
  sim.run();

  EXPECT_EQ(countedConstructed, 10);  // one instance per post, none per copy
  EXPECT_GT(sim.messagesDuplicated(), 0u);
  EXPECT_EQ(receiver->addresses.size(),
            10u + static_cast<std::size_t>(sim.messagesDuplicated()));
}

// ---------------------------------------------------------------------------
// Calendar-queue ordering beyond the bucket window

class LongTimerProcess final : public Process {
 public:
  void onStart() override {
    // Mix of in-window (< 1024 ticks ahead), boundary, and far-overflow
    // delays, armed out of order; several land beyond the ring so they
    // route through the overflow heap and cursor jumps across empty
    // stretches.
    for (const Tick delay : {Tick{2000}, Tick{1}, Tick{5000}, Tick{1024},
                             Tick{1500}, Tick{1023}, Tick{3000}}) {
      delayOf_[setTimerPublic(delay)] = delay;
    }
  }
  void onMessage(ProcessId, const Message&) override {}
  void onTimer(TimerId id) override {
    firedAt.emplace_back(ctx().now(), delayOf_.at(id));
  }

  std::vector<std::pair<Tick, Tick>> firedAt;  // (tick, armed delay)

 private:
  TimerId setTimerPublic(Tick delay) { return ctx().setTimer(delay); }
  std::map<TimerId, Tick> delayOf_;
};

TEST(CalendarQueue, OverflowTimersFireInTickOrder) {
  Simulator sim(SimConfig{}, std::make_unique<SynchronousNetwork>());
  auto* proc = new LongTimerProcess;
  sim.addProcess(std::unique_ptr<Process>(proc));
  sim.run();

  const std::vector<std::pair<Tick, Tick>> expected = {
      {1, 1},       {1023, 1023}, {1024, 1024}, {1500, 1500},
      {2000, 2000}, {3000, 3000}, {5000, 5000}};
  EXPECT_EQ(proc->firedAt, expected);
  EXPECT_EQ(sim.timersFired(), 7u);
  EXPECT_EQ(sim.pendingTimerCount(), 0u);
}

// ---------------------------------------------------------------------------
// Lazy trace text

class TextCollector final : public ScheduleObserver {
 public:
  explicit TextCollector(bool wants) : wants_(wants) {}
  void onEvent(const TraceEvent&) override {}
  bool wantsMessageText() const noexcept override { return wants_; }
  void onMessageText(const std::string& text) override {
    texts.push_back(text);
  }
  std::vector<std::string> texts;

 private:
  bool wants_;
};

TEST(LazyDescribe, SkippedUnlessAnObserverOptsIn) {
  countedDescribed = 0;
  {
    Simulator sim(SimConfig{}, std::make_unique<SynchronousNetwork>());
    sim.addProcess(std::make_unique<FanoutSender>());
    sim.addProcess(std::make_unique<AddressRecorder>());
    sim.run();  // no observer at all
    EXPECT_EQ(sim.messagesDelivered(), 2u);
  }
  EXPECT_EQ(countedDescribed, 0);

  {
    Simulator sim(SimConfig{}, std::make_unique<SynchronousNetwork>());
    sim.addProcess(std::make_unique<FanoutSender>());
    sim.addProcess(std::make_unique<AddressRecorder>());
    TraceRecorder recorder;  // records schedules but never wants text
    sim.setScheduleObserver(&recorder);
    sim.run();
    EXPECT_EQ(sim.messagesDelivered(), 2u);
  }
  EXPECT_EQ(countedDescribed, 0);

  Simulator sim(SimConfig{}, std::make_unique<SynchronousNetwork>());
  sim.addProcess(std::make_unique<FanoutSender>());
  sim.addProcess(std::make_unique<AddressRecorder>());
  TextCollector collector(/*wants=*/true);
  sim.setScheduleObserver(&collector);
  sim.run();
  EXPECT_EQ(countedDescribed, 2);  // once per delivery, shared payload or not
  ASSERT_EQ(collector.texts.size(), 2u);
  EXPECT_EQ(collector.texts.front(), "counted(7)");
}

// ---------------------------------------------------------------------------
// Tag dispatch sanity

struct OtherMsg final : MessageBase<OtherMsg> {
  std::string describe() const override { return "other"; }
};

TEST(TagDispatch, AsMatchesExactConcreteTypeOnly) {
  const CountedMsg counted(1);
  const OtherMsg other;
  const Message& asBaseCounted = counted;
  const Message& asBaseOther = other;
  EXPECT_NE(asBaseCounted.as<CountedMsg>(), nullptr);
  EXPECT_EQ(asBaseCounted.as<OtherMsg>(), nullptr);
  EXPECT_NE(asBaseOther.as<OtherMsg>(), nullptr);
  EXPECT_EQ(asBaseOther.as<CountedMsg>(), nullptr);
  EXPECT_NE(tagOf<CountedMsg>(), tagOf<OtherMsg>());
}

}  // namespace
}  // namespace ooc
