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
//  * calendar ordering — timers beyond the queue's kWindow-tick bucket
//    window fire in tick order through the far buckets, the overflow heap
//    and cursor jumps, and a seeded mix of pushes and pops across the
//    window and far-bucket boundaries pops in the (at, phase, seq) order of
//    a sorted reference;
//  * lazy rendering — Message::describe() runs only for observers that
//    opted in via ScheduleObserver::wantsMessageText().
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "check/golden.hpp"
#include "sim/event_queue.hpp"
#include "sim/message.hpp"
#include "sim/network.hpp"
#include "sim/process.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "sweep/scheduler.hpp"
#include "util/rng.hpp"

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

constexpr Tick kWindow = EventQueue::kWindow;
/// The first delay that always lies past the far buckets' reach.
constexpr Tick kPastFar = (EventQueue::kFarSpans + 2) * kWindow;

class LongTimerProcess final : public Process {
 public:
  void onStart() override {
    // Mix of in-window (< kWindow ticks ahead), boundary, far-bucket and
    // overflow delays, armed out of order; several land beyond the ring so
    // they route through the far buckets, the overflow heap and cursor
    // jumps across empty stretches.
    for (const Tick delay :
         {2 * kWindow, Tick{1}, 5 * kWindow, kPastFar + 1, kWindow,
          kWindow + kWindow / 2, kWindow - 1, 3 * kWindow, kWindow + 1}) {
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

  std::vector<std::pair<Tick, Tick>> expected;
  for (const Tick delay :
       {Tick{1}, kWindow - 1, kWindow, kWindow + 1, kWindow + kWindow / 2,
        2 * kWindow, 3 * kWindow, 5 * kWindow, kPastFar + 1}) {
    expected.emplace_back(delay, delay);
  }
  EXPECT_EQ(proc->firedAt, expected);
  EXPECT_EQ(sim.timersFired(), 9u);
  EXPECT_EQ(sim.pendingTimerCount(), 0u);
}

// Drives an EventQueue directly with a seeded mix of pushes and pops and
// checks every pop against a reference sorted by (at, phase, seq). Delays
// span 0 to kPastFar + kWindow, so pushes land in the ring, the far buckets,
// the span already opened and the overflow beyond the far buckets, with
// extra weight on the window boundary; both phases, pushes into the past
// (clamped to the cursor, the tick of the last pop) and same-tick pushes
// while that tick drains; occasional full drains make the cursor jump over
// empty stretches.
TEST(CalendarQueue, MatchesASortedReferenceAcrossTheWindow) {
  using Key = std::tuple<Tick, std::uint8_t, std::uint64_t>;  // at, phase, seq
  EventQueue queue;
  std::set<Key> reference;
  Rng rng(0x0ca1e7da);
  Tick now = 0;  // tick of the last pop: the queue's cursor
  std::uint64_t pushes = 0;
  std::size_t overflowed = 0;
  std::size_t pastFar = 0;
  std::size_t sameTick = 0;

  const auto popAndCompare = [&] {
    SimEvent out;
    ASSERT_TRUE(queue.pop(out));
    ASSERT_FALSE(reference.empty());
    const Key expected = *reference.begin();
    reference.erase(reference.begin());
    ASSERT_EQ(Key(out.at, out.phase, out.seq), expected)
        << "after " << pushes << " pushes";
    ASSERT_EQ(out.timer, static_cast<TimerId>(out.seq));  // payload intact
    now = out.at;
  };

  for (int op = 0; op < 20000; ++op) {
    if (!reference.empty() && rng.chance(0.002)) {
      while (!reference.empty()) {
        popAndCompare();
        if (HasFatalFailure()) return;
      }
      continue;
    }
    if (reference.empty() || rng.chance(0.6)) {
      Tick at = now;
      const std::uint64_t kind = rng.below(20);
      if (kind < 6) {
        at = now + rng.below(4);  // dense: 0 lands on the draining tick
      } else if (kind < 9) {
        at = now + kWindow - 1 + rng.below(3);  // kWindow - 1, kWindow, + 1
      } else if (kind < 10) {
        const Tick back = 1 + rng.below(8);  // into the past: clamped
        at = now > back ? now - back : 0;
      } else {
        at = now + rng.below(kPastFar + kWindow + 1);
      }
      const auto phase = static_cast<std::uint8_t>(rng.below(2));
      SimEvent event;
      event.at = at;
      event.phase = phase;
      event.timer = static_cast<TimerId>(pushes);
      event.kind = SimEvent::Kind::kTimer;
      queue.push(std::move(event));
      reference.emplace(std::max(at, now), phase, pushes);
      ++pushes;
      if (at >= now + kWindow) ++overflowed;
      if (at >= now + kPastFar) ++pastFar;
      if (at == now) ++sameTick;
    } else {
      popAndCompare();
      if (HasFatalFailure()) return;
    }
    ASSERT_EQ(queue.size(), reference.size());
  }
  while (!reference.empty()) {
    popAndCompare();
    if (HasFatalFailure()) return;
  }
  SimEvent out;
  EXPECT_FALSE(queue.pop(out));
  EXPECT_TRUE(queue.empty());
  // The mix really crossed the window and the far buckets' reach, and
  // pushed into draining ticks.
  EXPECT_GT(overflowed, pushes / 4);
  EXPECT_GT(pastFar, pushes / 50);
  EXPECT_GT(sameTick, pushes / 20);
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
