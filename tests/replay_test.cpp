// Trace record/replay: a recorded run re-executes bit-identically (every
// scheduler event, decision, tick and message count), configs and traces
// round-trip through their text serializations, and tampered traces are
// diagnosed with a divergence.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>

#include "check/replay.hpp"
#include "check/scenario.hpp"

namespace ooc::check {
namespace {

Scenario benOrScenario() {
  Scenario scenario;
  auto& config = scenario.compose;
  config.n = 5;
  config.inputs = {0, 1, 0, 1, 1};
  config.seed = 42;
  config.maxDelay = 7;
  config.crashes = {{2, 30}};
  return scenario;
}

Scenario phaseKingScenario() {
  Scenario scenario;
  auto& config = scenario.compose;
  config.detector = "phaseking-ac";
  config.driver = "king-conciliator";
  config.n = 7;
  config.byzantineCount = 2;
  config.inputs = {0, 1};
  config.seed = 7;
  return scenario;
}

Scenario raftScenario() {
  Scenario scenario;
  scenario.family = Family::kRaft;
  auto& config = scenario.raft;
  config.n = 5;
  config.seed = 11;
  config.crashes = {{0, 500}};
  config.partitions.push_back({200, {0, 0, 0, 1, 1}});
  config.partitions.push_back({800, {}});
  return scenario;
}

void expectBitIdenticalReplay(const Scenario& scenario) {
  const RecordedRun recorded = recordRun(scenario);
  ASSERT_FALSE(recorded.trace.events.empty());

  const ReplayResult replay = replayRun(scenario, recorded.trace);
  EXPECT_TRUE(replay.identical)
      << replay.divergence.value_or("(no divergence reported)");

  // The replayed run reproduces the recorded outcome exactly.
  EXPECT_EQ(replay.report.allDecided, recorded.report.allDecided);
  EXPECT_EQ(replay.report.decidedValue, recorded.report.decidedValue);
  EXPECT_EQ(replay.report.messages, recorded.report.messages);

  // And the re-derived trace counters match too.
  const RecordedRun again = recordRun(scenario);
  EXPECT_EQ(again.trace, recorded.trace);
}

TEST(Replay, BenOrRunReplaysBitIdentically) {
  expectBitIdenticalReplay(benOrScenario());
}

TEST(Replay, PhaseKingRunReplaysBitIdentically) {
  expectBitIdenticalReplay(phaseKingScenario());
}

TEST(Replay, RaftRunReplaysBitIdentically) {
  expectBitIdenticalReplay(raftScenario());
}

TEST(Replay, DecisionsAppearInTrace) {
  const RecordedRun recorded = recordRun(benOrScenario());
  std::size_t decisions = 0;
  for (const TraceEvent& event : recorded.trace.events)
    if (event.kind == TraceEvent::Kind::kDecision) ++decisions;
  // Process 2 crashes at tick 30; the other four must decide (2 itself may
  // or may not squeeze its decision in before the crash).
  EXPECT_GE(decisions, 4u);
  EXPECT_LE(decisions, 5u);
}

TEST(Replay, TamperedTraceReportsDivergence) {
  const Scenario scenario = benOrScenario();
  RecordedRun recorded = recordRun(scenario);
  ASSERT_GT(recorded.trace.events.size(), 10u);
  recorded.trace.events[10].a ^= 1;  // flip one participant id

  const ReplayResult replay = replayRun(scenario, recorded.trace);
  EXPECT_FALSE(replay.identical);
  ASSERT_TRUE(replay.divergence.has_value());
  EXPECT_NE(replay.divergence->find("event"), std::string::npos);
}

TEST(Replay, TruncatedTraceReportsDivergence) {
  const Scenario scenario = benOrScenario();
  RecordedRun recorded = recordRun(scenario);
  recorded.trace.events.resize(recorded.trace.events.size() / 2);

  const ReplayResult replay = replayRun(scenario, recorded.trace);
  EXPECT_FALSE(replay.identical);
  EXPECT_TRUE(replay.divergence.has_value());
}

TEST(Replay, TraceSerializationRoundTrips) {
  const RecordedRun recorded = recordRun(benOrScenario());
  std::ostringstream out;
  serializeTrace(recorded.trace, out);
  std::istringstream in(out.str());
  const Trace parsed = parseTrace(in);
  EXPECT_EQ(parsed, recorded.trace);
}

TEST(Replay, ScenarioSerializationRoundTrips) {
  for (const Scenario& scenario :
       {benOrScenario(), phaseKingScenario(), raftScenario()}) {
    const std::string text = serialize(scenario);
    const Scenario parsed = parseScenario(text);
    // Configs don't define operator==; equality via re-serialization.
    EXPECT_EQ(serialize(parsed), text);
    // A parsed config drives the exact same schedule.
    const RecordedRun original = recordRun(scenario);
    EXPECT_TRUE(replayRun(parsed, original.trace).identical);
  }
}

// compose, raft and svc are the only family names: a file whose scenario
// carries a retired one (benor, phaseking or fd) fails to load, and the
// diagnostic names the family.
TEST(Replay, RetiredFamilyNamesFailToLoad) {
  CounterexampleFile file;
  file.scenario = benOrScenario();
  file.invariant = "agreement";
  file.trace = recordRun(file.scenario).trace;
  const std::string text = serializeCounterexample(file);
  const auto at = text.find("\nfamily=compose\n");
  ASSERT_NE(at, std::string::npos);
  for (const std::string name : {"benor", "phaseking", "fd"}) {
    try {
      parseScenario("family=" + name + "\nn=5\n");
      FAIL() << name << " parsed";
    } catch (const std::runtime_error& error) {
      EXPECT_EQ(std::string(error.what()),
                "unknown scenario family '" + name + "'");
    }
    const std::string retired =
        std::string(text).replace(at + 1, 14, "family=" + name);
    try {
      parseCounterexample(retired);
      FAIL() << name << " file parsed";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what())
                    .find("unknown scenario family '" + name + "'"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(Replay, CounterexampleFileRoundTrips) {
  const Scenario scenario = raftScenario();
  CounterexampleFile file;
  file.scenario = scenario;
  file.invariant = "agreement";
  file.detail = "two correct processes decided different values";
  file.trace = recordRun(scenario).trace;

  const std::string text = serializeCounterexample(file);
  const CounterexampleFile parsed = parseCounterexample(text);
  EXPECT_EQ(parsed.invariant, file.invariant);
  EXPECT_EQ(parsed.detail, file.detail);
  EXPECT_EQ(parsed.trace, file.trace);
  EXPECT_EQ(serialize(parsed.scenario), serialize(file.scenario));
}

TEST(Replay, MalformedCounterexampleThrows) {
  EXPECT_THROW(parseCounterexample("nonsense"), std::runtime_error);
  EXPECT_THROW(parseCounterexample("ooc-counterexample v1\ninvariant=x\n"),
               std::runtime_error);
}

TEST(Replay, AdversaryScheduleIsPartOfTheConfig) {
  Scenario scenario = benOrScenario();
  scenario.compose.adversary.extraDelayMax = 8;
  scenario.compose.adversary.seed = 3;
  const RecordedRun recorded = recordRun(scenario);

  // Same adversary: bit-identical. Different adversary seed: diverges.
  EXPECT_TRUE(replayRun(scenario, recorded.trace).identical);
  Scenario other = scenario;
  other.compose.adversary.seed = 4;
  EXPECT_FALSE(replayRun(other, recorded.trace).identical);
}

TEST(Replay, NumbersMustBeWholeUnsignedTokens) {
  // A trailing-garbage count used to read as its numeric prefix, and a
  // negative one wrapped to 2^64-1 (and aborted the replay allocating the
  // process table). Both must be parse errors naming the key, and so must
  // every number that is not exactly a whole token of the key's type: a
  // fraction, an exponent, a negative seed, a fractional input.
  Scenario scenario;
  scenario.compose.driver = "timer";
  scenario.compose.inputs = {0, 1, 0, 1, 1};
  scenario.compose.seed = 17;
  CounterexampleFile file;
  file.scenario = scenario;
  file.invariant = "golden-fixture";
  file.detail = "strict numbers";
  file.trace = recordRun(scenario).trace;
  const std::string text = serializeCounterexample(file);
  ASSERT_NO_THROW(parseCounterexample(text));

  for (const auto& [line, bad, key] :
       {std::tuple<std::string, std::string, std::string>{"n=5", "n=5abc",
                                                          "'n'"},
        {"n=5", "n=-1", "'n'"},
        {"n=5", "n= 5", "'n'"},
        {"n=5", "n=", "'n'"},
        {"n=5", "n=5.9", "'n'"},
        {"n=5", "n=1e300", "'n'"},
        {"seed=17", "seed=-1", "'seed'"},
        {"inputs=0,1,0,1,1", "inputs=0.5,1,0,1,1", "'inputs'"}}) {
    std::string mutated = text;
    const auto at = mutated.find("\n" + line + "\n");
    ASSERT_NE(at, std::string::npos) << line;
    mutated.replace(at + 1, line.size(), bad);
    try {
      parseCounterexample(mutated);
      FAIL() << bad << " parsed";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(key), std::string::npos)
          << error.what();
    }
  }
  // The same rule covers crash entries and float fields.
  EXPECT_THROW(parseScenario("family=compose\ncrash=1@-5\n"),
               std::runtime_error);
  EXPECT_THROW(parseScenario("family=compose\nbias=0.5x\n"),
               std::runtime_error);
}

}  // namespace
}  // namespace ooc::check
