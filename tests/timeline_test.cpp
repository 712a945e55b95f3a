// Golden-output coverage for the `ooc timeline` renderer: a recorded
// run renders to an exact, byte-stable per-process timeline with the
// protocol-level annotations (confidence transitions, driver values,
// decisions) merged into the schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "check/causal_run.hpp"
#include "check/golden.hpp"
#include "check/replay.hpp"
#include "check/scenario.hpp"
#include "check/timeline.hpp"

namespace ooc {
namespace {

check::CounterexampleFile goldenFixture() {
  check::Scenario scenario;
  scenario.compose.n = 4;
  scenario.compose.t = 1;
  scenario.compose.inputs = {0, 1, 1, 1};
  scenario.compose.seed = 3;
  scenario.compose.maxDelay = 2;
  const check::RecordedRun run = check::recordRun(scenario);
  check::CounterexampleFile file;
  file.scenario = scenario;
  file.invariant = "agreement";
  file.detail = "golden rendering fixture";
  file.trace = run.trace;
  return file;
}

// The exact rendering of the fixture with scheduler noise hidden. If this
// changes, either the renderer's format changed (update deliberately) or
// run determinism broke (investigate: replay must be bit-identical).
constexpr const char* kGolden =
    "counterexample timeline  run-id=2d2b484845912a81\n"
    "scenario:  compose n=4 seed=3 detector=benor-vac driver=local-coin "
    "byzantine=0 crashes=0\n"
    "invariant: agreement\n"
    "detail:    golden rendering fixture\n"
    "replay:    bit-identical to recorded trace\n"
    "\n"
    "p0:\n"
    "  t=0\tstart\n"
    "  t=3\tdetect[1] -> vacillate(0)\n"
    "  t=3\tdrive[1] -> 1\n"
    "  t=6\tdetect[2] -> commit(1)\n"
    "  t=6\tDECIDED 1\n"
    "\n"
    "p1:\n"
    "  t=0\tstart\n"
    "  t=3\tdetect[1] -> vacillate(1)\n"
    "  t=3\tdrive[1] -> 1\n"
    "  t=6\tdetect[2] -> commit(1)\n"
    "  t=6\tDECIDED 1\n"
    "\n"
    "p2:\n"
    "  t=0\tstart\n"
    "  t=3\tdetect[1] -> vacillate(1)\n"
    "  t=3\tdrive[1] -> 1\n"
    "  t=6\tdetect[2] -> commit(1)\n"
    "  t=6\tDECIDED 1\n"
    "\n"
    "p3:\n"
    "  t=0\tstart\n"
    "  t=4\tdetect[1] -> vacillate(1)\n"
    "  t=4\tdrive[1] -> 1\n"
    "  t=6\tdetect[2] -> commit(1)\n"
    "  t=6\tDECIDED 1\n";

TEST(Timeline, GoldenRendering) {
  const check::CounterexampleFile file = goldenFixture();
  check::TimelineOptions options;
  options.showDeliveries = false;
  options.showTimers = false;
  EXPECT_EQ(check::renderTimeline(file, options), kGolden);
}

TEST(Timeline, RenderingIsDeterministic) {
  const check::CounterexampleFile file = goldenFixture();
  EXPECT_EQ(check::renderTimeline(file), check::renderTimeline(file));
}

TEST(Timeline, DefaultOptionsIncludeDeliveries) {
  const std::string text = check::renderTimeline(goldenFixture());
  EXPECT_NE(text.find("deliver from p"), std::string::npos);
  // Protocol annotations survive alongside the schedule.
  EXPECT_NE(text.find("detect[1] -> vacillate"), std::string::npos);
  EXPECT_NE(text.find("DECIDED 1"), std::string::npos);
}

TEST(Timeline, EventCapElidesSchedulerNoiseOnly) {
  check::TimelineOptions options;
  options.maxEventsPerProcess = 1;
  const std::string text =
      check::renderTimeline(goldenFixture(), options);
  EXPECT_NE(text.find("more scheduler events elided"), std::string::npos);
  // Protocol entries and decisions are never elided.
  EXPECT_NE(text.find("detect[2] -> commit(1)"), std::string::npos);
  EXPECT_NE(text.find("DECIDED 1"), std::string::npos);
}

check::CounterexampleFile oracleFixture() {
  check::Scenario scenario;
  auto& config = scenario.compose;
  config.detector = "benor-vac";
  config.driver = "ct-coordinator";
  config.oracle = "omega";
  config.oracleKnobs.completenessLag = 8;
  config.oracleKnobs.stabilizeAt = 40;
  // Noisy enough (at this seed) for the oracle to falsely suspect the
  // coordinator once — the fixture must exercise a suspicion transition.
  config.oracleKnobs.noise = 0.6;
  config.n = 3;
  config.seed = 1;
  config.inputs = {0, 1, 0};
  const check::RecordedRun run = check::recordRun(scenario);
  check::CounterexampleFile file;
  file.scenario = scenario;
  file.invariant = "agreement";
  file.detail = "oracle rendering fixture";
  file.trace = run.trace;
  return file;
}

// Exact rendering of an oracle-driven run: coordinator queries appear as
// elidable `oracle?` entries, suspicion *transitions* as non-elidable
// ORACLE lines.
constexpr const char* kOracleGolden =
    "counterexample timeline  run-id=90d34c3fdce17d1d\n"
    "scenario:  compose n=3 seed=1 detector=benor-vac driver=ct-coordinator "
    "oracle=omega stabilize-at=40 noise=0.6 byzantine=0 crashes=0\n"
    "invariant: agreement\n"
    "detail:    oracle rendering fixture\n"
    "replay:    bit-identical to recorded trace\n"
    "\n"
    "p0:\n"
    "  t=0\tstart\n"
    "  t=5\tdetect[1] -> adopt(0)\n"
    "  t=5\tdrive[1] -> 0\n"
    "  t=21\tdetect[2] -> commit(0)\n"
    "  t=21\tDECIDED 0\n"
    "\n"
    "p1:\n"
    "  t=0\tstart\n"
    "  t=8\tdetect[1] -> adopt(0)\n"
    "  t=12\tdrive[1] -> 0\n"
    "  t=23\tdetect[2] -> commit(0)\n"
    "  t=23\tDECIDED 0\n"
    "  t=23\tdrive[2] -> 0\n"
    "\n"
    "p2:\n"
    "  t=0\tstart\n"
    "  t=4\tdetect[1] -> adopt(0)\n"
    "  t=12\toracle? p0 -> suspected\n"
    "  t=12\tORACLE suspects p0\n"
    "  t=12\tdrive[1] -> 0\n"
    "  t=20\tdetect[2] -> commit(0)\n"
    "  t=20\tDECIDED 0\n";

TEST(Timeline, OracleGoldenRendering) {
  const check::CounterexampleFile file = oracleFixture();
  check::TimelineOptions options;
  options.showDeliveries = false;
  options.showTimers = false;
  EXPECT_EQ(check::renderTimeline(file, options), kOracleGolden);
}

TEST(Timeline, SuspicionTransitionsSurviveTheEventCap) {
  check::TimelineOptions options;
  options.maxEventsPerProcess = 1;
  const std::string text =
      check::renderTimeline(oracleFixture(), options);
  // Per-query oracle entries are elidable; the transition is not.
  EXPECT_NE(text.find("ORACLE suspects p0"), std::string::npos);
}

TEST(Timeline, RoundTripThroughFileFormatRendersIdentically) {
  const check::CounterexampleFile file = goldenFixture();
  const check::CounterexampleFile reparsed =
      check::parseCounterexample(check::serializeCounterexample(file));
  EXPECT_EQ(check::renderTimeline(file), check::renderTimeline(reparsed));
}

/// Each lane's "  t=" entries never go back in time.
void expectLanesInTickOrder(const std::string& timeline,
                            const std::string& label) {
  std::istringstream text(timeline);
  std::string line;
  Tick last = 0;
  while (std::getline(text, line)) {
    if (line.rfind("  t=", 0) != 0) {
      last = 0;  // a header or a lane label starts a new lane
      continue;
    }
    const Tick at = std::stoull(line.substr(4));
    EXPECT_GE(at, last) << label << ": " << line;
    last = at;
  }
}

// Raft's confidence transitions must be annotated from inside the handler
// that produced them: on an event of their own process, at its tick. The
// committed golden mixes drops, duplicates and a restart.
TEST(Timeline, RaftTransitionsAnnotateTheEventThatProducedThem) {
  const check::CounterexampleFile file = check::loadCounterexampleFile(
      OOC_GOLDEN_DIR "/raft-faultmix-restart.golden");
  const check::CausalRun run =
      check::collectCausalRun(file.scenario, &file.trace);
  ASSERT_TRUE(run.replayIdentical);
  EXPECT_EQ(run.trace.annotations.size(), 12u);
  for (const causal::Annotation& a : run.trace.annotations) {
    const causal::CausalNode& node = run.trace.nodes[a.node];
    EXPECT_EQ(a.kind, causal::Annotation::Kind::kDetector);
    EXPECT_EQ(node.lane, a.process) << "annotation on node " << a.node;
    EXPECT_EQ(node.event.at, a.at) << "annotation on node " << a.node;
  }

  // So every lane of the timeline reads in tick order.
  expectLanesInTickOrder(check::renderTimeline(file), "raft-faultmix-restart");
}

/// The indented lines of each lane (its entries and any elided marker),
/// keyed by the lane's "pN:" label.
std::map<std::string, std::vector<std::string>> lanesOf(
    const std::string& timeline) {
  std::map<std::string, std::vector<std::string>> lanes;
  std::istringstream text(timeline);
  std::string line;
  std::string lane;
  while (std::getline(text, line)) {
    if (!line.empty() && line[0] == 'p' && line.back() == ':') {
      lane = line;
      lanes[lane];
    } else if (!lane.empty() && line.rfind("  ", 0) == 0) {
      lanes[lane].push_back(line);
    }
  }
  return lanes;
}

// The delivery and timer filters apply before the cap: what they hide is
// not counted as elided. With both filters on, this golden's only
// elidable lines are its oracle queries, so a lane with at most one of
// them loses nothing to a cap of one.
TEST(Timeline, FilteredEntriesAreNotCountedAsElided) {
  const check::CounterexampleFile file = check::loadCounterexampleFile(
      OOC_GOLDEN_DIR "/fd-ct-omega-n5.golden");
  check::TimelineOptions filtered;
  filtered.showDeliveries = false;
  filtered.showTimers = false;
  check::TimelineOptions capped = filtered;
  capped.maxEventsPerProcess = 1;
  const auto uncapped = lanesOf(check::renderTimeline(file, filtered));
  const auto lanes = lanesOf(check::renderTimeline(file, capped));
  ASSERT_EQ(lanes.size(), 5u);
  std::size_t checked = 0;
  for (const auto& [lane, lines] : uncapped) {
    const auto queries = std::count_if(
        lines.begin(), lines.end(), [](const std::string& line) {
          return line.find("\toracle? ") != std::string::npos;
        });
    if (queries > 1) continue;
    ++checked;
    EXPECT_EQ(lanes.at(lane), lines) << lane;
  }
  EXPECT_GT(checked, 0u);
}

// Every committed golden replays bit-identically and reads in tick order in
// each lane, whatever the view: everything, protocol entries only, or
// scheduler noise capped per lane.
TEST(Timeline, EveryGoldenReplaysWithItsLanesInTickOrder) {
  check::TimelineOptions everything;
  check::TimelineOptions protocolOnly;
  protocolOnly.showDeliveries = false;
  protocolOnly.showTimers = false;
  check::TimelineOptions capped;
  capped.maxEventsPerProcess = 20;
  for (const auto& fixture : check::goldenFixtures()) {
    const check::CounterexampleFile file = check::loadCounterexampleFile(
        std::string(OOC_GOLDEN_DIR "/") + fixture.name + ".golden");
    for (const check::TimelineOptions& options :
         {everything, protocolOnly, capped}) {
      const std::string text = check::renderTimeline(file, options);
      EXPECT_NE(text.find("replay:    bit-identical to recorded trace\n"),
                std::string::npos)
          << fixture.name;
      expectLanesInTickOrder(text, fixture.name);
    }
  }
}

}  // namespace
}  // namespace ooc
