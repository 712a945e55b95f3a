// Model-checker tests: strategy enumeration is deterministic and complete,
// healthy property sweeps over every VAC detector x reconciliator find no
// violations, and a deliberately planted VAC coherence bug is caught,
// shrunk to a small configuration, serialized, and reproduced by replay.
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <tuple>

#include "check/checker.hpp"
#include "check/invariant.hpp"
#include "check/replay.hpp"
#include "check/scenario.hpp"
#include "check/shrink.hpp"
#include "check/strategy.hpp"
#include "compose/registry.hpp"

namespace ooc::check {
namespace {

Scenario benOrBase(const char* detector = "benor-vac",
                   const char* driver = "local-coin") {
  Scenario scenario;
  auto& config = scenario.compose;
  config.detector = detector;
  config.driver = driver;
  config.n = 5;
  config.inputs = {0, 1, 0, 1, 1};
  return scenario;
}

// ---------------------------------------------------------------------------
// Property sweeps: every VAC detector x reconciliator stays clean under
// random exploration. keep-value is the paper's negative control — it
// provably stalls on balanced inputs — so its sweep checks safety only.
// (The monolithic baseline's sweep over the same shapes lives in
// benor_test.)

class ModeReconciliatorSweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(ModeReconciliatorSweep, RandomWalkFindsNoViolation) {
  const auto [detector, driver] = GetParam();
  Scenario base = benOrBase(detector.c_str(), driver.c_str());
  const bool keepValue = driver == "keep-value";
  if (keepValue) {
    base.compose.maxRounds = 30;
    base.compose.maxTicks = 400000;
  }

  RandomWalkStrategy::Options options;
  options.runs = 20;
  options.seedBase = 7000;
  const RandomWalkStrategy strategy(base, options);

  const auto suite = safetySuite(/*requireTermination=*/!keepValue);
  const CheckReport report = explore(strategy, view(suite), {});
  EXPECT_EQ(report.configsExplored, 20u);
  EXPECT_TRUE(report.ok()) << report.findings.front().violation.invariant
                           << ": "
                           << report.findings.front().violation.detail;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, ModeReconciliatorSweep,
    ::testing::Combine(::testing::Values("benor-vac", "vac-from-two-ac",
                                         "decentralized-vac"),
                       ::testing::Values("local-coin", "common-coin",
                                         "biased-coin", "keep-value",
                                         "lottery")));

TEST(CheckerSweep, DelayAdversaryKeepsBenOrSafe) {
  DelayBoundStrategy::Options options;
  options.budgets = {2, 8};
  options.adversarySeedsPerBudget = 10;
  const DelayBoundStrategy strategy(benOrBase(), options);
  const auto suite = safetySuite();
  const CheckReport report = explore(strategy, view(suite), {});
  EXPECT_EQ(report.configsExplored, 20u);
  EXPECT_TRUE(report.ok());
}

TEST(CheckerSweep, CrashEnumerationKeepsBenOrSafe) {
  CrashScheduleStrategy::Options options;
  options.maxCrashes = 2;
  options.tickGrid = {1, 20};
  const CrashScheduleStrategy strategy(benOrBase(), options);
  // n=5, <=2 crashes: 1 + 5*2 + 10*4 = 51 schedules.
  EXPECT_EQ(strategy.size(), 51u);
  const auto suite = safetySuite();
  const CheckReport report = explore(strategy, view(suite), {});
  EXPECT_EQ(report.configsExplored, 51u);
  EXPECT_TRUE(report.ok());
}

// ---------------------------------------------------------------------------
// Strategy mechanics

TEST(Strategies, GenerateIsDeterministic) {
  RandomWalkStrategy::Options options;
  options.runs = 10;
  const RandomWalkStrategy strategy(benOrBase(), options);
  for (std::size_t i = 0; i < strategy.size(); ++i)
    EXPECT_EQ(serialize(strategy.generate(i)),
              serialize(strategy.generate(i)));
}

TEST(Strategies, DelayBoundCoversTheBudgetGrid) {
  DelayBoundStrategy::Options options;
  options.budgets = {1, 4, 16};
  options.adversarySeedsPerBudget = 5;
  const DelayBoundStrategy strategy(benOrBase(), options);
  ASSERT_EQ(strategy.size(), 15u);
  std::set<std::pair<Tick, std::uint64_t>> seen;
  for (std::size_t i = 0; i < strategy.size(); ++i) {
    const Scenario scenario = strategy.generate(i);
    EXPECT_TRUE(scenario.compose.adversary.enabled());
    seen.emplace(scenario.compose.adversary.extraDelayMax,
                 scenario.compose.adversary.seed);
  }
  EXPECT_EQ(seen.size(), 15u);  // every (budget, seed) pair, no duplicates
}

TEST(Strategies, CrashEnumerationCoversEverySchedule) {
  CrashScheduleStrategy::Options options;
  options.maxCrashes = 2;
  options.tickGrid = {1, 9};
  const CrashScheduleStrategy strategy(benOrBase(), options);
  std::set<std::string> seen;
  for (std::size_t i = 0; i < strategy.size(); ++i) {
    const Scenario scenario = strategy.generate(i);
    EXPECT_LE(scenario.compose.crashes.size(), 2u);
    std::set<ProcessId> ids;
    for (const auto& [id, tick] : scenario.compose.crashes) {
      ids.insert(id);
      EXPECT_TRUE(tick == 1 || tick == 9);
    }
    EXPECT_EQ(ids.size(), scenario.compose.crashes.size());  // distinct pids
    seen.insert(serialize(scenario));
  }
  EXPECT_EQ(seen.size(), strategy.size());  // exhaustive, no duplicates
}

TEST(Strategies, SynchronousFamilyRejectsScheduleAdversaries) {
  const Scenario phaseKing = benOrBase("phaseking-ac", "king-conciliator");
  EXPECT_THROW(DelayBoundStrategy(phaseKing, {}), std::invalid_argument);
  EXPECT_THROW(CrashScheduleStrategy(phaseKing, {}), std::invalid_argument);
}

TEST(Strategies, CompositeConcatenatesParts) {
  const Scenario base = benOrBase();
  RandomWalkStrategy::Options rw;
  rw.runs = 3;
  DelayBoundStrategy::Options db;
  db.budgets = {4};
  db.adversarySeedsPerBudget = 2;
  std::vector<std::unique_ptr<ExplorationStrategy>> parts;
  parts.push_back(std::make_unique<RandomWalkStrategy>(base, rw));
  parts.push_back(std::make_unique<DelayBoundStrategy>(base, db));
  const CompositeStrategy composite("combo", std::move(parts));
  ASSERT_EQ(composite.size(), 5u);
  EXPECT_FALSE(composite.generate(2).compose.adversary.enabled());
  EXPECT_TRUE(composite.generate(3).compose.adversary.enabled());
  EXPECT_THROW(composite.generate(5), std::out_of_range);
}

// ---------------------------------------------------------------------------
// The planted bug: a VAC whose odd-id processes flip their adopt-level
// outcome values violates coherence. The checker must find it, shrink it,
// and emit a counterexample that replays bit-identically.

Scenario plantedBugBase() {
  Scenario base = benOrBase();
  base.compose.fault = compose::PlantedFault::kVacAdoptFlip;
  return base;
}

TEST(PlantedBug, IsCaughtShrunkAndReplayable) {
  RandomWalkStrategy::Options options;
  options.runs = 50;
  const RandomWalkStrategy strategy(plantedBugBase(), options);

  const std::string traceDir =
      (std::filesystem::path(::testing::TempDir()) / "ooc-planted-bug")
          .string();
  CheckerOptions checker;
  checker.maxFindings = 1;
  checker.traceDir = traceDir;

  const auto suite = safetySuite();
  const CheckReport report = explore(strategy, view(suite), checker);
  ASSERT_FALSE(report.ok()) << "planted coherence bug was not detected";
  const Finding& finding = report.findings.front();

  // Shrinking ran and kept the violation on a no-larger configuration.
  ASSERT_TRUE(finding.shrunk.has_value());
  EXPECT_LE(finding.shrunk->compose.n, finding.scenario.compose.n);
  EXPECT_LE(finding.shrunk->compose.crashes.size(),
            finding.scenario.compose.crashes.size());
  EXPECT_EQ(finding.shrunk->compose.fault,
            compose::PlantedFault::kVacAdoptFlip);

  // The counterexample file exists, parses, and replays bit-identically,
  // reproducing the violation from disk alone.
  ASSERT_FALSE(finding.tracePath.empty());
  const CounterexampleFile file = loadCounterexampleFile(finding.tracePath);
  EXPECT_EQ(file.invariant, finding.violation.invariant);
  const ReplayResult replay = replayRun(file.scenario, file.trace);
  EXPECT_TRUE(replay.identical)
      << replay.divergence.value_or("(no divergence)");
  bool reproduced = false;
  for (const auto& invariant : suite) {
    if (file.invariant != invariant->name()) continue;
    reproduced =
        invariant->check(file.scenario, replay.report).has_value();
  }
  EXPECT_TRUE(reproduced);
}

TEST(PlantedBug, ShrinkReachesASmallConfiguration) {
  // Find any violating configuration, then shrink it hard and check the
  // result is locally minimal-ish: few processes, no crashes left.
  RandomWalkStrategy::Options options;
  options.runs = 50;
  const RandomWalkStrategy strategy(plantedBugBase(), options);
  const auto suite = safetySuite();

  std::optional<Scenario> violating;
  const Invariant* fired = nullptr;
  for (std::size_t i = 0; i < strategy.size() && !violating; ++i) {
    const Scenario scenario = strategy.generate(i);
    const RunReport report = runScenario(scenario);
    for (const Invariant* invariant : view(suite)) {
      if (invariant->check(scenario, report)) {
        violating = scenario;
        fired = invariant;
        break;
      }
    }
  }
  ASSERT_TRUE(violating.has_value());

  const ShrinkResult shrunk = shrinkCounterexample(*violating, *fired, {});
  EXPECT_GT(shrunk.attempts, 0u);
  EXPECT_LE(shrunk.scenario.compose.n, 6u);
  EXPECT_TRUE(shrunk.scenario.compose.crashes.empty());
  // Still a genuine counterexample.
  EXPECT_TRUE(fired
                  ->check(shrunk.scenario, runScenario(shrunk.scenario))
                  .has_value());
}

TEST(PlantedBug, HealthySweepWithSameSeedsStaysClean) {
  // Identical exploration without the fault: no findings, proving the
  // detection above is attributable to the planted bug alone.
  RandomWalkStrategy::Options options;
  options.runs = 50;
  const RandomWalkStrategy strategy(benOrBase(), options);
  const auto suite = safetySuite();
  const CheckReport report = explore(strategy, view(suite), {});
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.configsExplored, 50u);
}

// ---------------------------------------------------------------------------
// Witness hunting (§5): the checker can search for schedules where
// decide-on-adopt would have broken agreement.

TEST(WitnessHunt, FindsAdoptMismatchSchedules) {
  RandomWalkStrategy::Options options;
  options.runs = 200;
  const RandomWalkStrategy strategy(benOrBase(), options);
  const AdoptWitnessInvariant witness;
  CheckerOptions checker;
  checker.maxFindings = 1;
  checker.shrink = false;
  const CheckReport report = explore(strategy, {&witness}, checker);
  EXPECT_FALSE(report.ok())
      << "no decide-on-adopt witness in 200 runs (statistically expected)";
}

// ---------------------------------------------------------------------------
// Compose-family scenarios: serialized pairings pass through the same
// registry gate as every other parse path.

TEST(ComposeScenario, SerializedRunRoundTrips) {
  Scenario scenario;
  scenario.family = Family::kCompose;
  scenario.compose.detector = "benor-vac";
  scenario.compose.driver = "timer";
  scenario.compose.n = 5;
  scenario.compose.inputs = {0, 1, 0, 1, 1};
  scenario.compose.seed = 23;

  const std::string text = serialize(scenario);
  const Scenario parsed = parseScenario(text);
  EXPECT_EQ(serialize(parsed), text);

  const auto recorded = recordRun(scenario);
  const auto replay = replayRun(parsed, recorded.trace);
  EXPECT_TRUE(replay.identical) << replay.divergence.value_or("");
}

TEST(ComposeScenario, RejectedPairingLoadsWithTheRegistryDiagnostic) {
  // A scenario file can spell any pairing; loading one the registry
  // rejects must fail with the exact diagnostic the CLI prints — the
  // parse path ends in the same resolve() gate, not a second opinion.
  Scenario scenario;
  scenario.family = Family::kCompose;
  scenario.compose.detector = "phaseking-ac";
  scenario.compose.driver = "local-coin";
  const std::string text = serialize(scenario);

  const std::string expected = *compose::registry().validatePairing(
      "phaseking-ac", "local-coin");
  try {
    parseScenario(text);
    FAIL() << "rejected pairing parsed without a diagnostic";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()), expected);
  }

  // The same gate guards counterexample files.
  CounterexampleFile file;
  file.scenario = scenario;
  file.invariant = "agreement";
  file.detail = "hand-written";
  const std::string serialized = serializeCounterexample(file);
  try {
    parseCounterexample(serialized);
    FAIL() << "rejected pairing loaded from a counterexample file";
  } catch (const std::invalid_argument& error) {
    EXPECT_EQ(std::string(error.what()), expected);
  }
}

}  // namespace
}  // namespace ooc::check
