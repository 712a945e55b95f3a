// The failure-detector oracle family (src/fd/): axiom conformance of the
// three oracles (P, ◇S, Ω) over randomized fault schedules including
// restart faults, oracle determinism (noise is a pure hash, never shared
// RNG state), the FD-axiom auditor's positive and negative verdicts, the
// Chandra–Toueg rotating coordinator through the generic composition
// runner, and the checker surface (oracle-quality strategy, FD invariants,
// liveness counterexample for a deliberately-weakened oracle).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "check/invariant.hpp"
#include "check/scenario.hpp"
#include "check/strategy.hpp"
#include "compose/composition.hpp"
#include "compose/registry.hpp"
#include "compose/run.hpp"
#include "fd/audit.hpp"
#include "fd/oracle.hpp"
#include "util/rng.hpp"

namespace ooc {
namespace {

using fd::FaultSchedule;
using fd::OracleClass;
using fd::OracleKnobs;

// ---------------------------------------------------------------------------
// FaultSchedule

TEST(FaultSchedule, CrashAndRestartIntervals) {
  FaultSchedule schedule(4);
  schedule.crash(1, 50);                    // terminal
  schedule.restart(2, 30, /*downFor=*/40);  // down [30, 70)

  EXPECT_TRUE(schedule.upAt(0, 0));
  EXPECT_TRUE(schedule.upAt(1, 49));
  EXPECT_FALSE(schedule.upAt(1, 50));
  EXPECT_FALSE(schedule.upAt(1, 100000));
  EXPECT_TRUE(schedule.upAt(2, 29));
  EXPECT_FALSE(schedule.upAt(2, 30));
  EXPECT_FALSE(schedule.upAt(2, 69));
  EXPECT_TRUE(schedule.upAt(2, 70));

  EXPECT_TRUE(schedule.correct(0));
  EXPECT_FALSE(schedule.correct(1));
  EXPECT_TRUE(schedule.correct(2));  // restarted: not terminally crashed
  EXPECT_FALSE(schedule.correct(7));  // out of range

  EXPECT_EQ(schedule.firstDownAt(1), Tick{50});
  EXPECT_EQ(schedule.firstDownAt(2), Tick{30});
  EXPECT_FALSE(schedule.firstDownAt(0).has_value());
  EXPECT_EQ(schedule.lastTransition(), Tick{70});
}

// ---------------------------------------------------------------------------
// Axiom conformance over randomized schedules (incl. restart faults)

FaultSchedule randomSchedule(std::size_t n, Rng& meta) {
  FaultSchedule schedule(n);
  const std::size_t crashes = meta.below(n / 2 + 1);
  for (std::size_t k = 0; k < crashes; ++k) {
    const auto id = static_cast<ProcessId>(meta.below(n));
    const auto at = static_cast<Tick>(1 + meta.below(200));
    if (meta.coin())
      schedule.crash(id, at);
    else
      schedule.restart(id, at, static_cast<Tick>(1 + meta.below(100)));
  }
  return schedule;
}

TEST(OracleAxioms, HonestOraclesPassTheAuditOnRandomSchedules) {
  for (std::uint64_t trial = 0; trial < 50; ++trial) {
    Rng meta = Rng(900 + trial).split(1);
    const std::size_t n = 3 + meta.below(6);
    const FaultSchedule schedule = randomSchedule(n, meta);

    OracleKnobs knobs;
    knobs.completenessLag = static_cast<Tick>(1 + meta.below(20));
    knobs.stabilizeAt = static_cast<Tick>(meta.below(200));
    knobs.noise = 0.1 * static_cast<double>(meta.below(6));
    for (const OracleClass oracleClass :
         {OracleClass::kPerfect, OracleClass::kEventuallyStrong,
          OracleClass::kOmega}) {
      OracleKnobs cellKnobs = knobs;
      if (oracleClass == OracleClass::kPerfect) cellKnobs.noise = 0.0;
      const auto oracle =
          fd::makeScheduleOracle(oracleClass, cellKnobs, schedule, trial);
      // Any horizon at or past the advertised bound must audit clean.
      const Tick horizon = oracle->stabilizationBound() + 100;
      const auto audit = fd::auditOracle(*oracle, schedule, horizon);
      EXPECT_TRUE(audit.ok())
          << toString(oracleClass) << " trial " << trial
          << "\n  completeness: " << audit.completenessDetail
          << "\n  accuracy: " << audit.accuracyDetail
          << "\n  convergence: " << audit.convergenceDetail;
    }
  }
}

TEST(OracleAxioms, RestartedProcessIsEventuallyUnsuspected) {
  // Crash-with-recovery: the process is down [40, 90). Completeness makes
  // every oracle suspect it while down (after the lag); a restarted process
  // is correct, so ◇S and P must stop suspecting it once it is back up.
  FaultSchedule schedule(4);
  schedule.restart(2, 40, /*downFor=*/50);
  OracleKnobs knobs;
  knobs.completenessLag = 5;
  for (const OracleClass oracleClass :
       {OracleClass::kPerfect, OracleClass::kEventuallyStrong,
        OracleClass::kOmega}) {
    const auto oracle =
        fd::makeScheduleOracle(oracleClass, knobs, schedule, 7);
    EXPECT_TRUE(oracle->suspects(0, 2, 60))
        << toString(oracleClass) << ": down process not suspected";
    const Tick settled = oracle->stabilizationBound() + 1;
    EXPECT_FALSE(oracle->suspects(0, 2, settled))
        << toString(oracleClass)
        << ": restarted process still suspected at tick " << settled;
    EXPECT_FALSE(oracle->suspects(0, 2, settled + 1000))
        << toString(oracleClass);
  }
}

TEST(OracleAxioms, PerfectOracleNeverSuspectsBeforeTheFirstCrash) {
  FaultSchedule schedule(5);
  schedule.crash(3, 120);
  OracleKnobs knobs;
  knobs.completenessLag = 10;
  const auto oracle =
      fd::makeScheduleOracle(OracleClass::kPerfect, knobs, schedule, 11);
  for (Tick at = 0; at < 120; ++at) {
    for (ProcessId viewer = 0; viewer < 5; ++viewer)
      EXPECT_FALSE(oracle->suspects(viewer, 3, at))
          << "strong accuracy broken at tick " << at;
  }
  EXPECT_TRUE(oracle->suspects(0, 3, 120 + knobs.completenessLag));
}

TEST(OracleAxioms, OmegaConvergesToACommonCorrectLeader) {
  FaultSchedule schedule(5);
  schedule.crash(0, 30);  // the initial lowest id fails
  OracleKnobs knobs;
  knobs.completenessLag = 4;
  knobs.stabilizeAt = 80;
  knobs.noise = 0.4;
  const auto oracle =
      fd::makeScheduleOracle(OracleClass::kOmega, knobs, schedule, 5);
  const Tick bound = oracle->stabilizationBound();
  std::set<ProcessId> leaders;
  for (ProcessId viewer = 1; viewer < 5; ++viewer)
    leaders.insert(oracle->leader(viewer, bound + 10));
  EXPECT_EQ(leaders.size(), 1u) << "correct viewers disagree on the leader";
  EXPECT_TRUE(schedule.correct(*leaders.begin()));
  EXPECT_NE(*leaders.begin(), 0u) << "crashed process elected";
}

TEST(OracleAxioms, SuspicionIsAPureFunctionOfScheduleKnobsAndSeed) {
  FaultSchedule schedule(4);
  schedule.crash(1, 60);
  OracleKnobs knobs;
  knobs.stabilizeAt = 100;
  knobs.noise = 0.5;
  const auto a =
      fd::makeScheduleOracle(OracleClass::kEventuallyStrong, knobs, schedule, 9);
  const auto b =
      fd::makeScheduleOracle(OracleClass::kEventuallyStrong, knobs, schedule, 9);
  const auto other =
      fd::makeScheduleOracle(OracleClass::kEventuallyStrong, knobs, schedule, 10);
  bool anyDifference = false;
  for (Tick at = 0; at < 100; at += 3) {
    for (ProcessId viewer = 0; viewer < 4; ++viewer) {
      for (ProcessId target = 0; target < 4; ++target) {
        // Query order must not matter: interleave repeated queries.
        const bool first = a->suspects(viewer, target, at);
        EXPECT_EQ(b->suspects(viewer, target, at), first);
        EXPECT_EQ(a->suspects(viewer, target, at), first);
        if (other->suspects(viewer, target, at) != first)
          anyDifference = true;
      }
    }
  }
  EXPECT_TRUE(anyDifference) << "noise ignores the seed";
}

// ---------------------------------------------------------------------------
// The auditor's negative verdicts

TEST(OracleAudit, LyingOracleFailsAccuracy) {
  // lieAboutBound advertises stabilization at tick 0 while the noise keeps
  // falsely suspecting until tick 500 — the auditor must catch the lie.
  FaultSchedule schedule(5);
  OracleKnobs knobs;
  knobs.stabilizeAt = 500;
  knobs.noise = 0.9;
  knobs.lieAboutBound = true;
  const auto oracle =
      fd::makeScheduleOracle(OracleClass::kOmega, knobs, schedule, 3);
  EXPECT_EQ(oracle->stabilizationBound(), Tick{0});
  const auto audit = fd::auditOracle(*oracle, schedule, 400);
  EXPECT_FALSE(audit.accuracyOk);
  EXPECT_NE(audit.accuracyDetail.find("falsely suspected"),
            std::string::npos)
      << audit.accuracyDetail;
}

TEST(OracleAudit, BoundPastTheHorizonFailsConvergence) {
  // The liveness counterexample: an oracle whose advertised stabilization
  // lands beyond the tick budget never has to deliver its promise inside
  // the run — the auditor reports that as a convergence failure.
  FaultSchedule schedule(5);
  OracleKnobs knobs;
  knobs.stabilizeAt = 10'000;
  knobs.noise = 0.5;
  const auto oracle =
      fd::makeScheduleOracle(OracleClass::kOmega, knobs, schedule, 3);
  const auto audit = fd::auditOracle(*oracle, schedule, 500);
  EXPECT_FALSE(audit.convergenceOk);
  EXPECT_NE(audit.convergenceDetail.find("does not stabilize"),
            std::string::npos)
      << audit.convergenceDetail;
}

// ---------------------------------------------------------------------------
// The rotating coordinator through the generic composition runner

compose::Composition coordinatorComposition(const std::string& driver,
                                            const std::string& oracle) {
  compose::Composition composition;
  composition.detector = "benor-vac";
  composition.driver = driver;
  composition.oracle = oracle;
  composition.n = 5;
  composition.inputs = {0, 1, 0, 1, 1};
  composition.crashes = {{4, 40}};
  return composition;
}

TEST(Coordinator, CtCoordinatorWithOmegaDecidesUnderACrash) {
  auto composition = coordinatorComposition("ct-coordinator", "omega");
  composition.oracleKnobs.stabilizeAt = 60;
  composition.oracleKnobs.noise = 0.3;
  const auto result = compose::runComposition(composition);
  EXPECT_TRUE(result.allDecided);
  EXPECT_FALSE(result.agreementViolated);
  EXPECT_FALSE(result.validityViolated);
  EXPECT_TRUE(result.allAuditsOk);
  ASSERT_TRUE(result.oracleAudit.has_value());
  EXPECT_TRUE(result.oracleAudit->ok())
      << result.oracleAudit->completenessDetail << " / "
      << result.oracleAudit->accuracyDetail << " / "
      << result.oracleAudit->convergenceDetail;
}

TEST(Coordinator, PCoordinatorWithPerfectOracleDecidesUnderACrash) {
  const auto result = compose::runComposition(
      coordinatorComposition("p-coordinator", "perfect-p"));
  EXPECT_TRUE(result.allDecided);
  EXPECT_FALSE(result.agreementViolated);
  EXPECT_TRUE(result.allAuditsOk);
  ASSERT_TRUE(result.oracleAudit.has_value());
  EXPECT_TRUE(result.oracleAudit->ok());
}

TEST(Coordinator, OracleFreePairingsCarryNoAudit) {
  compose::Composition composition;  // benor-vac + local-coin defaults
  composition.inputs = {0, 1, 0, 1, 1};
  const auto result = compose::runComposition(composition);
  EXPECT_TRUE(result.allDecided);
  EXPECT_FALSE(result.oracleAudit.has_value());
}

// ---------------------------------------------------------------------------
// The checker surface: oracle-guided scenarios, invariants, oracle-quality
// strategy

check::Scenario fdScenario() {
  check::Scenario scenario;
  scenario.compose = coordinatorComposition("ct-coordinator", "omega");
  scenario.compose.oracleKnobs.stabilizeAt = 40;
  scenario.compose.oracleKnobs.noise = 0.25;
  return scenario;
}

TEST(FdFamily, RunScenarioFillsTheFdReportFields) {
  const auto report = check::runScenario(fdScenario());
  EXPECT_TRUE(report.hasOracle);
  EXPECT_TRUE(report.fdCompletenessOk);
  EXPECT_TRUE(report.fdAccuracyOk);
  EXPECT_TRUE(report.fdConvergenceOk);
  EXPECT_TRUE(report.allDecided);
}

TEST(FdFamily, ScenarioSerializationRoundTripsTheOracle) {
  const auto scenario = fdScenario();
  const std::string text = check::serialize(scenario);
  EXPECT_NE(text.find("family=compose"), std::string::npos);
  EXPECT_NE(text.find("oracle=omega"), std::string::npos);
  const auto parsed = check::parseScenario(text);
  EXPECT_EQ(parsed.family, check::Family::kCompose);
  EXPECT_EQ(parsed.compose.oracle, "omega");
  EXPECT_EQ(parsed.compose.oracleKnobs.stabilizeAt, Tick{40});
  EXPECT_EQ(check::serialize(parsed), text);
  const std::string description = check::describe(parsed);
  EXPECT_NE(description.find("oracle=omega"), std::string::npos)
      << description;
}

TEST(FdInvariants, LyingOracleIsCaughtByFdAccuracy) {
  auto scenario = fdScenario();
  scenario.compose.oracleKnobs.stabilizeAt = 5'000;
  scenario.compose.oracleKnobs.noise = 0.6;
  scenario.compose.oracleKnobs.lieAboutBound = true;
  const auto report = check::runScenario(scenario);
  EXPECT_FALSE(report.fdAccuracyOk);
  const check::FdAccuracyInvariant invariant;
  const auto violation = invariant.check(scenario, report);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->invariant, "fd-accuracy");
}

TEST(FdInvariants, SlowOracleIsALivenessCounterexample) {
  // The negative test the issue asks for: a deliberately-weakened oracle
  // (stabilization promised only after the tick budget) must surface as a
  // caught fd-convergence violation, not as a silent pass.
  auto scenario = fdScenario();
  scenario.compose.oracleKnobs.stabilizeAt =
      scenario.compose.maxTicks + 1'000'000;
  scenario.compose.oracleKnobs.noise = 0.4;
  const auto report = check::runScenario(scenario);
  EXPECT_FALSE(report.fdConvergenceOk);
  const auto suite = check::safetySuite(/*requireTermination=*/true);
  bool caught = false;
  for (const auto& invariant : suite) {
    if (const auto violation = invariant->check(scenario, report)) {
      EXPECT_EQ(violation->invariant, "fd-convergence");
      caught = true;
    }
  }
  EXPECT_TRUE(caught);
}

TEST(FdInvariants, VacuousWithoutAnOracle) {
  check::RunReport report;  // hasOracle=false, axiom flags default-false ok
  report.fdAccuracyOk = false;
  report.fdCompletenessOk = false;
  report.fdConvergenceOk = false;
  const check::Scenario scenario;
  EXPECT_FALSE(check::FdAccuracyInvariant().check(scenario, report));
  EXPECT_FALSE(check::FdCompletenessInvariant().check(scenario, report));
  EXPECT_FALSE(check::FdConvergenceInvariant().check(scenario, report));
}

TEST(OracleQualityStrategy, EnumeratesOnlyRegistryValidCells) {
  check::OracleQualityStrategy::Options options;
  options.seedsPerCell = 1;
  const check::OracleQualityStrategy strategy(fdScenario(), options);
  ASSERT_GT(strategy.size(), 0u);
  std::set<std::string> oracles;
  for (std::size_t i = 0; i < strategy.size(); ++i) {
    const auto scenario = strategy.generate(i);
    EXPECT_EQ(scenario.family, check::Family::kCompose);
    oracles.insert(scenario.compose.oracle);
    // Every enumerated cell must resolve — rejected quality points (noisy
    // perfect-p) were dropped at construction.
    EXPECT_NO_THROW(compose::resolve(scenario.compose)) << i;
    if (scenario.compose.oracle == "perfect-p") {
      EXPECT_EQ(scenario.compose.oracleKnobs.noise, 0.0);
    }
  }
  EXPECT_EQ(oracles.size(), 3u) << "all three oracles should appear";
}

TEST(OracleQualityStrategy, RejectsAnOracleFreeBase) {
  check::Scenario base;
  base.compose.driver = "timer";
  EXPECT_THROW(
      check::OracleQualityStrategy(base, check::OracleQualityStrategy::Options{}),
      std::invalid_argument);
}

}  // namespace
}  // namespace ooc
