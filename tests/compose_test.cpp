// The composition engine: registry semantics (lookup, open registration,
// duplicate rejection), capability validation with the paper's §5
// diagnostics, the two Composition interchange forms (spec string and
// key=value), the oracle role, the composition matrices, and the guarantee
// scenario files rest on: a family=compose section parses into the
// composition that ran it without moving a single scheduler event.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#include "benor/reconciliators.hpp"
#include "check/replay.hpp"
#include "check/scenario.hpp"
#include "compose/composition.hpp"
#include "compose/matrix.hpp"
#include "compose/registry.hpp"
#include "compose/run.hpp"
#include "fd/oracle.hpp"
#include "sim/trace.hpp"
#include "svc/run.hpp"

namespace ooc {
namespace {

using compose::Composition;
using compose::registry;

std::string throwText(const std::function<void()>& f) {
  try {
    f();
  } catch (const std::exception& error) {
    return error.what();
  }
  return "";
}

// ---------------------------------------------------------------------------
// Registry

TEST(ComposeRegistry, BuiltinsAreRegistered) {
  auto& reg = registry();
  for (const char* name :
       {"benor-vac", "byzantine-benor-vac", "vac-from-two-ac",
        "decentralized-vac", "phaseking-ac", "phasequeen-ac"}) {
    EXPECT_TRUE(reg.hasDetector(name)) << name;
    EXPECT_EQ(reg.detector(name).name, name);
  }
  for (const char* name :
       {"local-coin", "common-coin", "biased-coin", "keep-value", "lottery",
        "timer", "king-conciliator", "queen-conciliator"}) {
    EXPECT_TRUE(reg.hasDriver(name)) << name;
    EXPECT_EQ(reg.driver(name).name, name);
  }
}

TEST(ComposeRegistry, UnknownNamesThrowListingKnownOnes) {
  const std::string detectorError =
      throwText([] { registry().detector("no-such-detector"); });
  EXPECT_NE(detectorError.find("unknown detector 'no-such-detector'"),
            std::string::npos)
      << detectorError;
  EXPECT_NE(detectorError.find("benor-vac"), std::string::npos)
      << "diagnostic should list the known names: " << detectorError;

  const std::string driverError =
      throwText([] { registry().driver("no-such-driver"); });
  EXPECT_NE(driverError.find("unknown driver 'no-such-driver'"),
            std::string::npos)
      << driverError;
  EXPECT_NE(driverError.find("local-coin"), std::string::npos)
      << driverError;
}

TEST(ComposeRegistry, DuplicateRegistrationIsRejected) {
  compose::DetectorEntry detector;
  detector.name = "benor-vac";  // collides with the builtin
  EXPECT_THROW(registry().registerDetector(std::move(detector)),
               std::invalid_argument);

  compose::DriverEntry driver;
  driver.name = "local-coin";
  EXPECT_THROW(registry().registerDriver(std::move(driver)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Capability validation (the paper's §5 asymmetry)

TEST(ComposeCapability, AcUnderReconciliatorCitesTheInsufficiencyArgument) {
  const auto diagnostic =
      registry().validatePairing("phaseking-ac", "local-coin");
  ASSERT_TRUE(diagnostic.has_value());
  EXPECT_NE(diagnostic->find("§5"), std::string::npos) << *diagnostic;
  EXPECT_NE(diagnostic->find("break agreement"), std::string::npos)
      << *diagnostic;
  // resolve(), parseSpec() and every file-parse path surface the identical
  // text — the same gate, not a re-implementation.
  Composition composition;
  composition.detector = "phaseking-ac";
  composition.driver = "local-coin";
  EXPECT_EQ(throwText([&] { compose::resolve(composition); }), *diagnostic);
  EXPECT_EQ(throwText([] { compose::parseSpec("phaseking-ac+local-coin"); }),
            *diagnostic);
}

TEST(ComposeCapability, VacUnderConciliatorSuggestsTheDowngrade) {
  const auto diagnostic =
      registry().validatePairing("benor-vac", "king-conciliator");
  ASSERT_TRUE(diagnostic.has_value());
  EXPECT_NE(diagnostic->find("vacillate"), std::string::npos) << *diagnostic;
  EXPECT_NE(diagnostic->find("AcFromVac"), std::string::npos) << *diagnostic;
}

TEST(ComposeCapability, ByzantineDetectorRejectsCrashOnlyDrivers) {
  for (const char* driver : {"lottery", "timer"}) {
    const auto diagnostic =
        registry().validatePairing("byzantine-benor-vac", driver);
    ASSERT_TRUE(diagnostic.has_value()) << driver;
    EXPECT_NE(diagnostic->find("crash-only"), std::string::npos)
        << *diagnostic;
  }
}

TEST(ComposeCapability, ValidPairingsResolve) {
  EXPECT_FALSE(registry().validatePairing("benor-vac", "local-coin"));
  EXPECT_FALSE(registry().validatePairing("phaseking-ac", "king-conciliator"));
  EXPECT_FALSE(registry().validatePairing("byzantine-benor-vac",
                                          "common-coin"));
  const auto resolved = compose::resolve(Composition{});  // the defaults
  EXPECT_EQ(resolved.t, 2u);  // (5-1)/2
  EXPECT_FALSE(resolved.lockstep);
}

TEST(ComposeCapability, ResolveChecksRunParameters) {
  Composition crashWithPlants;  // crash-model detector, planted Byzantines
  crashWithPlants.byzantineCount = 1;
  EXPECT_NE(throwText([&] { compose::resolve(crashWithPlants); })
                .find("crash-model"),
            std::string::npos);

  Composition lockstepWithCrashes;
  lockstepWithCrashes.detector = "phaseking-ac";
  lockstepWithCrashes.driver = "king-conciliator";
  lockstepWithCrashes.n = 7;
  lockstepWithCrashes.crashes = {{1, 10}};
  EXPECT_NE(throwText([&] { compose::resolve(lockstepWithCrashes); })
                .find("lockstep"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Interchange forms

TEST(ComposeSpec, ParsesAndTrims) {
  const Composition composition =
      compose::parseSpec("  benor-vac +  timer ");
  EXPECT_EQ(composition.detector, "benor-vac");
  EXPECT_EQ(composition.driver, "timer");
  EXPECT_THROW(compose::parseSpec("benor-vac"), std::invalid_argument);
  EXPECT_THROW(compose::parseSpec("+local-coin"), std::invalid_argument);
}

Composition sampleComposition() {
  Composition composition;
  composition.detector = "benor-vac";
  composition.driver = "biased-coin";
  composition.n = 9;
  composition.t = 3;
  composition.inputs = {1, 0, 1};
  composition.seed = 42;
  composition.bias = 0.75;
  composition.crashes = {{0, 50}, {3, 120}};
  composition.minDelay = 2;
  composition.maxDelay = 7;
  composition.adversary.extraDelayMax = 4;
  composition.adversary.perturbProbability = 0.5;
  composition.adversary.seed = 9;
  composition.maxRounds = 80;
  composition.maxTicks = 60'000;
  return composition;
}

TEST(ComposeSerialize, KeyValueRoundTrips) {
  // 2^53 + 1 has no double: a reader that parses through one lands on
  // 2^53, which is a different run.
  for (const std::uint64_t seed : {42ULL, 9'007'199'254'740'993ULL}) {
    Composition original = sampleComposition();
    original.seed = seed;
    const std::string text = compose::serialize(original);
    const Composition parsed = compose::parseComposition(text);
    EXPECT_EQ(compose::serialize(parsed), text);
    EXPECT_EQ(parsed.detector, original.detector);
    EXPECT_EQ(parsed.driver, original.driver);
    EXPECT_EQ(parsed.n, original.n);
    EXPECT_EQ(parsed.t, original.t);
    EXPECT_EQ(parsed.inputs, original.inputs);
    EXPECT_EQ(parsed.seed, original.seed);
    EXPECT_EQ(parsed.crashes, original.crashes);
    EXPECT_EQ(parsed.adversary.extraDelayMax,
              original.adversary.extraDelayMax);
    EXPECT_EQ(parsed.bias, original.bias);
  }
}

TEST(ComposeSerialize, NarrowFieldsRejectValuesTheyCannotHold) {
  // A read that casts the parsed 64-bit value wraps 2^32 into a 32-bit
  // field: max-rounds=2^32 loaded as 0 (every process retired before
  // round 1) and key-space=2^32+1 as 1. The range-checked read rejects
  // what the field cannot hold and loads the widest value it can.
  struct Row {
    const char* key;
    std::string text;
    std::function<std::uint64_t(const std::string&)> load;
  };
  const Row rows[] = {
      {"max-rounds", compose::serialize(sampleComposition()),
       [](const std::string& text) -> std::uint64_t {
         return compose::parseComposition(text).maxRounds;
       }},
      {"key-space", svc::serializeSvcConfig(svc::SvcConfig{}),
       [](const std::string& text) -> std::uint64_t {
         return svc::parseSvcConfig(text).workload.keySpace;
       }},
  };
  constexpr std::uint64_t kWidest = 4'294'967'295;  // 2^32 - 1
  for (const Row& row : rows) {
    const std::string line = std::string("\n") + row.key + "=";
    const auto at = row.text.find(line);
    ASSERT_NE(at, std::string::npos) << row.key;
    const auto end = row.text.find('\n', at + 1);
    const auto with = [&](std::uint64_t value) {
      return row.text.substr(0, at) + line + std::to_string(value) +
             row.text.substr(end);
    };
    EXPECT_EQ(row.load(with(kWidest)), kWidest) << row.key;
    for (const std::uint64_t wide : {kWidest + 1, kWidest + 2}) {
      EXPECT_NE(throwText([&] { row.load(with(wide)); }).find("out of range"),
                std::string::npos)
          << row.key << "=" << wide;
    }
  }
}

TEST(ComposeSerialize, ParsePathsRejectInvalidPairingsWithTheSameText) {
  Composition invalid;
  invalid.detector = "phasequeen-ac";
  invalid.driver = "keep-value";
  const std::string expected =
      *registry().validatePairing("phasequeen-ac", "keep-value");
  // serialize() itself does not validate (it never runs anything), so the
  // invalid pairing reaches the wire — and every reader rejects it there.
  EXPECT_EQ(throwText([&] {
              compose::parseComposition(compose::serialize(invalid));
            }),
            expected);
}

// ---------------------------------------------------------------------------
// The oracle role (PR 6): rejection gates, interchange, the E22 matrix

TEST(ComposeOracle, BuiltinOraclesAreRegistered) {
  auto& reg = registry();
  for (const char* name : {"perfect-p", "diamond-s", "omega"}) {
    EXPECT_TRUE(reg.hasOracle(name)) << name;
    EXPECT_EQ(reg.oracle(name).name, name);
  }
  const std::string error =
      throwText([] { registry().oracle("no-such-oracle"); });
  EXPECT_NE(error.find("unknown oracle 'no-such-oracle'"), std::string::npos)
      << error;
  EXPECT_NE(error.find("omega"), std::string::npos)
      << "diagnostic should list the known names: " << error;
}

TEST(ComposeOracle, MissingOracleDiagnosticIsIdenticalAcrossParsePaths) {
  // ct-coordinator consumes Ω; with no oracle attached, resolve() and every
  // file-parse path must reject with the same registry text.
  const auto diagnostic =
      registry().validateOracle("ct-coordinator", "", fd::OracleKnobs{});
  ASSERT_TRUE(diagnostic.has_value());
  EXPECT_NE(diagnostic->find("consumes a failure-detector oracle"),
            std::string::npos)
      << *diagnostic;
  Composition composition;
  composition.detector = "benor-vac";
  composition.driver = "ct-coordinator";
  EXPECT_EQ(throwText([&] { compose::resolve(composition); }), *diagnostic);
  EXPECT_EQ(
      throwText([] { compose::parseSpec("benor-vac+ct-coordinator"); }),
      *diagnostic);
  EXPECT_EQ(throwText([&] {
              compose::parseComposition(compose::serialize(composition));
            }),
            *diagnostic);
}

TEST(ComposeOracle, TooWeakAnOracleCitesTheClassGap) {
  // p-coordinator demands P; ◇S only promises eventual accuracy.
  const auto diagnostic =
      registry().validateOracle("p-coordinator", "diamond-s",
                                fd::OracleKnobs{});
  ASSERT_TRUE(diagnostic.has_value());
  EXPECT_NE(diagnostic->find("perfect"), std::string::npos) << *diagnostic;
  Composition composition;
  composition.detector = "benor-vac";
  composition.driver = "p-coordinator";
  composition.oracle = "diamond-s";
  EXPECT_EQ(throwText([&] { compose::resolve(composition); }), *diagnostic);
}

TEST(ComposeOracle, NoisyPerfectOracleIsIncoherent) {
  // Strong accuracy forbids false suspicion: perfect-p with noise (or an
  // accuracy stabilization delay) is a contradiction in terms.
  fd::OracleKnobs noisy;
  noisy.noise = 0.25;
  const auto diagnostic =
      registry().validateOracle("p-coordinator", "perfect-p", noisy);
  ASSERT_TRUE(diagnostic.has_value());
  EXPECT_NE(diagnostic->find("strong accuracy"), std::string::npos)
      << *diagnostic;
  Composition composition;
  composition.detector = "benor-vac";
  composition.driver = "p-coordinator";
  composition.oracle = "perfect-p";
  composition.oracleKnobs.noise = 0.25;
  EXPECT_EQ(throwText([&] { compose::resolve(composition); }), *diagnostic);
  EXPECT_EQ(throwText([&] {
              compose::parseComposition(compose::serialize(composition));
            }),
            *diagnostic);
}

TEST(ComposeOracle, OracleOnAnOracleFreeDriverIsRejected) {
  const auto diagnostic =
      registry().validateOracle("timer", "omega", fd::OracleKnobs{});
  ASSERT_TRUE(diagnostic.has_value());
  Composition composition;
  composition.detector = "benor-vac";
  composition.driver = "timer";
  composition.oracle = "omega";
  EXPECT_EQ(throwText([&] { compose::resolve(composition); }), *diagnostic);
}

TEST(ComposeOracle, SerializationRoundTripsTheOracleAndItsKnobs) {
  Composition original = sampleComposition();
  original.driver = "ct-coordinator";
  original.oracle = "omega";
  original.oracleKnobs.completenessLag = 6;
  original.oracleKnobs.stabilizeAt = 90;
  original.oracleKnobs.noise = 0.375;
  original.oracleKnobs.noiseEpoch = 12;

  const std::string text = compose::serialize(original);
  const Composition parsed = compose::parseComposition(text);
  EXPECT_EQ(compose::serialize(parsed), text);
  EXPECT_EQ(parsed.oracle, "omega");
  EXPECT_EQ(parsed.oracleKnobs.completenessLag, Tick{6});
  EXPECT_EQ(parsed.oracleKnobs.stabilizeAt, Tick{90});
  EXPECT_EQ(parsed.oracleKnobs.noise, 0.375);
  EXPECT_EQ(parsed.oracleKnobs.noiseEpoch, Tick{12});
}

TEST(ComposeOracle, OracleFreeCompositionsSerializeWithoutOracleKeys) {
  // Satellite guarantee: the oracle role is zero-cost for existing
  // pairings — their wire forms gain no keys, so pre-PR-6 files and
  // goldens stay byte-identical.
  const Composition original = sampleComposition();
  EXPECT_EQ(compose::serialize(original).find("oracle"), std::string::npos);
}

TEST(ComposeOracle, E22MatrixReportsRejectedCellsWithDiagnostics) {
  compose::MatrixExperiment experiment = compose::e22Matrix();
  experiment.runsPerCell = 1;  // quick=false: quick mode would force 3
  const auto report = compose::runMatrix(experiment, {});
  EXPECT_TRUE(report.safetyOk);
  EXPECT_GT(report.validCells, 0u);
  EXPECT_GT(report.rejectedCells, 0u);
  EXPECT_EQ(report.validCells + report.rejectedCells, report.cells.size());

  bool sawMissingOracle = false, sawWeakOracle = false, sawNoisyPerfect = false;
  for (const auto& cell : report.cells) {
    const Composition& c = cell.composition;
    if (cell.valid) {
      EXPECT_TRUE(cell.diagnostic.empty());
      EXPECT_EQ(cell.stats.runs, 1);
      EXPECT_TRUE(cell.stats.fdAxiomsOk) << c.driver << "+" << c.oracle;
      EXPECT_TRUE(cell.stats.agreementOk && cell.stats.validityOk &&
                  cell.stats.auditsOk);
    } else {
      EXPECT_FALSE(cell.diagnostic.empty()) << c.driver << "+" << c.oracle;
      EXPECT_EQ(cell.stats.runs, 0);
      if (c.oracle.empty()) sawMissingOracle = true;
      if (c.driver == "p-coordinator" && c.oracle == "diamond-s")
        sawWeakOracle = true;
      if (c.oracle == "perfect-p" && c.oracleKnobs.noise > 0)
        sawNoisyPerfect = true;
    }
  }
  EXPECT_TRUE(sawMissingOracle);
  EXPECT_TRUE(sawWeakOracle);
  EXPECT_TRUE(sawNoisyPerfect);

  // The JSON form carries the rejected cells too, diagnostic included.
  const std::string json = compose::matrixToJson(report);
  EXPECT_NE(json.find("\"schema\":\"ooc.matrix.v2\""), std::string::npos);
  EXPECT_NE(json.find("\"experiment\":\"e22\""), std::string::npos);
  EXPECT_NE(json.find("\"valid\":false"), std::string::npos);
  EXPECT_NE(json.find("\"diagnostic\""), std::string::npos);
  EXPECT_NE(json.find("\"fd_axioms_ok\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// The composition matrix: E20, E22 and E24 through one gate and one runner

TEST(ComposeMatrix, TrialFoldFailsOracleRunsWithoutAPassingAudit) {
  compose::CompositionResult unaudited;
  compose::CompositionResult failed;
  failed.oracleAudit.emplace();
  failed.oracleAudit->accuracyOk = false;
  compose::CompositionResult passed;
  passed.oracleAudit.emplace();

  compose::TrialStats oracleFree;
  oracleFree.add(unaudited, 5, /*oracleAttached=*/false);
  EXPECT_TRUE(oracleFree.fdAxiomsOk);  // vacuously
  for (const auto* result : {&unaudited, &failed}) {
    compose::TrialStats stats;
    stats.add(passed, 5, /*oracleAttached=*/true);
    stats.add(*result, 5, /*oracleAttached=*/true);
    EXPECT_FALSE(stats.fdAxiomsOk);
    EXPECT_FALSE(stats.safe());
  }
  compose::TrialStats clean;
  clean.add(passed, 5, /*oracleAttached=*/true);
  EXPECT_TRUE(clean.safe());
  EXPECT_EQ(clean.runs, 1);
}

TEST(ComposeMatrix, EveryExperimentGatesLikeResolveAndIsThreadInvariant) {
  const auto& reg = registry();
  std::size_t consumingDrivers = 0;
  for (const std::string& name : reg.driverNames())
    if (reg.driver(name).capability.oracle != compose::OracleRequirement::kNone)
      ++consumingDrivers;
  const std::size_t oracles = reg.oracleNames().size();
  // Derived from the registry: another test registers an extra driver.
  const std::size_t expectedCells[] = {
      reg.detectorNames().size() * reg.driverNames().size(),
      consumingDrivers * (1 + 3 * oracles) + oracles,
      5 * 3,
  };
  const compose::MatrixExperiment experiments[] = {
      compose::e20Matrix(), compose::e22Matrix(), compose::e24Matrix()};
  for (std::size_t e = 0; e < 3; ++e) {
    compose::MatrixExperiment experiment = experiments[e];
    SCOPED_TRACE(experiment.name);
    EXPECT_EQ(compose::matrixExperiment(experiment.name).cells.size(),
              experiment.cells.size());
    ASSERT_EQ(experiment.cells.size(), expectedCells[e]);
    experiment.runsPerCell = 1;
    compose::MatrixOptions options;
    options.threads = 1;
    const auto report = compose::runMatrix(experiment, options);
    ASSERT_EQ(report.cells.size(), experiment.cells.size());
    EXPECT_TRUE(report.safetyOk);
    EXPECT_EQ(report.validCells + report.rejectedCells, report.cells.size());
    for (const auto& cell : report.cells) {
      const Composition& c = cell.composition;
      EXPECT_EQ(cell.diagnostic,
                throwText([&] { compose::resolve(c); }))
          << c.detector << "+" << c.driver;
      EXPECT_EQ(cell.valid, cell.diagnostic.empty());
      EXPECT_EQ(cell.stats.runs, cell.valid ? 1 : 0);
      if (cell.valid && c.scheduler == SchedulingPolicy::kLockstep) {
        EXPECT_EQ(cell.stats.overlapWitnesses, 0u);
        EXPECT_EQ(cell.stats.deferredActivations, 0u);
      }
    }
    options.threads = 4;
    EXPECT_EQ(compose::matrixToJson(compose::runMatrix(experiment, options)),
              compose::matrixToJson(report));
  }
  EXPECT_THROW(compose::matrixExperiment("e21"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Scenario sections: a Ben-Or mode, a Phase-King variant or an oracle run
// is written as a family=compose section. A hand-written section names only
// the keys it changes; the rest take the Composition defaults. Each must
// lower to the composition that ran it, with an identical trace.

void expectSectionLowersTo(const std::string& section,
                           const Composition& direct) {
  const check::Scenario parsed = check::parseScenario(section);
  ASSERT_EQ(parsed.family, check::Family::kCompose);
  check::Scenario expected;
  expected.compose = direct;
  EXPECT_EQ(check::serialize(parsed), check::serialize(expected));
  const auto parsedRun = check::recordRun(parsed);
  const auto directRun = check::recordRun(expected);
  EXPECT_FALSE(directRun.trace.events.empty());
  EXPECT_TRUE(parsedRun.trace == directRun.trace)
      << "the section moved a scheduler event:\n"
      << section;
}

class BenOrAlias
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
};

TEST_P(BenOrAlias, LowersToItsComposition) {
  const auto [mode, reconciliator] = GetParam();
  // The paper's three Ben-Or modes; "decomposed" is the benor-vac detector.
  const std::string detector = mode == "decomposed" ? "benor-vac" : mode;
  // Capped rounds keep the keep-value negative control (which stalls on
  // split inputs) short; every other pairing decides well inside them.
  const std::string text = "family=compose\ndetector=" + detector +
                           "\ndriver=" + reconciliator +
                           "\nn=5\ninputs=0,1,0,1,1\nseed=33\n" +
                           "max-rounds=30\n";
  Composition direct;
  direct.detector = detector;
  direct.driver = reconciliator;
  direct.n = 5;
  direct.inputs = {0, 1, 0, 1, 1};
  direct.seed = 33;
  direct.maxRounds = 30;
  expectSectionLowersTo(text, direct);
}

INSTANTIATE_TEST_SUITE_P(
    ModesByReconciliators, BenOrAlias,
    ::testing::Combine(::testing::Values("decomposed", "vac-from-two-ac",
                                         "decentralized-vac"),
                       ::testing::Values("local-coin", "common-coin",
                                         "biased-coin", "keep-value",
                                         "lottery")));

class PhaseKingAlias
    : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(PhaseKingAlias, LowersToItsComposition) {
  const auto [queen, earlyCommit] = GetParam();
  // The phaseking-lockstep-n7 golden's shape: two equivocators at the
  // front, 300 rounds, 100000 ticks.
  const std::string text =
      std::string("family=compose\n") +
      (queen ? "detector=phasequeen-ac\ndriver=queen-conciliator\nn=9\n"
             : "detector=phaseking-ac\ndriver=king-conciliator\nn=7\n") +
      "byzantine=2\nseed=11\nearly-commit=" + (earlyCommit ? "1" : "0") +
      "\nmax-rounds=300\nmax-ticks=100000\n";
  Composition direct;
  direct.detector = queen ? "phasequeen-ac" : "phaseking-ac";
  direct.driver = queen ? "queen-conciliator" : "king-conciliator";
  direct.n = queen ? 9 : 7;
  direct.byzantineCount = 2;
  direct.earlyCommitDecision = earlyCommit;
  direct.seed = 11;
  direct.maxRounds = 300;
  direct.maxTicks = 100000;
  expectSectionLowersTo(text, direct);
}

INSTANTIATE_TEST_SUITE_P(RoyalsByDecisionRule, PhaseKingAlias,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool()));

// An oracle run has no family of its own: its keys ride the compose key
// set, and fd is an unknown family name.
TEST(LegacyAlias, FdIsTheComposeKeySet) {
  Composition direct;
  direct.driver = "ct-coordinator";
  direct.oracle = "omega";
  direct.oracleKnobs.stabilizeAt = 40;
  direct.oracleKnobs.noise = 0.25;
  direct.inputs = {0, 1, 0, 1, 1};
  direct.crashes = {{4, 30}};
  direct.seed = 23;
  expectSectionLowersTo("family=compose\n" + compose::serialize(direct),
                        direct);
  const std::string fd = "fd";
  EXPECT_EQ(throwText([&] {
              check::parseScenario("family=" + fd + "\n" +
                                   compose::serialize(direct));
            }),
            "unknown scenario family 'fd'");
}

// The monolithic baselines are bespoke runners, not compositions, so no
// scenario file can name one: not under the retired family names, and not
// as a compose detector.
TEST(LegacyAlias, MonolithicBaselinesAreRejected) {
  for (const auto& [family, keys] :
       {std::pair<std::string, std::string>{
            "benor", "mode=monolithic\nn=3\ninputs=0,1,0\n"},
        {"phaseking", "monolithic=1\n"}}) {
    const std::string error = throwText(
        [&] { check::parseScenario("family=" + family + "\n" + keys); });
    EXPECT_EQ(error, "unknown scenario family '" + family + "'");
  }
  const std::string error = throwText([] {
    check::parseScenario(
        "family=compose\ndetector=monolithic\nn=3\ninputs=0,1,0\n");
  });
  EXPECT_NE(error.find("unknown detector 'monolithic'"), std::string::npos)
      << error;
}

// ---------------------------------------------------------------------------
// Open registration (extensions can add objects at startup)

TEST(ComposeRegistry, OpenRegistrationComposesWithBuiltins) {
  auto& reg = registry();
  if (!reg.hasDriver("test-always-one")) {
    compose::DriverEntry driver;
    driver.name = "test-always-one";
    driver.capability = {compose::DriverClass::kReconciliator,
                         compose::InvocationMode::kAny,
                         /*toleratesByzantine=*/true,
                         /*requiresEveryProcess=*/false};
    driver.make = [](const compose::ObjectParams&) {
      return benor::KeepValueReconciliator::factory();
    };
    reg.registerDriver(std::move(driver));
  }
  ASSERT_TRUE(reg.hasDriver("test-always-one"));
  EXPECT_FALSE(reg.validatePairing("benor-vac", "test-always-one"));

  Composition composition;
  composition.driver = "test-always-one";
  composition.inputs = {1, 1, 1, 1, 1};  // unanimous: decides in round 1
  const auto result = compose::runComposition(composition);
  EXPECT_TRUE(result.allDecided);
  EXPECT_FALSE(result.agreementViolated);
}

}  // namespace
}  // namespace ooc
