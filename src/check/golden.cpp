#include "check/golden.hpp"

#include "check/replay.hpp"

namespace ooc::check {
namespace {

/// A fixture recorded under a legacy family spelling: its committed
/// scenario section is kept verbatim and parsed through the alias rule, so
/// the byte-identical golden also proves the alias lowers to the recorded
/// schedule.
GoldenFixture legacyFixture(const char* name, const char* scenarioText) {
  GoldenFixture f;
  f.name = name;
  f.scenarioText = scenarioText;
  f.scenario = parseScenario(f.scenarioText);
  return f;
}

}  // namespace

std::vector<GoldenFixture> goldenFixtures() {
  std::vector<GoldenFixture> fixtures;

  fixtures.push_back(legacyFixture("benor-async-n5", R"(family=benor
# run-id=0550345a6ff44e7b
n=5
inputs=0,1,0,1,1
seed=7
mode=decomposed
reconciliator=local-coin
bias=0.5
min-delay=1
max-delay=10
max-rounds=5000
max-ticks=5000000
adversary-budget=0
adversary-prob=1
adversary-seed=1
fault=none
)"));
  fixtures.push_back(legacyFixture("benor-vacfromac-n5", R"(family=benor
# run-id=09b323d0dd3f8c0a
n=5
inputs=1,0,1,0,0
seed=21
mode=vac-from-two-ac
reconciliator=local-coin
bias=0.5
min-delay=1
max-delay=10
max-rounds=5000
max-ticks=5000000
adversary-budget=0
adversary-prob=1
adversary-seed=1
fault=none
)"));
  fixtures.push_back(legacyFixture("phaseking-lockstep-n7", R"(family=phaseking
# run-id=d57dbb4099c1605f
algorithm=king
n=7
byzantine=2
strategy=equivocate
placement=front
inputs=0,1
monolithic=0
early-commit=0
seed=11
max-rounds=300
max-ticks=100000
)"));
  {
    GoldenFixture f;
    f.name = "raft-faultmix-restart";
    f.scenario.family = Family::kRaft;
    f.scenario.raft.n = 5;
    f.scenario.raft.seed = 13;
    f.scenario.raft.dropProbability = 0.10;
    f.scenario.raft.duplicateProbability = 0.20;
    f.scenario.raft.restarts.push_back({1, 160, 20});
    fixtures.push_back(std::move(f));
  }
  {
    // A registry pairing with no legacy config spelling: the timer
    // reconciliator only exists as a composition.
    GoldenFixture f;
    f.name = "compose-timer-n5";
    f.scenario.family = Family::kCompose;
    f.scenario.compose.detector = "benor-vac";
    f.scenario.compose.driver = "timer";
    f.scenario.compose.n = 5;
    f.scenario.compose.inputs = {0, 1, 0, 1, 1};
    f.scenario.compose.seed = 17;
    fixtures.push_back(std::move(f));
  }
  // An oracle-guided pairing: rotating coordinator consuming Ω over a
  // crash schedule, with a deliberately imperfect oracle (noise until
  // stabilization) so the golden pins the noise hashing and the
  // suspicion-driven timer path, not just the happy claim path.
  fixtures.push_back(legacyFixture("fd-ct-omega-n5", R"(family=fd
# run-id=4796a4f6c89230b3
detector=benor-vac
driver=ct-coordinator
n=5
byzantine=0
byz-strategy=equivocate
placement=front
inputs=0,1,0,1,1
seed=23
bias=0.5
crash=4@30
min-delay=1
max-delay=10
adversary-budget=0
adversary-prob=1
adversary-seed=1
early-commit=0
max-rounds=5000
max-ticks=5000000
fault=none
oracle=omega
oracle-completeness-lag=6
oracle-stabilize-at=60
oracle-noise=0.29999999999999999
oracle-noise-epoch=16
oracle-lie=0
)"));
  {
    // A schedule expressible only under a non-lockstep policy: the
    // ooo-driver scheduler detaches each round's courtesy drive, so
    // driver exchanges for round m interleave with the round-(m+1)
    // detector — the overlap the lockstep barrier forbids. The lottery
    // driver matters here: its drive wave needs a message from every
    // process, so a detached drive genuinely outlives the successor
    // round's detector (a local coin would resolve at launch and the
    // overlap would never reach the trace). This golden is the committed
    // witness for the roundless refactor (DESIGN.md §14); the six
    // fixtures above must stay byte-identical under lockstep.
    GoldenFixture f;
    f.name = "compose-ooo-skew-n5";
    f.scenario.family = Family::kCompose;
    f.scenario.compose.detector = "benor-vac";
    f.scenario.compose.driver = "lottery";
    f.scenario.compose.scheduler = SchedulingPolicy::kOooDriver;
    f.scenario.compose.n = 5;
    f.scenario.compose.inputs = {0, 1, 0, 1, 1};
    f.scenario.compose.maxDelay = 15;
    f.scenario.compose.seed = 14;
    fixtures.push_back(std::move(f));
  }
  return fixtures;
}

std::string renderGolden(const GoldenFixture& fixture) {
  CounterexampleFile file;
  file.scenario = fixture.scenario;
  file.scenarioText = fixture.scenarioText;
  file.invariant = "golden-fixture";
  file.detail = fixture.name;
  file.trace = recordRun(fixture.scenario).trace;
  return serializeCounterexample(file);
}

}  // namespace ooc::check
