#include "check/golden.hpp"

#include "check/replay.hpp"

namespace ooc::check {

std::vector<GoldenFixture> goldenFixtures() {
  std::vector<GoldenFixture> fixtures;

  {
    GoldenFixture f;
    f.name = "benor-async-n5";
    f.scenario.compose.n = 5;
    f.scenario.compose.inputs = {0, 1, 0, 1, 1};
    f.scenario.compose.seed = 7;
    fixtures.push_back(std::move(f));
  }
  {
    GoldenFixture f;
    f.name = "benor-vacfromac-n5";
    f.scenario.compose.detector = "vac-from-two-ac";
    f.scenario.compose.n = 5;
    f.scenario.compose.inputs = {1, 0, 1, 0, 0};
    f.scenario.compose.seed = 21;
    fixtures.push_back(std::move(f));
  }
  {
    GoldenFixture f;
    f.name = "phaseking-lockstep-n7";
    f.scenario.compose.detector = "phaseking-ac";
    f.scenario.compose.driver = "king-conciliator";
    f.scenario.compose.n = 7;
    f.scenario.compose.byzantineCount = 2;
    f.scenario.compose.inputs = {0, 1};
    f.scenario.compose.seed = 11;
    f.scenario.compose.maxRounds = 300;
    f.scenario.compose.maxTicks = 100000;
    fixtures.push_back(std::move(f));
  }
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
  {
    // An oracle-guided pairing: rotating coordinator consuming Ω over a
    // crash schedule, with a deliberately imperfect oracle (noise until
    // stabilization) so the golden pins the noise hashing and the
    // suspicion-driven timer path, not just the happy claim path.
    GoldenFixture f;
    f.name = "fd-ct-omega-n5";
    f.scenario.compose.driver = "ct-coordinator";
    f.scenario.compose.n = 5;
    f.scenario.compose.inputs = {0, 1, 0, 1, 1};
    f.scenario.compose.seed = 23;
    f.scenario.compose.crashes = {{4, 30}};
    f.scenario.compose.oracle = "omega";
    f.scenario.compose.oracleKnobs.completenessLag = 6;
    f.scenario.compose.oracleKnobs.stabilizeAt = 60;
    f.scenario.compose.oracleKnobs.noise = 0.3;
    fixtures.push_back(std::move(f));
  }
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
  file.invariant = "golden-fixture";
  file.detail = fixture.name;
  file.trace = recordRun(fixture.scenario).trace;
  return serializeCounterexample(file);
}

}  // namespace ooc::check
