// Tier-1 coverage for the causal observability layer: the recorder builds
// a well-formed happens-before DAG (vector clocks, cause and program-order
// edges), recording perturbs nothing (the observed schedule is identical
// with and without the recorder), the structural audit accepts every real
// run and rejects corrupted DAGs, and the ooc.ctrace.v1 / ooc.explain.v1 /
// Perfetto exports are byte-deterministic.
#include <gtest/gtest.h>

#include <string>

#include "check/causal_run.hpp"
#include "check/replay.hpp"
#include "check/scenario.hpp"
#include "obs/causal/causal.hpp"
#include "obs/causal/perfetto.hpp"
#include "obs/causal/provenance.hpp"

namespace ooc {
namespace {

check::Scenario benorScenario() {
  check::Scenario scenario;
  scenario.compose.n = 4;
  scenario.compose.t = 1;
  scenario.compose.inputs = {0, 1, 1, 1};
  scenario.compose.seed = 3;
  scenario.compose.maxDelay = 2;
  return scenario;
}

check::Scenario fdScenario() {
  check::Scenario scenario;
  auto& config = scenario.compose;
  config.detector = "benor-vac";
  config.driver = "ct-coordinator";
  config.oracle = "omega";
  config.oracleKnobs.completenessLag = 8;
  config.oracleKnobs.stabilizeAt = 40;
  config.oracleKnobs.noise = 0.25;
  config.n = 3;
  config.seed = 7;
  config.inputs = {0, 1, 0};
  return scenario;
}

causal::TraceMeta meta() { return {"test-run", "test scenario"}; }

TEST(CausalRecorder, RecordingDoesNotPerturbTheSchedule) {
  // The recorded schedule with the causal channel attached is the plain
  // recorded schedule — observation only, goldens stay byte-identical.
  const check::Scenario scenario = benorScenario();
  const check::RecordedRun bare = check::recordRun(scenario);
  const check::CausalRun causal =
      check::collectCausalRun(scenario, &bare.trace);
  EXPECT_TRUE(causal.replayIdentical)
      << causal.divergence.value_or("(no divergence detail)");
  EXPECT_EQ(causal.trace.nodes.size(), bare.trace.events.size());
}

TEST(CausalRecorder, BuildsAnAuditCleanDag) {
  const check::CausalRun run = check::collectCausalRun(benorScenario());
  const causal::CausalAudit audit = causal::audit(run.trace);
  EXPECT_TRUE(audit.ok()) << audit.problems.front();
  EXPECT_EQ(audit.decisions, 4u);
  // The run produced annotations (detector outcomes, driver values).
  EXPECT_FALSE(run.trace.annotations.empty());
}

TEST(CausalRecorder, DeliveriesAreCausedByTheirSends) {
  const check::CausalRun run = check::collectCausalRun(benorScenario());
  const causal::CausalTrace& trace = run.trace;
  std::size_t deliveries = 0;
  for (const causal::CausalNode& node : trace.nodes) {
    if (node.event.kind != TraceEvent::Kind::kDeliver) continue;
    ++deliveries;
    // A delivery's cause is the event during whose handler the message was
    // sent — dispatched on the sender's lane.
    ASSERT_NE(node.cause, kNoCausalParent);
    const causal::CausalNode& sender = trace.nodes[node.cause];
    EXPECT_EQ(sender.lane, static_cast<std::uint32_t>(node.event.b));
  }
  EXPECT_GT(deliveries, 0u);
}

TEST(CausalRecorder, VectorClocksAreStrictlyMonotoneAlongEdges) {
  const check::CausalRun run = check::collectCausalRun(benorScenario());
  const causal::CausalTrace& trace = run.trace;
  for (const causal::CausalNode& node : trace.nodes) {
    for (const std::uint64_t edge : {node.cause, node.prev}) {
      if (edge == kNoCausalParent) continue;
      const causal::CausalNode& parent = trace.nodes[edge];
      bool allLeq = true;
      bool someLess = false;
      for (std::size_t c = 0; c < node.clock.size(); ++c) {
        if (parent.clock[c] > node.clock[c]) allLeq = false;
        if (parent.clock[c] < node.clock[c]) someLess = true;
      }
      EXPECT_TRUE(allLeq && someLess) << "clock not strictly after parent";
    }
  }
}

TEST(CausalRecorder, OracleQueriesAnnotateTheDag) {
  const check::CausalRun run = check::collectCausalRun(fdScenario());
  std::size_t oracleQueries = 0;
  for (const causal::Annotation& a : run.trace.annotations)
    if (a.kind == causal::Annotation::Kind::kOracleQuery) ++oracleQueries;
  EXPECT_GT(oracleQueries, 0u);
  EXPECT_TRUE(causal::audit(run.trace).ok());
}

TEST(CausalAudit, RejectsForwardEdges) {
  check::CausalRun run = check::collectCausalRun(benorScenario());
  ASSERT_GE(run.trace.nodes.size(), 2u);
  run.trace.nodes[0].cause = 1;  // forward: would be a cycle
  const causal::CausalAudit audit = causal::audit(run.trace);
  EXPECT_FALSE(audit.ok());
  EXPECT_NE(audit.problems.front().find("does not point backward"),
            std::string::npos);
}

TEST(CausalAudit, RejectsTamperedClocks) {
  check::CausalRun run = check::collectCausalRun(benorScenario());
  ASSERT_FALSE(run.trace.nodes.empty());
  ++run.trace.nodes.back().clock[0];
  const causal::CausalAudit audit = causal::audit(run.trace);
  EXPECT_FALSE(audit.ok());
  EXPECT_NE(audit.problems.front().find("max-of-parents-plus-one"),
            std::string::npos);
}

TEST(CausalAudit, RejectsUnreachableDecisions) {
  check::CausalRun run = check::collectCausalRun(benorScenario());
  // Cut every decision's incoming edges: no backward path to a start.
  for (causal::CausalNode& node : run.trace.nodes) {
    if (node.event.kind != TraceEvent::Kind::kDecision) continue;
    node.cause = kNoCausalParent;
    node.prev = kNoCausalParent;
  }
  const causal::CausalAudit audit = causal::audit(run.trace);
  EXPECT_FALSE(audit.ok());
  bool sawReachability = false;
  for (const std::string& problem : audit.problems)
    if (problem.find("not reachable from any start") != std::string::npos)
      sawReachability = true;
  EXPECT_TRUE(sawReachability);
}

TEST(CausalExport, CtraceJsonIsDeterministic) {
  const check::CausalRun a = check::collectCausalRun(benorScenario());
  const check::CausalRun b = check::collectCausalRun(benorScenario());
  EXPECT_EQ(causal::toCtraceJson(a.trace, meta()),
            causal::toCtraceJson(b.trace, meta()));
  EXPECT_NE(causal::toCtraceJson(a.trace, meta()).find("ooc.ctrace.v1"),
            std::string::npos);
}

TEST(CausalExport, ExplainJsonIsDeterministicAndNamesEveryDecision) {
  const check::CausalRun a = check::collectCausalRun(benorScenario());
  const check::CausalRun b = check::collectCausalRun(benorScenario());
  const std::string json = causal::explainJson(a.trace, meta());
  EXPECT_EQ(json, causal::explainJson(b.trace, meta()));
  EXPECT_NE(json.find("ooc.explain.v1"), std::string::npos);
  // One "process" key per decision (4 decided processes in the fixture).
  std::size_t count = 0;
  for (std::size_t pos = json.find("\"process\":"); pos != std::string::npos;
       pos = json.find("\"process\":", pos + 1))
    ++count;
  EXPECT_GE(count, 4u);
}

TEST(CausalExport, PerfettoJsonIsDeterministicAndCarriesLanes) {
  const check::CausalRun a = check::collectCausalRun(benorScenario());
  const check::CausalRun b = check::collectCausalRun(benorScenario());
  const std::string json = causal::toPerfettoJson(a.trace, meta());
  EXPECT_EQ(json, causal::toPerfettoJson(b.trace, meta()));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"scheduler\""), std::string::npos);
  // Flow arrows bind sends to deliveries.
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
}

TEST(CausalExport, PerfettoFlagsOverlappingRoundSpansUnderOooScheduling) {
  // The compose-ooo-skew-n5 golden's schedule: detached lottery drives
  // outlive the successor round's detector, so per-lane round spans
  // overlap and carry the "(overlaps)" marker. The lockstep run of the
  // same composition must not show any — under the barrier a round's
  // annotations never outlive the next round's first.
  check::Scenario skewed;
  skewed.family = check::Family::kCompose;
  skewed.compose.detector = "benor-vac";
  skewed.compose.driver = "lottery";
  skewed.compose.scheduler = SchedulingPolicy::kOooDriver;
  skewed.compose.n = 5;
  skewed.compose.inputs = {0, 1, 0, 1, 1};
  skewed.compose.maxDelay = 15;
  skewed.compose.seed = 14;

  const check::CausalRun a = check::collectCausalRun(skewed);
  const check::CausalRun b = check::collectCausalRun(skewed);
  const std::string json = causal::toPerfettoJson(a.trace, meta());
  EXPECT_EQ(json, causal::toPerfettoJson(b.trace, meta()));
  EXPECT_NE(json.find("(overlaps)"), std::string::npos);

  check::Scenario lockstep = skewed;
  lockstep.compose.scheduler = SchedulingPolicy::kLockstep;
  const check::CausalRun c = check::collectCausalRun(lockstep);
  EXPECT_EQ(causal::toPerfettoJson(c.trace, meta()).find("(overlaps)"),
            std::string::npos);
}

}  // namespace
}  // namespace ooc
