#include "check/scenario.hpp"

#include <sstream>
#include <stdexcept>
#include <vector>

#include "compose/kv.hpp"
#include "compose/run.hpp"
#include "harness/serialize.hpp"

namespace ooc::check {

const char* toString(Family family) noexcept {
  switch (family) {
    case Family::kCompose: return "compose";
    case Family::kRaft: return "raft";
    case Family::kSvc: return "svc";
  }
  return "?";
}

Family parseFamily(const std::string& name) {
  if (name == "compose") return Family::kCompose;
  if (name == "raft") return Family::kRaft;
  if (name == "svc") return Family::kSvc;
  throw std::runtime_error("unknown scenario family '" + name + "'");
}

std::uint64_t Scenario::seed() const noexcept {
  switch (family) {
    case Family::kCompose: return compose.seed;
    case Family::kRaft: return raft.seed;
    case Family::kSvc: return svc.seed;
  }
  return 0;
}

void Scenario::setSeed(std::uint64_t seed) noexcept {
  switch (family) {
    case Family::kCompose: compose.seed = seed; break;
    case Family::kRaft: raft.seed = seed; break;
    case Family::kSvc: svc.seed = seed; break;
  }
}

std::size_t Scenario::processCount() const noexcept {
  switch (family) {
    case Family::kCompose: return compose.n;
    case Family::kRaft: return raft.n;
    case Family::kSvc: return svc.n;
  }
  return 0;
}

RunReport runScenario(const Scenario& scenario,
                      const compose::RunHooks& hooks) {
  RunReport report;
  switch (scenario.family) {
    case Family::kRaft: {
      const auto result = harness::runRaft(scenario.raft, hooks);
      report.allDecided = result.allDecided;
      report.agreementViolated = result.agreementViolated;
      report.validityViolated = result.validityViolated;
      report.decidedValue = result.decidedValue;
      report.messages = result.messages;
      report.confidenceOrderOk = result.confidenceOrderOk;
      report.commitValuesAgree = result.commitValuesAgree;
      report.restarts = result.restarts;
      report.recoveries = result.recoveries;
      report.voteAmnesia = result.voteAmnesia;
      report.voteAmnesiaDetail = result.voteAmnesiaDetail;
      report.commitRegression = result.commitRegression;
      report.commitRegressionDetail = result.commitRegressionDetail;
      break;
    }
    case Family::kCompose: {
      const auto result =
          compose::runComposition(scenario.compose, hooks);
      report.allDecided = result.allDecided;
      report.agreementViolated = result.agreementViolated;
      report.validityViolated = result.validityViolated;
      report.decidedValue = result.decidedValue;
      report.messages = result.messagesByCorrect;
      report.audits = result.audits;
      report.allAuditsOk = result.allAuditsOk;
      report.adoptOutcomesTotal = result.adoptOutcomesTotal;
      report.adoptMismatchWitnesses = result.adoptMismatchWitnesses;
      report.overlapWitnesses = result.overlapWitnesses;
      report.deferredActivations = result.deferredActivations;
      report.maxRoundSkew = result.maxRoundSkew;
      if (result.oracleAudit) {
        const fd::OracleAudit& audit = *result.oracleAudit;
        report.hasOracle = true;
        report.fdCompletenessOk = audit.completenessOk;
        report.fdCompletenessDetail = audit.completenessDetail;
        report.fdAccuracyOk = audit.accuracyOk;
        report.fdAccuracyDetail = audit.accuracyDetail;
        report.fdConvergenceOk = audit.convergenceOk;
        report.fdConvergenceDetail = audit.convergenceDetail;
      }
      break;
    }
    case Family::kSvc: {
      const auto result = svc::runSvc(scenario.svc, hooks);
      report.messages = result.messagesByCorrect;
      report.svcPrefixOk = result.prefixOk;
      report.svcExactlyOnce = result.exactlyOnce;
      report.svcCommandsCommitted = result.commandsCommitted;
      // Termination for a service run: it quiesced inside the tick budget
      // and — when no fault schedule removes proposers — every emitted
      // command reached every node's applied log.
      const bool faults =
          !scenario.svc.crashes.empty() || !scenario.svc.restarts.empty();
      report.allDecided = !result.hitCap && (faults || result.allApplied);
      break;
    }
  }
  return report;
}

std::string serialize(const Scenario& scenario) {
  std::string out = std::string("family=") + toString(scenario.family) + "\n";
  switch (scenario.family) {
    case Family::kCompose: return out + compose::serialize(scenario.compose);
    case Family::kRaft: return out + harness::serialize(scenario.raft);
    case Family::kSvc: return out + svc::serializeSvcConfig(scenario.svc);
  }
  return out;
}

Scenario parseScenario(const std::string& text) {
  const auto newline = text.find('\n');
  const std::string first =
      newline == std::string::npos ? text : text.substr(0, newline);
  if (first.rfind("family=", 0) != 0)
    throw std::runtime_error("scenario: expected leading family= line");
  const std::string rest =
      newline == std::string::npos ? "" : text.substr(newline + 1);
  Scenario scenario;
  scenario.family = parseFamily(first.substr(7));
  switch (scenario.family) {
    case Family::kCompose:
      // parseComposition ends by resolving against the registry, so a
      // rejected pairing (or incoherent oracle attachment) fails here
      // with the same diagnostic as the CLI.
      scenario.compose = compose::parseComposition(rest);
      break;
    case Family::kRaft:
      scenario.raft = harness::parseRaftConfig(rest);
      break;
    case Family::kSvc:
      // parseSvcConfig re-runs the engine capability gate, so a scenario
      // file naming an inadmissible pairing fails here with the same
      // diagnostic runSvc would throw.
      scenario.svc = svc::parseSvcConfig(rest);
      break;
  }
  return scenario;
}

namespace {

void describeRestarts(std::ostream& os,
                      const std::vector<compose::RestartEntry>& restarts) {
  os << " restarts=";
  for (std::size_t i = 0; i < restarts.size(); ++i) {
    if (i > 0) os << ',';
    os << 'p' << compose::restartEntry(restarts[i]);
  }
}

}  // namespace

std::string describe(const Scenario& scenario) {
  std::ostringstream os;
  os << toString(scenario.family) << " n=" << scenario.processCount()
     << " seed=" << scenario.seed();
  switch (scenario.family) {
    case Family::kRaft:
      os << " crashes=" << scenario.raft.crashes.size()
         << " partitions=" << scenario.raft.partitions.size()
         << " drop-prob=" << scenario.raft.dropProbability;
      if (!scenario.raft.restarts.empty()) {
        describeRestarts(os, scenario.raft.restarts);
        os << (scenario.raft.raft.durable ? " durable" : " volatile");
        if (scenario.raft.raft.durable)
          os << (scenario.raft.raft.syncBeforeReply ? "+sync" : "+nosync");
      }
      if (scenario.raft.adversary.enabled())
        os << " adversary-budget=" << scenario.raft.adversary.extraDelayMax;
      break;
    case Family::kCompose:
      os << " detector=" << scenario.compose.detector
         << " driver=" << scenario.compose.driver;
      if (scenario.compose.scheduler != SchedulingPolicy::kLockstep)
        os << " scheduler=" << ooc::toString(scenario.compose.scheduler);
      if (!scenario.compose.oracle.empty())
        os << " oracle=" << scenario.compose.oracle
           << " stabilize-at=" << scenario.compose.oracleKnobs.stabilizeAt
           << " noise=" << scenario.compose.oracleKnobs.noise;
      os << " byzantine=" << scenario.compose.byzantineCount
         << " crashes=" << scenario.compose.crashes.size();
      if (scenario.compose.adversary.enabled())
        os << " adversary-budget="
           << scenario.compose.adversary.extraDelayMax;
      if (scenario.compose.fault != compose::PlantedFault::kNone)
        os << " fault=" << compose::toString(scenario.compose.fault);
      break;
    case Family::kSvc:
      os << " engine=" << scenario.svc.engine;
      if (scenario.svc.engine == "compose")
        os << " detector=" << scenario.svc.detector
           << " driver=" << scenario.svc.driver;
      os << " window=" << scenario.svc.service.window
         << " batch-max=" << scenario.svc.service.batchMax
         << " crashes=" << scenario.svc.crashes.size();
      if (!scenario.svc.restarts.empty()) {
        describeRestarts(os, scenario.svc.restarts);
        os << (scenario.svc.service.durable ? " durable" : " volatile");
      }
      if (scenario.svc.adversary.enabled())
        os << " adversary-budget=" << scenario.svc.adversary.extraDelayMax;
      break;
  }
  return os.str();
}

}  // namespace ooc::check
