#include "check/scenario.hpp"

#include <sstream>
#include <stdexcept>

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

namespace {

// The legacy template spellings. Each reads the key set and defaults of the
// config struct it was written from and lowers it onto the composition that
// ran it, so a pre-registry counterexample file replays the same schedule.

/// family=benor: Ben-Or's VAC (or one of its §4.3/§5 substitutes) under the
/// reconciliator template.
compose::Composition parseBenOrAlias(const std::string& text) {
  const compose::KvReader kv(text);
  const std::string mode = kv.get("mode", "decomposed");
  compose::Composition composition;
  if (mode == "decomposed") {
    composition.detector = "benor-vac";
  } else if (mode == "vac-from-two-ac" || mode == "decentralized-vac") {
    composition.detector = mode;
  } else if (mode == "monolithic") {
    throw std::runtime_error(
        "scenario: family=benor mode=monolithic is the classic baseline, "
        "which has no composition to replay");
  } else {
    throw std::runtime_error("unknown mode '" + mode + "'");
  }
  // The legacy reconciliator names are the registry's driver names.
  composition.driver = kv.get("reconciliator", "local-coin");
  composition.n = kv.getU64("n", composition.n);
  if (kv.has("t")) composition.t = kv.getU64("t", 0);
  composition.inputs = kv.getValues("inputs");
  if (composition.inputs.size() != composition.n)
    throw std::runtime_error("scenario: family=benor inputs must have size n");
  composition.seed = kv.getU64("seed", composition.seed);
  composition.bias = kv.getDouble("bias", composition.bias);
  for (const std::string& entry : kv.getAll("crash"))
    composition.crashes.push_back(compose::parseCrash(entry));
  composition.minDelay = kv.getU64("min-delay", composition.minDelay);
  composition.maxDelay = kv.getU64("max-delay", composition.maxDelay);
  composition.maxRounds =
      static_cast<Round>(kv.getU64("max-rounds", composition.maxRounds));
  composition.maxTicks = kv.getU64("max-ticks", composition.maxTicks);
  composition.adversary = compose::getAdversary(kv);
  composition.fault = compose::parsePlantedFault(kv.get("fault", "none"));
  compose::resolve(composition);
  return composition;
}

/// family=phaseking: the Phase-King (or Phase-Queen) adopt-commit and
/// conciliator under the conciliator template.
compose::Composition parsePhaseKingAlias(const std::string& text) {
  const compose::KvReader kv(text);
  if (kv.getU64("monolithic", 0) != 0)
    throw std::runtime_error(
        "scenario: family=phaseking monolithic=1 is the classic baseline, "
        "which has no composition to replay");
  const std::string algorithm = kv.get("algorithm", "king");
  compose::Composition composition;
  if (algorithm == "king") {
    composition.detector = "phaseking-ac";
    composition.driver = "king-conciliator";
  } else if (algorithm == "queen") {
    composition.detector = "phasequeen-ac";
    composition.driver = "queen-conciliator";
  } else {
    throw std::runtime_error("unknown algorithm '" + algorithm + "'");
  }
  composition.n = kv.getU64("n", 7);
  composition.byzantineCount = kv.getU64("byzantine", 2);
  if (kv.has("t")) composition.t = kv.getU64("t", 0);
  composition.byzantineStrategy = kv.get("strategy", "equivocate");
  composition.placement = compose::parsePlacement(kv.get("placement", "front"));
  composition.inputs = kv.getValues("inputs");
  composition.earlyCommitDecision = kv.getU64("early-commit", 0) != 0;
  composition.seed = kv.getU64("seed", composition.seed);
  composition.maxRounds = static_cast<Round>(kv.getU64("max-rounds", 300));
  composition.maxTicks = kv.getU64("max-ticks", 100000);
  compose::resolve(composition);
  return composition;
}

}  // namespace

Scenario parseScenario(const std::string& text) {
  const auto newline = text.find('\n');
  const std::string first =
      newline == std::string::npos ? text : text.substr(0, newline);
  if (first.rfind("family=", 0) != 0)
    throw std::runtime_error("scenario: expected leading family= line");
  const std::string name = first.substr(7);
  const std::string rest =
      newline == std::string::npos ? "" : text.substr(newline + 1);
  Scenario scenario;
  if (name == "benor") {
    scenario.compose = parseBenOrAlias(rest);
    return scenario;
  }
  if (name == "phaseking") {
    scenario.compose = parsePhaseKingAlias(rest);
    return scenario;
  }
  // family=fd was the oracle-guided compositions' own name; same key set.
  scenario.family = name == "fd" ? Family::kCompose : parseFamily(name);
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
        os << " restarts=";
        for (std::size_t i = 0; i < scenario.raft.restarts.size(); ++i) {
          const auto& event = scenario.raft.restarts[i];
          if (i > 0) os << ',';
          os << 'p' << event.id << '@' << event.at << '+' << event.downtime;
        }
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
        os << " restarts=";
        for (std::size_t i = 0; i < scenario.svc.restarts.size(); ++i) {
          const auto& event = scenario.svc.restarts[i];
          if (i > 0) os << ',';
          os << 'p' << event.id << '@' << event.at << '+' << event.downtime;
        }
        os << (scenario.svc.service.durable ? " durable" : " volatile");
      }
      if (scenario.svc.adversary.enabled())
        os << " adversary-budget=" << scenario.svc.adversary.extraDelayMax;
      break;
  }
  return os.str();
}

}  // namespace ooc::check
