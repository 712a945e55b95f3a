#include "check/invariant.hpp"

#include <sstream>

namespace ooc::check {

std::optional<Violation> AgreementInvariant::check(
    const Scenario&, const RunReport& report) const {
  if (!report.agreementViolated) return std::nullopt;
  return Violation{name(), "two correct processes decided different values"};
}

std::optional<Violation> ValidityInvariant::check(
    const Scenario&, const RunReport& report) const {
  if (!report.validityViolated) return std::nullopt;
  return Violation{name(), "a correct process decided a non-input value"};
}

std::optional<Violation> CoherenceAuditInvariant::check(
    const Scenario&, const RunReport& report) const {
  for (std::size_t i = 0; i < report.audits.size(); ++i) {
    const RoundAudit& audit = report.audits[i];
    if (audit.ok()) continue;
    std::ostringstream os;
    os << "round " << (i + 1) << ":";
    if (!audit.validity) os << " validity";
    if (!audit.convergence) os << " convergence";
    if (!audit.coherenceAdoptCommit) os << " coherence(adopt,commit)";
    if (!audit.coherenceVacillateAdopt) os << " coherence(vacillate,adopt)";
    os << " violated";
    return Violation{name(), os.str()};
  }
  return std::nullopt;
}

std::optional<Violation> TerminationInvariant::check(
    const Scenario&, const RunReport& report) const {
  if (report.allDecided) return std::nullopt;
  return Violation{name(),
                   "a correct process failed to decide within the run caps"};
}

std::optional<Violation> RaftConfidenceInvariant::check(
    const Scenario& scenario, const RunReport& report) const {
  if (scenario.family != Family::kRaft) return std::nullopt;
  if (!report.confidenceOrderOk)
    return Violation{name(), "commit observed before any adopt-level evidence"};
  if (!report.commitValuesAgree)
    return Violation{name(), "commit-level values disagree across processes"};
  return std::nullopt;
}

std::optional<Violation> VoteAmnesiaInvariant::check(
    const Scenario& scenario, const RunReport& report) const {
  if (scenario.family != Family::kRaft) return std::nullopt;
  if (!report.voteAmnesia) return std::nullopt;
  return Violation{name(), report.voteAmnesiaDetail};
}

std::optional<Violation> CommitRegressionInvariant::check(
    const Scenario& scenario, const RunReport& report) const {
  if (scenario.family != Family::kRaft) return std::nullopt;
  if (!report.commitRegression) return std::nullopt;
  return Violation{name(), report.commitRegressionDetail};
}

std::optional<Violation> FdCompletenessInvariant::check(
    const Scenario&, const RunReport& report) const {
  if (!report.hasOracle || report.fdCompletenessOk) return std::nullopt;
  return Violation{name(), report.fdCompletenessDetail};
}

std::optional<Violation> FdAccuracyInvariant::check(
    const Scenario&, const RunReport& report) const {
  if (!report.hasOracle || report.fdAccuracyOk) return std::nullopt;
  return Violation{name(), report.fdAccuracyDetail};
}

std::optional<Violation> FdConvergenceInvariant::check(
    const Scenario&, const RunReport& report) const {
  if (!report.hasOracle || report.fdConvergenceOk) return std::nullopt;
  return Violation{name(), report.fdConvergenceDetail};
}

std::optional<Violation> SvcPrefixInvariant::check(
    const Scenario& scenario, const RunReport& report) const {
  if (scenario.family != Family::kSvc) return std::nullopt;
  if (report.svcPrefixOk) return std::nullopt;
  return Violation{name(),
                   "two nodes' applied logs disagree on their common prefix"};
}

std::optional<Violation> SvcExactlyOnceInvariant::check(
    const Scenario& scenario, const RunReport& report) const {
  if (scenario.family != Family::kSvc) return std::nullopt;
  if (report.svcExactlyOnce) return std::nullopt;
  return Violation{name(),
                   "a command was applied twice or a batch won two decrees"};
}

std::optional<Violation> SchedulerCoherenceInvariant::check(
    const Scenario& scenario, const RunReport& report) const {
  if (scenario.family != Family::kCompose) return std::nullopt;
  const SchedulingPolicy policy = scenario.compose.scheduler;
  const auto fire = [this](const char* what, std::uint64_t count,
                           SchedulingPolicy policy) {
    std::ostringstream os;
    os << count << " " << what << " under the " << ooc::toString(policy)
       << " policy (structurally impossible; round-scheduling regression)";
    return Violation{name(), os.str()};
  };
  if (policy != SchedulingPolicy::kOooDriver && report.overlapWitnesses > 0)
    return fire("overlap witnesses", report.overlapWitnesses, policy);
  if (policy != SchedulingPolicy::kEventDriven &&
      report.deferredActivations > 0)
    return fire("deferred activations", report.deferredActivations, policy);
  return std::nullopt;
}

std::optional<Violation> AdoptWitnessInvariant::check(
    const Scenario&, const RunReport& report) const {
  if (report.adoptMismatchWitnesses == 0) return std::nullopt;
  std::ostringstream os;
  os << report.adoptMismatchWitnesses << " of " << report.adoptOutcomesTotal
     << " adopt outcomes disagree with the decision (decide-on-adopt would "
        "have broken agreement)";
  return Violation{name(), os.str()};
}

std::vector<std::unique_ptr<Invariant>> safetySuite(bool requireTermination) {
  std::vector<std::unique_ptr<Invariant>> suite;
  suite.push_back(std::make_unique<AgreementInvariant>());
  suite.push_back(std::make_unique<ValidityInvariant>());
  suite.push_back(std::make_unique<CoherenceAuditInvariant>());
  suite.push_back(std::make_unique<RaftConfidenceInvariant>());
  suite.push_back(std::make_unique<VoteAmnesiaInvariant>());
  suite.push_back(std::make_unique<CommitRegressionInvariant>());
  suite.push_back(std::make_unique<FdCompletenessInvariant>());
  suite.push_back(std::make_unique<FdAccuracyInvariant>());
  suite.push_back(std::make_unique<SvcPrefixInvariant>());
  suite.push_back(std::make_unique<SvcExactlyOnceInvariant>());
  suite.push_back(std::make_unique<SchedulerCoherenceInvariant>());
  if (requireTermination) {
    // Convergence is the oracle's liveness promise — like termination, it
    // is only demanded of sweeps that expect runs to finish.
    suite.push_back(std::make_unique<FdConvergenceInvariant>());
    suite.push_back(std::make_unique<TerminationInvariant>());
  }
  return suite;
}

std::vector<const Invariant*> view(
    const std::vector<std::unique_ptr<Invariant>>& suite) {
  std::vector<const Invariant*> out;
  out.reserve(suite.size());
  for (const auto& invariant : suite) out.push_back(invariant.get());
  return out;
}

}  // namespace ooc::check
