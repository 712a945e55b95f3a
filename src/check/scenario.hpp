// Family-independent view of a scenario run, so exploration strategies,
// invariants and the shrinker can treat every run uniformly. A Scenario
// holds one of three configurations: a Composition (any registered
// detector × driver pairing — every template consensus), a Raft run, or a
// replicated-log service run. A RunReport is the least common denominator
// of the run results that the invariant monitors consume.
#pragma once

#include <string>

#include "compose/composition.hpp"
#include "harness/scenarios.hpp"
#include "svc/run.hpp"

namespace ooc::check {

enum class Family { kCompose, kRaft, kSvc };

const char* toString(Family family) noexcept;
/// The wire names compose | raft | svc; anything else throws.
Family parseFamily(const std::string& name);

/// One fully specified run configuration. Only the member selected by
/// `family` is meaningful.
struct Scenario {
  Family family = Family::kCompose;
  compose::Composition compose;
  harness::RaftScenarioConfig raft;
  svc::SvcConfig svc;

  std::uint64_t seed() const noexcept;
  void setSeed(std::uint64_t seed) noexcept;
  /// Process count of the active family.
  std::size_t processCount() const noexcept;
};

/// The observations every invariant can ask about, whatever the family.
struct RunReport {
  bool allDecided = false;
  bool agreementViolated = false;
  bool validityViolated = false;
  Value decidedValue = kNoValue;
  std::uint64_t messages = 0;

  /// Per-round object audits (compose family only).
  std::vector<RoundAudit> audits;
  bool allAuditsOk = true;

  /// §5 witnesses: completed adopt outcomes disagreeing with the decision.
  std::size_t adoptOutcomesTotal = 0;
  std::size_t adoptMismatchWitnesses = 0;

  /// Scheduling-policy observations (compose family; zero elsewhere).
  /// Overlap witnesses and deferred activations are structural to their
  /// policy — lockstep pins both to zero, event-driven produces no
  /// overlaps, the ooo-driver policy no deferrals — which is what the
  /// scheduler-coherence invariant checks.
  std::uint64_t overlapWitnesses = 0;
  std::uint64_t deferredActivations = 0;
  Round maxRoundSkew = 0;

  /// Raft VAC-instrumentation checks (trivially true for other families).
  bool confidenceOrderOk = true;
  bool commitValuesAgree = true;

  /// Crash-recovery observations (Raft family; zero/false elsewhere).
  std::uint64_t restarts = 0;
  std::uint64_t recoveries = 0;
  /// Ground-truth durability audits: a process granted one term's vote to
  /// two candidates / observed two different committed values across its
  /// incarnations. Detail strings name the witness process.
  bool voteAmnesia = false;
  std::string voteAmnesiaDetail;
  bool commitRegression = false;
  std::string commitRegressionDetail;

  /// Failure-detector axiom audit (oracle-guided compositions only;
  /// hasOracle false — and the checks vacuously true — elsewhere).
  bool hasOracle = false;
  bool fdCompletenessOk = true;
  std::string fdCompletenessDetail;
  bool fdAccuracyOk = true;
  std::string fdAccuracyDetail;
  bool fdConvergenceOk = true;
  std::string fdConvergenceDetail;

  /// Replicated-log service audits (svc family; trivially true elsewhere).
  /// Prefix agreement is the multi-decree generalization of agreement;
  /// exactly-once covers duplicate applies and batches winning two decrees.
  bool svcPrefixOk = true;
  bool svcExactlyOnce = true;
  std::uint64_t svcCommandsCommitted = 0;
};

/// Runs the scenario to completion (one deterministic Simulator per call;
/// safe to invoke concurrently from many threads).
RunReport runScenario(const Scenario& scenario,
                      const compose::RunHooks& hooks = {});

/// Text round-trip: a `family=compose|raft|svc` line followed by that
/// family config's key=value serialization. Any other family name throws.
std::string serialize(const Scenario& scenario);
Scenario parseScenario(const std::string& text);

/// One-line human summary for checker reports.
std::string describe(const Scenario& scenario);

}  // namespace ooc::check
