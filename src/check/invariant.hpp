// Pluggable invariant monitors, evaluated against every explored run. Each
// monitor inspects the family-independent RunReport (and may look at the
// configuration, e.g. to skip checks a family cannot support) and returns a
// violation with a human-readable detail string, or nothing.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/scenario.hpp"

namespace ooc::check {

struct Violation {
  std::string invariant;  // name() of the monitor that fired
  std::string detail;
};

class Invariant {
 public:
  Invariant() = default;
  Invariant(const Invariant&) = delete;
  Invariant& operator=(const Invariant&) = delete;
  virtual ~Invariant() = default;

  virtual const char* name() const noexcept = 0;
  virtual std::optional<Violation> check(const Scenario& scenario,
                                         const RunReport& report) const = 0;
};

/// No two correct processes decide differently (the simulator's online
/// agreement monitor).
class AgreementInvariant final : public Invariant {
 public:
  const char* name() const noexcept override { return "agreement"; }
  std::optional<Violation> check(const Scenario&,
                                 const RunReport& report) const override;
};

/// Every decision is some correct process's input.
class ValidityInvariant final : public Invariant {
 public:
  const char* name() const noexcept override { return "validity"; }
  std::optional<Violation> check(const Scenario&,
                                 const RunReport& report) const override;
};

/// Per-round VAC/AC object-contract audits: validity, convergence, and the
/// two coherence properties of paper §2, per completed round.
class CoherenceAuditInvariant final : public Invariant {
 public:
  const char* name() const noexcept override { return "coherence-audit"; }
  std::optional<Violation> check(const Scenario&,
                                 const RunReport& report) const override;
};

/// Every correct process decides before the run's tick/round caps.
class TerminationInvariant final : public Invariant {
 public:
  const char* name() const noexcept override { return "termination"; }
  std::optional<Violation> check(const Scenario&,
                                 const RunReport& report) const override;
};

/// Raft confidence instrumentation: commit never precedes adopt-level
/// evidence, and all commit-level values agree (paper Algorithms 10-11).
class RaftConfidenceInvariant final : public Invariant {
 public:
  const char* name() const noexcept override { return "raft-confidence"; }
  std::optional<Violation> check(const Scenario&,
                                 const RunReport& report) const override;
};

/// No vote amnesia: a restarted Raft process must never grant one term's
/// vote to two different candidates across its incarnations — the classic
/// lost-durable-state failure that seeds split brain. Ground truth comes
/// from an audit trail that survives restarts, not from recovered state.
class VoteAmnesiaInvariant final : public Invariant {
 public:
  const char* name() const noexcept override { return "no-vote-amnesia"; }
  std::optional<Violation> check(const Scenario&,
                                 const RunReport& report) const override;
};

/// No committed-entry regression: a process that applied/learned a
/// committed value must never observe a different one after a restart.
class CommitRegressionInvariant final : public Invariant {
 public:
  const char* name() const noexcept override {
    return "no-commit-regression";
  }
  std::optional<Violation> check(const Scenario&,
                                 const RunReport& report) const override;
};

/// FD strong completeness: at the audit horizon, every correct process
/// suspects every terminally-crashed process. Vacuous for runs without an
/// oracle.
class FdCompletenessInvariant final : public Invariant {
 public:
  const char* name() const noexcept override { return "fd-completeness"; }
  std::optional<Violation> check(const Scenario&,
                                 const RunReport& report) const override;
};

/// FD accuracy: P never suspects a not-yet-failed process; ◇S/Ω never
/// suspect a correct process after their advertised stabilization bound.
/// Catches the lying oracle (oracle-lie), whose advertised bound precedes
/// its actual noise window.
class FdAccuracyInvariant final : public Invariant {
 public:
  const char* name() const noexcept override { return "fd-accuracy"; }
  std::optional<Violation> check(const Scenario&,
                                 const RunReport& report) const override;
};

/// Ω convergence: from the stabilization bound on, all correct processes
/// trust one common correct leader — and the bound itself lands inside
/// the run's tick budget. A deliberately-slow oracle (stabilize-at past
/// max-ticks) fails here: the liveness counterexample.
class FdConvergenceInvariant final : public Invariant {
 public:
  const char* name() const noexcept override { return "fd-convergence"; }
  std::optional<Violation> check(const Scenario&,
                                 const RunReport& report) const override;
};

/// Service prefix agreement: any two nodes' applied logs (and decree
/// logs, for decree-based engines) agree on their common prefix — the
/// multi-decree generalization of per-instance agreement. Svc family only.
class SvcPrefixInvariant final : public Invariant {
 public:
  const char* name() const noexcept override {
    return "svc-prefix-agreement";
  }
  std::optional<Violation> check(const Scenario&,
                                 const RunReport& report) const override;
};

/// Service exactly-once commit: no client command is applied twice at any
/// node and no batch wins two decrees (a batch is re-proposed only after
/// it provably lost). Svc family only.
class SvcExactlyOnceInvariant final : public Invariant {
 public:
  const char* name() const noexcept override { return "svc-exactly-once"; }
  std::optional<Violation> check(const Scenario&,
                                 const RunReport& report) const override;
};

/// Scheduler coherence: each round-scheduling policy's structural
/// signature holds (DESIGN.md §14). Lockstep runs produce no overlap
/// witnesses and no deferred activations (the frontier advances inline
/// behind the tick barrier); event-driven runs never overlap rounds (they
/// defer, but the frontier is still sequential); ooo-driver runs never
/// defer (activation is inline — overlap comes from detached drives).
/// A count on the wrong side is a round-scheduling regression.
class SchedulerCoherenceInvariant final : public Invariant {
 public:
  const char* name() const noexcept override { return "scheduler-coherence"; }
  std::optional<Violation> check(const Scenario& scenario,
                                 const RunReport& report) const override;
};

/// §5 witness hunter: fires when a run contains a completed adopt-level
/// outcome whose value differs from the run's decision — a schedule proving
/// that "decide on adopt" would have broken agreement. This is not a bug in
/// the implementation (the checker's healthy sweeps exclude it); it is used
/// in witness-hunt mode to *find* the paper's AC-insufficiency schedules.
class AdoptWitnessInvariant final : public Invariant {
 public:
  const char* name() const noexcept override { return "adopt-witness"; }
  std::optional<Violation> check(const Scenario&,
                                 const RunReport& report) const override;
};

/// The standard safety suite: agreement, validity, coherence audits, Raft
/// confidence, the crash-recovery durability monitors (vote amnesia,
/// committed-entry regression), the FD-axiom monitors (completeness,
/// accuracy always; convergence only with requireTermination, since it is
/// the oracle's liveness promise), the service-log monitors (prefix
/// agreement, exactly-once commit), the scheduler-coherence monitor, and
/// (optionally) termination.
std::vector<std::unique_ptr<Invariant>> safetySuite(
    bool requireTermination = true);

/// Non-owning view helper for APIs taking `const Invariant*` lists.
std::vector<const Invariant*> view(
    const std::vector<std::unique_ptr<Invariant>>& suite);

}  // namespace ooc::check
