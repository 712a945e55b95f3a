#include "compose/run.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

#include "compose/fault.hpp"
#include "compose/telemetry.hpp"
#include "core/consensus_process.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace ooc::compose {
namespace {

/// Live round-skew tracker, fed from the detector-outcome tap: records the
/// widest spread of completed detector rounds across correct processes at
/// any single point of the run. Observation only — it never touches the
/// schedule, so wiring it costs no golden a byte.
struct SkewProbe {
  explicit SkewProbe(std::size_t n) : completed(n, 0) {}
  std::vector<Round> completed;
  Round maxSkew = 0;

  void note(ProcessId id, Round m) {
    completed[id] = m;
    Round lo = 0, hi = 0;
    bool first = true;
    for (const Round r : completed) {
      if (r == 0) continue;  // not started (or a Byzantine slot)
      if (first) {
        lo = hi = r;
        first = false;
        continue;
      }
      lo = std::min(lo, r);
      hi = std::max(hi, r);
    }
    if (!first) maxSkew = std::max(maxSkew, static_cast<Round>(hi - lo));
  }
};

/// Wires the skew probe and a TelemetrySink (when present) into a template
/// process's options, binding the process id the simulator will assign
/// next.
void wireTelemetry(ConsensusProcess::Options& options, TelemetrySink* sink,
                   SkewProbe* probe, ProcessId id) {
  options.onDetectorOutcome = [sink, probe, id](Round m,
                                                const Outcome& outcome,
                                                Tick at) {
    probe->note(id, m);
    if (sink != nullptr) sink->onDetectorOutcome(id, m, outcome, at);
  };
  if (sink == nullptr) return;
  options.onDriverValue = [sink, id](Round m, Value value, Tick at) {
    sink->onDriverValue(id, m, value, at);
  };
}

/// Observation-only oracle decorator: forwards every suspicion query
/// verbatim and mirrors it to the telemetry sink. Answers are untouched,
/// so the schedule (and every golden) is identical with or without a sink
/// attached; the bare-run path never constructs one.
class TappedOracle final : public fd::Oracle {
 public:
  TappedOracle(std::shared_ptr<const fd::Oracle> inner,
               TelemetrySink* sink) noexcept
      : inner_(std::move(inner)), sink_(sink) {}

  fd::OracleClass oracleClass() const noexcept override {
    return inner_->oracleClass();
  }
  bool suspects(ProcessId viewer, ProcessId target, Tick at) const override {
    const bool suspected = inner_->suspects(viewer, target, at);
    sink_->onOracleQuery(viewer, target, suspected, at);
    return suspected;
  }
  ProcessId leader(ProcessId viewer, Tick at) const override {
    return inner_->leader(viewer, at);
  }
  Tick stabilizationBound() const noexcept override {
    return inner_->stabilizationBound();
  }

 private:
  std::shared_ptr<const fd::Oracle> inner_;
  TelemetrySink* sink_;
};

}  // namespace

std::unique_ptr<NetworkModel> wrapAdversary(std::unique_ptr<NetworkModel> net,
                                            const AdversaryOptions& options) {
  if (!options.enabled()) return net;
  DelayAdversaryNetwork::Options adv;
  adv.seed = options.seed;
  adv.extraDelayMax = options.extraDelayMax;
  adv.perturbProbability = options.perturbProbability;
  return std::make_unique<DelayAdversaryNetwork>(std::move(net), adv);
}

CompositionResult runComposition(const Composition& composition,
                                 const RunHooks& hooks) {
  const ResolvedComposition resolved = resolve(composition);
  const std::size_t n = composition.n;
  const std::size_t f = composition.byzantineCount;
  const bool vacDetector = resolved.detector->capability.detectorClass ==
                           DetectorClass::kVacillateAdoptCommit;

  // Byzantine slots per placement. Kings rotate from id 0, so front
  // placement gives the adversary the first reigns (the hard case).
  std::vector<bool> isByz(n, false);
  switch (composition.placement) {
    case Placement::kFront:
      for (std::size_t i = 0; i < f; ++i) isByz[i] = true;
      break;
    case Placement::kBack:
      for (std::size_t i = 0; i < f; ++i) isByz[n - 1 - i] = true;
      break;
    case Placement::kSpread:
      for (std::size_t i = 0; i < f; ++i) isByz[(i * n) / f] = true;
      break;
  }

  SimConfig simConfig;
  simConfig.seed = composition.seed;
  simConfig.maxTicks = composition.maxTicks;
  simConfig.lockstep = resolved.lockstep;
  std::unique_ptr<NetworkModel> network;
  if (resolved.lockstep) {
    network = std::make_unique<SynchronousNetwork>();
  } else {
    UniformDelayNetwork::Options net;
    net.minDelay = composition.minDelay;
    net.maxDelay = composition.maxDelay;
    network = wrapAdversary(std::make_unique<UniformDelayNetwork>(net),
                            composition.adversary);
  }
  // A fresh Simulator per run: every counter starts at zero, so results
  // never inherit a previous run's tallies.
  Simulator sim(simConfig, std::move(network));
  if (hooks.observer) sim.setScheduleObserver(hooks.observer);

  const ObjectParams params{n, resolved.t, composition.seed, composition.bias};
  const DetectorFactory detectorFactory =
      plantFault(resolved.detector->make(params), composition.fault);
  // Oracle-guided drivers get the run's oracle bound into their factory;
  // for everyone else the oracle role costs nothing (no schedule build,
  // no oracle instance, the plain make() path).
  std::shared_ptr<const fd::Oracle> oracle;
  fd::FaultSchedule oracleSchedule;
  if (resolved.oracle != nullptr) {
    oracleSchedule = fd::FaultSchedule::fromCrashList(n, composition.crashes);
    oracle = resolved.oracle->make(params, composition.oracleKnobs,
                                   oracleSchedule);
  }
  // Drivers query through the tap when a sink wants to see oracle traffic;
  // the end-of-run FD-axiom audit below keeps the untapped instance so its
  // own sampling never floods the sink.
  std::shared_ptr<const fd::Oracle> driverOracle = oracle;
  if (oracle && hooks.telemetry != nullptr)
    driverOracle = std::make_shared<TappedOracle>(oracle, hooks.telemetry);
  const DriverFactory driverFactory =
      oracle ? resolved.driver->makeWithOracle(params, driverOracle)
             : resolved.driver->make(params);

  std::vector<ConsensusProcess*> templated(n, nullptr);
  std::vector<Value> validInputs;
  auto skewProbe = std::make_unique<SkewProbe>(n);
  std::size_t correctSeen = 0;
  for (ProcessId id = 0; id < n; ++id) {
    if (isByz[id]) {
      sim.addProcess(resolved.detector->makeFaulty(
                         params, composition.byzantineStrategy),
                     /*faulty=*/true);
      continue;
    }
    const Value input =
        composition.inputs.empty()
            ? static_cast<Value>(correctSeen % 2)
            : composition.inputs[correctSeen % composition.inputs.size()];
    ++correctSeen;
    validInputs.push_back(input);

    ConsensusProcess::Options options;
    options.kind = vacDetector ? TemplateKind::kVacReconciliator
                               : TemplateKind::kAcConciliator;
    options.scheduling = resolved.scheduling;
    options.alwaysRunDriver = resolved.alwaysRunDriver;
    options.maxRounds = composition.maxRounds;
    // AC templates decide after the classic fixed t+1 phases unless the
    // composition asks for the paper-faithful (unsound) decide on commit.
    if (!vacDetector && !composition.earlyCommitDecision)
      options.decideAfterRound = static_cast<Round>(resolved.t + 1);
    wireTelemetry(options, hooks.telemetry, skewProbe.get(), id);
    auto process = std::make_unique<ConsensusProcess>(
        input, detectorFactory, driverFactory, options);
    templated[id] = process.get();
    sim.addProcess(std::move(process));
  }

  sim.setValidValues(validInputs);
  for (const auto& [id, tick] : composition.crashes) sim.crashAt(id, tick);
  sim.stopWhenAllCorrectDecided();
  sim.run();

  CompositionResult result;
  result.allDecided = sim.allCorrectDecided();
  result.agreementViolated = sim.agreementViolated();
  result.validityViolated = sim.validityViolated();
  result.messagesByCorrect = sim.messagesSentByCorrect();
  result.eventsProcessed = sim.eventsProcessed();
  result.maxRoundSkew = skewProbe->maxSkew;
  for (const ConsensusProcess* process : templated) {
    if (process == nullptr) continue;
    result.overlapWitnesses += process->overlapWitnesses();
    result.deferredActivations += process->deferredActivations();
  }

  Summary decisionRounds;
  for (ProcessId id = 0; id < n; ++id) {
    if (templated[id] == nullptr) continue;
    const auto& decision = sim.decision(id);
    if (!decision.decided) continue;
    result.decidedValue = decision.value;
    result.lastDecisionTick = std::max(result.lastDecisionTick, decision.at);
    const Round round = templated[id]->decisionRound();
    result.maxDecisionRound = std::max(result.maxDecisionRound, round);
    decisionRounds.add(static_cast<double>(round));
  }
  if (!decisionRounds.empty())
    result.meanDecisionRound = decisionRounds.mean();

  if (obs::enabled()) {
    const obs::Labels base = {{"family", "compose"},
                              {"detector", composition.detector},
                              {"driver", composition.driver}};
    obs::Batch batch;
    publishSimMetrics(sim, base, batch);
    publishDecisionTicks(sim, base, batch);
    publishTemplateMetrics(templated, base, batch);
    obs::metrics().commit(batch);
  }

  // Crashed processes participated in the rounds they started (they
  // invoked the objects with their inputs), so they belong in the audit;
  // their unfinished rounds contribute inputs but no outcome.
  std::vector<const ConsensusProcess*> correct;
  for (ConsensusProcess* process : templated)
    if (process != nullptr) correct.push_back(process);
  AuditOptions auditOptions;
  if (!vacDetector) {
    auditOptions.requireAdoptValidity = false;  // the documented sentinel gap
    // An adopt-commit detector's adopt values may disagree in commit-free
    // rounds (the VAC-only coherence property does not apply).
    auditOptions.checkVacillateAdoptCoherence = false;
  }
  result.audits = auditAllRounds(correct, auditOptions);
  result.allAuditsOk =
      std::all_of(result.audits.begin(), result.audits.end(),
                  [](const RoundAudit& a) { return a.ok(); });

  // §5 witnesses (E9): adopt-level outcomes whose value disagrees with
  // the final decision.
  if (vacDetector && result.allDecided) {
    for (const ConsensusProcess* process : correct) {
      for (const RoundRecord& record : process->rounds()) {
        if (!record.detectorOutcome ||
            record.detectorOutcome->confidence != Confidence::kAdopt) {
          continue;
        }
        ++result.adoptOutcomesTotal;
        if (record.detectorOutcome->value != result.decidedValue)
          ++result.adoptMismatchWitnesses;
      }
    }
  }

  // FD-axiom audit. The horizon reaches past the decision, the advertised
  // stabilization and every lag window — but never past the run's tick
  // budget: an oracle whose "eventually" lands beyond maxTicks is exactly
  // the liveness failure the convergence check reports.
  if (oracle) {
    const fd::OracleKnobs& knobs = composition.oracleKnobs;
    const Tick settle = oracleSchedule.lastTransition() +
                        knobs.completenessLag + 4 * knobs.noiseEpoch + 64;
    const Tick wanted =
        std::max({result.lastDecisionTick, oracle->stabilizationBound(),
                  settle});
    result.oracleAudit = fd::auditOracle(
        *oracle, oracleSchedule, std::min(composition.maxTicks, wanted));
  }
  return result;
}

}  // namespace ooc::compose
