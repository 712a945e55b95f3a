#include "compose/matrix.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"

namespace ooc::compose {

// ---------------------------------------------------------------------------
// Trials

void TrialStats::add(const CompositionResult& result, std::size_t n,
                     bool oracleAttached) {
  ++runs;
  agreementOk = agreementOk && !result.agreementViolated;
  validityOk = validityOk && !result.validityViolated;
  auditsOk = auditsOk && result.allAuditsOk;
  if (oracleAttached)
    fdAxiomsOk = fdAxiomsOk && result.oracleAudit && result.oracleAudit->ok();
  if (result.allDecided) {
    ++decided;
    if (result.maxDecisionRound == 1) ++decidedInFirstRound;
    meanDecisionRound.add(result.meanDecisionRound);
    maxDecisionRound.add(static_cast<double>(result.maxDecisionRound));
  }
  const auto messages = static_cast<double>(result.messagesByCorrect);
  messagesPerRun.add(messages);
  messagesPerProcess.add(messages / static_cast<double>(n));
  overlapWitnesses += result.overlapWitnesses;
  deferredActivations += result.deferredActivations;
  maxRoundSkew = std::max(maxRoundSkew, result.maxRoundSkew);
}

TrialStats runTrials(const Composition& composition, int runs,
                     std::uint64_t seedBase, std::size_t threads) {
  // Each trial writes a pre-sized slot; the fold below walks them in seed
  // order, so every derived double is bit-identical at any thread count.
  std::vector<CompositionResult> results(
      static_cast<std::size_t>(std::max(runs, 0)));
  sweep::Options pool;
  pool.threads = threads;
  TrialStats stats;
  stats.sweep = sweep::parallelFor(
      results.size(),
      [&](std::size_t index, sweep::Control&) {
        Composition trial = composition;
        trial.seed = seedBase + index;
        results[index] = runComposition(trial);
      },
      pool);
  for (const CompositionResult& result : results)
    stats.add(result, composition.n, !composition.oracle.empty());
  return stats;
}

// ---------------------------------------------------------------------------
// E20: the full detector × driver cross-product

namespace {

/// Per-detector base configuration: modest sizes so the full matrix stays
/// CI-cheap, split inputs so termination is earned by the driver (unanimous
/// starts commit in round 1 and would test nothing), and caps tight enough
/// that the keep-value control (which may legitimately never decide) exits
/// by bound rather than by wall clock.
Composition pairingCell(const std::string& detectorName,
                        const std::string& driverName) {
  Composition composition;
  composition.detector = detectorName;
  composition.driver = driverName;
  composition.maxRounds = 200;
  composition.maxTicks = 200'000;
  const auto& capability = registry().detector(detectorName).capability;
  if (capability.faultModel == FaultModel::kByzantine) {
    composition.byzantineStrategy = "equivocate";
    if (capability.mode == InvocationMode::kLockstep) {
      // Phase-King wants 3t < n, Phase-Queen 4t < n; f = t = 2 exercises
      // the full tolerance. Front placement: hostile first reigns.
      composition.n = capability.tDivisor == 3 ? 7 : 9;
      composition.byzantineCount = 2;
      composition.placement = Placement::kFront;
    } else {
      // Byzantine Ben-Or: n > 5t with t = f = 2 attackers at the back.
      composition.n = 11;
      composition.byzantineCount = 2;
      composition.placement = Placement::kBack;
    }
  } else {
    composition.n = 5;
    composition.inputs = {0, 1, 0, 1, 1};
  }
  // Oracle-consuming drivers get a default oracle of the class they
  // require, with modest-but-honest quality knobs; every other pairing
  // keeps the oracle role detached (zero-cost).
  switch (registry().driver(driverName).capability.oracle) {
    case OracleRequirement::kNone: break;
    case OracleRequirement::kEventualLeader:
      composition.oracle = "omega";
      composition.oracleKnobs.stabilizeAt = 40;
      composition.oracleKnobs.noise = 0.25;
      break;
    case OracleRequirement::kPerfect:
      composition.oracle = "perfect-p";
      break;
  }
  return composition;
}

}  // namespace

MatrixExperiment e20Matrix() {
  const Registry& reg = registry();
  MatrixExperiment experiment{"e20", {}, 20, 5, 9000};
  for (const std::string& detectorName : reg.detectorNames())
    for (const std::string& driverName : reg.driverNames())
      experiment.cells.push_back(pairingCell(detectorName, driverName));
  return experiment;
}

// ---------------------------------------------------------------------------
// E22: oracle quality vs rounds-to-decide

namespace {

/// The quality grid: an ideal oracle, a modestly-late noisy one, and a
/// slow noisy one. perfect-p only admits the noise-free points (its
/// strong accuracy forbids noise — the rejected cells document that).
struct QualityPoint {
  Tick stabilizeAt;
  double noise;
};
constexpr QualityPoint kQualityGrid[] = {
    {0, 0.0}, {60, 0.25}, {250, 0.5}};

Composition oracleCell(const std::string& driverName,
                       const std::string& oracleName,
                       const QualityPoint& quality) {
  Composition composition;
  composition.detector = "benor-vac";
  composition.driver = driverName;
  composition.oracle = oracleName;
  composition.oracleKnobs.completenessLag = 8;
  composition.oracleKnobs.stabilizeAt = quality.stabilizeAt;
  composition.oracleKnobs.noise = quality.noise;
  composition.n = 5;
  composition.inputs = {0, 1, 0, 1, 1};
  // One crash mid-stabilization: the coordinator rotation must both ride
  // out false suspicion and eventually suspect the genuinely dead.
  composition.crashes = {{4, 40}};
  composition.maxRounds = 300;
  composition.maxTicks = 300'000;
  return composition;
}

}  // namespace

MatrixExperiment e22Matrix() {
  const Registry& reg = registry();
  MatrixExperiment experiment{"e22", {}, 10, 3, 11000};
  for (const std::string& driverName : reg.driverNames()) {
    if (reg.driver(driverName).capability.oracle == OracleRequirement::kNone)
      continue;
    // The missing-oracle row: a coordinator with nothing to consult.
    experiment.cells.push_back(oracleCell(driverName, "", kQualityGrid[0]));
    for (const std::string& oracleName : reg.oracleNames())
      for (const QualityPoint& quality : kQualityGrid)
        experiment.cells.push_back(
            oracleCell(driverName, oracleName, quality));
  }
  // The unconsumed-oracle rows: attaching any oracle to an oracle-free
  // driver is rejected, not silently ignored.
  for (const std::string& oracleName : reg.oracleNames())
    experiment.cells.push_back(oracleCell("timer", oracleName, kQualityGrid[0]));
  return experiment;
}

// ---------------------------------------------------------------------------
// E24: scheduling policy × engine family

MatrixExperiment e24Matrix() {
  // One pairing per engine family. The first three are async and
  // skew-tolerant (valid under every policy); the timer reconciliator and
  // the phase protocol pin the rejection diagnostics — their non-lockstep
  // cells must fail the scheduling gate, not crash or silently fall back.
  struct EngineRow {
    const char* detector;
    const char* driver;
    const char* oracle;  // "" = detached oracle role
  };
  constexpr EngineRow kEngineRoster[] = {
      {"benor-vac", "local-coin", ""},
      {"benor-vac", "ct-coordinator", "omega"},
      {"vac-from-two-ac", "local-coin", ""},
      {"benor-vac", "timer", ""},
      {"phaseking-ac", "king-conciliator", ""},
  };
  MatrixExperiment experiment{"e24", {}, 10, 3, 13000};
  for (const EngineRow& row : kEngineRoster) {
    for (const SchedulingPolicy policy :
         {SchedulingPolicy::kLockstep, SchedulingPolicy::kEventDriven,
          SchedulingPolicy::kOooDriver}) {
      Composition composition;
      composition.detector = row.detector;
      composition.driver = row.driver;
      composition.scheduler = policy;
      composition.n = 5;
      composition.inputs = {0, 1, 0, 1, 1};
      composition.maxRounds = 200;
      composition.maxTicks = 200'000;
      composition.oracle = row.oracle;
      if (!composition.oracle.empty()) {
        composition.oracleKnobs.stabilizeAt = 40;
        composition.oracleKnobs.noise = 0.25;
      }
      experiment.cells.push_back(std::move(composition));
    }
  }
  return experiment;
}

MatrixExperiment matrixExperiment(const std::string& name) {
  if (name == "e20") return e20Matrix();
  if (name == "e22") return e22Matrix();
  if (name == "e24") return e24Matrix();
  throw std::invalid_argument("unknown matrix '" + name +
                              "'; known: e20, e22, e24");
}

// ---------------------------------------------------------------------------
// The runner and the ooc.matrix.v2 writer

MatrixReport runMatrix(const MatrixExperiment& experiment,
                       const MatrixOptions& options) {
  MatrixReport report;
  report.experiment = experiment.name;
  report.quick = options.quick;
  report.runsPerCell =
      options.quick ? experiment.quickRunsPerCell : experiment.runsPerCell;
  report.seedBase = experiment.seedBase;
  report.cells.resize(experiment.cells.size());

  // Cells fan across the experiment scheduler (each cell's trials then
  // run inline on its worker); the fold below walks the pre-sized vector
  // in experiment order, so counts, verdicts and the JSON are
  // byte-identical at any thread count.
  sweep::Options pool;
  pool.threads = options.threads;
  sweep::parallelFor(
      report.cells.size(),
      [&](std::size_t index, sweep::Control&) {
        MatrixCell& cell = report.cells[index];
        cell.composition = experiment.cells[index];
        if (auto diagnostic = validate(cell.composition)) {
          cell.diagnostic = std::move(*diagnostic);
          return;
        }
        cell.valid = true;
        cell.stats = runTrials(cell.composition, report.runsPerCell,
                               report.seedBase, options.threads);
      },
      pool);

  for (const MatrixCell& cell : report.cells) {
    if (!cell.valid) {
      ++report.rejectedCells;
      continue;
    }
    ++report.validCells;
    if (!cell.stats.safe()) report.safetyOk = false;
    // Lockstep must be structurally skew-free: no overlap witnesses, no
    // deferred activations. (maxRoundSkew is NOT pinned — the probe
    // samples per-process completions sequentially within a tick, so a
    // transient spread of 1 is observation granularity, not a schedule
    // property.) A nonzero counter is a scheduler regression.
    if (cell.composition.scheduler == SchedulingPolicy::kLockstep &&
        (cell.stats.overlapWitnesses != 0 ||
         cell.stats.deferredActivations != 0))
      report.safetyOk = false;
  }
  return report;
}

std::string matrixToJson(const MatrixReport& report) {
  obs::JsonWriter json;
  json.beginObject();
  json.key("schema").value("ooc.matrix.v2");
  json.key("experiment").value(report.experiment);
  json.key("quick").value(report.quick);
  json.key("runs_per_cell").value(report.runsPerCell);
  json.key("seed_base").value(report.seedBase);
  json.key("cells").beginArray();
  for (const MatrixCell& cell : report.cells) {
    const Composition& c = cell.composition;
    const TrialStats& stats = cell.stats;
    json.beginObject();
    json.key("detector").value(c.detector);
    json.key("driver").value(c.driver);
    json.key("oracle").value(c.oracle);
    json.key("policy").value(toString(c.scheduler));
    json.key("stabilize_at").value(c.oracleKnobs.stabilizeAt);
    json.key("noise").value(c.oracleKnobs.noise);
    json.key("completeness_lag").value(c.oracleKnobs.completenessLag);
    json.key("valid").value(cell.valid);
    json.key("diagnostic").value(cell.diagnostic);
    json.key("runs").value(stats.runs);
    json.key("decided").value(stats.decided);
    json.key("agreement_ok").value(stats.agreementOk);
    json.key("validity_ok").value(stats.validityOk);
    json.key("audits_ok").value(stats.auditsOk);
    json.key("fd_axioms_ok").value(stats.fdAxiomsOk);
    json.key("mean_rounds").value(stats.maxDecisionRound.mean());
    json.key("max_round").value(
        static_cast<std::uint64_t>(stats.maxDecisionRound.max()));
    json.key("mean_messages").value(stats.messagesPerRun.mean());
    json.key("overlap_witnesses").value(stats.overlapWitnesses);
    json.key("deferred_activations").value(stats.deferredActivations);
    json.key("max_round_skew")
        .value(static_cast<std::uint64_t>(stats.maxRoundSkew));
    json.endObject();
  }
  json.endArray();
  json.key("valid_cells")
      .value(static_cast<std::uint64_t>(report.validCells));
  json.key("rejected_cells")
      .value(static_cast<std::uint64_t>(report.rejectedCells));
  json.key("safety_ok").value(report.safetyOk);
  json.endObject();
  return json.str();
}

}  // namespace ooc::compose
