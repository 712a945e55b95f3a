#include "compose/matrix.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "compose/run.hpp"
#include "obs/json.hpp"
#include "sweep/scheduler.hpp"
#include "util/stats.hpp"

namespace ooc::compose {
namespace {

/// Per-detector base configuration: modest sizes so the full matrix stays
/// CI-cheap, split inputs so termination is earned by the driver (unanimous
/// starts commit in round 1 and would test nothing), and caps tight enough
/// that the keep-value control (which may legitimately never decide) exits
/// by bound rather than by wall clock.
Composition cellBase(const std::string& detectorName,
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

MatrixReport runMatrix(const MatrixOptions& options) {
  const int runsPerCell = options.quick ? 5 : options.runsPerCell;
  Registry& reg = registry();
  MatrixReport report;
  report.detectors = reg.detectorNames();
  report.drivers = reg.driverNames();

  // Cells are enumerated row-major up front and fanned across the
  // experiment scheduler (each cell is runsPerCell independent seeded
  // simulations); the report fold below walks the pre-sized cell vector in
  // enumeration order, so counts, safety verdicts, and the JSON downstream
  // are byte-identical at any thread count.
  struct CellKey {
    std::string detector;
    std::string driver;
  };
  std::vector<CellKey> keys;
  keys.reserve(report.detectors.size() * report.drivers.size());
  for (const std::string& detectorName : report.detectors)
    for (const std::string& driverName : report.drivers)
      keys.push_back(CellKey{detectorName, driverName});

  std::vector<MatrixCell> cells(keys.size());
  sweep::Options pool;
  pool.threads = options.threads;
  sweep::parallelFor(
      keys.size(),
      [&](std::size_t index, sweep::Control&) {
        const CellKey& key = keys[index];
        MatrixCell cell;
        cell.detector = key.detector;
        cell.driver = key.driver;
        if (const auto diagnostic =
                reg.validatePairing(key.detector, key.driver)) {
          cell.diagnostic = *diagnostic;
          cells[index] = std::move(cell);
          return;
        }
        cell.valid = true;
        Summary rounds;
        Summary messages;
        for (int run = 0; run < runsPerCell; ++run) {
          Composition composition = cellBase(key.detector, key.driver);
          cell.oracle = composition.oracle;
          composition.seed =
              options.seedBase + static_cast<std::uint64_t>(run);
          const CompositionResult result = runComposition(composition);
          ++cell.runs;
          if (result.allDecided) {
            ++cell.decided;
            rounds.add(static_cast<double>(result.maxDecisionRound));
            cell.maxRound = std::max(cell.maxRound, result.maxDecisionRound);
          }
          messages.add(static_cast<double>(result.messagesByCorrect));
          if (result.agreementViolated) cell.agreementOk = false;
          if (result.validityViolated) cell.validityOk = false;
          if (!result.allAuditsOk) cell.auditsOk = false;
          if (result.oracleAudit && !result.oracleAudit->ok())
            cell.fdAxiomsOk = false;
        }
        if (!rounds.empty()) cell.meanRounds = rounds.mean();
        if (!messages.empty()) cell.meanMessages = messages.mean();
        cells[index] = std::move(cell);
      },
      pool);

  for (MatrixCell& cell : cells) {
    if (cell.valid) {
      ++report.validCells;
      if (!cell.agreementOk || !cell.validityOk || !cell.auditsOk ||
          !cell.fdAxiomsOk)
        report.safetyOk = false;
    } else {
      ++report.rejectedCells;
    }
    report.cells.push_back(std::move(cell));
  }
  return report;
}

std::string matrixToJson(const MatrixReport& report,
                         const MatrixOptions& options) {
  obs::JsonWriter json;
  json.beginObject();
  json.key("schema").value("ooc.matrix.v1");
  json.key("quick").value(options.quick);
  json.key("runs_per_cell")
      .value(static_cast<std::int64_t>(options.quick ? 5
                                                     : options.runsPerCell));
  json.key("seed_base").value(options.seedBase);
  json.key("detectors").beginArray();
  for (const std::string& name : report.detectors) json.value(name);
  json.endArray();
  json.key("drivers").beginArray();
  for (const std::string& name : report.drivers) json.value(name);
  json.endArray();
  json.key("cells").beginArray();
  for (const MatrixCell& cell : report.cells) {
    json.beginObject();
    json.key("detector").value(cell.detector);
    json.key("driver").value(cell.driver);
    json.key("oracle").value(cell.oracle);
    json.key("valid").value(cell.valid);
    json.key("diagnostic").value(cell.diagnostic);
    json.key("runs").value(static_cast<std::int64_t>(cell.runs));
    json.key("decided").value(static_cast<std::int64_t>(cell.decided));
    json.key("agreement_ok").value(cell.agreementOk);
    json.key("validity_ok").value(cell.validityOk);
    json.key("audits_ok").value(cell.auditsOk);
    json.key("fd_axioms_ok").value(cell.fdAxiomsOk);
    json.key("mean_rounds").value(cell.meanRounds);
    json.key("max_round").value(static_cast<std::uint64_t>(cell.maxRound));
    json.key("mean_messages").value(cell.meanMessages);
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

// ---------------------------------------------------------------------------
// E22

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
constexpr Tick kOracleLag = 8;

Composition oracleCellBase(const std::string& driverName,
                           const std::string& oracleName,
                           const QualityPoint& quality) {
  Composition composition;
  composition.detector = "benor-vac";
  composition.driver = driverName;
  composition.oracle = oracleName;
  composition.oracleKnobs.completenessLag = kOracleLag;
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

OracleMatrixReport runOracleMatrix(const OracleMatrixOptions& options) {
  const int runsPerCell = options.quick ? 3 : options.runsPerCell;
  Registry& reg = registry();
  OracleMatrixReport report;
  report.oracles = reg.oracleNames();
  for (const std::string& name : reg.driverNames())
    if (reg.driver(name).capability.oracle != OracleRequirement::kNone)
      report.drivers.push_back(name);

  // Every cell — rejection rows included — becomes one task enumerated in
  // the report's canonical order, fanned across the experiment scheduler,
  // and folded back sequentially: ooc.fd-matrix.v1 stays byte-identical at
  // any thread count.
  std::vector<std::function<OracleMatrixCell()>> tasks;

  const auto rejectTask = [&reg](OracleMatrixCell cell,
                                 const std::string& driverName,
                                 const std::string& oracleName) {
    return [&reg, cell = std::move(cell), driverName, oracleName]() {
      OracleMatrixCell out = cell;
      out.diagnostic =
          *reg.validateOracle(driverName, oracleName, fd::OracleKnobs{});
      return out;
    };
  };

  for (const std::string& driverName : report.drivers) {
    // The missing-oracle row: a coordinator with nothing to consult.
    {
      OracleMatrixCell cell;
      cell.driver = driverName;
      cell.completenessLag = kOracleLag;
      tasks.push_back(rejectTask(std::move(cell), driverName, ""));
    }
    for (const std::string& oracleName : report.oracles) {
      for (const QualityPoint& quality : kQualityGrid) {
        OracleMatrixCell cell;
        cell.driver = driverName;
        cell.oracle = oracleName;
        cell.stabilizeAt = quality.stabilizeAt;
        cell.noise = quality.noise;
        cell.completenessLag = kOracleLag;
        tasks.push_back([&reg, &options, runsPerCell, cell = std::move(cell),
                         driverName, oracleName, quality]() {
          OracleMatrixCell out = cell;
          const Composition base =
              oracleCellBase(driverName, oracleName, quality);
          if (const auto diagnostic = reg.validateOracle(
                  driverName, oracleName, base.oracleKnobs)) {
            out.diagnostic = *diagnostic;
            return out;
          }
          out.valid = true;
          Summary rounds;
          for (int run = 0; run < runsPerCell; ++run) {
            Composition composition = base;
            composition.seed =
                options.seedBase + static_cast<std::uint64_t>(run);
            const CompositionResult result = runComposition(composition);
            ++out.runs;
            if (result.allDecided) {
              ++out.decided;
              rounds.add(static_cast<double>(result.maxDecisionRound));
              out.maxRound = std::max(out.maxRound, result.maxDecisionRound);
            }
            if (result.agreementViolated) out.agreementOk = false;
            if (result.validityViolated) out.validityOk = false;
            if (!result.allAuditsOk) out.auditsOk = false;
            if (result.oracleAudit && !result.oracleAudit->ok())
              out.fdAxiomsOk = false;
          }
          if (!rounds.empty()) out.meanRounds = rounds.mean();
          return out;
        });
      }
    }
  }

  // The unconsumed-oracle rows: attaching any oracle to an oracle-free
  // driver is rejected, not silently ignored.
  for (const std::string& oracleName : report.oracles) {
    OracleMatrixCell cell;
    cell.driver = "timer";
    cell.oracle = oracleName;
    cell.completenessLag = kOracleLag;
    tasks.push_back(rejectTask(std::move(cell), "timer", oracleName));
  }

  std::vector<OracleMatrixCell> cells(tasks.size());
  sweep::Options pool;
  pool.threads = options.threads;
  sweep::parallelFor(
      tasks.size(),
      [&](std::size_t index, sweep::Control&) { cells[index] = tasks[index](); },
      pool);

  for (OracleMatrixCell& cell : cells) {
    if (cell.valid) {
      ++report.validCells;
      if (!cell.agreementOk || !cell.validityOk || !cell.auditsOk ||
          !cell.fdAxiomsOk)
        report.safetyOk = false;
    } else {
      ++report.rejectedCells;
    }
    report.cells.push_back(std::move(cell));
  }
  return report;
}

std::string oracleMatrixToJson(const OracleMatrixReport& report,
                               const OracleMatrixOptions& options) {
  obs::JsonWriter json;
  json.beginObject();
  json.key("schema").value("ooc.fd-matrix.v1");
  json.key("quick").value(options.quick);
  json.key("runs_per_cell")
      .value(static_cast<std::int64_t>(options.quick ? 3
                                                     : options.runsPerCell));
  json.key("seed_base").value(options.seedBase);
  json.key("drivers").beginArray();
  for (const std::string& name : report.drivers) json.value(name);
  json.endArray();
  json.key("oracles").beginArray();
  for (const std::string& name : report.oracles) json.value(name);
  json.endArray();
  json.key("cells").beginArray();
  for (const OracleMatrixCell& cell : report.cells) {
    json.beginObject();
    json.key("driver").value(cell.driver);
    json.key("oracle").value(cell.oracle);
    json.key("stabilize_at").value(cell.stabilizeAt);
    json.key("noise").value(cell.noise);
    json.key("completeness_lag").value(cell.completenessLag);
    json.key("valid").value(cell.valid);
    json.key("diagnostic").value(cell.diagnostic);
    json.key("runs").value(static_cast<std::int64_t>(cell.runs));
    json.key("decided").value(static_cast<std::int64_t>(cell.decided));
    json.key("agreement_ok").value(cell.agreementOk);
    json.key("validity_ok").value(cell.validityOk);
    json.key("audits_ok").value(cell.auditsOk);
    json.key("fd_axioms_ok").value(cell.fdAxiomsOk);
    json.key("mean_rounds").value(cell.meanRounds);
    json.key("max_round").value(static_cast<std::uint64_t>(cell.maxRound));
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

// ---------------------------------------------------------------------------
// E24

namespace {

/// The engine roster: one pairing per engine family. The first three are
/// async and skew-tolerant (valid under every policy); the timer
/// reconciliator and the phase protocol exist to pin the rejection
/// diagnostics — their non-lockstep cells must fail validateScheduling
/// deterministically, not crash or silently fall back.
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
constexpr SchedulingPolicy kPolicyRoster[] = {
    SchedulingPolicy::kLockstep,
    SchedulingPolicy::kEventDriven,
    SchedulingPolicy::kOooDriver,
};

Composition roundlessCellBase(const EngineRow& row, SchedulingPolicy policy) {
  Composition composition;
  composition.detector = row.detector;
  composition.driver = row.driver;
  composition.scheduler = policy;
  composition.n = 5;
  composition.inputs = {0, 1, 0, 1, 1};
  composition.maxRounds = 200;
  composition.maxTicks = 200'000;
  if (row.oracle[0] != '\0') {
    composition.oracle = row.oracle;
    composition.oracleKnobs.stabilizeAt = 40;
    composition.oracleKnobs.noise = 0.25;
  }
  return composition;
}

}  // namespace

RoundlessMatrixReport runRoundlessMatrix(
    const RoundlessMatrixOptions& options) {
  const int runsPerCell = options.quick ? 3 : options.runsPerCell;
  Registry& reg = registry();
  RoundlessMatrixReport report;
  for (const SchedulingPolicy policy : kPolicyRoster)
    report.policies.push_back(toString(policy));
  for (const EngineRow& row : kEngineRoster)
    report.engines.push_back(std::string(row.detector) + "+" + row.driver);

  // Row-major enumeration (engines × policies) fanned across the
  // experiment scheduler; the fold walks the pre-sized vector in order, so
  // ooc.roundless.v1 is byte-identical at any thread count.
  struct CellKey {
    EngineRow row;
    SchedulingPolicy policy;
  };
  std::vector<CellKey> keys;
  for (const EngineRow& row : kEngineRoster)
    for (const SchedulingPolicy policy : kPolicyRoster)
      keys.push_back(CellKey{row, policy});

  std::vector<RoundlessMatrixCell> cells(keys.size());
  sweep::Options pool;
  pool.threads = options.threads;
  sweep::parallelFor(
      keys.size(),
      [&](std::size_t index, sweep::Control&) {
        const CellKey& key = keys[index];
        RoundlessMatrixCell cell;
        cell.detector = key.row.detector;
        cell.driver = key.row.driver;
        cell.oracle = key.row.oracle;
        cell.policy = toString(key.policy);
        if (const auto diagnostic =
                reg.validatePairing(key.row.detector, key.row.driver)) {
          cell.diagnostic = *diagnostic;
          cells[index] = std::move(cell);
          return;
        }
        if (const auto diagnostic = reg.validateScheduling(
                key.row.detector, key.row.driver, key.policy)) {
          cell.diagnostic = *diagnostic;
          cells[index] = std::move(cell);
          return;
        }
        cell.valid = true;
        Summary rounds;
        Summary messages;
        for (int run = 0; run < runsPerCell; ++run) {
          Composition composition = roundlessCellBase(key.row, key.policy);
          composition.seed =
              options.seedBase + static_cast<std::uint64_t>(run);
          const CompositionResult result = runComposition(composition);
          ++cell.runs;
          if (result.allDecided) {
            ++cell.decided;
            rounds.add(static_cast<double>(result.maxDecisionRound));
            cell.maxRound = std::max(cell.maxRound, result.maxDecisionRound);
          }
          messages.add(static_cast<double>(result.messagesByCorrect));
          if (result.agreementViolated) cell.agreementOk = false;
          if (result.validityViolated) cell.validityOk = false;
          if (!result.allAuditsOk) cell.auditsOk = false;
          if (result.oracleAudit && !result.oracleAudit->ok())
            cell.fdAxiomsOk = false;
          cell.overlapWitnesses += result.overlapWitnesses;
          cell.deferredActivations += result.deferredActivations;
          cell.maxRoundSkew =
              std::max(cell.maxRoundSkew, result.maxRoundSkew);
        }
        if (!rounds.empty()) cell.meanRounds = rounds.mean();
        if (!messages.empty()) cell.meanMessages = messages.mean();
        cells[index] = std::move(cell);
      },
      pool);

  for (RoundlessMatrixCell& cell : cells) {
    if (cell.valid) {
      ++report.validCells;
      if (!cell.agreementOk || !cell.validityOk || !cell.auditsOk ||
          !cell.fdAxiomsOk)
        report.safetyOk = false;
      // The lockstep column must be structurally skew-free: no overlap
      // witnesses, no deferred activations. (maxRoundSkew is NOT pinned —
      // the probe samples per-process completions sequentially within a
      // tick, so a transient spread of 1 is inherent to observation
      // granularity, not a schedule property.) A nonzero counter here is
      // a scheduler regression, flagged so CI trips on it.
      if (cell.policy == std::string("lockstep") &&
          (cell.overlapWitnesses != 0 || cell.deferredActivations != 0))
        report.safetyOk = false;
    } else {
      ++report.rejectedCells;
    }
    report.cells.push_back(std::move(cell));
  }
  return report;
}

std::string roundlessMatrixToJson(const RoundlessMatrixReport& report,
                                  const RoundlessMatrixOptions& options) {
  obs::JsonWriter json;
  json.beginObject();
  json.key("schema").value("ooc.roundless.v1");
  json.key("quick").value(options.quick);
  json.key("runs_per_cell")
      .value(static_cast<std::int64_t>(options.quick ? 3
                                                     : options.runsPerCell));
  json.key("seed_base").value(options.seedBase);
  json.key("policies").beginArray();
  for (const std::string& name : report.policies) json.value(name);
  json.endArray();
  json.key("engines").beginArray();
  for (const std::string& name : report.engines) json.value(name);
  json.endArray();
  json.key("cells").beginArray();
  for (const RoundlessMatrixCell& cell : report.cells) {
    json.beginObject();
    json.key("detector").value(cell.detector);
    json.key("driver").value(cell.driver);
    json.key("oracle").value(cell.oracle);
    json.key("policy").value(cell.policy);
    json.key("valid").value(cell.valid);
    json.key("diagnostic").value(cell.diagnostic);
    json.key("runs").value(static_cast<std::int64_t>(cell.runs));
    json.key("decided").value(static_cast<std::int64_t>(cell.decided));
    json.key("agreement_ok").value(cell.agreementOk);
    json.key("validity_ok").value(cell.validityOk);
    json.key("audits_ok").value(cell.auditsOk);
    json.key("fd_axioms_ok").value(cell.fdAxiomsOk);
    json.key("mean_rounds").value(cell.meanRounds);
    json.key("max_round").value(static_cast<std::uint64_t>(cell.maxRound));
    json.key("mean_messages").value(cell.meanMessages);
    json.key("overlap_witnesses").value(cell.overlapWitnesses);
    json.key("deferred_activations").value(cell.deferredActivations);
    json.key("max_round_skew")
        .value(static_cast<std::uint64_t>(cell.maxRoundSkew));
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
