// `compose` — object-registry composition CLI (experiments E20, E22, E24).
//
// Front door to the composition engine: lists the registered detectors,
// drivers and oracles with their capability descriptors, runs any single
// pairing from a CLI spec string (optionally with an oracle attached), or
// runs one composition matrix into the ooc.matrix.v2 JSON artifact: E20
// (every detector × driver pairing), E22 (oracle quality × crash schedule
// for the oracle-consuming drivers) or E24 (engine × round-scheduling
// policy).
//
//   compose --list                      # registered objects + capabilities
//   compose --spec benor-vac+timer     # run one composition
//   compose --spec benor-vac+ct-coordinator --oracle omega
//   compose                             # E20: full cross-product matrix
//   compose --quick --json matrix.json  # CI smoke: 5 runs/cell + artifact
//   compose --matrix e22 --json fd.json # E22: oracle-quality matrix
//   compose --matrix e24 --quick        # E24: scheduling-policy matrix
//
// Exit status: 0 clean, 1 safety violation (matrix) or undecided/unsafe
// single run, 2 usage — including rejected pairings, which print the
// registry's capability diagnostic.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>

#include "check/replay.hpp"
#include "check/scenario.hpp"
#include "cli_args.hpp"
#include "compose/composition.hpp"
#include "compose/matrix.hpp"
#include "compose/registry.hpp"
#include "compose/run.hpp"

namespace {

using namespace ooc;
using namespace ooc::compose;

struct CliOptions {
  bool list = false;
  std::string spec;
  std::string matrix = "e20";
  int runs = 0;       // 0: matrix default
  std::uint64_t seedBase = 0;  // 0: matrix default
  std::size_t n = 0;  // --spec only; 0 keeps the Composition default
  std::uint64_t seed = 0;  // --spec only; 0 keeps the default
  bool quick = false;
  std::size_t threads = 0;  // matrix worker threads; 0 = hardware
  std::string scheduler;       // --spec only; "" keeps lockstep
  std::string oracle;          // --spec only
  double oracleNoise = -1.0;   // <0 keeps the OracleKnobs default
  std::int64_t oracleStabilize = -1;
  std::int64_t oracleLag = -1;
  bool oracleLie = false;
  std::string jsonPath;
  std::string traceOut;  // --spec only: recorded-run trace file
};

void printUsage(std::ostream& os) {
  os << "usage: compose [options]\n"
        "  (no mode flag)    run a composition matrix (ooc.matrix.v2):\n"
        "                    every cell validated against the registry\n"
        "                    and executed when valid\n"
        "  --matrix E        which matrix: e20 (default; every detector x\n"
        "                    driver pairing) | e22 (oracle quality x crash\n"
        "                    schedule) | e24 (scheduling policy x engine)\n"
        "  --list            list registered objects and capabilities\n"
        "  --spec D+R        run one composition, e.g. benor-vac+timer\n"
        "  --scheduler P     round-scheduling policy for --spec: lockstep\n"
        "                    (default) | event-driven | ooo-driver;\n"
        "                    non-lockstep policies are capability-gated\n"
        "  --oracle O        attach an oracle to --spec: omega | diamond-s\n"
        "                    | perfect-p\n"
        "  --oracle-noise X      false-suspicion probability before\n"
        "                        stabilization\n"
        "  --oracle-stabilize T  tick after which the oracle is accurate\n"
        "  --oracle-lag T        crash-detection lag\n"
        "  --oracle-lie          advertise a stabilization bound the oracle\n"
        "                        misses (expected to FAIL the axiom audit)\n"
        "  --n N             process count for --spec (default 5)\n"
        "  --seed S          seed for --spec (default 1)\n"
        "  --runs N          matrix runs per valid cell (default: e20 20,\n"
        "                    e22 10, e24 10)\n"
        "  --seed-base S     first matrix seed (default: e20 9000,\n"
        "                    e22 11000, e24 13000)\n"
        "  --quick           matrix smoke mode: 5 (e20) or 3 runs per cell\n"
        "  --threads N       matrix worker threads (default: hardware;\n"
        "                    output is byte-identical at any value)\n"
        "  --json FILE       write the matrix report\n"
        "  --trace-out FILE  --spec only: record the run as a counterexample\n"
        "                    file (readable by check --replay and\n"
        "                    ooc timeline/explain/ctrace/perfetto)\n"
        "  --help            this text\n";
}

void printList() {
  auto& reg = registry();
  std::cout << "detectors:\n";
  for (const auto& name : reg.detectorNames()) {
    const auto& entry = reg.detector(name);
    std::cout << "  " << std::left << std::setw(20) << name
              << toString(entry.capability.detectorClass) << ", "
              << toString(entry.capability.faultModel) << ", "
              << toString(entry.capability.mode)
              << ", t=(n-1)/" << entry.capability.tDivisor << "\n";
  }
  std::cout << "drivers:\n";
  for (const auto& name : reg.driverNames()) {
    const auto& entry = reg.driver(name);
    std::cout << "  " << std::left << std::setw(20) << name
              << toString(entry.capability.driverClass) << ", "
              << toString(entry.capability.mode)
              << (entry.capability.toleratesByzantine ? ""
                                                      : ", crash-only waits")
              << (entry.capability.requiresEveryProcess
                      ? ", every process drives"
                      : "");
    if (entry.capability.oracle != OracleRequirement::kNone)
      std::cout << ", needs oracle (" << toString(entry.capability.oracle)
                << ")";
    std::cout << "\n";
  }
  std::cout << "oracles:\n";
  for (const auto& name : reg.oracleNames()) {
    const auto& entry = reg.oracle(name);
    std::cout << "  " << std::left << std::setw(20) << name
              << toString(entry.capability.oracleClass) << "\n";
  }
}

int runSpec(const CliOptions& options) {
  fd::OracleKnobs knobs;
  if (options.oracleNoise >= 0.0) knobs.noise = options.oracleNoise;
  if (options.oracleStabilize >= 0)
    knobs.stabilizeAt = static_cast<Tick>(options.oracleStabilize);
  if (options.oracleLag >= 0)
    knobs.completenessLag = static_cast<Tick>(options.oracleLag);
  knobs.lieAboutBound = options.oracleLie;
  Composition composition;
  try {
    composition = parseSpec(options.spec, options.oracle, knobs);
  } catch (const std::exception& error) {
    // Unknown names and rejected pairings land here with the registry's
    // capability diagnostic — the same text a scenario file load prints.
    std::cerr << "compose: " << error.what() << "\n";
    return 2;
  }
  if (!options.scheduler.empty()) {
    const auto policy = parseSchedulingPolicy(options.scheduler);
    if (!policy) {
      std::cerr << "compose: unknown scheduler '" << options.scheduler
                << "'; known: lockstep, event-driven, ooo-driver\n";
      return 2;
    }
    composition.scheduler = *policy;
  }
  if (options.n > 0) composition.n = options.n;
  if (options.seed > 0) composition.seed = options.seed;
  CompositionResult result;
  try {
    result = runComposition(composition);
  } catch (const std::exception& error) {
    std::cerr << "compose: " << error.what() << "\n";
    return 2;
  }
  std::cout << composition.detector << " + " << composition.driver
            << " n=" << composition.n << " seed=" << composition.seed
            << "\n"
            << "  decided:    " << (result.allDecided ? "yes" : "NO") << "\n";
  if (result.allDecided)
    std::cout << "  value:      " << result.decidedValue << "\n"
              << "  rounds:     max " << result.maxDecisionRound << ", mean "
              << result.meanDecisionRound << "\n";
  std::cout << "  agreement:  "
            << (result.agreementViolated ? "VIOLATED" : "ok") << "\n"
            << "  validity:   "
            << (result.validityViolated ? "VIOLATED" : "ok") << "\n"
            << "  audits:     " << (result.allAuditsOk ? "ok" : "FAILED")
            << "\n"
            << "  messages:   " << result.messagesByCorrect << "\n";
  if (composition.scheduler != SchedulingPolicy::kLockstep)
    std::cout << "  scheduler:  " << toString(composition.scheduler)
              << " (overlap " << result.overlapWitnesses << ", deferred "
              << result.deferredActivations << ", max skew "
              << result.maxRoundSkew << ")\n";
  if (result.adoptOutcomesTotal > 0)
    std::cout << "  s5-witness: " << result.adoptMismatchWitnesses << " of "
              << result.adoptOutcomesTotal << " adopt outcomes\n";
  if (result.oracleAudit) {
    const auto& audit = *result.oracleAudit;
    std::cout << "  fd-axioms:  " << (audit.ok() ? "ok" : "VIOLATED")
              << " (horizon " << audit.horizon << ")\n";
    if (!audit.completenessOk)
      std::cout << "    completeness: " << audit.completenessDetail << "\n";
    if (!audit.accuracyOk)
      std::cout << "    accuracy:     " << audit.accuracyDetail << "\n";
    if (!audit.convergenceOk)
      std::cout << "    convergence:  " << audit.convergenceDetail << "\n";
  }
  if (!options.traceOut.empty()) {
    // Re-run the composition under the trace recorder (runs are pure
    // functions of the configuration, so the recording matches the run
    // reported above) and save it in the checker's counterexample format —
    // the one trace spelling every tool reads.
    check::Scenario scenario;
    scenario.family = check::Family::kCompose;
    scenario.compose = composition;
    check::CounterexampleFile file;
    file.scenario = scenario;
    file.invariant = "none";
    file.detail = "recorded by compose --trace-out (no violation)";
    try {
      file.trace = check::recordRun(scenario).trace;
      check::writeCounterexampleFile(file, options.traceOut);
    } catch (const std::exception& error) {
      std::cerr << "compose: " << error.what() << "\n";
      return 2;
    }
    std::cout << "  trace:      " << options.traceOut << "\n";
  }
  const bool ok = result.allDecided && !result.agreementViolated &&
                  !result.validityViolated && result.allAuditsOk &&
                  (!result.oracleAudit || result.oracleAudit->ok());
  return ok ? 0 : 1;
}

/// One line per cell: the composition, then its verdict.
void printCell(const MatrixCell& cell) {
  const Composition& c = cell.composition;
  std::string label = c.detector + "+" + c.driver;
  if (!c.oracle.empty()) {
    std::ostringstream knobs;
    knobs << " [" << c.oracle << " stabilize=" << c.oracleKnobs.stabilizeAt
          << " noise=" << std::fixed << std::setprecision(2)
          << c.oracleKnobs.noise << "]";
    label += knobs.str();
  }
  if (c.scheduler != SchedulingPolicy::kLockstep)
    label += std::string(" @ ") + toString(c.scheduler);
  std::cout << "  " << std::left << std::setw(56) << label;
  if (!cell.valid) {
    std::cout << " rejected: " << cell.diagnostic << "\n";
    return;
  }
  const TrialStats& stats = cell.stats;
  std::cout << " decided " << stats.decided << "/" << stats.runs;
  if (stats.decided > 0)
    std::cout << ", mean rounds " << std::fixed << std::setprecision(2)
              << stats.maxDecisionRound.mean() << std::defaultfloat
              << std::setprecision(6);
  if (c.scheduler != SchedulingPolicy::kLockstep ||
      stats.overlapWitnesses != 0 || stats.deferredActivations != 0)
    std::cout << ", overlap " << stats.overlapWitnesses << ", deferred "
              << stats.deferredActivations << ", skew " << stats.maxRoundSkew;
  if (!stats.agreementOk) std::cout << ", AGREEMENT VIOLATED";
  if (!stats.validityOk) std::cout << ", VALIDITY VIOLATED";
  if (!stats.auditsOk) std::cout << ", AUDITS FAILED";
  if (!stats.fdAxiomsOk) std::cout << ", FD AXIOMS VIOLATED";
  std::cout << "\n";
}

int runMatrixMode(const CliOptions& options) {
  MatrixExperiment experiment;
  try {
    experiment = matrixExperiment(options.matrix);
  } catch (const std::exception& error) {
    std::cerr << "compose: " << error.what() << "\n";
    return 2;
  }
  if (options.runs > 0) experiment.runsPerCell = options.runs;
  if (options.seedBase > 0) experiment.seedBase = options.seedBase;
  MatrixOptions matrix;
  matrix.quick = options.quick;
  matrix.threads = options.threads;

  const MatrixReport report = runMatrix(experiment, matrix);

  std::cout << report.experiment << " matrix: " << report.cells.size()
            << " cells, " << report.runsPerCell << " runs per valid cell\n";
  for (const MatrixCell& cell : report.cells) printCell(cell);
  std::cout << (report.safetyOk ? "OK" : "FAIL") << ": "
            << report.validCells << " valid cells, "
            << report.rejectedCells << " rejected\n";

  if (!options.jsonPath.empty()) {
    std::ofstream out(options.jsonPath, std::ios::binary);
    if (!out) {
      std::cerr << "compose: cannot write '" << options.jsonPath << "'\n";
      return 2;
    }
    out << matrixToJson(report) << '\n';
  }
  return report.safetyOk ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  const ooc::cli::ArgParser args("compose", argc, argv);
  const auto next = [&](int& i) { return args.next(i); };
  const auto nextNumber = [&](int& i) { return args.nextNumber(i); };
  const auto nextDouble = [&](int& i) { return args.nextDouble(i); };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") options.list = true;
    else if (arg == "--spec") options.spec = next(i);
    else if (arg == "--scheduler") options.scheduler = next(i);
    else if (arg == "--matrix") options.matrix = next(i);
    else if (arg == "--oracle") options.oracle = next(i);
    else if (arg == "--oracle-noise") options.oracleNoise = nextDouble(i);
    else if (arg == "--oracle-stabilize")
      options.oracleStabilize = static_cast<std::int64_t>(nextNumber(i));
    else if (arg == "--oracle-lag")
      options.oracleLag = static_cast<std::int64_t>(nextNumber(i));
    else if (arg == "--oracle-lie") options.oracleLie = true;
    else if (arg == "--n") options.n = nextNumber(i);
    else if (arg == "--seed") options.seed = nextNumber(i);
    else if (arg == "--runs")
      options.runs = static_cast<int>(nextNumber(i));
    else if (arg == "--seed-base") options.seedBase = nextNumber(i);
    else if (arg == "--quick") options.quick = true;
    else if (arg == "--threads") options.threads = nextNumber(i);
    else if (arg == "--json") options.jsonPath = next(i);
    else if (arg == "--trace-out") options.traceOut = next(i);
    else if (arg == "--help" || arg == "-h") {
      printUsage(std::cout);
      return 0;
    } else {
      std::cerr << "compose: unknown option '" << arg << "'\n";
      printUsage(std::cerr);
      return 2;
    }
  }
  if (options.list) {
    printList();
    return 0;
  }
  if ((!options.oracle.empty() || options.oracleNoise >= 0.0 ||
       options.oracleStabilize >= 0 || options.oracleLag >= 0 ||
       options.oracleLie) &&
      options.spec.empty()) {
    std::cerr << "compose: --oracle* flags need --spec\n";
    return 2;
  }
  if (!options.traceOut.empty() && options.spec.empty()) {
    std::cerr << "compose: --trace-out needs --spec\n";
    return 2;
  }
  if (!options.scheduler.empty() && options.spec.empty()) {
    std::cerr << "compose: --scheduler needs --spec\n";
    return 2;
  }
  if (!options.spec.empty()) return runSpec(options);
  return runMatrixMode(options);
}
