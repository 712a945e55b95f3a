// `check` — schedule-exploration model checker CLI.
//
// Sweeps exploration strategies (multi-seed random walks, delay-bounded
// message reordering, targeted crash-schedule enumeration) over scenario
// presets, evaluates the safety invariant suite against every run, shrinks
// each finding to a locally minimal configuration and writes a standalone
// counterexample file that replays bit-identically. The benor, phaseking,
// compose and fd presets are compositions (family=compose scenarios); raft
// and svc are scenario families of their own.
//
//   check                                  # default sweep, all families
//   check --family benor --seeds 10000     # big Ben-Or seed sweep
//   check --strategy crash --family raft   # enumerate Raft crash schedules
//   check --plant-vac-bug                  # prove the checker catches bugs
//   check --replay FILE                    # re-execute a counterexample
//
// Exit status: 0 clean, 1 violations found (or replay diverged), 2 usage.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include <fstream>

#include "check/checker.hpp"
#include "check/invariant.hpp"
#include "check/replay.hpp"
#include "check/scenario.hpp"
#include "check/strategy.hpp"
#include "cli_args.hpp"
#include "compose/composition.hpp"
#include "compose/kv.hpp"
#include "compose/registry.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "svc/run.hpp"
#include "sweep/scheduler.hpp"

namespace {

using namespace ooc;
using namespace ooc::check;

struct CliOptions {
  std::string family = "all";  // preset: benor | phaseking | raft |
                               // compose | fd | svc | all
  std::string detector;        // --family compose/fd/svc: registry names
  std::string driver;
  std::string engine;          // --family svc: compose | paxos | raft
  std::string oracle;          // --family fd: registry oracle name
  double oracleNoise = -1.0;   // <0: family default
  std::int64_t oracleStabilize = -1;  // <0: family default
  std::int64_t oracleLag = -1;        // <0: family default
  bool oracleLie = false;
  std::string strategy = "all";  // random | delay | crash | restart |
                                 // oracle | pipeline | skew | all
  std::size_t seeds = 1000;
  std::uint64_t seedBase = 1;
  std::size_t threads = 0;
  bool shrink = true;
  bool requireTermination = true;
  bool plantVacBug = false;
  bool huntAdoptWitness = false;
  std::string traceDir = "counterexamples";
  std::size_t maxFindings = 5;
  std::size_t progressEvery = 0;
  std::string replayPath;
  std::string jsonPath;
  Tick budget = 0;        // 0: default budget grid
  std::size_t maxCrashes = 0;  // 0: family fault budget
  std::size_t maxRestarts = 1;
  bool crashBeforeSync = false;
  std::size_t n = 0;      // 0: family default
  Tick maxDelay = 0;      // 0: family default
};

void printUsage(std::ostream& os) {
  os << "usage: check [options]\n"
        "  --family F        benor | phaseking | raft | compose | fd | svc "
        "| all\n"
        "                    (default all = benor, phaseking, raft; benor,\n"
        "                    phaseking and fd are preset compositions)\n"
        "  --detector D      compose/fd/svc only: registry detector name\n"
        "  --driver R        compose/fd/svc only: registry driver name\n"
        "  --engine E        svc only: compose | paxos | raft (default "
        "compose)\n"
        "  --oracle O        fd only: omega | diamond-s | perfect-p "
        "(default omega)\n"
        "  --oracle-noise X  fd only: base false-suspicion probability\n"
        "  --oracle-stabilize T  fd only: base stabilization tick\n"
        "  --oracle-lag T    fd only: base completeness lag\n"
        "  --oracle-lie      fd only: oracle advertises a bound it misses\n"
        "                    (expected to FAIL fd-accuracy)\n"
        "  --strategy S      random | delay | crash | restart | oracle | "
        "pipeline | skew | all (default all)\n"
        "  --seeds N         random-walk runs per family (default 1000)\n"
        "  --seed-base N     first seed of the sweep (default 1)\n"
        "  --threads N       worker threads (default: hardware)\n"
        "  --n N             base process count (default: family default)\n"
        "  --max-delay D     base network delay bound\n"
        "  --budget B        single delay-adversary budget (default: grid)\n"
        "  --max-crashes K   crash-enumeration budget (default: fault "
        "budget)\n"
        "  --max-restarts K  restart-enumeration budget (default 1)\n"
        "  --crash-before-sync  raft only: disable the sync-before-reply "
        "discipline\n"
        "                    so restarts recover stale journals (expected "
        "to FAIL)\n"
        "  --max-findings N  stop after N findings (default 5)\n"
        "  --trace-out DIR   counterexample output dir (default "
        "counterexamples);\n"
        "                    --trace-dir is accepted as an alias\n"
        "  --progress N      print a progress line to stderr every N "
        "explored\n"
        "                    configurations (default: off)\n"
        "  --no-shrink       report findings without minimizing them\n"
        "  --no-termination  drop the termination invariant\n"
        "  --plant-vac-bug   VAC-detector presets only (benor; compose/fd "
        "with a VAC\n"
        "                    detector): plant the vac-adopt-flip fault\n"
        "  --hunt-adopt-witness  hunt paper-style decide-on-adopt "
        "witnesses\n"
        "  --replay FILE     re-execute a counterexample file and verify "
        "it\n"
        "  --json FILE       write a machine-readable sweep summary "
        "(schema ooc.check.v1)\n"
        "  --help            this text\n";
}

// The --family presets. raft and svc are scenario families of their own;
// every other preset is a base composition.
constexpr const char* kPresets[] = {"benor",   "phaseking", "raft",
                                    "compose", "fd",        "svc"};

/// The Phase-King preset's attacker repertoire: the composition walk keeps
/// the base strategy, so the preset sweeps one walk per strategy.
const std::vector<std::string> kRoyalStrategies = {
    "silent", "random", "equivocate", "lying-king", "anti-king"};

bool composePreset(const std::string& preset) {
  return preset != "raft" && preset != "svc";
}

Scenario baseScenario(const std::string& preset, const CliOptions& options) {
  Scenario scenario;
  if (preset == "raft") {
    scenario.family = Family::kRaft;
    if (options.n > 0) scenario.raft.n = options.n;
    if (options.maxDelay > 0) scenario.raft.maxDelay = options.maxDelay;
    // Restart exploration exercises the durability subsystem: the clean
    // direction journals with the safe sync discipline; --crash-before-sync
    // drops the discipline so recovery can resurrect stale state.
    scenario.raft.raft.durable = true;
    scenario.raft.raft.syncBeforeReply = !options.crashBeforeSync;
    return scenario;
  }
  if (preset == "svc") {
    scenario.family = Family::kSvc;
    auto& config = scenario.svc;
    if (!options.engine.empty()) config.engine = options.engine;
    if (!options.detector.empty()) config.detector = options.detector;
    if (!options.driver.empty()) config.driver = options.driver;
    if (options.n > 0) config.n = options.n;
    if (options.maxDelay > 0) config.maxDelay = options.maxDelay;
    // Checker-scale traffic: enough commands to fill the pipeline and
    // survive a mid-run fault, small enough for thousands of cells.
    config.workload.clients = 64;
    config.workload.commandsPerNode = 8;
    config.workload.thinkMin = 5;
    config.workload.thinkMax = 40;
    config.workload.startSpread = 16;
    config.service.maxDecrees = 400;
    return scenario;
  }

  scenario.family = Family::kCompose;
  auto& config = scenario.compose;
  if (preset == "phaseking") {
    // Phase-King at f = t = 2 equivocators seated as the first kings.
    config.detector = "phaseking-ac";
    config.driver = "king-conciliator";
    config.n = options.n > 0 ? options.n : 7;
    config.byzantineCount = 2;
    config.inputs = {0, 1};
    config.maxRounds = 300;
    config.maxTicks = 100000;
    return scenario;
  }
  if (preset == "fd") {
    // The fd preset's home base: rotating coordinator consuming Ω over a
    // mildly imperfect oracle (noisy until tick 40).
    config.driver = "ct-coordinator";
    config.oracle = "omega";
    config.oracleKnobs.completenessLag = 8;
    config.oracleKnobs.stabilizeAt = 40;
    config.oracleKnobs.noise = 0.25;
    if (!options.oracle.empty()) config.oracle = options.oracle;
    if (options.oracleNoise >= 0.0)
      config.oracleKnobs.noise = options.oracleNoise;
    if (options.oracleStabilize >= 0)
      config.oracleKnobs.stabilizeAt =
          static_cast<Tick>(options.oracleStabilize);
    if (options.oracleLag >= 0)
      config.oracleKnobs.completenessLag =
          static_cast<Tick>(options.oracleLag);
    config.oracleKnobs.lieAboutBound = options.oracleLie;
  }
  // benor is the default pairing, benor-vac+local-coin.
  if (!options.detector.empty()) config.detector = options.detector;
  if (!options.driver.empty()) config.driver = options.driver;
  if (options.n > 0) config.n = options.n;
  if (options.maxDelay > 0) config.maxDelay = options.maxDelay;
  config.inputs.resize(config.n);
  for (std::size_t i = 0; i < config.n; ++i)
    config.inputs[i] = static_cast<Value>(i % 2);
  if (options.plantVacBug) config.fault = compose::PlantedFault::kVacAdoptFlip;
  return scenario;
}

std::unique_ptr<ExplorationStrategy> buildStrategy(const std::string& preset,
                                                   const CliOptions& options) {
  const Scenario base = baseScenario(preset, options);
  std::vector<std::unique_ptr<ExplorationStrategy>> parts;

  const bool wantRandom =
      options.strategy == "all" || options.strategy == "random";
  const bool wantDelay =
      options.strategy == "all" || options.strategy == "delay";
  const bool wantCrash =
      options.strategy == "all" || options.strategy == "crash";
  const bool wantRestart =
      options.strategy == "all" || options.strategy == "restart";
  const bool wantOracle =
      options.strategy == "all" || options.strategy == "oracle";
  const bool wantPipeline =
      options.strategy == "all" || options.strategy == "pipeline";
  const bool wantSkew =
      options.strategy == "all" || options.strategy == "skew";

  // Compositions carry their capability descriptor in the registry: delay
  // adversaries need an asynchronous detector, crash enumeration a
  // crash-model one. Skip silently on "all" and on the named presets; an
  // explicit --strategy over --family compose/fd still reaches the strategy
  // constructor, which throws the diagnostic.
  bool composeAsync = true;
  bool composeCrashModel = true;
  if (base.family == Family::kCompose) {
    const auto& capability =
        compose::registry().detector(base.compose.detector).capability;
    composeAsync =
        capability.mode != compose::InvocationMode::kLockstep;
    composeCrashModel =
        capability.faultModel == compose::FaultModel::kCrash;
  }
  const bool openPairing = preset == "compose" || preset == "fd";

  if (wantRandom) {
    RandomWalkStrategy::Options rw;
    rw.seedBase = options.seedBase;
    rw.runs = options.seeds;
    if (preset == "phaseking") {
      parts.push_back(strategyWalks(base, rw, kRoyalStrategies));
    } else {
      parts.push_back(std::make_unique<RandomWalkStrategy>(base, rw));
    }
  }
  if (wantDelay &&
      (composeAsync || (openPairing && options.strategy == "delay"))) {
    DelayBoundStrategy::Options db;
    if (options.budget > 0) db.budgets = {options.budget};
    db.adversarySeedBase = options.seedBase;
    parts.push_back(std::make_unique<DelayBoundStrategy>(base, db));
  }
  if (wantCrash &&
      (composeCrashModel || (openPairing && options.strategy == "crash"))) {
    CrashScheduleStrategy::Options cs;
    cs.maxCrashes = options.maxCrashes;
    parts.push_back(std::make_unique<CrashScheduleStrategy>(base, cs));
  }
  if (wantRestart && preset == "raft") {
    RestartScheduleStrategy::Options rs;
    rs.maxRestarts = options.maxRestarts;
    rs.seedBase = options.seedBase;
    parts.push_back(std::make_unique<RestartScheduleStrategy>(base, rs));
  }
  if (wantOracle && preset == "fd") {
    OracleQualityStrategy::Options oq;
    oq.seedBase = options.seedBase;
    parts.push_back(std::make_unique<OracleQualityStrategy>(base, oq));
  }
  if (wantPipeline && preset == "svc") {
    SvcPipelineStrategy::Options sp;
    sp.seedBase = options.seedBase;
    parts.push_back(std::make_unique<SvcPipelineStrategy>(base, sp));
  }
  // The round-skew sweep only earns its cells when the pairing admits a
  // non-lockstep policy; on "all" a lockstep-only pairing skips it (the
  // lockstep column is the random walk's territory). An explicit
  // --strategy skew still constructs, sweeping whatever the registry
  // admits.
  if (wantSkew && openPairing &&
      (options.strategy == "skew" ||
       !compose::registry().validateScheduling(
           base.compose.detector, base.compose.driver,
           SchedulingPolicy::kEventDriven))) {
    RoundSkewStrategy::Options rs;
    rs.seedBase = options.seedBase;
    parts.push_back(std::make_unique<RoundSkewStrategy>(base, rs));
  }
  if (parts.empty()) return nullptr;
  if (parts.size() == 1) return std::move(parts.front());
  return std::make_unique<CompositeStrategy>(preset + "-sweep",
                                             std::move(parts));
}

void printFinding(const Finding& finding) {
  std::cout << "  VIOLATION [" << finding.violation.invariant
            << "] at index " << finding.configIndex << "\n"
            << "    detail:  " << finding.violation.detail << "\n"
            << "    config:  " << describe(finding.scenario) << "\n";
  if (finding.shrunk) {
    std::cout << "    shrunk:  " << describe(*finding.shrunk) << " ("
              << finding.shrinkAttempts << " shrink attempts)\n";
  }
  if (!finding.tracePath.empty()) {
    std::cout << "    trace:   " << finding.tracePath << "\n"
              << "    repro:   check --replay " << finding.tracePath
              << "\n";
  }
}

int runReplay(const CliOptions& options) {
  try {
    const CounterexampleFile file = loadCounterexampleFile(options.replayPath);
    std::cout << "replaying " << options.replayPath << "\n"
              << "  invariant: " << file.invariant << "\n"
              << "  detail:    " << file.detail << "\n"
              << "  config:    " << describe(file.scenario) << "\n";

    const ReplayResult replay = replayRun(file.scenario, file.trace);
    std::cout << "  schedule:  "
              << (replay.identical ? "bit-identical to recorded trace"
                                   : "DIVERGED")
              << "\n";
    if (!replay.identical && replay.divergence)
      std::cout << "    " << *replay.divergence << "\n";

    // Re-evaluate the recorded invariant against the replayed run.
    auto suite = safetySuite(true);
    suite.push_back(std::make_unique<AdoptWitnessInvariant>());
    bool reproduced = false;
    for (const auto& invariant : suite) {
      if (file.invariant != invariant->name()) continue;
      if (auto violation = invariant->check(file.scenario, replay.report)) {
        reproduced = true;
        std::cout << "  violation: reproduced (" << violation->detail
                  << ")\n";
      } else {
        std::cout << "  violation: NOT reproduced\n";
      }
    }
    return replay.identical && reproduced ? 0 : 1;
  } catch (const std::exception& error) {
    // A file that loads but cannot run (an absurd process count, a
    // composition the engine rejects) is a bad input, not a finding.
    std::cerr << "check: " << error.what() << "\n";
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  const ooc::cli::ArgParser args("check", argc, argv);
  const auto next = [&](int& i) { return args.next(i); };
  const auto nextNumber = [&](int& i) { return args.nextNumber(i); };
  const auto nextDouble = [&](int& i) { return args.nextDouble(i); };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--family") options.family = next(i);
    else if (arg == "--detector") options.detector = next(i);
    else if (arg == "--driver") options.driver = next(i);
    else if (arg == "--engine") options.engine = next(i);
    else if (arg == "--oracle") options.oracle = next(i);
    else if (arg == "--oracle-noise") options.oracleNoise = nextDouble(i);
    else if (arg == "--oracle-stabilize")
      options.oracleStabilize = static_cast<std::int64_t>(nextNumber(i));
    else if (arg == "--oracle-lag")
      options.oracleLag = static_cast<std::int64_t>(nextNumber(i));
    else if (arg == "--oracle-lie") options.oracleLie = true;
    else if (arg == "--strategy") options.strategy = next(i);
    else if (arg == "--seeds") options.seeds = nextNumber(i);
    else if (arg == "--seed-base") options.seedBase = nextNumber(i);
    else if (arg == "--threads") options.threads = nextNumber(i);
    else if (arg == "--n") options.n = nextNumber(i);
    else if (arg == "--max-delay") options.maxDelay = nextNumber(i);
    else if (arg == "--budget") options.budget = nextNumber(i);
    else if (arg == "--max-crashes")
      options.maxCrashes = nextNumber(i);
    else if (arg == "--max-restarts")
      options.maxRestarts = nextNumber(i);
    else if (arg == "--crash-before-sync")
      options.crashBeforeSync = true;
    else if (arg == "--max-findings")
      options.maxFindings = nextNumber(i);
    else if (arg == "--trace-out" || arg == "--trace-dir")
      options.traceDir = next(i);
    else if (arg == "--progress") options.progressEvery = nextNumber(i);
    else if (arg == "--no-shrink") options.shrink = false;
    else if (arg == "--no-termination") options.requireTermination = false;
    else if (arg == "--plant-vac-bug") options.plantVacBug = true;
    else if (arg == "--hunt-adopt-witness")
      options.huntAdoptWitness = true;
    else if (arg == "--replay") options.replayPath = next(i);
    else if (arg == "--json") options.jsonPath = next(i);
    else if (arg == "--help" || arg == "-h") {
      printUsage(std::cout);
      return 0;
    } else {
      std::cerr << "check: unknown option '" << arg << "'\n";
      printUsage(std::cerr);
      return 2;
    }
  }

  if (!options.replayPath.empty()) return runReplay(options);

  std::vector<std::string> presets;
  if (options.family == "all") {
    presets = {"benor", "phaseking", "raft"};
  } else if (std::find(std::begin(kPresets), std::end(kPresets),
                       options.family) != std::end(kPresets)) {
    presets = {options.family};
  } else {
    std::cerr << "check: unknown family '" << options.family
              << "'; known: benor, phaseking, raft, compose, fd, svc, all\n";
    return 2;
  }
  if (options.strategy != "all" && options.strategy != "random" &&
      options.strategy != "delay" && options.strategy != "crash" &&
      options.strategy != "restart" && options.strategy != "oracle" &&
      options.strategy != "pipeline" && options.strategy != "skew") {
    std::cerr << "check: unknown strategy '" << options.strategy << "'\n";
    return 2;
  }
  if (options.crashBeforeSync && options.family != "raft") {
    std::cerr << "check: --crash-before-sync needs --family raft\n";
    return 2;
  }
  if (options.strategy == "restart" && options.family != "raft") {
    std::cerr << "check: --strategy restart needs --family raft\n";
    return 2;
  }
  if (options.strategy == "oracle" && options.family != "fd") {
    std::cerr << "check: --strategy oracle needs --family fd\n";
    return 2;
  }
  if (options.strategy == "pipeline" && options.family != "svc") {
    std::cerr << "check: --strategy pipeline needs --family svc\n";
    return 2;
  }
  if (options.strategy == "skew" && options.family != "compose" &&
      options.family != "fd") {
    std::cerr << "check: --strategy skew needs --family compose or fd\n";
    return 2;
  }
  if ((!options.detector.empty() || !options.driver.empty()) &&
      options.family != "compose" && options.family != "fd" &&
      options.family != "svc") {
    std::cerr << "check: --detector/--driver need --family compose, fd or "
                 "svc\n";
    return 2;
  }
  if (!options.engine.empty() && options.family != "svc") {
    std::cerr << "check: --engine needs --family svc\n";
    return 2;
  }
  if ((!options.oracle.empty() || options.oracleNoise >= 0.0 ||
       options.oracleStabilize >= 0 || options.oracleLag >= 0 ||
       options.oracleLie) &&
      options.family != "fd") {
    std::cerr << "check: --oracle* flags need --family fd\n";
    return 2;
  }
  if (options.family == "compose" || options.family == "fd") {
    // Reject invalid pairings (and incoherent oracle attachments) before
    // the sweep, with the same registry diagnostic a scenario-file load or
    // compose_cli would print.
    try {
      compose::resolve(baseScenario(options.family, options).compose);
    } catch (const std::exception& error) {
      std::cerr << "check: " << error.what() << "\n";
      return 2;
    }
  }
  if (options.plantVacBug) {
    // The planted fault flips adopt-level VAC outcomes, so it needs a
    // preset whose detector is a VAC.
    bool vac = false;
    if (options.family != "all" && composePreset(options.family)) {
      const std::string& detector =
          baseScenario(options.family, options).compose.detector;
      vac = compose::registry().detector(detector).capability.detectorClass ==
            compose::DetectorClass::kVacillateAdoptCommit;
    }
    if (!vac) {
      std::cerr << "check: --plant-vac-bug needs a VAC-detector preset "
                   "(benor, or compose/fd with a VAC detector)\n";
      return 2;
    }
  }
  if (options.family == "svc") {
    // Same early rejection for the service's engine capability gate.
    try {
      const Scenario base = baseScenario(options.family, options);
      if (const auto rejected = svc::validateEngine(base.svc)) {
        std::cerr << "check: " << *rejected << "\n";
        return 2;
      }
    } catch (const std::exception& error) {
      std::cerr << "check: " << error.what() << "\n";
      return 2;
    }
  }

  // Witness hunting looks for schedules where decide-on-adopt would have
  // broken agreement — evidence for the paper's §5 argument, not bugs — so
  // it replaces the safety suite.
  std::vector<std::unique_ptr<Invariant>> suite;
  if (options.huntAdoptWitness) {
    suite.push_back(std::make_unique<AdoptWitnessInvariant>());
  } else {
    suite = safetySuite(options.requireTermination);
  }
  const std::vector<const Invariant*> invariants = view(suite);

  CheckerOptions checker;
  checker.threads = options.threads;
  checker.shrink = options.shrink;
  checker.maxFindings = options.maxFindings;
  checker.traceDir = options.traceDir;
  checker.progressEvery = options.progressEvery;

  // The registry stays disabled on plain sweeps (the 10k-seed check.sh path
  // must not pay telemetry costs); --json opts in. Counter/histogram updates
  // are commutative, so the snapshot is deterministic despite the worker
  // threads.
  if (!options.jsonPath.empty()) {
    obs::metrics().reset();
    obs::metrics().enable(true);
  }

  struct FamilyOutcome {
    std::string family;
    std::string strategy;
    std::size_t configsExplored = 0;
    std::vector<Finding> findings;
    SweepStats sweep;
  };
  std::vector<FamilyOutcome> outcomes;

  std::size_t totalFindings = 0;
  std::size_t totalExplored = 0;
  for (const std::string& familyName : presets) {
    const auto strategy = buildStrategy(familyName, options);
    if (!strategy) {
      std::cout << "== " << familyName
                << ": no applicable strategy, skipped\n";
      continue;
    }
    std::cout << "== " << familyName << ": exploring " << strategy->size()
              << " configurations (" << strategy->name() << ")\n";
    checker.onProgress = [&familyName](std::size_t explored,
                                       std::size_t total,
                                       std::size_t findings) {
      std::cerr << "   [" << familyName << "] " << explored << "/" << total
                << " configurations, " << findings << " finding(s)\n";
    };
    CheckReport report = explore(*strategy, invariants, checker);
    for (const Finding& finding : report.findings) printFinding(finding);
    std::cout << "   explored " << report.configsExplored
              << " configurations, " << report.findings.size()
              << " violation(s)";
    if (report.sweep.elapsedSeconds > 0.0) {
      std::cout << " [" << report.sweep.workers << " workers, "
                << static_cast<std::uint64_t>(report.sweep.configsPerSec)
                << " configs/s, " << report.sweep.steals << " steals]";
    }
    std::cout << "\n";
    totalFindings += report.findings.size();
    totalExplored += report.configsExplored;
    outcomes.push_back(FamilyOutcome{familyName, strategy->name(),
                                     report.configsExplored,
                                     std::move(report.findings),
                                     std::move(report.sweep)});
  }
  std::cout << (totalFindings == 0 ? "OK" : "FAIL") << ": "
            << totalExplored << " configurations, " << totalFindings
            << " violation(s)\n";

  if (!options.jsonPath.empty()) {
    obs::JsonWriter w;
    w.beginObject();
    w.key("schema").value("ooc.check.v1");
    w.key("families").beginArray();
    for (const FamilyOutcome& outcome : outcomes) {
      w.beginObject();
      w.key("family").value(outcome.family);
      w.key("strategy").value(outcome.strategy);
      w.key("configs_explored")
          .value(static_cast<std::uint64_t>(outcome.configsExplored));
      w.key("findings").beginArray();
      for (const Finding& finding : outcome.findings) {
        const Scenario& scenario =
            finding.shrunk ? *finding.shrunk : finding.scenario;
        w.beginObject();
        w.key("invariant").value(finding.violation.invariant);
        w.key("detail").value(finding.violation.detail);
        w.key("config").value(describe(scenario));
        w.key("run_id").value(compose::configRunId(serialize(scenario)));
        w.key("trace").value(finding.tracePath);
        w.endObject();
      }
      w.endArray();
      // Scheduler telemetry (shared schema, sweep::toJson). The only
      // wall-clock (and thus non-reproducible) section of ooc.check.v1 —
      // byte-diff consumers must strip the `sweep` objects first
      // (everything else is deterministic for a fixed configuration).
      w.key("sweep").raw(ooc::sweep::toJson(outcome.sweep));
      w.endObject();
    }
    w.endArray();
    w.key("total").beginObject();
    w.key("configs_explored").value(static_cast<std::uint64_t>(totalExplored));
    w.key("violations").value(static_cast<std::uint64_t>(totalFindings));
    w.endObject();
    w.key("metrics").raw(obs::metrics().toJson());
    w.endObject();

    std::ofstream out(options.jsonPath, std::ios::binary);
    if (!out) {
      std::cerr << "check: cannot write '" << options.jsonPath << "'\n";
      return 2;
    }
    out << w.str() << '\n';
  }
  return totalFindings == 0 ? 0 : 1;
}
