// `ooc` — one CLI over recorded runs.
//
// Every subcommand starts from a counterexample/golden file (written by
// `check`, `compose --trace-out` or `golden_gen`) and re-executes its
// scenario — runs are pure functions of configuration + seed — verifying
// the re-execution bit-identical to the recorded trace:
//
//   ooc timeline FILE [--no-deliveries] [--no-timers] [--max-events N]
//                                   # annotated per-process timeline:
//                                   # detector confidence transitions,
//                                   # driver values and decisions merged
//                                   # into the schedule
//   ooc explain FILE [--out PATH]   # decision provenance (ooc.explain.v1):
//                                   # the minimal message chain behind each
//                                   # decision, with annotations on it
//   ooc ctrace FILE [--out PATH]    # the causal event DAG as ooc.ctrace.v1
//   ooc perfetto FILE [--out PATH]  # Chrome trace_event JSON for
//                                   # ui.perfetto.dev
//   ooc audit FILE...               # check causal invariants: edges point
//                                   # backward, vector clocks follow the
//                                   # max-of-parents-plus-one rule, every
//                                   # decision is reachable from a start
//
// The timeline reports a divergent re-execution in its header and still
// renders; the other subcommands refuse it.
//
// Exit status: 0 ok, 1 audit violation or replay divergence, 2 usage or
// parse failure.
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "check/causal_run.hpp"
#include "check/replay.hpp"
#include "check/timeline.hpp"
#include "cli_args.hpp"
#include "obs/causal/causal.hpp"
#include "obs/causal/perfetto.hpp"
#include "obs/causal/provenance.hpp"

namespace {

using namespace ooc;
using namespace ooc::check;

void printUsage(std::ostream& os) {
  os << "usage: ooc COMMAND ...\n"
        "  ooc timeline FILE [--no-deliveries] [--no-timers] "
        "[--max-events N]\n"
        "                                  annotated per-process timeline "
        "(N: scheduler\n"
        "                                  events per process, "
        "0 = unlimited)\n"
        "  ooc explain FILE [--out PATH]   decision provenance "
        "(ooc.explain.v1)\n"
        "  ooc ctrace FILE [--out PATH]    causal event DAG (ooc.ctrace.v1)\n"
        "  ooc perfetto FILE [--out PATH]  Chrome trace_event JSON "
        "(ui.perfetto.dev)\n"
        "  ooc audit FILE...               verify causal invariants\n"
        "  FILE is a counterexample/golden trace written by check,\n"
        "  compose --trace-out or golden_gen.\n";
}

int writeOrPrint(const std::string& document, const std::string& outPath) {
  if (outPath.empty()) {
    std::cout << document << '\n';
    return 0;
  }
  std::ofstream out(outPath, std::ios::binary);
  if (!out) {
    std::cerr << "ooc: cannot write '" << outPath << "'\n";
    return 2;
  }
  out << document << '\n';
  return 0;
}

/// Splits a subcommand's arguments into its one FILE and its flags: each
/// flag in `valued` stores the argument after it, each in `flags` sets its
/// bool. Returns 0 with `path` filled in, or 2 after printing the usage
/// error.
int parseFileArgs(
    const std::string& command, const std::vector<std::string>& args,
    const std::vector<std::pair<std::string, std::string*>>& valued,
    const std::vector<std::pair<std::string, bool*>>& flags,
    std::string& path) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    bool matched = false;
    for (const auto& [flag, value] : valued) {
      if (arg != flag) continue;
      if (i + 1 >= args.size()) {
        std::cerr << "ooc: " << flag << " needs a value\n";
        return 2;
      }
      *value = args[++i];
      matched = true;
    }
    for (const auto& [flag, set] : flags) {
      if (arg != flag) continue;
      *set = true;
      matched = true;
    }
    if (matched) continue;
    if (!arg.empty() && arg[0] == '-') {
      std::cerr << "ooc: unknown option '" << arg << "'\n";
      return 2;
    }
    if (!path.empty()) {
      std::cerr << "ooc: only one FILE\n";
      return 2;
    }
    path = arg;
  }
  if (path.empty()) {
    std::cerr << "ooc: " << command << " needs a FILE\n";
    return 2;
  }
  return 0;
}

int runTimeline(const std::vector<std::string>& args) {
  std::string path;
  std::string maxEvents;
  bool hideDeliveries = false;
  bool hideTimers = false;
  if (const int status = parseFileArgs(
          "timeline", args, {{"--max-events", &maxEvents}},
          {{"--no-deliveries", &hideDeliveries}, {"--no-timers", &hideTimers}},
          path))
    return status;
  TimelineOptions options;
  options.showDeliveries = !hideDeliveries;
  options.showTimers = !hideTimers;
  if (!maxEvents.empty()) {
    const auto parsed = cli::parseNumber(maxEvents);
    if (!parsed) {
      std::cerr << "ooc: --max-events needs a number, got '" << maxEvents
                << "'\n";
      return 2;
    }
    options.maxEventsPerProcess = static_cast<std::size_t>(*parsed);
  }
  try {
    std::cout << renderTimeline(loadCounterexampleFile(path), options);
  } catch (const std::exception& error) {
    std::cerr << "ooc: " << error.what() << "\n";
    return 2;
  }
  return 0;
}

/// explain, ctrace and perfetto share everything but the serializer.
int runExport(const std::string& command, const std::vector<std::string>& args) {
  std::string path;
  std::string outPath;
  if (const int status =
          parseFileArgs(command, args, {{"--out", &outPath}}, {}, path))
    return status;

  CounterexampleFile file;
  CausalRun run;
  try {
    file = loadCounterexampleFile(path);
    run = collectCausalRun(file.scenario, &file.trace);
  } catch (const std::exception& error) {
    std::cerr << "ooc: " << error.what() << "\n";
    return 2;
  }
  if (!run.replayIdentical) {
    std::cerr << "ooc: re-execution DIVERGED from the recorded trace\n";
    if (run.divergence) std::cerr << "  " << *run.divergence << "\n";
    return 1;
  }
  const causal::TraceMeta meta = causalMeta(file);
  const std::string document =
      command == "explain"  ? causal::explainJson(run.trace, meta)
      : command == "ctrace" ? causal::toCtraceJson(run.trace, meta)
                            : causal::toPerfettoJson(run.trace, meta);
  return writeOrPrint(document, outPath);
}

int runAudit(const std::vector<std::string>& args) {
  if (args.empty()) {
    std::cerr << "ooc: audit needs at least one FILE\n";
    return 2;
  }
  bool allOk = true;
  for (const std::string& path : args) {
    CounterexampleFile file;
    try {
      file = loadCounterexampleFile(path);
    } catch (const std::exception& error) {
      std::cerr << "ooc: " << error.what() << "\n";
      return 2;
    }
    const CausalRun run = collectCausalRun(file.scenario, &file.trace);
    if (!run.replayIdentical) {
      allOk = false;
      std::cout << path << ": REPLAY DIVERGED\n";
      if (run.divergence) std::cout << "  " << *run.divergence << "\n";
      continue;
    }
    const causal::CausalAudit audit = causal::audit(run.trace);
    if (audit.ok()) {
      std::cout << path << ": ok (" << run.trace.nodes.size() << " events, "
                << run.trace.annotations.size() << " annotations, "
                << audit.decisions << " decisions)\n";
    } else {
      allOk = false;
      std::cout << path << ": AUDIT FAILED\n";
      for (const std::string& problem : audit.problems)
        std::cout << "  " << problem << "\n";
    }
  }
  return allOk ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    printUsage(std::cerr);
    return 2;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    printUsage(std::cout);
    return 0;
  }
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "timeline") return runTimeline(args);
  if (command == "explain" || command == "ctrace" || command == "perfetto")
    return runExport(command, args);
  if (command == "audit") return runAudit(args);
  std::cerr << "ooc: unknown command '" << command << "'\n";
  printUsage(std::cerr);
  return 2;
}
