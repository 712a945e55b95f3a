#include "check/replay.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "compose/kv.hpp"

namespace ooc::check {
namespace {

/// End-of-run counters, derived identically on record and replay so the
/// two traces compare equal exactly when the runs match.
void fillCounters(Trace& trace, const RunReport& report) {
  trace.messagesSent = report.messages;
  trace.messagesDelivered = 0;
  trace.eventsProcessed = 0;
  trace.endTick = 0;
  for (const TraceEvent& event : trace.events) {
    if (event.kind == TraceEvent::Kind::kDeliver) ++trace.messagesDelivered;
    if (event.kind != TraceEvent::Kind::kDecision) ++trace.eventsProcessed;
    trace.endTick = event.at;
  }
}

}  // namespace

RecordedRun recordRun(const Scenario& scenario) {
  TraceRecorder recorder;
  compose::RunHooks hooks;
  hooks.observer = &recorder;
  RecordedRun run;
  run.report = runScenario(scenario, hooks);
  run.trace = std::move(recorder.trace());
  fillCounters(run.trace, run.report);
  return run;
}

ReplayResult replayRun(const Scenario& scenario, const Trace& expected) {
  TraceVerifier verifier(expected);
  compose::RunHooks hooks;
  hooks.observer = &verifier;
  ReplayResult result;
  result.report = runScenario(scenario, hooks);
  result.identical = verifier.ok();
  if (!result.identical) {
    if (verifier.divergence()) {
      result.divergence = verifier.divergence();
    } else {
      std::ostringstream os;
      os << "replay executed " << verifier.position() << " of "
         << expected.events.size() << " recorded events";
      result.divergence = os.str();
    }
  }
  return result;
}

std::string serializeCounterexample(const CounterexampleFile& file) {
  const std::string section = serialize(file.scenario);
  std::ostringstream os;
  os << "ooc-counterexample v1\n";
  os << "runid="
     << (file.runId.empty() ? compose::configRunId(section) : file.runId)
     << "\n";
  os << "invariant=" << file.invariant << "\n";
  os << "detail=" << file.detail << "\n";
  os << "scenario\n";
  os << section;
  os << "trace\n";
  serializeTrace(file.trace, os);
  return os.str();
}

CounterexampleFile parseCounterexample(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "ooc-counterexample v1")
    throw std::runtime_error("counterexample: bad header '" + line + "'");

  CounterexampleFile file;
  const auto field = [&](const char* key) {
    const std::string prefix = std::string(key) + "=";
    if (!std::getline(in, line) || line.rfind(prefix, 0) != 0)
      throw std::runtime_error(std::string("counterexample: expected ") +
                               key + "= line");
    return line.substr(prefix.size());
  };
  // runid= is optional: files written before the field existed omit it.
  if (!std::getline(in, line))
    throw std::runtime_error("counterexample: truncated after header");
  if (line.rfind("runid=", 0) == 0) {
    file.runId = line.substr(6);
    file.invariant = field("invariant");
  } else if (line.rfind("invariant=", 0) == 0) {
    file.invariant = line.substr(10);
  } else {
    throw std::runtime_error("counterexample: expected invariant= line");
  }
  file.detail = field("detail");

  if (!std::getline(in, line) || line != "scenario")
    throw std::runtime_error("counterexample: expected scenario section");
  std::string section;
  bool sawTrace = false;
  while (std::getline(in, line)) {
    if (line == "trace") {
      sawTrace = true;
      break;
    }
    section += line;
    section += '\n';
  }
  if (!sawTrace)
    throw std::runtime_error("counterexample: missing trace section");
  file.scenario = parseScenario(section);
  if (file.runId.empty()) file.runId = compose::configRunId(section);
  file.trace = parseTrace(in);
  return file;
}

void writeCounterexampleFile(const CounterexampleFile& file,
                             const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open '" + path + "' for write");
  out << serializeCounterexample(file);
  if (!out) throw std::runtime_error("write to '" + path + "' failed");
}

CounterexampleFile loadCounterexampleFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parseCounterexample(buffer.str());
}

}  // namespace ooc::check
