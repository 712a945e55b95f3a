// E21: the multi-decree replicated-log service under client traffic.
//
// Claim: a registry-admissible composed engine (benor-vac x lottery) can
// power a pipelined, batching replicated log end to end, and the harness
// can put a NUMBER on what that costs relative to per-decree Paxos and
// native multi-decree Raft — same deterministic zipfian closed-loop
// workload, same cluster, same safety audits (prefix agreement,
// exactly-once commit) on every run.
//
// Two passes per engine:
//
//  * throughput pass (fault-free): committed commands per kilotick, p50/p99
//    decide latency, mean batch size, messages per committed command, and
//    the no-op overhead ratio;
//  * blackout pass: crash-restart the coordinator mid-run (the first
//    elected leader for Raft — found from the throughput pass's election
//    record — node 0 otherwise) and report the largest commit gap at a
//    never-faulted node: the service-level failover blackout.
//
// Unlike the single-shot benches this one writes its own JSON schema
// ("ooc.svc.v1", documented in EXPERIMENTS.md): the unit of result is an
// engine's service profile, not a consensus cell.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_id.hpp"
#include "svc/run.hpp"
#include "sweep/scheduler.hpp"
#include "util/stats.hpp"

namespace {

using ooc::Table;
using ooc::Tick;

struct EngineSpec {
  std::string label;     // row / JSON / metric label
  std::string engine;    // SvcConfig::engine
  std::string detector;  // compose only
  std::string driver;    // compose only
};

/// One engine's aggregated service profile across the trial seeds.
struct EngineProfile {
  int trials = 0;
  std::uint64_t committedCmds = 0;
  std::uint64_t emittedCmds = 0;
  std::uint64_t noopDecrees = 0;
  std::uint64_t decrees = 0;
  std::uint64_t messages = 0;
  ooc::Summary cmdsPerKtick;
  std::vector<Tick> latencies;  // pooled across trials and nodes
  ooc::Summary batchSize;
  ooc::Summary blackout;  // faulted pass: max commit gap (ticks)
};

ooc::svc::SvcConfig baseConfig(const EngineSpec& spec, bool quick) {
  ooc::svc::SvcConfig config;
  config.engine = spec.engine;
  config.detector = spec.detector;
  config.driver = spec.driver;
  config.n = 5;
  config.minDelay = 1;
  config.maxDelay = 6;
  config.service.window = 4;
  config.service.batchMax = 4;
  config.service.durable = true;
  config.workload.clients = 100000;
  config.workload.commandsPerNode = quick ? 16 : 48;
  config.workload.closedLoop = true;
  config.workload.thinkMin = 5;
  config.workload.thinkMax = 40;
  config.workload.startSpread = 32;
  config.workload.zipfTheta = 0.99;
  return config;
}

double percentileTicks(std::vector<Tick>& pooled, double q) {
  if (pooled.empty()) return 0.0;
  std::sort(pooled.begin(), pooled.end());
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(pooled.size() - 1) + 0.5);
  return static_cast<double>(pooled[std::min(rank, pooled.size() - 1)]);
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string jsonPath;
  std::size_t threads = 0;  // sweep workers for the trial fan-out; 0 = hw
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--json" && i + 1 < argc) {
      jsonPath = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      threads =
          static_cast<std::size_t>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: bench_svc [--quick] [--threads N] [--json PATH]\n"
                  "  --quick      reduced trial counts (CI smoke mode)\n"
                  "  --threads N  worker threads for the trial sweep "
                  "(0 = hardware);\n"
                  "               results are byte-identical at any value\n"
                  "  --json PATH  write machine-readable results "
                  "(schema ooc.svc.v1)\n");
      return 0;
    } else {
      std::fprintf(stderr, "bench_svc: unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }
  ooc::obs::metrics().reset();
  ooc::obs::metrics().enable(true);

  // Trial fan-out: each pass builds its configs up front, runs them through
  // the experiment scheduler into a trial-indexed vector, and folds the
  // results sequentially in trial order — so every number below (and the
  // ooc.svc.v1 JSON, quarantined `sweep` block aside) is byte-identical at
  // any --threads value.
  ooc::sweep::SweepAccumulator sweepTelemetry;
  const auto runTrials = [&](int trials, const auto& makeConfig) {
    std::vector<ooc::svc::SvcResult> results(
        static_cast<std::size_t>(trials));
    ooc::sweep::Options pool;
    pool.threads = threads;
    sweepTelemetry.add(ooc::sweep::parallelFor(
        results.size(),
        [&](std::size_t index, ooc::sweep::Control&) {
          results[index] =
              ooc::svc::runSvc(makeConfig(static_cast<int>(index)));
        },
        pool));
    return results;
  };

  int failures = 0;
  std::map<std::string, int> violations;
  const auto require = [&](bool ok, const std::string& what) {
    if (ok) return;
    ++failures;
    ++violations[what];
    std::printf("!! property violation: %s\n", what.c_str());
  };

  const std::vector<EngineSpec> specs = {
      {"raft", "raft", "", ""},
      {"paxos", "paxos", "", ""},
      {"benor-vac+lottery", "compose", "benor-vac", "lottery"},
  };
  const int throughputTrials = quick ? 3 : 10;
  const int blackoutTrials = quick ? 2 : 5;

  std::printf(
      "=== E21: replicated-log service — composed engine vs Paxos vs Raft "
      "===\n"
      "Same zipfian closed-loop workload (theta=0.99, %d clients), same\n"
      "n=5 cluster, window=4, batch<=4, durable journals. Every run is\n"
      "audited for prefix agreement and exactly-once commit.\n\n",
      100000);

  std::vector<EngineProfile> profiles(specs.size());
  for (std::size_t e = 0; e < specs.size(); ++e) {
    const EngineSpec& spec = specs[e];
    EngineProfile& profile = profiles[e];
    profile.trials = throughputTrials;

    // --- throughput pass (fault-free) ---
    // The first trial's election record seeds the blackout pass victim.
    ooc::ProcessId raftLeader = 0;
    Tick leaderAt = 0;
    const std::vector<ooc::svc::SvcResult> throughputResults =
        runTrials(throughputTrials, [&](int trial) {
          ooc::svc::SvcConfig config = baseConfig(spec, quick);
          config.seed = 350000 + static_cast<std::uint64_t>(trial);
          return config;
        });
    for (int trial = 0; trial < throughputTrials; ++trial) {
      const ooc::svc::SvcResult& result =
          throughputResults[static_cast<std::size_t>(trial)];
      require(result.prefixOk, spec.label + ": prefix agreement");
      require(result.exactlyOnce, spec.label + ": exactly-once commit");
      require(result.allApplied, spec.label + ": full delivery (no faults)");
      require(!result.hitCap, spec.label + ": run terminated");
      profile.committedCmds += result.commandsCommitted;
      profile.emittedCmds += result.commandsEmitted;
      profile.noopDecrees += result.noopDecrees;
      profile.decrees += result.decreesCommitted;
      profile.messages += result.messagesByCorrect;
      profile.cmdsPerKtick.add(result.commandsPerKtick);
      profile.latencies.insert(profile.latencies.end(),
                               result.latencies.begin(),
                               result.latencies.end());
      for (std::uint32_t b : result.batchSizes)
        profile.batchSize.add(static_cast<double>(b));
      if (trial == 0 && !result.leaderEvents.empty()) {
        leaderAt = result.leaderEvents.front().first;
        raftLeader = result.leaderEvents.front().second;
      }
    }

    // --- blackout pass (coordinator crash-restart mid-run) ---
    // Raft loses its elected leader; the leaderless engines lose node 0
    // (every node coordinates its own batches, so any victim works).
    const std::vector<ooc::svc::SvcResult> blackoutResults =
        runTrials(blackoutTrials, [&](int trial) {
          ooc::svc::SvcConfig config = baseConfig(spec, quick);
          config.seed = 360000 + static_cast<std::uint64_t>(trial);
          ooc::compose::RestartEntry restart;
          restart.id = spec.engine == "raft" ? raftLeader : 0;
          restart.at = spec.engine == "raft" ? leaderAt + 120 : 120;
          restart.downtime = 150;
          config.restarts.push_back(restart);
          return config;
        });
    for (int trial = 0; trial < blackoutTrials; ++trial) {
      const ooc::svc::SvcResult& result =
          blackoutResults[static_cast<std::size_t>(trial)];
      require(result.prefixOk, spec.label + ": prefix agreement (blackout)");
      require(result.exactlyOnce,
              spec.label + ": exactly-once commit (blackout)");
      require(!result.hitCap, spec.label + ": run terminated (blackout)");
      profile.blackout.add(static_cast<double>(result.maxCommitGap));
    }

    ooc::obs::metrics().setGauge("svc_mean_commands_per_ktick",
                                 profile.cmdsPerKtick.mean(),
                                 {{"engine", spec.label}});
    ooc::obs::metrics().setGauge("svc_blackout_ticks",
                                 profile.blackout.mean(),
                                 {{"engine", spec.label}});
  }

  Table table({"engine", "cmds", "cmds/ktick", "p50(ticks)", "p99(ticks)",
               "batch", "msgs/cmd", "noop%", "blackout(ticks)"});
  for (std::size_t e = 0; e < specs.size(); ++e) {
    EngineProfile& p = profiles[e];
    const double msgsPerCmd =
        p.committedCmds == 0
            ? 0.0
            : static_cast<double>(p.messages) /
                  static_cast<double>(p.committedCmds);
    const double noopPct =
        p.decrees + p.noopDecrees == 0
            ? 0.0
            : 100.0 * static_cast<double>(p.noopDecrees) /
                  static_cast<double>(p.decrees + p.noopDecrees);
    table.addRow({specs[e].label, Table::cell(p.committedCmds),
                  Table::cell(p.cmdsPerKtick.mean()),
                  Table::cell(percentileTicks(p.latencies, 0.50)),
                  Table::cell(percentileTicks(p.latencies, 0.99)),
                  Table::cell(p.batchSize.mean()), Table::cell(msgsPerCmd),
                  Table::cell(noopPct, 1), Table::cell(p.blackout.mean())});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "blackout = largest commit gap at a never-faulted node while the\n"
      "coordinator is down; the closed loop stalls with it, so it bounds\n"
      "client-visible unavailability.\n\n");

  if (failures > 0)
    std::printf("\n%d correctness violations — INVESTIGATE\n", failures);

  if (!jsonPath.empty()) {
    ooc::obs::JsonWriter w;
    w.beginObject();
    w.key("schema").value("ooc.svc.v1");
    w.key("bench").value("svc");
    w.key("run_id").value(
        ooc::obs::runId(std::string("svc") + (quick ? "\x1f/quick"
                                                    : "\x1f/full")));
    w.key("quick").value(quick);

    w.key("verdict").beginObject();
    w.key("failures").value(failures);
    w.key("violations").beginArray();
    for (const auto& [what, count] : violations) {
      w.beginObject();
      w.key("what").value(what);
      w.key("count").value(static_cast<std::uint64_t>(count));
      w.endObject();
    }
    w.endArray();
    w.endObject();

    const ooc::svc::SvcConfig shape = baseConfig(specs.front(), quick);
    w.key("workload").beginObject();
    w.key("clients").value(shape.workload.clients);
    w.key("commands_per_node").value(shape.workload.commandsPerNode);
    w.key("zipf_theta").value(shape.workload.zipfTheta);
    w.key("closed_loop").value(shape.workload.closedLoop);
    w.key("think_min").value(static_cast<std::uint64_t>(
        shape.workload.thinkMin));
    w.key("think_max").value(static_cast<std::uint64_t>(
        shape.workload.thinkMax));
    w.key("n").value(static_cast<std::uint64_t>(shape.n));
    w.key("window").value(shape.service.window);
    w.key("batch_max").value(static_cast<std::uint64_t>(
        shape.service.batchMax));
    w.endObject();

    w.key("engines").beginArray();
    for (std::size_t e = 0; e < specs.size(); ++e) {
      EngineProfile& p = profiles[e];
      w.beginObject();
      w.key("engine").value(specs[e].label);
      w.key("detector").value(specs[e].detector);
      w.key("driver").value(specs[e].driver);
      w.key("trials").value(static_cast<std::uint64_t>(p.trials));
      w.key("committed_cmds").value(p.committedCmds);
      w.key("committed_cmds_per_ktick").value(p.cmdsPerKtick.mean());
      w.key("noop_ratio").value(
          p.decrees + p.noopDecrees == 0
              ? 0.0
              : static_cast<double>(p.noopDecrees) /
                    static_cast<double>(p.decrees + p.noopDecrees));
      w.key("p50_decide_ticks").value(percentileTicks(p.latencies, 0.50));
      w.key("p99_decide_ticks").value(percentileTicks(p.latencies, 0.99));
      w.key("mean_batch_size").value(p.batchSize.mean());
      w.key("msgs_per_cmd").value(
          p.committedCmds == 0
              ? 0.0
              : static_cast<double>(p.messages) /
                    static_cast<double>(p.committedCmds));
      w.key("blackout_ticks").value(p.blackout.mean());
      w.endObject();
    }
    w.endArray();

    w.key("metrics").raw(ooc::obs::metrics().toJson());
    // Scheduler telemetry (wall-clock + thread-dependent shape): the one
    // non-reproducible block of ooc.svc.v1 — byte-diff consumers strip
    // `sweep` first.
    if (!sweepTelemetry.empty())
      w.key("sweep").raw(ooc::sweep::toJson(sweepTelemetry));
    w.endObject();

    std::ofstream out(jsonPath, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "bench_svc: cannot write '%s'\n",
                   jsonPath.c_str());
      return 2;
    }
    out << w.str() << '\n';
  }

  return failures > 0 ? 1 : 0;
}
