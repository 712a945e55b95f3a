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
// The E21 table is the engines' profile in ooc.bench.v1; the registry
// snapshot carries the svc_mean_commands_per_ktick and svc_blackout_ticks
// gauges at full precision.
#include <algorithm>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "obs/metrics.hpp"
#include "svc/run.hpp"
#include "util/stats.hpp"

namespace {

using ooc::Table;
using ooc::Tick;

struct EngineSpec {
  std::string label;     // table row and gauge label
  std::string engine;    // SvcConfig::engine
  std::string detector;  // compose only
  std::string driver;    // compose only
};

/// One engine's aggregated service profile across the trial seeds.
struct EngineProfile {
  std::uint64_t committedCmds = 0;
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
  ooc::bench::Bench bench(argc, argv, "svc");
  const bool quick = bench.quick();

  const std::vector<EngineSpec> specs = {
      {"raft", "raft", "", ""},
      {"paxos", "paxos", "", ""},
      {"benor-vac+lottery", "compose", "benor-vac", "lottery"},
  };
  const int throughputTrials = quick ? 3 : 10;
  const int blackoutTrials = quick ? 2 : 5;

  bench.banner(
      "E21: replicated-log service — composed engine vs Paxos vs Raft",
      "Same zipfian closed-loop workload (theta=0.99, 100000 clients), same\n"
      "n=5 cluster, window=4, batch<=4, durable journals. Every run is\n"
      "audited for prefix agreement and exactly-once commit.");

  std::vector<EngineProfile> profiles(specs.size());
  for (std::size_t e = 0; e < specs.size(); ++e) {
    const EngineSpec& spec = specs[e];
    EngineProfile& profile = profiles[e];

    // --- throughput pass (fault-free) ---
    // The first trial's election record seeds the blackout pass victim.
    ooc::ProcessId raftLeader = 0;
    Tick leaderAt = 0;
    const std::vector<ooc::svc::SvcResult> throughputResults =
        ooc::bench::runTrialsParallel(throughputTrials, [&](int trial) {
          ooc::svc::SvcConfig config = baseConfig(spec, quick);
          config.seed = 350000 + static_cast<std::uint64_t>(trial);
          return ooc::svc::runSvc(config);
        });
    for (int trial = 0; trial < throughputTrials; ++trial) {
      const ooc::svc::SvcResult& result =
          throughputResults[static_cast<std::size_t>(trial)];
      bench.require(result.prefixOk, spec.label + ": prefix agreement");
      bench.require(result.exactlyOnce, spec.label + ": exactly-once commit");
      bench.require(result.allApplied,
                    spec.label + ": full delivery (no faults)");
      bench.require(!result.hitCap, spec.label + ": run terminated");
      profile.committedCmds += result.commandsCommitted;
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
        ooc::bench::runTrialsParallel(blackoutTrials, [&](int trial) {
          ooc::svc::SvcConfig config = baseConfig(spec, quick);
          config.seed = 360000 + static_cast<std::uint64_t>(trial);
          ooc::compose::RestartEntry restart;
          restart.id = spec.engine == "raft" ? raftLeader : 0;
          restart.at = spec.engine == "raft" ? leaderAt + 120 : 120;
          restart.downtime = 150;
          config.restarts.push_back(restart);
          return ooc::svc::runSvc(config);
        });
    for (const ooc::svc::SvcResult& result : blackoutResults) {
      bench.require(result.prefixOk,
                    spec.label + ": prefix agreement (blackout)");
      bench.require(result.exactlyOnce,
                    spec.label + ": exactly-once commit (blackout)");
      bench.require(!result.hitCap,
                    spec.label + ": run terminated (blackout)");
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
  bench.emit(table);
  bench.note(
      "blackout = largest commit gap at a never-faulted node while the\n"
      "coordinator is down; the closed loop stalls with it, so it bounds\n"
      "client-visible unavailability.\n");
  return bench.finish();
}
