// E16 — state-machine replication from template instances (extension).
//
// Every decree of the replicated log is one run of the generic template
// (Ben-Or VAC + lottery reconciliator), hosted by the svc service at
// window 1 and batch 1: one command per decree, one decree at a time.
// Reported: decrees needed vs commands committed (no-op share), ticks per
// committed command, and scaling in n — the shape to compare against
// Raft's purpose-built log (bench_raft): generic objects cost more rounds
// per decree but need no leader, no terms and no log-repair machinery.
#include "bench/bench_common.hpp"
#include "svc/run.hpp"

using namespace ooc;
using namespace ooc::bench;

namespace {

/// Every node's commands are queued at tick 1; the run ends when the
/// drained cluster quiesces. The setup is spelled out rather than left to
/// SvcConfig's defaults, so the recorded E16 table cannot drift with them.
svc::SvcConfig logConfig(std::size_t n, std::uint64_t commandsPerNode,
                         std::uint64_t seed) {
  svc::SvcConfig config;
  config.detector = "benor-vac";
  config.driver = "lottery";
  config.n = n;
  config.seed = seed;
  config.minDelay = 1;
  config.maxDelay = 8;
  config.maxTicks = 5'000'000;
  config.service.window = 1;
  config.service.batchMax = 1;
  config.workload.clients = 100000;
  config.workload.commandsPerNode = commandsPerNode;
  config.workload.closedLoop = true;
  config.workload.startSpread = 1;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, "replicated_log");
  const int kRuns = bench.trials(15);

  bench.banner("E16: replicated log from template instances (Ben-Or VAC + "
               "lottery, one consensus per decree)",
               "All logs prefix-agree, every command committed exactly once; "
               "'no-op share' counts decrees won by drained proposers.");
  Table table({"n", "cmds total", "mean decrees", "no-op share %",
               "ticks/cmd", "msgs/cmd", "all consistent"});
  struct Case {
    std::size_t n, commandsPerNode;
  };
  for (const Case c : {Case{3, 4}, Case{5, 4}, Case{5, 10}, Case{9, 4}}) {
    const auto results = runTrialsParallel(kRuns, [&c](int run) {
      return svc::runSvc(logConfig(c.n, c.commandsPerNode,
                                   250'000 + static_cast<std::uint64_t>(run)));
    });
    Summary decrees, ticksPer, messagesPer;
    bool consistent = true;
    const double total = static_cast<double>(c.n * c.commandsPerNode);
    for (const svc::SvcResult& result : results) {
      bench.require(result.allApplied && !result.hitCap, "log completeness");
      const bool ok = result.prefixOk && result.exactlyOnce;
      bench.require(ok, "log consistency");
      consistent = consistent && ok;
      decrees.add(static_cast<double>(result.decreesCommitted));
      ticksPer.add(static_cast<double>(result.lastCommitTick) / total);
      messagesPer.add(static_cast<double>(result.messagesByCorrect) / total);
    }
    table.addRow({Table::cell(std::uint64_t{c.n}), Table::cell(total, 0),
                  Table::cell(decrees.mean(), 1),
                  Table::cell(100.0 * (decrees.mean() - total) /
                                  decrees.mean(),
                              1),
                  Table::cell(ticksPer.mean(), 1),
                  Table::cell(messagesPer.mean(), 0),
                  consistent ? "yes" : "NO"});
  }
  bench.emit(table);
  std::printf("comparison point: bench_raft's purpose-built log commits a "
              "command in ~1 round trip once a leader exists; the generic "
              "object log pays per-decree consensus instead of electing — no "
              "leader, no terms, no repair machinery.\n");
  return bench.finish();
}
