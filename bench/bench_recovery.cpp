// E18 — Crash-recovery durability: restart faults against the simulated
// stable-storage subsystem (src/store/).
//
// Claims: (a) with a journal and the sync-before-reply discipline, Raft and
// Paxos survive crash-restart faults with no vote amnesia, no
// committed-entry regression and no agreement violation; (b) dropping the
// sync discipline (crash-before-sync) or the journal entirely makes both
// durability violations observable, at a rate that grows with the restart
// count; (c) the write-ahead log's recovery path detects torn tails and
// CRC-corrupted records deterministically and truncates to the clean
// prefix. The checker's restart strategy hunts (b) systematically; this
// bench measures the rates.
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "harness/scenarios.hpp"
#include "obs/metrics.hpp"
#include "paxos/paxos_node.hpp"
#include "sim/simulator.hpp"
#include "store/wal.hpp"
#include "util/rng.hpp"

using namespace ooc;
using namespace ooc::bench;
using harness::RaftScenarioConfig;

namespace {

// The three durability disciplines the sweep contrasts.
struct Discipline {
  const char* label;
  bool durable;
  bool syncBeforeReply;
  bool sound;  // violations are a bench failure only for sound disciplines
};

constexpr Discipline kDisciplines[] = {
    {"durable+sync", true, true, true},
    {"durable+nosync", true, false, false},
    {"volatile", false, true, false},
};

RaftScenarioConfig recoveryConfig(std::size_t restarts, std::uint64_t seed,
                                  const Discipline& d) {
  RaftScenarioConfig config;
  config.n = 5;
  config.seed = seed;
  // Loss keeps elections contested, so restarts land in live terms.
  config.dropProbability = 0.1;
  config.raft.durable = d.durable;
  config.raft.syncBeforeReply = d.syncBeforeReply;
  // Restarts are packed into the first-election window (timeouts fire in
  // [150, 300]) with short downtimes, so recovery races live vote grants —
  // the regime where a stale journal can act before the term moves on.
  for (std::size_t i = 0; i < restarts; ++i) {
    compose::RestartEntry event;
    event.id = static_cast<ProcessId>(i % config.n);
    event.at = 155 + 35 * static_cast<Tick>(i);
    event.downtime = 5;
    config.restarts.push_back(event);
  }
  config.maxTicks = 400'000;
  return config;
}

struct PaxosRecoveryOutcome {
  bool decided = false;
  bool agreementOk = true;
  std::uint64_t recoveries = 0;
  Tick lastDecision = 0;
};

PaxosRecoveryOutcome runPaxosRecovery(std::size_t n, std::uint64_t seed,
                                      std::size_t restarts,
                                      const Discipline& d) {
  SimConfig simConfig;
  simConfig.seed = seed;
  simConfig.maxTicks = 2'000'000;
  UniformDelayNetwork::Options net;
  net.minDelay = 1;
  net.maxDelay = 5;
  net.dropProbability = 0.1;
  Simulator sim(simConfig, std::make_unique<UniformDelayNetwork>(net));
  paxos::PaxosConfig config;
  config.durable = d.durable;
  config.syncBeforeReply = d.syncBeforeReply;
  std::vector<paxos::PaxosNode*> nodes;
  std::vector<Value> inputs;
  for (ProcessId id = 0; id < n; ++id) {
    inputs.push_back(static_cast<Value>(id));
    auto node = std::make_unique<paxos::PaxosNode>(inputs.back(), config);
    nodes.push_back(node.get());
    sim.addProcess(std::move(node));
  }
  sim.setValidValues(inputs);
  // Paxos decides fast (first ballots land within ~150 ticks), so the
  // restarts must hit the opening Prepare/Accept exchanges to matter.
  for (std::size_t i = 0; i < restarts; ++i)
    sim.restartAt(static_cast<ProcessId>(i % n), 40 + 35 * i, 15);
  sim.stopWhenAllCorrectDecided();
  sim.run();

  PaxosRecoveryOutcome outcome;
  outcome.decided = sim.allCorrectDecided();
  outcome.agreementOk = !sim.agreementViolated();
  for (ProcessId id = 0; id < n; ++id) {
    outcome.recoveries += nodes[id]->recoveries();
    outcome.lastDecision = std::max(outcome.lastDecision,
                                    sim.decision(id).at);
    // Committed-value regression across incarnations (the simulator's
    // online monitor only sees one incarnation's first decision).
    const auto& history = nodes[id]->decisionHistory();
    for (const Value v : history)
      if (v != history.front()) outcome.agreementOk = false;
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, "recovery");
  const int kRuns = bench.trials(40);

  bench.banner(
      "E18a: Raft restart count x sync discipline (n = 5, drop 0.1)",
      "sync-before-reply journaling survives restarts cleanly; dropping the "
      "sync (or the journal) makes vote amnesia observable at a rate "
      "growing with restart count (committed-entry regression needs deeper "
      "schedules than this sweep; the checker's restart strategy hunts "
      "both).");
  {
    Table table({"discipline", "restarts", "decided %", "agreement ok %",
                 "amnesia %", "regression %", "mean recoveries",
                 "mean records recovered"});
    for (const Discipline& d : kDisciplines) {
      for (const std::size_t restarts : {0u, 1u, 2u, 4u}) {
        int decided = 0, agreementOk = 0, amnesia = 0, regression = 0;
        Summary recoveries, recovered;
        for (int run = 0; run < kRuns; ++run) {
          const auto config = recoveryConfig(
              restarts, 180'000 + static_cast<std::uint64_t>(run), d);
          const auto result = runRaft(config);
          if (result.allDecided) ++decided;
          if (!result.agreementViolated) ++agreementOk;
          if (result.voteAmnesia) ++amnesia;
          if (result.commitRegression) ++regression;
          recoveries.add(static_cast<double>(result.recoveries));
          recovered.add(static_cast<double>(result.recoveredRecords));
          if (d.sound) {
            bench.require(!result.voteAmnesia,
                          "no vote amnesia under sync-before-reply");
            bench.require(!result.commitRegression,
                          "no commit regression under sync-before-reply");
            bench.require(!result.agreementViolated,
                          "raft agreement under restarts");
          }
        }
        table.addRow({d.label, Table::cell(std::uint64_t{restarts}),
                      Table::cell(100.0 * decided / kRuns, 1),
                      Table::cell(100.0 * agreementOk / kRuns, 1),
                      Table::cell(100.0 * amnesia / kRuns, 1),
                      Table::cell(100.0 * regression / kRuns, 1),
                      Table::cell(recoveries.mean(), 2),
                      Table::cell(recovered.mean(), 1)});
      }
    }
    bench.emit(table);
    bench.note(
        "The unsound rows are the experiment, not a failure: they quantify "
        "how often crash-before-sync resurrects a stale journal. The "
        "checker finds and shrinks individual schedules: "
        "check --family raft --strategy restart --crash-before-sync.");
  }

  bench.banner(
      "E18b: write-ahead log fault injection (direct, no simulator)",
      "recover() truncates at the first torn or corrupt record: everything "
      "synced before the crash and not hit by corruption survives; nothing "
      "past the damage is ever returned.");
  {
    const int kWalTrials = bench.trials(400);
    // A torn tail may flush complete unsynced records, so "recovered" can
    // legitimately exceed the 8 synced ones — the sync() barrier is a
    // durability floor, not a ceiling.
    Table table({"torn prob", "corrupt prob", "mean recovered (8 synced)",
                 "torn tails %", "corrupt %", "mean bytes discarded"});
    struct FaultCase {
      double torn, corrupt;
    };
    for (const FaultCase fc :
         {FaultCase{0.0, 0.0}, FaultCase{1.0, 0.0}, FaultCase{0.0, 1.0},
          FaultCase{0.5, 0.2}}) {
      Summary recoveredRecords, discarded;
      int tornSeen = 0, corruptSeen = 0;
      for (int trial = 0; trial < kWalTrials; ++trial) {
        store::FaultConfig faults;
        faults.tornTailProbability = fc.torn;
        faults.corruptProbability = fc.corrupt;
        store::WriteAheadLog wal(faults);
        Rng rng(9'000 + static_cast<std::uint64_t>(trial));
        // Eight synced records, then four unsynced ones that the crash
        // must discard (modulo a torn prefix).
        for (std::uint64_t i = 0; i < 8; ++i) {
          wal.append({i, i * i, 42});
          wal.sync();
        }
        for (std::uint64_t i = 0; i < 4; ++i) wal.append({100 + i});
        wal.crash(rng);
        store::RecoveryReport report;
        const auto records = wal.recover(&report);
        bench.require(records.size() == report.recordsRecovered,
                      "recovery report counts the returned records");
        bench.require(report.recordsRecovered <= 12,
                      "recovery never invents records");
        if (fc.torn == 0.0 && fc.corrupt == 0.0) {
          bench.require(report.recordsRecovered == 8,
                        "fault-free recovery returns exactly the synced "
                        "prefix");
        }
        for (std::size_t i = 0;
             i < records.size() && i < 8; ++i) {
          bench.require(records[i].size() == 3 && records[i][2] == 42,
                        "recovered records are bit-exact");
        }
        recoveredRecords.add(static_cast<double>(report.recordsRecovered));
        discarded.add(static_cast<double>(report.bytesDiscarded));
        if (report.tornTail) ++tornSeen;
        if (report.corruptRecords > 0) ++corruptSeen;
      }
      table.addRow({Table::cell(fc.torn, 1), Table::cell(fc.corrupt, 1),
                    Table::cell(recoveredRecords.mean(), 2),
                    Table::cell(100.0 * tornSeen / kWalTrials, 1),
                    Table::cell(100.0 * corruptSeen / kWalTrials, 1),
                    Table::cell(discarded.mean(), 1)});
    }
    bench.emit(table);
  }

  bench.banner(
      "E18c: Paxos acceptor durability under restarts (n = 5, drop 0.1)",
      "Paxos' safety argument assumes stable acceptor state: with the "
      "journal and sync discipline, restarted acceptors keep their "
      "promises and agreement holds across every restart schedule.");
  {
    Table table({"discipline", "restarts", "decided %", "agreement ok %",
                 "mean recoveries", "mean ticks to decide"});
    for (const Discipline& d : kDisciplines) {
      for (const std::size_t restarts : {0u, 2u, 4u}) {
        int decided = 0, agreementOk = 0;
        Summary recoveries, ticks;
        for (int run = 0; run < kRuns; ++run) {
          const auto outcome = runPaxosRecovery(
              5, 190'000 + static_cast<std::uint64_t>(run), restarts, d);
          if (outcome.decided) {
            ++decided;
            ticks.add(static_cast<double>(outcome.lastDecision));
          }
          if (outcome.agreementOk) ++agreementOk;
          recoveries.add(static_cast<double>(outcome.recoveries));
          if (d.sound) {
            bench.require(outcome.agreementOk,
                          "paxos agreement with durable acceptors");
          }
        }
        table.addRow({d.label, Table::cell(std::uint64_t{restarts}),
                      Table::cell(100.0 * decided / kRuns, 1),
                      Table::cell(100.0 * agreementOk / kRuns, 1),
                      Table::cell(recoveries.mean(), 2),
                      ticks.empty() ? "-" : Table::cell(ticks.mean(), 0)});
      }
    }
    bench.emit(table);
  }
  return bench.finish();
}
