// E17 — Paxos vs Raft (extension): the two canonical leader-driven
// consensus substrates, instrumented through the same framework lens.
//
// Both decompose identically in the paper's terms (timer = reconciliator,
// accepted/replicated = adopt, learned/committed = commit), and both obey
// the same timing-property shape: aggressive timers cause duels, relaxed
// timers cost latency. The crossover point and message profiles differ —
// Paxos pays two phases per ballot but needs no heartbeats for a one-shot
// decision; Raft amortizes its election over a log.
#include <memory>
#include <vector>

#include "bench/bench_common.hpp"
#include "harness/scenarios.hpp"
#include "obs/metrics.hpp"
#include "paxos/paxos_node.hpp"
#include "sim/simulator.hpp"

using namespace ooc;
using namespace ooc::bench;

namespace {

struct PaxosOutcome {
  bool clean = false;
  Tick lastDecision = 0;
  std::uint64_t messages = 0;
  std::uint64_t ballots = 0;
};

PaxosOutcome runPaxosOnce(std::size_t n, std::uint64_t seed,
                          paxos::PaxosConfig config, double drop) {
  SimConfig simConfig;
  simConfig.seed = seed;
  simConfig.maxTicks = 2'000'000;
  UniformDelayNetwork::Options net;
  net.minDelay = 1;
  net.maxDelay = 5;
  net.dropProbability = drop;
  Simulator sim(simConfig, std::make_unique<UniformDelayNetwork>(net));
  std::vector<paxos::PaxosNode*> nodes;
  std::vector<Value> inputs;
  for (ProcessId id = 0; id < n; ++id) {
    inputs.push_back(static_cast<Value>(id));
    auto node = std::make_unique<paxos::PaxosNode>(inputs.back(), config);
    nodes.push_back(node.get());
    sim.addProcess(std::move(node));
  }
  sim.setValidValues(inputs);
  sim.stopWhenAllCorrectDecided();
  sim.run();

  PaxosOutcome outcome;
  outcome.clean = sim.allCorrectDecided() && !sim.agreementViolated() &&
                  !sim.validityViolated();
  outcome.messages = sim.messagesSent();
  for (ProcessId id = 0; id < n; ++id) {
    outcome.lastDecision =
        std::max(outcome.lastDecision, sim.decision(id).at);
    outcome.ballots += nodes[id]->ballotsStarted();
  }

  // Paxos runs its simulations directly (no harness runner), so the bench
  // publishes the family telemetry itself.
  if (obs::enabled()) {
    const obs::Labels base = {{"family", "paxos"}};
    obs::Batch batch;
    batch.addCounter("runs", 1, base);
    batch.addCounter("messages_sent", sim.messagesSent(), base);
    batch.addCounter("messages_delivered", sim.messagesDelivered(), base);
    batch.addCounter("messages_dropped", sim.messagesDropped(), base);
    batch.addCounter("events_executed", sim.eventsProcessed(), base);
    batch.addCounter("ballots_started", outcome.ballots, base);
    for (ProcessId id = 0; id < n; ++id) {
      batch.addCounter("driver_invocations",
                       nodes[id]->reconciliatorInvocations(), base);
      for (const auto& change : nodes[id]->confidenceLog()) {
        batch.addCounter("confidence_transitions", 1,
                         {{"family", "paxos"},
                          {"confidence", toString(change.confidence)}});
      }
      if (sim.decision(id).decided)
        batch.observe("ticks_to_decide",
                      static_cast<double>(sim.decision(id).at), base);
    }
    obs::metrics().commit(batch);
  }
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, "paxos");
  const int kRuns = bench.trials(30);

  bench.banner("E17a: Paxos retry window sweep (n = 5, delays 1-5)",
         "The reconciliator-timing shape again: tight windows duel "
         "(ballot churn), relaxed windows idle. Safety holds throughout.");
  {
    Table table({"retry window", "clean %", "mean ticks to decide",
                 "mean ballots", "mean msgs"});
    struct Case {
      Tick lo, hi;
    };
    for (const Case c : {Case{10, 16}, Case{25, 45}, Case{50, 100},
                         Case{100, 200}, Case{250, 500}}) {
      Summary ticks, ballots, messages;
      int clean = 0;
      for (int run = 0; run < kRuns; ++run) {
        paxos::PaxosConfig config;
        config.retryMin = c.lo;
        config.retryMax = c.hi;
        const auto outcome = runPaxosOnce(
            5, 260'000 + static_cast<std::uint64_t>(run), config, 0.0);
        bench.require(outcome.clean, "paxos consensus");
        clean += outcome.clean ? 1 : 0;
        ticks.add(static_cast<double>(outcome.lastDecision));
        ballots.add(static_cast<double>(outcome.ballots));
        messages.add(static_cast<double>(outcome.messages));
      }
      table.addRow({Table::cell(std::uint64_t{c.lo}) + "-" +
                        Table::cell(std::uint64_t{c.hi}),
                    Table::cell(100.0 * clean / kRuns, 1),
                    Table::cell(ticks.mean(), 0),
                    Table::cell(ballots.mean(), 1),
                    Table::cell(messages.mean(), 0)});
    }
    bench.emit(table);
  }

  bench.banner("E17b: Paxos vs Raft, one decision, same network (n = 5)",
         "Default timers each. Expected shape: comparable decision "
         "latency (one leader emergence + one replication round each); "
         "Paxos spends more messages because its learner path is an "
         "all-to-all Accepted broadcast (n^2 per ballot) where Raft "
         "replicates linearly through the leader.");
  {
    Table table({"substrate", "mean ticks to decide", "p95", "mean msgs",
                 "mean leader attempts"});
    {
      Summary ticks, messages, attempts;
      for (int run = 0; run < kRuns; ++run) {
        const auto outcome = runPaxosOnce(
            5, 270'000 + static_cast<std::uint64_t>(run),
            paxos::PaxosConfig{}, 0.0);
        bench.require(outcome.clean, "paxos consensus");
        ticks.add(static_cast<double>(outcome.lastDecision));
        messages.add(static_cast<double>(outcome.messages));
        attempts.add(static_cast<double>(outcome.ballots));
      }
      table.addRow({"paxos", Table::cell(ticks.mean(), 0),
                    Table::cell(ticks.p95(), 0),
                    Table::cell(messages.mean(), 0),
                    Table::cell(attempts.mean(), 1)});
    }
    {
      Summary ticks, messages, attempts;
      for (int run = 0; run < kRuns; ++run) {
        harness::RaftScenarioConfig config;
        config.n = 5;
        config.seed = 270'000 + static_cast<std::uint64_t>(run);
        const auto result = runRaft(config);
        bench.require(result.allDecided && !result.agreementViolated,
                        "raft consensus");
        ticks.add(static_cast<double>(result.lastDecisionTick));
        messages.add(static_cast<double>(result.messages));
        attempts.add(static_cast<double>(result.electionsStarted));
      }
      table.addRow({"raft", Table::cell(ticks.mean(), 0),
                    Table::cell(ticks.p95(), 0),
                    Table::cell(messages.mean(), 0),
                    Table::cell(attempts.mean(), 1)});
    }
    bench.emit(table);
  }

  bench.banner("E17c: loss tolerance (n = 5, default timers)",
         "Retry-based recovery: liveness degrades gracefully, safety "
         "never breaks.");
  {
    Table table({"drop prob", "clean %", "mean ticks", "mean ballots"});
    for (const double drop : {0.0, 0.1, 0.2, 0.3}) {
      Summary ticks, ballots;
      int clean = 0;
      for (int run = 0; run < kRuns; ++run) {
        const auto outcome = runPaxosOnce(
            5, 280'000 + static_cast<std::uint64_t>(run),
            paxos::PaxosConfig{}, drop);
        clean += outcome.clean ? 1 : 0;
        bench.require(outcome.clean, "paxos under loss");
        ticks.add(static_cast<double>(outcome.lastDecision));
        ballots.add(static_cast<double>(outcome.ballots));
      }
      table.addRow({Table::cell(drop, 2), Table::cell(100.0 * clean / kRuns, 1),
                    Table::cell(ticks.mean(), 0),
                    Table::cell(ballots.mean(), 1)});
    }
    bench.emit(table);
  }
  return bench.finish();
}
