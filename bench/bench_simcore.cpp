// E19 — simulator core throughput: events/sec and ns/event across
// protocol x n x fault-mix.
//
// Every other experiment in this repo is bottlenecked by how fast the
// discrete-event scheduler in src/sim/ can execute protocol runs (the
// checker's restart grid alone replays 1510 configurations), so this bench
// measures the scheduler itself through the same scenario runners the
// checker and the other benches use. Each cell runs a fixed scenario over a
// set of seeds, times the complete runs with a monotonic clock, and divides
// by Simulator::eventsProcessed().
//
// Unlike the other benches, the metric values here are wall-clock timings:
// the JSON (run_id, tables' event counts, verdict) is deterministic but the
// events/sec and ns/event numbers are machine-dependent by design.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "compose/run.hpp"
#include "harness/scenarios.hpp"
#include "obs/metrics.hpp"

using namespace ooc;
using namespace ooc::bench;
using compose::Composition;
using compose::runComposition;
using harness::RaftScenarioConfig;

namespace {

struct CellResult {
  std::uint64_t events = 0;
  std::uint64_t decided = 0;  // runs where all correct processes decided
};

using RunFn = std::function<CellResult(std::uint64_t seed)>;

struct Scenario {
  std::string key;       // stable id: protocol_n<N>[_mix]
  std::string describe;  // one-line cell description for the table
  /// Multiplies the base trial count so event-sparse cells (Raft is
  /// timeout-driven) still accumulate enough wall time to measure.
  int runsScale = 1;
  RunFn run;
};

Composition benOr(std::size_t n, Tick minDelay, Tick maxDelay) {
  Composition config;
  config.n = n;
  config.inputs.resize(n);
  for (std::size_t i = 0; i < n; ++i) config.inputs[i] = Value(i % 2);
  // The local coin needs 2^Theta(n) rounds on split inputs, so the n=25
  // cells use the common coin: convergence in O(1) rounds keeps the cell a
  // pure fan-out workload instead of a coin-flip lottery.
  config.driver = n > 8 ? "common-coin" : "local-coin";
  config.minDelay = minDelay;
  config.maxDelay = maxDelay;
  return config;
}

std::vector<Scenario> scenarios() {
  std::vector<Scenario> all;
  all.push_back({"benor_n5_async", "Ben-Or n=5, delay 1..10", 20,
                 [](std::uint64_t seed) {
                   auto config = benOr(5, 1, 10);
                   config.seed = seed;
                   const auto r = runComposition(config);
                   return CellResult{r.eventsProcessed, r.allDecided ? 1u : 0u};
                 }});
  // The ISSUE's headline cell: unit delays make every exchange a synchronous
  // wave, so the run is one broadcast fan-out after another — the pure
  // fan-out + queue hot path.
  all.push_back({"benor_n25_lockstep", "Ben-Or n=25, unit delay (lockstep)", 2,
                 [](std::uint64_t seed) {
                   auto config = benOr(25, 1, 1);
                   config.seed = seed;
                   const auto r = runComposition(config);
                   return CellResult{r.eventsProcessed, r.allDecided ? 1u : 0u};
                 }});
  all.push_back({"benor_n25_async", "Ben-Or n=25, delay 1..10", 2,
                 [](std::uint64_t seed) {
                   auto config = benOr(25, 1, 10);
                   config.seed = seed;
                   const auto r = runComposition(config);
                   return CellResult{r.eventsProcessed, r.allDecided ? 1u : 0u};
                 }});
  all.push_back({"phaseking_n25", "Phase-King n=25, f=t=8 equivocators", 2,
                 [](std::uint64_t seed) {
                   Composition config;
                   config.detector = "phaseking-ac";
                   config.driver = "king-conciliator";
                   config.n = 25;
                   config.byzantineCount = 8;
                   config.inputs = {0, 1};
                   config.seed = seed;
                   const auto r = runComposition(config);
                   return CellResult{r.eventsProcessed, r.allDecided ? 1u : 0u};
                 }});
  all.push_back({"raft_n5", "Raft n=5, delay 1..5, no faults", 40,
                 [](std::uint64_t seed) {
                   RaftScenarioConfig config;
                   config.n = 5;
                   config.seed = seed;
                   const auto r = runRaft(config);
                   return CellResult{r.eventsProcessed, r.allDecided ? 1u : 0u};
                 }});
  all.push_back({"raft_n9_faultmix", "Raft n=9, 5% drop + 5% duplicate", 25,
                 [](std::uint64_t seed) {
                   RaftScenarioConfig config;
                   config.n = 9;
                   config.dropProbability = 0.05;
                   config.duplicateProbability = 0.05;
                   config.seed = seed;
                   const auto r = runRaft(config);
                   return CellResult{r.eventsProcessed, r.allDecided ? 1u : 0u};
                 }});
  return all;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, "simcore");
  const int kRuns = bench.trials(40);

  bench.banner(
      "E19: simulator core throughput (events/sec, ns/event)",
      "The scheduler hot path — refcounted payload fan-out, type-tag "
      "dispatch, calendar event queue — measured end to end through the "
      "scenario runners. Timings are wall-clock (machine-dependent).");
  {
    Table table({"scenario", "runs", "events", "ms total", "events/sec",
                 "ns/event"});
    for (const Scenario& scenario : scenarios()) {
      const int cellRuns = kRuns * scenario.runsScale;
      std::uint64_t events = 0;
      std::uint64_t decided = 0;
      std::chrono::nanoseconds elapsed{0};
      for (int run = 0; run < cellRuns; ++run) {
        const std::uint64_t seed = 19'000 + static_cast<std::uint64_t>(run);
        const auto start = std::chrono::steady_clock::now();
        const CellResult cell = scenario.run(seed);
        elapsed += std::chrono::steady_clock::now() - start;
        events += cell.events;
        decided += cell.decided;
      }
      bench.require(decided == static_cast<std::uint64_t>(cellRuns),
                    scenario.key + " all runs decide");
      const double ns = static_cast<double>(elapsed.count());
      const double eventsPerSec =
          ns > 0 ? static_cast<double>(events) * 1e9 / ns : 0.0;
      const double nsPerEvent =
          events > 0 ? ns / static_cast<double>(events) : 0.0;
      obs::metrics().setGauge("simcore_events_per_sec", eventsPerSec,
                              {{"scenario", scenario.key}});
      obs::metrics().setGauge("simcore_ns_per_event", nsPerEvent,
                              {{"scenario", scenario.key}});
      table.addRow({scenario.describe, Table::cell(std::uint64_t(cellRuns)),
                    Table::cell(events), Table::cell(ns / 1e6, 1),
                    Table::cell(eventsPerSec, 0), Table::cell(nsPerEvent, 1)});
    }
    bench.emit(table);
    bench.note("scenario keys (gauge labels): benor_n5_async, "
               "benor_n25_lockstep, benor_n25_async, phaseking_n25, raft_n5, "
               "raft_n9_faultmix");
  }

  // E23 — whole-machine aggregate throughput and scaling efficiency. The
  // full E19 workload (every scenario x its seeds) is fanned across the
  // experiment scheduler at 1, 2, half, and all hardware threads; each
  // pass measures machine-wide events/sec over the whole sweep. Event
  // totals must be identical across thread counts (the scheduler only
  // re-shards indices, never changes what an index computes) — asserted
  // as a correctness property. Efficiency = speedup / threads.
  bench.banner(
      "E23: whole-machine aggregate throughput + scaling efficiency",
      "The E19 workload through sweep::parallelFor at increasing thread "
      "counts, published as aggregate_events_per_sec and scaling_efficiency "
      "gauges; the >=0.6-at-half-the-cores bar is the scheduler's scaling "
      "acceptance line.");
  {
    struct WorkItem {
      const RunFn* run;
      std::uint64_t seed;
    };
    const std::vector<Scenario> all = scenarios();
    std::vector<WorkItem> items;
    for (const Scenario& scenario : all) {
      const int cellRuns = kRuns * scenario.runsScale;
      for (int run = 0; run < cellRuns; ++run)
        items.push_back(
            {&scenario.run, 19'000 + static_cast<std::uint64_t>(run)});
    }

    const std::size_t hw = sweep::hardwareThreads();
    std::vector<std::size_t> threadCounts{1, 2, hw / 2, hw};
    std::sort(threadCounts.begin(), threadCounts.end());
    threadCounts.erase(
        std::remove(threadCounts.begin(), threadCounts.end(), std::size_t{0}),
        threadCounts.end());
    threadCounts.erase(
        std::unique(threadCounts.begin(), threadCounts.end()),
        threadCounts.end());

    Table table({"threads", "runs", "events", "ms total", "agg events/sec",
                 "speedup", "efficiency"});
    std::uint64_t baseEvents = 0;
    double basePerSec = 0.0;
    for (const std::size_t threads : threadCounts) {
      std::vector<std::uint64_t> events(items.size());
      std::vector<std::uint64_t> decided(items.size());
      sweep::Options pool;
      pool.threads = threads;
      const auto start = std::chrono::steady_clock::now();
      const sweep::SweepStats stats = sweep::parallelFor(
          items.size(),
          [&](std::size_t index, sweep::Control&) {
            const CellResult cell = (*items[index].run)(items[index].seed);
            events[index] = cell.events;
            decided[index] = cell.decided;
          },
          pool);
      const std::chrono::nanoseconds elapsed =
          std::chrono::steady_clock::now() - start;
      bench::detail::sweepTelemetryRef().add(stats);

      std::uint64_t totalEvents = 0;
      std::uint64_t totalDecided = 0;
      for (std::size_t i = 0; i < items.size(); ++i) {
        totalEvents += events[i];
        totalDecided += decided[i];
      }
      const std::string label = std::to_string(threads) + " threads";
      bench.require(totalDecided == items.size(), label + ": all runs decide");
      if (baseEvents == 0)
        baseEvents = totalEvents;
      else
        bench.require(totalEvents == baseEvents,
                      label + ": aggregate events identical across thread "
                              "counts");

      const double ns = static_cast<double>(elapsed.count());
      const double perSec =
          ns > 0 ? static_cast<double>(totalEvents) * 1e9 / ns : 0.0;
      if (basePerSec == 0.0) basePerSec = perSec;
      const double speedup = basePerSec > 0 ? perSec / basePerSec : 0.0;
      const double efficiency = speedup / static_cast<double>(threads);
      const obs::Labels labels{{"threads", std::to_string(threads)}};
      obs::metrics().setGauge("simcore_aggregate_events_per_sec", perSec,
                              labels);
      obs::metrics().setGauge("simcore_scaling_efficiency", efficiency,
                              labels);
      table.addRow({Table::cell(std::uint64_t(threads)),
                    Table::cell(std::uint64_t(items.size())),
                    Table::cell(totalEvents), Table::cell(ns / 1e6, 1),
                    Table::cell(perSec, 0), Table::cell(speedup, 2),
                    Table::cell(efficiency, 2)});
    }
    bench.emit(table);
    bench.note("hardware threads: " + std::to_string(hw) +
               "; gauges simcore_aggregate_events_per_sec and "
               "simcore_scaling_efficiency are labeled by threads");
  }
  return bench.finish();
}
