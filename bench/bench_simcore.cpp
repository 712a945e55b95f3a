// E19 — simulator core throughput: events/sec and ns/event across
// protocol x n x fault-mix; E23 — the same workload's scaling across
// threads; E13 — the wall-clock cost of the paper's decomposition.
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
// events/sec, ns/event and microseconds-per-run numbers are
// machine-dependent by design.
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
using compose::CompositionResult;
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

using PairSide = std::function<CompositionResult(std::uint64_t seed)>;

/// One E13 cell: a template-decomposed run and the monolithic loop it
/// reproduces, timed on the same seeds.
struct CostPair {
  std::string describe;
  /// True when the decomposed side is E1's bit-for-bit copy of the
  /// monolithic loop (benor-vac; vac-from-two-ac sends twice the traffic):
  /// every seed must then give equal events and messages on both sides.
  bool sameRun;
  PairSide decomposed;
  PairSide monolithic;
};

CostPair benOrPair(std::size_t n, const std::string& detector) {
  const std::size_t t = std::max<std::size_t>(1, n / 8);
  return {"Ben-Or n=" + std::to_string(n) + ", " + detector + "+local-coin",
          detector == "benor-vac",
          [=](std::uint64_t seed) {
            Composition config;
            config.detector = detector;
            config.driver = "local-coin";
            config.n = n;
            config.inputs = alternatingInputs(n);
            config.t = t;
            config.seed = seed;
            return runComposition(config);
          },
          [=](std::uint64_t seed) {
            harness::MonolithicBenOrConfig config;
            config.n = n;
            config.inputs = alternatingInputs(n);
            config.t = t;
            config.seed = seed;
            return harness::runMonolithicBenOr(config);
          }};
}

CostPair phaseKingPair(std::size_t n) {
  const std::size_t f = (n - 1) / 3;
  return {"Phase-King n=" + std::to_string(n) + ", f=" + std::to_string(f),
          false,
          [=](std::uint64_t seed) {
            Composition config;
            config.detector = "phaseking-ac";
            config.driver = "king-conciliator";
            config.n = n;
            config.byzantineCount = f;
            config.inputs = {0, 1};
            config.seed = seed;
            return runComposition(config);
          },
          [=](std::uint64_t seed) {
            harness::MonolithicPhaseKingConfig config;
            config.n = n;
            config.byzantineCount = f;
            config.seed = seed;
            return harness::runMonolithicPhaseKing(config);
          }};
}

std::vector<CostPair> costPairs() {
  return {benOrPair(8, "benor-vac"), benOrPair(16, "benor-vac"),
          benOrPair(16, "vac-from-two-ac"), phaseKingPair(13),
          phaseKingPair(25)};
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

  // E13 — each seed runs both sides back to back in this process, the
  // side that goes first alternating by seed, so host drift between runs
  // hits both sides alike. The ratio is of the two sides' summed times.
  // The registry is off while E13 runs, as it is by default: the template
  // publishes per-round telemetry the monolithic loops do not, and that
  // is the registry's cost, not the decomposition's.
  bench.banner(
      "E13: decomposition cost",
      "Template-decomposed runs against the monolithic loops on shared "
      "seeds: the detector and driver objects cost a constant factor in "
      "wall-clock time, not an asymptotic change. The Ben-Or pairs match "
      "event for event and message for message on every seed (E1). "
      "Timings are wall-clock (machine-dependent).");
  {
    obs::metrics().enable(false);
    const int pairRuns = bench.trials(200);
    Table table({"pair (decomposed vs monolithic)", "runs", "decomposed us/run",
                 "monolithic us/run", "ratio", "decomposed events/run",
                 "monolithic events/run"});
    const auto timed = [](const PairSide& side, std::uint64_t seed,
                          std::chrono::nanoseconds& elapsed) {
      const auto start = std::chrono::steady_clock::now();
      CompositionResult result = side(seed);
      elapsed += std::chrono::steady_clock::now() - start;
      return result;
    };
    for (const CostPair& pair : costPairs()) {
      std::chrono::nanoseconds decomposedTime{0};
      std::chrono::nanoseconds monolithicTime{0};
      std::uint64_t decomposedEvents = 0;
      std::uint64_t monolithicEvents = 0;
      for (int run = 0; run < pairRuns; ++run) {
        const std::uint64_t seed = 13'000 + static_cast<std::uint64_t>(run);
        CompositionResult decomposed;
        CompositionResult monolithic;
        if (run % 2 == 0) {
          decomposed = timed(pair.decomposed, seed, decomposedTime);
          monolithic = timed(pair.monolithic, seed, monolithicTime);
        } else {
          monolithic = timed(pair.monolithic, seed, monolithicTime);
          decomposed = timed(pair.decomposed, seed, decomposedTime);
        }
        for (const CompositionResult* result : {&decomposed, &monolithic})
          bench.require(result->allDecided && !result->agreementViolated,
                        pair.describe + ": every run decides with agreement");
        if (pair.sameRun)
          bench.require(
              decomposed.eventsProcessed == monolithic.eventsProcessed &&
                  decomposed.messagesByCorrect == monolithic.messagesByCorrect,
              pair.describe + ": equal events and messages on every seed");
        decomposedEvents += decomposed.eventsProcessed;
        monolithicEvents += monolithic.eventsProcessed;
      }
      const double runs = static_cast<double>(pairRuns);
      const double decomposedNs = static_cast<double>(decomposedTime.count());
      const double monolithicNs = static_cast<double>(monolithicTime.count());
      table.addRow(
          {pair.describe, Table::cell(pairRuns),
           Table::cell(decomposedNs / 1e3 / runs, 1),
           Table::cell(monolithicNs / 1e3 / runs, 1),
           Table::cell(monolithicNs > 0 ? decomposedNs / monolithicNs : 0.0),
           Table::cell(static_cast<double>(decomposedEvents) / runs, 1),
           Table::cell(static_cast<double>(monolithicEvents) / runs, 1)});
    }
    obs::metrics().enable(true);
    bench.emit(table);
  }
  return bench.finish();
}
