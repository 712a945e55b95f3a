// Tests for the deterministic parallel experiment scheduler (src/sweep/)
// and the thread-local run arenas that make per-worker simulator reuse
// cheap:
//
//  * mechanics — every index runs exactly once at any thread count, stop
//    requests halt chunk issue, body exceptions propagate to the caller
//    and leave the persistent pool reusable;
//  * determinism contract — check::explore findings and the metrics
//    registry snapshot are byte-identical across --threads values on a
//    full sweep, and the composition trial fan-out (compose::runTrials,
//    which every matrix cell and bench table folds through) produces
//    identical TrialStats and registry JSON at 1, 2, and 16 workers;
//  * progress — the contention-free heartbeat emits strictly increasing
//    counts and exact multiples at one thread;
//  * arenas — thousands of tiny back-to-back runs keep the thread-local
//    pools bounded (no growth);
//  * telemetry — per-worker stats fold to the sweep totals, and the
//    steal-heavy schedule (exercised under tsan in CI) stays coverage-
//    exact.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "check/checker.hpp"
#include "check/invariant.hpp"
#include "check/strategy.hpp"
#include "compose/composition.hpp"
#include "compose/matrix.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/process.hpp"
#include "sim/run_arena.hpp"
#include "sim/simulator.hpp"
#include "svc/run.hpp"
#include "sweep/scheduler.hpp"

namespace ooc {
namespace {

// ---------------------------------------------------------------------------
// Mechanics

TEST(Scheduler, CoversEveryIndexExactlyOnce) {
  for (const std::size_t total : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{100},
                                  std::size_t{1000}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                      std::size_t{16}}) {
      std::vector<std::atomic<int>> hits(total);
      sweep::Options options;
      options.threads = threads;
      const sweep::SweepStats stats = sweep::parallelFor(
          total,
          [&](std::size_t index, sweep::Control&) {
            hits[index].fetch_add(1, std::memory_order_relaxed);
          },
          options);
      EXPECT_EQ(stats.configs, total);
      for (std::size_t i = 0; i < total; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i << " at " << threads
                                     << " threads, total " << total;
    }
  }
}

TEST(Scheduler, StopRequestHaltsChunkIssue) {
  // Single worker, chunk size 1: the stop lands after index 5 runs, so
  // exactly indices 0..5 execute — deterministic because one worker drains
  // its own queue in order.
  sweep::Options options;
  options.threads = 1;
  options.chunkSize = 1;
  const sweep::SweepStats stats = sweep::parallelFor(
      10'000,
      [&](std::size_t index, sweep::Control& control) {
        if (index == 5) control.requestStop();
      },
      options);
  EXPECT_EQ(stats.configs, 6u);

  // Multi-worker stop is racy by design (a worker finishes the chunk it
  // already started), but each worker re-checks the flag before its next
  // chunk — with every body requesting stop, nobody runs more than one
  // chunk regardless of how the OS schedules the workers.
  sweep::Options wide;
  wide.threads = 8;
  wide.chunkSize = 1;
  const sweep::SweepStats wideStats = sweep::parallelFor(
      100'000,
      [&](std::size_t, sweep::Control& control) { control.requestStop(); },
      wide);
  EXPECT_GE(wideStats.configs, 1u);
  EXPECT_LE(wideStats.configs, 8u);
}

TEST(Scheduler, BodyExceptionPropagatesAndPoolStaysUsable) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    sweep::Options options;
    options.threads = threads;
    EXPECT_THROW(
        sweep::parallelFor(
            64,
            [&](std::size_t index, sweep::Control&) {
              if (index == 17) throw std::runtime_error("planted");
            },
            options),
        std::runtime_error);

    // The persistent pool must come back clean for the next job.
    std::atomic<std::size_t> ran{0};
    const sweep::SweepStats stats = sweep::parallelFor(
        128,
        [&](std::size_t, sweep::Control&) {
          ran.fetch_add(1, std::memory_order_relaxed);
        },
        options);
    EXPECT_EQ(stats.configs, 128u);
    EXPECT_EQ(ran.load(), 128u);
  }
}

// ---------------------------------------------------------------------------
// Progress heartbeat

TEST(Scheduler, ProgressIsStrictlyIncreasingAndExactAtOneThread) {
  std::mutex mutex;
  std::vector<std::size_t> emitted;
  sweep::Options options;
  options.threads = 1;
  options.progressEvery = 100;
  options.onProgress = [&](std::size_t done, std::size_t total) {
    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(total, 1000u);
    emitted.push_back(done);
  };
  sweep::parallelFor(1000, [](std::size_t, sweep::Control&) {}, options);
  // One worker crosses each threshold exactly: 100, 200, ..., 1000.
  ASSERT_EQ(emitted.size(), 10u);
  for (std::size_t i = 0; i < emitted.size(); ++i)
    EXPECT_EQ(emitted[i], (i + 1) * 100);
}

TEST(Scheduler, ProgressIsMonotoneUnderConcurrency) {
  std::mutex mutex;
  std::vector<std::size_t> emitted;
  sweep::Options options;
  options.threads = 8;
  options.progressEvery = 50;
  options.onProgress = [&](std::size_t done, std::size_t) {
    std::lock_guard<std::mutex> lock(mutex);
    emitted.push_back(done);
  };
  sweep::parallelFor(2000, [](std::size_t, sweep::Control&) {}, options);
  ASSERT_FALSE(emitted.empty());
  for (std::size_t i = 1; i < emitted.size(); ++i)
    EXPECT_GT(emitted[i], emitted[i - 1])
        << "heartbeat emitted a stale count";
  EXPECT_LE(emitted.back(), 2000u);
}

// ---------------------------------------------------------------------------
// Determinism contract: checker sweeps

std::string findingsKey(const check::CheckReport& report) {
  std::string key;
  for (const check::Finding& finding : report.findings) {
    key += std::to_string(finding.configIndex);
    key += ':';
    key += finding.violation.invariant;
    key += ':';
    key += finding.violation.detail;
    key += '\n';
  }
  return key;
}

TEST(Determinism, ExploreIsByteIdenticalAcrossThreadCounts) {
  // Full sweep (maxFindings = 0): early-stop cutoffs are the one
  // intentionally thread-dependent behavior, so the byte-identity
  // guarantee is stated over complete sweeps.
  check::Scenario base;
  base.compose.n = 5;
  base.compose.inputs = {0, 1, 0, 1, 1};
  base.compose.fault = compose::PlantedFault::kVacAdoptFlip;
  check::RandomWalkStrategy::Options walk;
  walk.runs = 24;
  const check::RandomWalkStrategy strategy(base, walk);
  const auto suite = check::safetySuite();

  std::string baselineFindings;
  std::string baselineMetrics;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{16}}) {
    obs::metrics().reset();
    obs::metrics().enable(true);
    check::CheckerOptions options;
    options.threads = threads;
    options.maxFindings = 0;
    options.shrink = false;
    const check::CheckReport report =
        check::explore(strategy, check::view(suite), options);
    const std::string findings = findingsKey(report);
    const std::string metrics = obs::metrics().toJson();
    obs::metrics().enable(false);
    EXPECT_EQ(report.configsExplored, strategy.size());
    if (threads == 1) {
      baselineFindings = findings;
      baselineMetrics = metrics;
      EXPECT_FALSE(findings.empty()) << "planted bug not found";
    } else {
      EXPECT_EQ(findings, baselineFindings) << "at " << threads << " threads";
      EXPECT_EQ(metrics, baselineMetrics) << "at " << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism contract: composition trial fan-out

std::string summaryKey(const Summary& summary) {
  return std::to_string(summary.count()) + '/' +
         std::to_string(summary.sum()) + '/' +
         std::to_string(summary.empty() ? 0.0 : summary.min()) + '/' +
         std::to_string(summary.empty() ? 0.0 : summary.max()) + '/' +
         std::to_string(summary.empty() ? 0.0 : summary.quantile(0.5));
}

std::string cellKey(const compose::TrialStats& cell) {
  return std::to_string(cell.runs) + '|' + std::to_string(cell.decided) +
         '|' + std::to_string(cell.decidedInFirstRound) + '|' +
         std::to_string(cell.agreementOk) + std::to_string(cell.validityOk) +
         std::to_string(cell.auditsOk) + std::to_string(cell.fdAxiomsOk) +
         '|' + summaryKey(cell.meanDecisionRound) + '|' +
         summaryKey(cell.maxDecisionRound) + '|' +
         summaryKey(cell.messagesPerRun) + '|' +
         summaryKey(cell.messagesPerProcess) + '|' +
         std::to_string(cell.overlapWitnesses) + '|' +
         std::to_string(cell.deferredActivations) + '|' +
         std::to_string(cell.maxRoundSkew);
}

TEST(Determinism, CompositionTrialsAreByteIdenticalAcrossThreadCounts) {
  compose::Composition composition;
  composition.detector = "benor-vac";
  composition.driver = "lottery";
  composition.n = 5;
  composition.inputs = {0, 1, 0, 1, 0};
  composition.crashes = {{4, 40}};

  std::string baselineCell;
  std::string baselineMetrics;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{16}}) {
    obs::metrics().reset();
    obs::metrics().enable(true);
    const compose::TrialStats cell =
        compose::runTrials(composition, 24, 910'000, threads);
    const std::string key = cellKey(cell);
    const std::string metrics = obs::metrics().toJson();
    obs::metrics().enable(false);
    EXPECT_EQ(cell.runs, 24);
    if (threads == 1) {
      baselineCell = key;
      baselineMetrics = metrics;
    } else {
      EXPECT_EQ(key, baselineCell) << "at " << threads << " threads";
      EXPECT_EQ(metrics, baselineMetrics) << "at " << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Run arenas: reuse without growth

class IdleProcess final : public Process {
 public:
  void onMessage(ProcessId, const Message&) override {}
};

TEST(RunArena, ThousandsOfTinyRunsStayBounded) {
  for (int i = 0; i < 2000; ++i) {
    Simulator sim(SimConfig{}, std::make_unique<SynchronousNetwork>());
    sim.addProcess(std::make_unique<IdleProcess>());
    sim.addProcess(std::make_unique<IdleProcess>());
    sim.run();
  }
  // Every pool is capped: back-to-back churn recycles, it never hoards.
  EXPECT_LE(run_arena::poolSize<std::vector<std::function<void()>>>(),
            run_arena::kPoolCap);
  EXPECT_LE(run_arena::poolSize<std::vector<ProcessId>>(),
            run_arena::kPoolCap);
  EXPECT_LE(run_arena::poolSize<std::vector<Tick>>(), run_arena::kPoolCap);
  EXPECT_LE(run_arena::poolSize<EventQueue::Storage>(), run_arena::kPoolCap);
}

TEST(RunArena, CheckoutReusesRecycledCapacity) {
  using Scratch = std::vector<int>;
  run_arena::drain<Scratch>();
  Scratch scratch;
  scratch.reserve(128);
  run_arena::recycle(std::move(scratch));
  ASSERT_EQ(run_arena::poolSize<Scratch>(), 1u);
  const Scratch reused = run_arena::checkout<Scratch>();
  EXPECT_TRUE(reused.empty());
  EXPECT_GE(reused.capacity(), 128u);
  EXPECT_EQ(run_arena::poolSize<Scratch>(), 0u);

  // Capacity-0 vectors (moved-from buffers) are dropped, not pooled.
  run_arena::recycle(Scratch{});
  EXPECT_EQ(run_arena::poolSize<Scratch>(), 0u);
}

TEST(RunArena, BlockPoolStaysBoundedAndReusesBlocks) {
  if (!run_arena::kBlockPoolEnabled)
    GTEST_SKIP() << "AddressSanitizer build: blocks go to operator new";
  constexpr std::size_t kBytes = 48;  // the 33..48-byte class
  std::vector<std::size_t> others;
  for (std::size_t bytes = run_arena::kBlockStep;
       bytes <= run_arena::kBlockMaxBytes; bytes += run_arena::kBlockStep)
    others.push_back(bytes == kBytes ? 0 : run_arena::blockPoolSize(bytes));

  // Release more blocks than the cap: the list keeps exactly the cap.
  std::vector<void*> blocks(run_arena::kBlockCap + 16);
  for (void*& block : blocks) block = run_arena::allocateBlock(kBytes);
  for (void* block : blocks) run_arena::releaseBlock(block, kBytes);
  EXPECT_EQ(run_arena::blockPoolSize(kBytes), run_arena::kBlockCap);
  EXPECT_EQ(run_arena::blockPoolSize(33), run_arena::kBlockCap)
      << "33 and 48 bytes share a class";

  // The next request, of any size in the class, gets the last block
  // released, and costs no miss.
  void* block = run_arena::allocateBlock(kBytes);
  run_arena::releaseBlock(block, kBytes);
  const std::uint64_t misses = run_arena::blockMisses();
  EXPECT_EQ(run_arena::allocateBlock(40), block);
  EXPECT_EQ(run_arena::blockMisses(), misses);
  run_arena::releaseBlock(block, 40);

  // Above kBlockMaxBytes the pool is bypassed: no miss, nothing kept.
  void* large = run_arena::allocateBlock(run_arena::kBlockMaxBytes + 1);
  EXPECT_EQ(run_arena::blockMisses(), misses);
  run_arena::releaseBlock(large, run_arena::kBlockMaxBytes + 1);
  EXPECT_EQ(run_arena::blockPoolSize(run_arena::kBlockMaxBytes + 1), 0u);

  // The other classes never saw any of this.
  std::size_t at = 0;
  for (std::size_t bytes = run_arena::kBlockStep;
       bytes <= run_arena::kBlockMaxBytes; bytes += run_arena::kBlockStep) {
    if (bytes != kBytes) {
      EXPECT_EQ(run_arena::blockPoolSize(bytes), others[at]) << bytes;
    }
    ++at;
  }
}

/// Holds a block until thread exit. Constructed before the thread's block
/// pool, so it is destroyed after it.
struct ReleasedAtThreadExit {
  void* block = nullptr;
  ~ReleasedAtThreadExit() {
    if (block != nullptr) run_arena::releaseBlock(block, 48);
  }
};

struct PoolProbe final : MessageBase<PoolProbe> {
  explicit PoolProbe(int value) : value(value) {}
  int value;
  std::string describe() const override { return "probe"; }
};

TEST(RunArena, BlocksMayBeReleasedOnAnotherThreadOrAfterExit) {
  // Allocated on a worker, released here: the block joins this thread's
  // list.
  void* block = nullptr;
  std::thread([&] { block = run_arena::allocateBlock(64); }).join();
  const std::size_t before = run_arena::blockPoolSize(64);
  run_arena::releaseBlock(block, 64);
  if (run_arena::kBlockPoolEnabled && before < run_arena::kBlockCap) {
    EXPECT_EQ(run_arena::blockPoolSize(64), before + 1);
  }

  // A message made here and dropped by its last reader on a worker.
  std::shared_ptr<const PoolProbe> probe = makeMessage<PoolProbe>(7);
  std::thread([moved = std::move(probe)]() mutable {
    EXPECT_EQ(moved->value, 7);
    moved.reset();
  }).join();

  // Released during thread exit, after that thread's pool is gone: the
  // block goes straight to operator delete.
  std::thread([] {
    thread_local ReleasedAtThreadExit held;
    held.block = run_arena::allocateBlock(48);
  }).join();
}

TEST(RunArena, RepeatedServiceRunDrawsEveryMessageFromThePool) {
  if (!run_arena::kBlockPoolEnabled)
    GTEST_SKIP() << "AddressSanitizer build: blocks go to operator new";
  svc::SvcConfig config;  // engine compose: benor-vac + lottery
  config.n = 3;
  config.seed = 11;
  config.workload.commandsPerNode = 12;
  (void)svc::runSvc(config);
  std::size_t pooled = 0;
  for (std::size_t bytes = run_arena::kBlockStep;
       bytes <= run_arena::kBlockMaxBytes; bytes += run_arena::kBlockStep)
    pooled += run_arena::blockPoolSize(bytes);
  EXPECT_GT(pooled, 0u) << "the first run's messages came back to the pool";
  const std::uint64_t misses = run_arena::blockMisses();
  const svc::SvcResult second = svc::runSvc(config);
  EXPECT_TRUE(second.allApplied);
  EXPECT_EQ(run_arena::blockMisses(), misses)
      << "the first run's freed blocks serve every message of the second";
}

// ---------------------------------------------------------------------------
// Telemetry folds + steal-heavy schedule (tsan exercises the races in CI)

TEST(Scheduler, StealHeavyScheduleStaysCoverageExactAndFoldsStats) {
  std::vector<std::atomic<int>> hits(256);
  sweep::Options options;
  options.threads = 16;
  options.chunkSize = 1;  // maximal steal opportunity
  const sweep::SweepStats stats = sweep::parallelFor(
      hits.size(),
      [&](std::size_t index, sweep::Control&) {
        hits[index].fetch_add(1, std::memory_order_relaxed);
        // Uneven bodies: early indices are slow, so idle workers must
        // steal from the back of busy queues to finish.
        if (index % 16 == 0)
          std::this_thread::sleep_for(std::chrono::microseconds(300));
      },
      options);
  for (std::size_t i = 0; i < hits.size(); ++i)
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;

  EXPECT_EQ(stats.configs, hits.size());
  EXPECT_EQ(stats.chunksDealt, hits.size());
  std::size_t foldedConfigs = 0;
  std::size_t foldedOwned = 0;
  std::size_t foldedStolen = 0;
  for (const sweep::WorkerStats& worker : stats.perWorker) {
    foldedConfigs += worker.configs;
    foldedOwned += worker.chunksOwned;
    foldedStolen += worker.chunksStolen;
  }
  EXPECT_EQ(foldedConfigs, stats.configs);
  EXPECT_EQ(foldedOwned + foldedStolen, stats.chunksDealt);
  EXPECT_EQ(foldedStolen, stats.steals);
}

TEST(Scheduler, AccumulatorSumsSweepsAndRendersJson) {
  sweep::Options options;
  options.threads = 2;
  const sweep::SweepStats first =
      sweep::parallelFor(100, [](std::size_t, sweep::Control&) {}, options);
  const sweep::SweepStats second =
      sweep::parallelFor(50, [](std::size_t, sweep::Control&) {}, options);
  sweep::SweepAccumulator accumulator;
  EXPECT_TRUE(accumulator.empty());
  accumulator.add(first);
  accumulator.add(second);
  EXPECT_FALSE(accumulator.empty());
  EXPECT_EQ(accumulator.sweeps, 2u);
  EXPECT_EQ(accumulator.configs, 150u);

  const std::string json = sweep::toJson(accumulator);
  EXPECT_NE(json.find("\"sweeps\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"configs\":150"), std::string::npos) << json;
  EXPECT_NE(json.find("\"per_worker\""), std::string::npos) << json;

  const std::string single = sweep::toJson(first);
  EXPECT_NE(single.find("\"workers\""), std::string::npos) << single;
  EXPECT_NE(single.find("\"chunk_size\""), std::string::npos) << single;
}

}  // namespace
}  // namespace ooc
