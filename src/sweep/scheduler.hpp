// The parallel experiment scheduler: a persistent worker pool that shards
// an index space [0, total) over work-stealing per-worker deques and runs
// any `(index) -> void` experiment functor on every index exactly once.
//
// Extracted from the one-off driver in src/check/checker.cpp (PR 4/7) so
// every embarrassingly parallel sweep in the repo — checker exploration,
// the E20/E22/E24 composition matrices, composition trial loops, the
// family=svc grids — rides one scheduler with one telemetry schema.
//
// Determinism contract (the reason this is safe to use everywhere):
//   * The scheduler decides only WHICH THREAD runs an index and WHEN —
//     never what the index computes. Bodies must be pure functions of
//     their index (each body invocation owns its simulation; shared state
//     is limited to writing results[index] into a pre-sized slot plus
//     commutative telemetry-registry updates).
//   * Callers reduce results in index order after parallelFor returns, so
//     floating-point folds see one canonical order. Under that discipline
//     every aggregate (ooc.check.v1, ooc.matrix.v2, bench JSON) is
//     byte-identical at threads=1 and threads=N.
//   * The only non-deterministic outputs are the wall-clock fields of
//     SweepStats, which stay quarantined in the documented `sweep`
//     telemetry block of each artifact and never feed byte-diffed data.
//
// Worker threads are persistent (lazily grown, process-lifetime), so the
// thread-local simulation arenas — EventQueue bucket rings, timer tables,
// trace buffers (src/sim/run_arena.hpp) — stay warm across sweeps: a
// 2ms simulation stops paying per-run setup on the 10'000th run just as
// on the 2nd.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ooc::sweep {

/// One worker's share of a sweep. Timing fields are wall-clock and thus
/// NOT deterministic — they feed the `sweep` telemetry block of the JSON
/// artifacts (documented as the one non-reproducible section), never the
/// byte-diffed parts.
struct WorkerStats {
  std::uint64_t configs = 0;       ///< indices this worker ran
  std::uint64_t chunksDealt = 0;   ///< initial depth of its chunk deque
  std::uint64_t chunksOwned = 0;   ///< chunks popped from its own front
  std::uint64_t chunksStolen = 0;  ///< chunks it stole from victims' backs
  double seconds = 0.0;            ///< wall-clock time inside the worker
  double configsPerSec = 0.0;
};

/// Sweep-level telemetry of one parallelFor() call.
struct SweepStats {
  std::size_t workers = 0;
  std::size_t chunkSize = 0;
  std::uint64_t configs = 0;  ///< indices actually run (== total unless stopped)
  std::uint64_t chunksDealt = 0;
  std::uint64_t steals = 0;  ///< total cross-worker chunk migrations
  double elapsedSeconds = 0.0;
  double configsPerSec = 0.0;
  std::vector<WorkerStats> perWorker;
};

/// Cooperative early exit: a body may request the sweep stop (e.g. the
/// checker hit maxFindings). Workers observe the flag between indices, so
/// in-flight bodies finish; indices not yet started may be skipped.
class Control {
 public:
  void requestStop() noexcept { stop_.store(true, std::memory_order_relaxed); }
  bool stopRequested() const noexcept {
    return stop_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> stop_{false};
};

struct Options {
  /// Worker threads; 0 means hardwareThreads(). Clamped to [1, total].
  /// threads == 1 runs inline on the calling thread (no pool involved).
  std::size_t threads = 0;
  /// Indices per chunk; 0 means clamp(total / (threads * 16), 1, 1024) —
  /// big enough to keep a worker on consecutive configurations (warm
  /// thread-local arenas), small enough that stealing balances skewed
  /// per-index runtimes.
  std::size_t chunkSize = 0;
  /// Invoke `onProgress` roughly every `progressEvery` completed indices
  /// (0 = never). Contention-free: completion is an atomic counter and a
  /// single throttled emitter publishes it — a worker that loses the
  /// emitter race skips the tick instead of blocking, so progress
  /// reporting never serializes workers. Consequently the callback runs on
  /// whichever worker crossed the threshold, one invocation at a time.
  std::size_t progressEvery = 0;
  std::function<void(std::size_t done, std::size_t total)> onProgress;
};

/// The experiment functor: run index `index`. Must be safe to call
/// concurrently for distinct indices from distinct threads.
using Body = std::function<void(std::size_t index, Control& control)>;

/// Runs `body` on every index of [0, total), sharded over the persistent
/// worker pool. Blocks until the sweep completes (or stops early). The
/// first exception a body throws stops the sweep and is rethrown here.
/// Nested calls from inside a body run inline at threads=1 (the pool
/// executes one sweep at a time; concurrent calls from unrelated threads
/// serialize on it).
SweepStats parallelFor(std::size_t total, const Body& body,
                       const Options& options = {});

/// std::thread::hardware_concurrency(), floored at 1.
std::size_t hardwareThreads() noexcept;

/// Renders `stats` as the canonical `sweep` JSON telemetry block shared by
/// ooc.check.v1 and the bench writers:
///   {"workers":W,"chunk_size":C,"configs":N,"chunks":K,"steals":S,
///    "elapsed_seconds":E,"configs_per_sec":R,"per_worker":[...]}
/// Wall-clock fields make this the one non-reproducible block of any
/// artifact that embeds it — byte-diff consumers strip it first.
std::string toJson(const SweepStats& stats);

/// Accumulates the sweeps of one process (a bench makes one parallelFor
/// call per experiment cell) into a single telemetry block: counts are
/// summed, per-worker rows merged by slot, and `sweeps` counts the calls.
struct SweepAccumulator {
  std::uint64_t sweeps = 0;
  std::size_t workers = 0;  ///< max over sweeps
  std::uint64_t configs = 0;
  std::uint64_t chunksDealt = 0;
  std::uint64_t steals = 0;
  double elapsedSeconds = 0.0;
  std::vector<WorkerStats> perWorker;  ///< merged by worker slot

  void add(const SweepStats& stats);
  bool empty() const noexcept { return sweeps == 0; }
};

/// Renders the accumulator with the same field names as toJson(SweepStats)
/// plus a `sweeps` count (and no chunk_size — it varies per sweep).
std::string toJson(const SweepAccumulator& acc);

}  // namespace ooc::sweep
