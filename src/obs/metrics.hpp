// Protocol telemetry: a process-wide metrics registry, fed one batch per run.
//
// Series are keyed by (name, labels) — e.g. confidence transition counts
// per family, confidence level and round — and come in three shapes:
// counters (monotonic uint64), gauges (last-written double) and histograms
// (fixed bucket bounds, plus count/sum/min/max).
//
// Design constraints, in priority order:
//  * Near-zero cost when disabled. The registry ships disabled; every
//    mutator first reads one relaxed atomic and returns. Hot paths (the
//    simulator event loop) never call the registry at all — they keep
//    plain member counters. A scenario runner checks enabled() once per
//    run, folds the run's telemetry into a local, unlocked Batch and
//    commits it: a disabled-telemetry sweep pays one atomic load per run,
//    and an enabled one takes the registry mutex once per run rather than
//    once per update, so concurrent sweep workers rarely wait on it.
//  * Deterministic when enabled. Counter increments and histogram
//    observations are commutative, and snapshots render series sorted by
//    (name, labels) with reproducible number formatting, so the JSON
//    snapshot of a run is byte-identical across repetitions — even when
//    the model checker fills the registry from many worker threads.
//    Batching regroups a run's updates without changing a byte: counter
//    sums are exact, and so are histogram sums of integer-valued samples
//    (every in-tree sample is a tick, round or size count).
//    (Gauges are last-write-wins and therefore only deterministic from
//    single-threaded contexts, i.e. the bench binaries.)
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ooc::obs {

/// Label set attached to a series. Order does not matter: the registry
/// sorts labels by key when interning the series.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Default histogram bucket upper bounds (inclusive): powers of two
/// covering 1..65536, suitable for round and tick distributions.
const std::vector<double>& defaultBuckets();

namespace detail {

enum class SeriesType { kCounter, kGauge, kHistogram };

/// One series' state: an entry of the registry, or of a Batch.
struct Series {
  SeriesType type = SeriesType::kCounter;
  std::string name;
  Labels labels;  // sorted by key
  std::uint64_t counter = 0;
  double gauge = 0.0;
  // Histogram state. bucketCounts has bounds.size() + 1 entries; the
  // last one counts samples above every bound.
  std::vector<double> bounds;
  std::vector<std::uint64_t> bucketCounts;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
};

}  // namespace detail

/// One run's counter and histogram updates, folded without a lock and
/// applied to a Registry by a single Registry::commit(). It holds one entry
/// per distinct (name, labels): counters are summed, and histogram samples
/// fold into bucket counts, count, sum, min and max. So its size is bounded
/// by the series a run touches, not by the run's length. A batch belongs to
/// one thread; share the registry, not the batch.
class Batch {
 public:
  /// Same contracts as the Registry mutators of the same names, which are
  /// themselves one-update batches.
  void addCounter(std::string_view name, std::uint64_t delta,
                  const Labels& labels = {});
  void observe(std::string_view name, double sample, const Labels& labels,
               const std::vector<double>& bounds);
  void observe(std::string_view name, double sample,
               const Labels& labels = {}) {
    observe(name, sample, labels, defaultBuckets());
  }

  /// Distinct entries held.
  std::size_t size() const noexcept { return entries_.size(); }

 private:
  friend class Registry;

  struct Entry {
    /// The type byte, then the registry's series key: one entry per type,
    /// so an update of the wrong type is dropped at commit just as the
    /// same update made per call would be.
    std::string key;
    detail::Series series;
  };

  detail::Series& entry(std::string_view name, const Labels& labels,
                        detail::SeriesType type);

  /// First-update order, which is the order commit() interns them in.
  std::vector<Entry> entries_;
  /// Entry::key -> index into entries_.
  std::unordered_map<std::string, std::size_t> index_;
};

class Registry {
 public:
  /// Series beyond this cap are dropped (and counted in droppedSeries())
  /// instead of growing without bound on a label-cardinality mistake.
  /// Each update that would create a series past the cap counts once:
  /// a per-call mutator counts one per call, a commit() one per dropped
  /// batch entry, however many updates that entry folded. No in-tree run
  /// comes near the cap.
  static constexpr std::size_t kMaxSeries = 1 << 16;

  void enable(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Drops every series (the enabled flag is unchanged).
  void reset();

  /// Applies every entry of `batch` under one lock; a no-op while the
  /// registry is disabled. Each entry interns its series once, exactly as
  /// the equivalent per-call updates would in first-update order: the
  /// first registration of a (name, labels) pins its type and histogram
  /// bounds, and an entry of another type or other bounds is dropped.
  void commit(const Batch& batch);

  /// Adds `delta` to the counter series, creating it at zero first.
  void addCounter(std::string_view name, std::uint64_t delta,
                  const Labels& labels = {});
  /// Sets the gauge series to `value` (last write wins).
  void setGauge(std::string_view name, double value,
                const Labels& labels = {});
  /// Records `sample` into the histogram series. Bucket bounds are fixed
  /// at series creation: the first observation's `bounds` win, and a
  /// sample offered under other bounds is dropped like a type mismatch
  /// (pass the same bounds everywhere, or use the defaultBuckets()
  /// overload).
  void observe(std::string_view name, double sample, const Labels& labels,
               const std::vector<double>& bounds);
  void observe(std::string_view name, double sample,
               const Labels& labels = {}) {
    observe(name, sample, labels, defaultBuckets());
  }

  std::size_t seriesCount() const;
  std::size_t droppedSeries() const;

  /// Deterministic snapshot: {"counters":[...],"gauges":[...],
  /// "histograms":[...]}, each array sorted by (name, labels).
  std::string toJson() const;

  /// The process-wide registry used by all instrumentation call sites.
  static Registry& global() noexcept;

 private:
  using Series = detail::Series;
  using Type = detail::SeriesType;

  /// Finds or creates the series `key`; null on a type mismatch or past
  /// the cardinality cap. Call with mutex_ held.
  Series* intern(std::string_view key, const Series& like);

  mutable std::mutex mutex_;
  std::atomic<bool> enabled_{false};
  /// Key is "name\x1f<label-key>" so map order IS (name, labels) order.
  std::map<std::string, Series, std::less<>> series_;
  std::size_t dropped_ = 0;
};

/// Shorthand for Registry::global().enabled() — the guard instrumentation
/// sites use before doing any work.
inline bool enabled() noexcept { return Registry::global().enabled(); }

/// Registry::global() accessors used by instrumentation call sites.
inline Registry& metrics() noexcept { return Registry::global(); }

}  // namespace ooc::obs
