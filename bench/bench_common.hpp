// Shared harness for the experiment binaries. Every bench prints one or
// more labelled ASCII tables (the "paper tables" of EXPERIMENTS.md) and
// exits non-zero if any run violated a correctness property, so the bench
// suite doubles as a large randomized soak test.
//
// A `Bench` instance owns the binary's command line and output:
//
//   int main(int argc, char** argv) {
//     ooc::bench::Bench bench(argc, argv, "benor_rounds");
//     bench.banner("E1: ...", "claim...");
//     ...
//     bench.require(ok, "what");
//     bench.emit(table);
//     return bench.finish();
//   }
//
// Flags (uniform across all benches):
//   --quick        scale trial counts down (CI smoke mode); see trials()
//   --threads N    worker threads for trial sweeps (default: hardware)
//   --json PATH    additionally write the whole bench result as JSON
//   --help         print usage
//
// The JSON output ("ooc.bench.v1", documented in EXPERIMENTS.md) captures
// the banner/section/table/note stream, the verdict, and a snapshot of the
// telemetry registry (the constructor enables ooc::obs metrics, so the
// instrumented scenario runners publish per-family counters and
// distributions). Everything in the file is a pure function of
// (bench, flags) — byte-identical across repeated runs and across
// --threads values — except the quarantined `sweep` scheduler-telemetry
// block, which carries wall-clock fields (like ooc.check.v1's).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "compose/matrix.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_id.hpp"
#include "sweep/scheduler.hpp"
#include "util/stats.hpp"

namespace ooc::bench {

namespace detail {
/// Worker threads for trial sweeps; 0 = hardware (set by Bench's --threads).
inline std::size_t& trialThreadsRef() noexcept {
  static std::size_t threads = 0;
  return threads;
}
/// Scheduler telemetry accumulated across every trial sweep of the
/// process, emitted as the bench JSON's quarantined `sweep` block.
inline sweep::SweepAccumulator& sweepTelemetryRef() noexcept {
  static sweep::SweepAccumulator acc;
  return acc;
}
}  // namespace detail

/// Worker threads trial sweeps use (0 = hardware). Test hook + Bench flag.
inline void setTrialThreads(std::size_t threads) noexcept {
  detail::trialThreadsRef() = threads;
}
inline std::size_t trialThreads() noexcept {
  return detail::trialThreadsRef();
}

/// Runs `fn(0) ... fn(runs-1)` across the experiment scheduler and returns
/// the results **in index order** — the determinism backbone of every
/// parallel bench: each trial writes a pre-sized slot, and the caller's
/// fold over the returned vector sees one canonical order regardless of
/// thread count. `fn` must be safe to call concurrently for distinct runs
/// (trials are independent seeded simulations; registry updates are
/// commutative).
template <typename Fn>
auto runTrialsParallel(int runs, Fn&& fn)
    -> std::vector<std::decay_t<decltype(fn(0))>> {
  std::vector<std::decay_t<decltype(fn(0))>> results(
      static_cast<std::size_t>(runs > 0 ? runs : 0));
  sweep::Options options;
  options.threads = trialThreads();
  const sweep::SweepStats stats = sweep::parallelFor(
      results.size(),
      [&](std::size_t index, sweep::Control&) {
        results[index] = fn(static_cast<int>(index));
      },
      options);
  detail::sweepTelemetryRef().add(stats);
  return results;
}

/// The balanced-split input pattern every sweep uses: 0,1,0,1,...
inline std::vector<Value> alternatingInputs(std::size_t n) {
  std::vector<Value> inputs(n);
  for (std::size_t i = 0; i < n; ++i)
    inputs[i] = static_cast<Value>(i % 2);
  return inputs;
}

/// Runs `composition` under seeds seedBase, seedBase+1, ... through
/// compose::runTrials at the bench's --threads, recording the fan-out in
/// the bench JSON's quarantined `sweep` block. The composition names the
/// detector × driver pairing; everything else (inputs, t, crash schedule,
/// oracle) rides along on the spec.
inline compose::TrialStats runCompositionTrials(
    const compose::Composition& composition, int runs,
    std::uint64_t seedBase) {
  compose::TrialStats stats =
      compose::runTrials(composition, runs, seedBase, trialThreads());
  detail::sweepTelemetryRef().add(stats.sweep);
  return stats;
}

class Bench {
 public:
  Bench(int argc, char** argv, std::string name) : name_(std::move(name)) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--quick") {
        quick_ = true;
      } else if (arg == "--json" && i + 1 < argc) {
        jsonPath_ = argv[++i];
      } else if (arg == "--threads" && i + 1 < argc) {
        setTrialThreads(static_cast<std::size_t>(
            std::strtoull(argv[++i], nullptr, 10)));
      } else if (arg == "--help" || arg == "-h") {
        std::printf("usage: bench_%s [--quick] [--threads N] [--json PATH]\n"
                    "  --quick      reduced trial counts (CI smoke mode)\n"
                    "  --threads N  worker threads for trial sweeps\n"
                    "               (default 0 = hardware; results are\n"
                    "               byte-identical at any value)\n"
                    "  --json PATH  write machine-readable results "
                    "(schema ooc.bench.v1)\n",
                    name_.c_str());
        std::exit(0);
      } else {
        std::fprintf(stderr, "bench_%s: unknown argument '%s'\n",
                     name_.c_str(), arg.c_str());
        std::exit(2);
      }
    }
    obs::metrics().reset();
    obs::metrics().enable(true);
  }

  bool quick() const noexcept { return quick_; }

  /// Trial count for one experiment cell: `full` normally, scaled down by
  /// 10x (floor 4) under --quick so the CI smoke job finishes in seconds.
  int trials(int full) const noexcept {
    return quick_ ? std::max(4, full / 10) : full;
  }

  /// Starts a new experiment: prints the banner and opens a JSON section.
  void banner(const std::string& experiment, const std::string& claim) {
    std::printf("=== %s ===\n%s\n\n", experiment.c_str(), claim.c_str());
    sections_.push_back(Section{experiment, claim, {}, {}, {}});
  }

  /// Starts a sub-section within the current experiment.
  void section(const std::string& title) {
    std::printf("--- %s ---\n", title.c_str());
    current().subsections.push_back(title);
  }

  /// Prints a table and records it in the current section.
  void emit(const Table& table) {
    std::printf("%s\n", table.render().c_str());
    current().tables.push_back(table);
  }

  /// Prints a free-form remark and records it in the current section.
  void note(const std::string& text) {
    std::printf("%s\n", text.c_str());
    current().notes.push_back(text);
  }

  /// Correctness check: a failure is printed, counted, and recorded in the
  /// JSON verdict (violations are aggregated by `what`).
  void require(bool ok, const std::string& what) {
    if (ok) return;
    ++failures_;
    ++violations_[what];
    std::printf("!! property violation: %s\n", what.c_str());
  }

  int failures() const noexcept { return failures_; }

  /// Prints the verdict, writes the JSON file if requested, and returns the
  /// process exit code (0 iff no property was violated).
  int finish() {
    if (failures_ > 0)
      std::printf("\n%d correctness violations — INVESTIGATE\n", failures_);
    if (!jsonPath_.empty()) writeJson();
    return failures_ > 0 ? 1 : 0;
  }

 private:
  struct Section {
    std::string title;
    std::string claim;
    std::vector<Table> tables;
    std::vector<std::string> notes;
    std::vector<std::string> subsections;
  };

  Section& current() {
    if (sections_.empty()) sections_.push_back(Section{name_, "", {}, {}, {}});
    return sections_.back();
  }

  void writeJson() {
    obs::JsonWriter w;
    w.beginObject();
    w.key("schema").value("ooc.bench.v1");
    w.key("bench").value(name_);
    // Deterministic identity: the bench's configuration is its name plus
    // the trial-scaling flag (seeds are hard-coded per bench).
    w.key("run_id").value(
        obs::runId(name_ + (quick_ ? "\x1f/quick" : "\x1f/full")));
    w.key("quick").value(quick_);

    w.key("verdict").beginObject();
    w.key("failures").value(failures_);
    w.key("violations").beginArray();
    for (const auto& [what, count] : violations_) {  // std::map: sorted
      w.beginObject();
      w.key("what").value(what);
      w.key("count").value(static_cast<std::uint64_t>(count));
      w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("sections").beginArray();
    for (const Section& s : sections_) {
      w.beginObject();
      w.key("title").value(s.title);
      w.key("claim").value(s.claim);
      w.key("tables").beginArray();
      for (const Table& t : s.tables) {
        w.beginObject();
        w.key("header").beginArray();
        for (const std::string& h : t.header()) w.value(h);
        w.endArray();
        w.key("rows").beginArray();
        for (const auto& row : t.rows()) {
          w.beginArray();
          for (const std::string& cell : row) w.value(cell);
          w.endArray();
        }
        w.endArray();
        w.endObject();
      }
      w.endArray();
      w.key("notes").beginArray();
      for (const std::string& n : s.notes) w.value(n);
      w.endArray();
      w.endObject();
    }
    w.endArray();

    w.key("metrics").raw(obs::metrics().toJson());
    // Scheduler telemetry accumulated over every trial sweep. Like
    // ooc.check.v1's, this is the ONLY non-reproducible (wall-clock)
    // block of the file — byte-diff consumers strip `sweep` first.
    if (!detail::sweepTelemetryRef().empty())
      w.key("sweep").raw(sweep::toJson(detail::sweepTelemetryRef()));
    w.endObject();

    std::ofstream out(jsonPath_, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "bench_%s: cannot write '%s'\n", name_.c_str(),
                   jsonPath_.c_str());
      std::exit(2);
    }
    out << w.str() << '\n';
  }

  std::string name_;
  bool quick_ = false;
  std::string jsonPath_;
  int failures_ = 0;
  std::map<std::string, int> violations_;
  std::vector<Section> sections_;
};

}  // namespace ooc::bench
