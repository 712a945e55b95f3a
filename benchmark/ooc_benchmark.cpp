// The repository benchmark. It times the library's public entry points
// from outside -- svc::runSvc, check::explore, check::runScenario,
// ExplorationStrategy::generate and Invariant::check -- on one workload
// per process, and prints either the end-to-end metrics (--trace 0) or the
// per-layer split of the same runs (--trace 1). README.md in this
// directory defines every workload and metric; run.sh builds this program
// and is the command to run.
//
//   ooc_benchmark --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//                 [--trace-out PATH] [--setup-reps K]
//
// Each metric prints as a `workload metric value unit` line, and the last
// line of standard output is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The exit code is 0 when every audit passed, 1 when one failed, and 2 on
// a usage or run error, which prints no result line.
#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "check/checker.hpp"
#include "check/invariant.hpp"
#include "check/scenario.hpp"
#include "check/strategy.hpp"
#include "compose/hooks.hpp"
#include "compose/registry.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sim/trace.hpp"
#include "svc/run.hpp"
#include "sweep/scheduler.hpp"

extern char** environ;

namespace {

using Clock = std::chrono::steady_clock;
using ooc::Tick;
using ooc::TraceEvent;

/// A timed run is cut into this many equal blocks, and a rate is the
/// median over the blocks, so a burst of load elsewhere on the machine
/// moves one block rather than the result.
constexpr int kBlocks = 10;
/// The traced pass covers the seeds the first 20% of a timed run uses.
constexpr double kTraceShare = 0.2;
/// `--seed S` moves every seed base by S strides. A run uses far fewer
/// seeds than a stride, so two benchmark seeds never share an input.
constexpr std::uint64_t kSeedStride = 10'000'000;
/// Warm-up inputs sit at the top of the first stride, far from any timed
/// set. They do not move with `--seed`, so every seed sets up alike.
constexpr std::uint64_t kWarmupOffset = 9'000'000;
/// Configurations per check::explore call on check-sweep.
constexpr std::size_t kSlice = 400;

/// The sweep width of check-sweep and of the traced pass's comparisons.
std::size_t benchThreads() {
  return std::min<std::size_t>(4, ooc::sweep::hardwareThreads());
}

double secondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double secondsSince(Clock::time_point from) {
  return secondsBetween(from, Clock::now());
}

double nanosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::nano>(to - from).count();
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Linearly interpolated quantile; 0 for an empty sample.
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Runs behind the deterministic tick metrics: `full` at 10 s or more,
/// scaled down for shorter smoke runs.
std::size_t scaledCount(std::size_t full, double seconds) {
  const double scaled =
      std::ceil(static_cast<double>(full) * std::min(1.0, seconds / 10.0));
  return std::max<std::size_t>(1, static_cast<std::size_t>(scaled));
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run attempted and how many attempts failed an audit. The
/// description of a failure is built only when there is one.
struct Audit {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  template <typename Describe>
  void add(std::uint64_t attempts, std::uint64_t failures,
           const Describe& describe) {
    attempted += attempts;
    if (failures == 0) return;
    if (failed < 20)
      std::fprintf(stderr, "audit failed: %s\n", describe().c_str());
    failed += failures;
  }
  template <typename Describe>
  void record(bool ok, const Describe& describe) {
    add(1, ok ? 0 : 1, describe);
  }
};

// --- spans ------------------------------------------------------------------

/// The traced pass's spans, kept in memory and written at exit as Chrome
/// trace-event JSON, which Perfetto loads. Spans open and close on the
/// main thread only; a span's parent is the innermost span open when it
/// began.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::string detail = {})
        : log_(log), index_(log.open(name, std::move(detail))) {}
    ~Scope() { log_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::size_t index_;
  };

  void write(const std::string& path) const {
    ooc::obs::JsonWriter json;
    json.beginObject().key("traceEvents").beginArray();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      json.beginObject()
          .key("name").value(span.name)
          .key("cat").value("ooc_benchmark")
          .key("ph").value("X")
          .key("pid").value(1)
          .key("tid").value(1)
          .key("ts").value(span.startUs)
          .key("dur").value(span.endUs - span.startUs)
          .key("args").beginObject()
          .key("id").value(static_cast<std::uint64_t>(i + 1))
          .key("parent").value(span.parent)
          .key("detail").value(span.detail)
          .endObject()
          .endObject();
    }
    json.endArray().key("displayTimeUnit").value("ms").endObject();
    std::ofstream out(path, std::ios::binary);
    out << json.str() << '\n';
    if (!out) throw std::runtime_error("cannot write '" + path + "'");
  }

 private:
  struct Span {
    const char* name;
    std::string detail;
    std::uint64_t parent;  ///< id of the enclosing span, 0 for a root
    double startUs;
    double endUs;
  };

  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  std::size_t open(const char* name, std::string detail) {
    const std::uint64_t parent = stack_.empty() ? 0 : stack_.back() + 1;
    stack_.push_back(spans_.size());
    spans_.push_back({name, std::move(detail), parent, nowUs(), 0.0});
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    spans_[index].endUs = nowUs();
    stack_.pop_back();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  ///< open spans, innermost last
};

// --- per-layer observation --------------------------------------------------

constexpr std::size_t kKinds =
    static_cast<std::size_t>(TraceEvent::Kind::kRestart) + 1;

constexpr std::size_t kindIndex(TraceEvent::Kind kind) {
  return static_cast<std::size_t>(kind);
}

/// Splits one simulator run's wall time by event kind. The time from one
/// event to the next is charged to the earlier event, so it includes that
/// event's handler. Decisions are reported from inside a handler: they are
/// recorded with their tick and their time stays with the enclosing event.
class EventClock final : public ooc::ScheduleObserver {
 public:
  void onEvent(const TraceEvent& event) override {
    const Clock::time_point now = Clock::now();
    if (event.kind == TraceEvent::Kind::kDecision) {
      decisionTicks.push_back(event.at);
      return;
    }
    if (events == 0) {
      first = now;
    } else {
      const double ns = nanosBetween(last, now);
      kindNs[kindIndex(current_)] += ns;
      ++kindCount[kindIndex(current_)];
      if (current_ == TraceEvent::Kind::kDeliver) deliverNs.push_back(ns);
    }
    ++events;
    current_ = event.kind;
    last = now;
  }

  std::array<double, kKinds> kindNs{};
  std::array<std::uint64_t, kKinds> kindCount{};
  std::vector<double> deliverNs;  ///< every delivery, in run order
  std::vector<Tick> decisionTicks;
  std::uint64_t events = 0;
  Clock::time_point first;
  Clock::time_point last;

 private:
  TraceEvent::Kind current_ = TraceEvent::Kind::kControl;
};

/// Counts the paper's objects at work: detector outcomes, driver returns,
/// and the highest round a run reached.
class ObjectCounter final : public ooc::compose::TelemetrySink {
 public:
  void onDetectorOutcome(ooc::ProcessId, ooc::Round round,
                         const ooc::Outcome&, Tick) override {
    ++detectorCalls;
    maxRound = std::max<std::uint64_t>(maxRound, round);
  }
  void onDriverValue(ooc::ProcessId, ooc::Round, ooc::Value, Tick) override {
    ++driverCalls;
  }

  std::uint64_t detectorCalls = 0;
  std::uint64_t driverCalls = 0;
  std::uint64_t maxRound = 0;
};

/// EventClock readings folded over the runs of a traced pass, plus the
/// runner's own time around the events: from the call to the first event
/// (construction), and from the last event to the return (the last
/// handler, the audits and the result collection).
struct LayerTotals {
  std::array<double, kKinds> kindNs{};
  std::array<std::uint64_t, kKinds> kindCount{};
  double firstQuarterDeliverNs = 0.0;
  double lastQuarterDeliverNs = 0.0;
  double preNs = 0.0;
  double postNs = 0.0;
  std::uint64_t runs = 0;
  std::uint64_t events = 0;

  void add(const EventClock& clock, Clock::time_point called,
           Clock::time_point returned) {
    for (std::size_t k = 0; k < kKinds; ++k) {
      kindNs[k] += clock.kindNs[k];
      kindCount[k] += clock.kindCount[k];
    }
    const std::vector<double>& deliveries = clock.deliverNs;
    const std::size_t quarter = deliveries.size() / 4;
    for (std::size_t i = 0; i < quarter; ++i) {
      firstQuarterDeliverNs += deliveries[i];
      lastQuarterDeliverNs += deliveries[deliveries.size() - 1 - i];
    }
    if (clock.events == 0) {
      preNs += nanosBetween(called, returned);
    } else {
      preNs += nanosBetween(called, clock.first);
      postNs += nanosBetween(clock.last, returned);
    }
    ++runs;
    events += clock.events;
  }

  double share(TraceEvent::Kind kind) const {
    double total = 0.0;
    for (double ns : kindNs) total += ns;
    return ratio(kindNs[kindIndex(kind)], total);
  }
  double meanNs(TraceEvent::Kind kind) const {
    return ratio(kindNs[kindIndex(kind)],
                 static_cast<double>(kindCount[kindIndex(kind)]));
  }
};

/// Every per-layer metric, in print order. A workload fills the fields of
/// the layers its program reaches; the others read 0, meaning the layer is
/// not reached (or, for core.* on the service, cannot be seen from
/// outside: runSvc takes no TelemetrySink).
struct LayerReport {
  double deliverNs = 0, deliverShare = 0, timerShare = 0, barrierShare = 0;
  double deliverNsGrowth = 0, eventsPerOp = 0, msgsPerOp = 0;
  double traceOverhead = 0;
  double callMsP90 = 0, preMs = 0, postMs = 0, startMsPerNode = 0;
  double batchMean = 0, noopRatio = 0, latencyCoverage = 0;
  double replicationCost = 0;
  double durableCost = 0, restartShare = 0;
  double electionsPerRun = 0;
  double detectorCallsPerRun = 0, driverCallsPerRun = 0, roundsPerRun = 0;
  double generateShare = 0, runShare = 0, invariantsShare = 0;
  double busyRatio = 0, imbalance = 0, stealsPerCall = 0;
  double scalingEfficiency = 0;
  double registryCost1t = 0, registryCost4t = 0;

  /// The simulator and runner fields, from a traced pass's totals.
  void fillSim(const LayerTotals& totals) {
    using Kind = TraceEvent::Kind;
    deliverNs = totals.meanNs(Kind::kDeliver);
    deliverShare = totals.share(Kind::kDeliver);
    timerShare = totals.share(Kind::kTimer);
    barrierShare = totals.share(Kind::kBarrier);
    restartShare = totals.share(Kind::kRestart);
    deliverNsGrowth =
        ratio(totals.lastQuarterDeliverNs, totals.firstQuarterDeliverNs);
    const auto runs = static_cast<double>(totals.runs);
    preMs = ratio(totals.preNs, runs) / 1e6;
    postMs = ratio(totals.postNs, runs) / 1e6;
    startMsPerNode = totals.meanNs(Kind::kStart) / 1e6;
  }

  /// The sweep fields, from the stats of the `threads`-wide calls and the
  /// wall time of the same work at 1 thread.
  void fillSweep(const std::vector<ooc::sweep::SweepStats>& calls,
                 double oneThreadSeconds, std::size_t threads) {
    double busy = 0, capacity = 0, slowest = 0, mean = 0, steals = 0,
           elapsed = 0;
    for (const ooc::sweep::SweepStats& stats : calls) {
      double sum = 0, max = 0;
      for (const ooc::sweep::WorkerStats& worker : stats.perWorker) {
        sum += worker.seconds;
        max = std::max(max, worker.seconds);
      }
      busy += sum;
      capacity += static_cast<double>(stats.workers) * stats.elapsedSeconds;
      slowest += max;
      mean += ratio(sum, static_cast<double>(stats.perWorker.size()));
      steals += static_cast<double>(stats.steals);
      elapsed += stats.elapsedSeconds;
    }
    busyRatio = ratio(busy, capacity);
    imbalance = ratio(slowest, mean);
    stealsPerCall = ratio(steals, static_cast<double>(calls.size()));
    scalingEfficiency =
        ratio(ratio(oneThreadSeconds, elapsed), static_cast<double>(threads));
  }

  std::vector<Metric> metrics() const {
    return {
        {"sim.deliver_ns", deliverNs, "ns"},
        {"sim.deliver_share", deliverShare, "ratio"},
        {"sim.timer_share", timerShare, "ratio"},
        {"sim.barrier_share", barrierShare, "ratio"},
        {"sim.deliver_ns_growth", deliverNsGrowth, "ratio"},
        {"sim.events_per_op", eventsPerOp, "count"},
        {"sim.msgs_per_op", msgsPerOp, "count"},
        {"sim.trace_overhead", traceOverhead, "ratio"},
        {"runner.call_ms_p90", callMsP90, "ms"},
        {"runner.pre_ms", preMs, "ms"},
        {"runner.post_ms", postMs, "ms"},
        {"runner.start_ms_per_node", startMsPerNode, "ms"},
        {"svc.batch_mean", batchMean, "count"},
        {"svc.noop_ratio", noopRatio, "ratio"},
        {"svc.latency_coverage", latencyCoverage, "ratio"},
        {"svc.replication_cost", replicationCost, "ratio"},
        {"store.durable_cost", durableCost, "ratio"},
        {"store.restart_share", restartShare, "ratio"},
        {"raft.elections_per_run", electionsPerRun, "count"},
        {"core.detector_calls_per_run", detectorCallsPerRun, "count"},
        {"core.driver_calls_per_run", driverCallsPerRun, "count"},
        {"core.rounds_per_run", roundsPerRun, "count"},
        {"check.generate_share", generateShare, "ratio"},
        {"check.run_share", runShare, "ratio"},
        {"check.invariants_share", invariantsShare, "ratio"},
        {"sweep.busy_ratio", busyRatio, "ratio"},
        {"sweep.imbalance", imbalance, "ratio"},
        {"sweep.steals_per_call", stealsPerCall, "count"},
        {"sweep.scaling_efficiency", scalingEfficiency, "ratio"},
        {"obs.registry_cost_1t", registryCost1t, "ratio"},
        {"obs.registry_cost_4t", registryCost4t, "ratio"},
    };
  }
};

/// The end-to-end metrics of a timed run; main adds setup_s and
/// peak_rss_mb, which are measured around it.
struct TimedReport {
  double opsPerS = 0, eventsPerS = 0, callMsP50 = 0;
  double latencyTicksP50 = 0, latencyTicksP95 = 0, opsPerKtick = 0;
  double gapTicks = 0;

  std::vector<Metric> metrics() const {
    return {
        {"ops_per_s", opsPerS, "1/s"},
        {"events_per_s", eventsPerS, "1/s"},
        {"call_ms_p50", callMsP50, "ms"},
        {"latency_ticks_p50", latencyTicksP50, "ticks"},
        {"latency_ticks_p95", latencyTicksP95, "ticks"},
        {"ops_per_ktick", opsPerKtick, "1/kticks"},
        {"gap_ticks", gapTicks, "ticks"},
    };
  }
};

/// One block of a timed run: the ops and events of its calls and the wall
/// time of each call.
struct Block {
  double ops = 0;
  double events = 0;
  std::vector<double> callSeconds;
};

/// The wall-clock metrics of a timed run: each rate over the time inside
/// the calls, as the median over the blocks, and the median call.
void fillWallClock(TimedReport& report, const std::vector<Block>& blocks) {
  std::vector<double> ops, events, calls;
  for (const Block& block : blocks) {
    double seconds = 0;
    for (double call : block.callSeconds) seconds += call;
    ops.push_back(ratio(block.ops, seconds));
    events.push_back(ratio(block.events, seconds));
    calls.insert(calls.end(), block.callSeconds.begin(),
                 block.callSeconds.end());
  }
  report.opsPerS = median(ops);
  report.eventsPerS = median(events);
  report.callMsP50 = quantile(calls, 0.5) * 1e3;
}

/// Decision ticks of single-shot runs: each decision's tick (its latency
/// from the run start), decisions per thousand ticks of run, and each
/// run's longest stretch without a decision, counting from the start.
struct DecisionTicks {
  std::vector<double> latencies;
  std::vector<double> gaps;
  double decisions = 0;
  double span = 0;

  void add(std::vector<Tick> ticks) {
    if (ticks.empty()) return;
    std::sort(ticks.begin(), ticks.end());
    Tick previous = 0, gap = 0;
    for (Tick tick : ticks) {
      latencies.push_back(static_cast<double>(tick));
      gap = std::max(gap, tick - previous);
      previous = tick;
    }
    gaps.push_back(static_cast<double>(gap));
    decisions += static_cast<double>(ticks.size());
    span += static_cast<double>(ticks.back());
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// What a timed run starts from: the registry catalog, the sweep pool,
  /// and a warm-up pass on inputs outside the timed set.
  virtual void setUp() = 0;
  virtual TimedReport timed(double seconds, Audit& audit) = 0;
  virtual LayerReport traced(double seconds, Audit& audit,
                             SpanLog& spans) = 0;
};

/// The part of set-up every workload shares: the registry catalog and the
/// sweep pool's threads.
void warmProcess() {
  (void)ooc::compose::registry().detector("benor-vac");
  const std::size_t threads = benchThreads();
  ooc::sweep::Options pool;
  pool.threads = threads;
  pool.chunkSize = 1;
  ooc::sweep::parallelFor(
      threads, [](std::size_t, ooc::sweep::Control&) {}, pool);
}

// --- service workloads ------------------------------------------------------

/// The shared service set-up: n=5, delay 1..6, window 4, batches of up to
/// 4, a journal synced before each reply, and a closed loop of 100k zipfian
/// clients (theta 0.99, think 5..40 ticks) emitting 200 commands per node.
ooc::svc::SvcConfig serviceConfig(const std::string& engine) {
  ooc::svc::SvcConfig config;
  config.engine = engine;
  config.detector = "benor-vac";
  config.driver = "lottery";
  config.n = 5;
  config.minDelay = 1;
  config.maxDelay = 6;
  config.service.window = 4;
  config.service.batchMax = 4;
  config.service.durable = true;
  config.service.syncBeforeReply = true;
  config.workload.clients = 100000;
  config.workload.commandsPerNode = 200;
  config.workload.closedLoop = true;
  config.workload.thinkMin = 5;
  config.workload.thinkMax = 40;
  config.workload.zipfTheta = 0.99;
  return config;
}

/// Paxos under an open loop through a crash-restart: 0.2 arrivals per tick
/// per node, x4 for 20 of every 200 ticks, and node 0 down from tick 300
/// for 150 ticks. The pipeline window is 2: at windows of 3 and more about
/// 1% of seeds fail the exactly-once audit after the restart (README.md).
ooc::svc::SvcConfig paxosFaultsConfig() {
  ooc::svc::SvcConfig config = serviceConfig("paxos");
  config.service.window = 2;
  config.workload.closedLoop = false;
  config.workload.arrivalsPerTick = 0.2;
  config.workload.burstEvery = 200;
  config.workload.burstLen = 20;
  config.workload.burstFactor = 4.0;
  config.restarts.push_back({0, 300, 150});
  return config;
}

bool faulted(const ooc::svc::SvcConfig& config) {
  return !config.crashes.empty() || !config.restarts.empty();
}

void auditSvc(Audit& audit, const ooc::svc::SvcConfig& config,
              const ooc::svc::SvcResult& result, const char* variant) {
  const bool complete = faulted(config) || result.allApplied;
  audit.record(
      result.prefixOk && result.exactlyOnce && complete && !result.hitCap,
      [&] {
        std::string what = config.engine + " seed " +
                           std::to_string(config.seed) + " (" + variant +
                           "):";
        if (!result.prefixOk) what += " prefix-agreement";
        if (!result.exactlyOnce) what += " exactly-once";
        if (!complete) what += " all-applied";
        if (result.hitCap) what += " hit-cap";
        return what;
      });
}

struct SvcCall {
  ooc::svc::SvcResult result;
  Clock::time_point called;
  Clock::time_point returned;
  double seconds() const { return secondsBetween(called, returned); }
};

SvcCall callSvc(const ooc::svc::SvcConfig& config,
                ooc::ScheduleObserver* observer = nullptr) {
  ooc::compose::RunHooks hooks;
  hooks.observer = observer;
  SvcCall call;
  call.called = Clock::now();
  call.result = ooc::svc::runSvc(config, hooks);
  call.returned = Clock::now();
  return call;
}

class SvcWorkload final : public Workload {
 public:
  /// Timed seeds count up from `seedBase + seedOffset`; `tickRuns` is how
  /// many of them the tick metrics cover.
  SvcWorkload(std::string name, ooc::svc::SvcConfig config,
              std::uint64_t seedBase, std::uint64_t seedOffset,
              std::size_t tickRuns)
      : name_(std::move(name)),
        config_(std::move(config)),
        timedBase_(seedBase + seedOffset),
        warmupBase_(seedBase + kWarmupOffset),
        tickRuns_(tickRuns) {}

  void setUp() override {
    warmProcess();
    for (std::uint64_t i = 0; i < 3; ++i)
      (void)ooc::svc::runSvc(configFor(warmupBase_ + i));
  }

  TimedReport timed(double seconds, Audit& audit) override {
    const std::size_t tickRuns = scaledCount(tickRuns_, seconds);
    std::vector<Block> blocks;
    std::vector<double> latencies, gaps;
    double tickCmds = 0, tickSpan = 0;
    std::uint64_t next = 0;
    const auto runOne = [&](Block* block) {
      const ooc::svc::SvcConfig config = configFor(timedBase_ + next);
      const SvcCall call = callSvc(config);
      const ooc::svc::SvcResult& result = call.result;
      auditSvc(audit, config, result, "timed");
      if (block != nullptr) {
        block->ops += static_cast<double>(result.commandsCommitted);
        block->events += static_cast<double>(result.eventsProcessed);
        block->callSeconds.push_back(call.seconds());
      }
      if (next < tickRuns) {
        for (Tick latency : result.latencies)
          latencies.push_back(static_cast<double>(latency));
        gaps.push_back(static_cast<double>(result.maxCommitGap));
        tickCmds += static_cast<double>(result.commandsCommitted);
        tickSpan += static_cast<double>(result.lastCommitTick);
      }
      ++next;
    };
    for (int b = 0; b < kBlocks; ++b) {
      Block block;
      const Clock::time_point start = Clock::now();
      do runOne(&block);
      while (secondsSince(start) < seconds / kBlocks);
      blocks.push_back(block);
    }
    // The tick metrics always cover the same runs, however fast they went.
    while (next < tickRuns) runOne(nullptr);

    TimedReport report;
    fillWallClock(report, blocks);
    report.latencyTicksP50 = quantile(latencies, 0.5);
    report.latencyTicksP95 = quantile(latencies, 0.95);
    report.opsPerKtick = ratio(tickCmds * 1000.0, tickSpan);
    report.gapTicks = quantile(gaps, 0.75);
    return report;
  }

  LayerReport traced(double seconds, Audit& audit, SpanLog& spans) override {
    SpanLog::Scope root(spans, "workload", name_);
    LayerTotals layers;
    double baseSeconds = 0, tracedSeconds = 0, registrySeconds = 0,
           durableSeconds = 0, volatileSeconds = 0, singleSeconds = 0;
    double cmds = 0, durableCmds = 0, singleCmds = 0, messages = 0,
           batches = 0, batchedCmds = 0, noops = 0, decrees = 0,
           samples = 0, elections = 0;
    std::vector<ooc::svc::SvcConfig> configs;
    std::vector<ooc::svc::SvcResult> baseResults;
    std::vector<double> baseCalls;

    const auto call = [&](const char* variant,
                          const ooc::svc::SvcConfig& config,
                          ooc::ScheduleObserver* observer = nullptr) {
      SpanLog::Scope span(spans, "runSvc", variant);
      SvcCall result = callSvc(config, observer);
      auditSvc(audit, config, result.result, variant);
      return result;
    };
    // Both runs of one configuration must run the same program.
    const auto same = [&](const ooc::svc::SvcResult& a,
                          const ooc::svc::SvcResult& b, const char* what,
                          std::uint64_t seed) {
      audit.record(a.eventsProcessed == b.eventsProcessed &&
                       a.commandsCommitted == b.commandsCommitted,
                   [&] {
                     return name_ + " seed " + std::to_string(seed) + ": " +
                            what + " changed the events or commits";
                   });
    };

    // Each seed runs every variant back to back, so a slow spell on the
    // machine hits both sides of each comparison alike.
    while (baseSeconds < kTraceShare * seconds || configs.size() < 2) {
      const ooc::svc::SvcConfig config =
          configFor(timedBase_ + configs.size());
      SpanLog::Scope run(spans, "run", "seed " + std::to_string(config.seed));

      const SvcCall base = call("base", config);
      EventClock clock;
      const SvcCall traced = call("traced", config, &clock);
      layers.add(clock, traced.called, traced.returned);
      same(base.result, traced.result, "tracing", config.seed);

      ooc::obs::metrics().enable(true);
      const SvcCall registry = call("registry", config);
      ooc::obs::metrics().enable(false);
      ooc::obs::metrics().reset();
      same(base.result, registry.result, "the registry", config.seed);

      // The journal and replication comparisons drop the fault schedule: a
      // restart without a journal recovers differently, and a single node
      // has no peer to recover from.
      ooc::svc::SvcConfig durable = config;
      durable.crashes.clear();
      durable.restarts.clear();
      ooc::svc::SvcConfig volatileConfig = durable;
      volatileConfig.service.durable = false;
      ooc::svc::SvcConfig single = durable;
      single.n = 1;
      const SvcCall journaled = call("durable", durable);
      const SvcCall unjournaled = call("volatile", volatileConfig);
      same(journaled.result, unjournaled.result, "the journal", config.seed);
      const SvcCall one = call("single-node", single);

      const ooc::svc::SvcResult& r = base.result;
      baseSeconds += base.seconds();
      baseCalls.push_back(base.seconds());
      tracedSeconds += traced.seconds();
      registrySeconds += registry.seconds();
      durableSeconds += journaled.seconds();
      volatileSeconds += unjournaled.seconds();
      singleSeconds += one.seconds();
      cmds += static_cast<double>(r.commandsCommitted);
      durableCmds += static_cast<double>(journaled.result.commandsCommitted);
      singleCmds += static_cast<double>(one.result.commandsCommitted);
      messages += static_cast<double>(r.messagesByCorrect);
      for (std::uint32_t size : r.batchSizes) batchedCmds += size;
      batches += static_cast<double>(r.batchSizes.size());
      noops += static_cast<double>(r.noopDecrees);
      decrees += static_cast<double>(r.decreesCommitted);
      samples += static_cast<double>(r.latencies.size());
      elections += static_cast<double>(r.leaderEvents.size());
      configs.push_back(config);
      baseResults.push_back(r);
    }

    // The same seeds fanned across the sweep pool, registry off and on.
    const std::size_t threads = benchThreads();
    const auto fan = [&](bool registry, const char* detail) {
      SpanLog::Scope span(spans, "sweep", detail);
      std::vector<ooc::svc::SvcResult> results(configs.size());
      ooc::obs::metrics().enable(registry);
      ooc::sweep::Options pool;
      pool.threads = threads;
      const ooc::sweep::SweepStats stats = ooc::sweep::parallelFor(
          configs.size(),
          [&](std::size_t i, ooc::sweep::Control&) {
            results[i] = ooc::svc::runSvc(configs[i]);
          },
          pool);
      ooc::obs::metrics().enable(false);
      ooc::obs::metrics().reset();
      for (std::size_t i = 0; i < configs.size(); ++i) {
        auditSvc(audit, configs[i], results[i], detail);
        same(baseResults[i], results[i], "the sweep pool", configs[i].seed);
      }
      return stats;
    };
    // Alternated twice: one fan is short enough for a slow spell to skew.
    std::vector<ooc::sweep::SweepStats> off;
    double offSeconds = 0, onSeconds = 0;
    for (int round = 0; round < 2; ++round) {
      off.push_back(fan(false, "registry off"));
      offSeconds += off.back().elapsedSeconds;
      onSeconds += fan(true, "registry on").elapsedSeconds;
    }

    LayerReport report;
    report.fillSim(layers);
    report.callMsP90 = quantile(baseCalls, 0.9) * 1e3;
    report.eventsPerOp = ratio(static_cast<double>(layers.events), cmds);
    report.msgsPerOp = ratio(messages, cmds);
    report.traceOverhead = ratio(tracedSeconds, baseSeconds) - 1.0;
    report.batchMean = ratio(batchedCmds, batches);
    report.noopRatio = ratio(noops, decrees);
    report.latencyCoverage = ratio(samples, cmds);
    report.replicationCost = ratio(ratio(durableSeconds, durableCmds),
                                   ratio(singleSeconds, singleCmds));
    report.durableCost = 1.0 - ratio(volatileSeconds, durableSeconds);
    report.electionsPerRun =
        ratio(elections, static_cast<double>(configs.size()));
    report.fillSweep(off, 2.0 * baseSeconds, threads);
    report.registryCost1t = 1.0 - ratio(baseSeconds, registrySeconds);
    report.registryCost4t = 1.0 - ratio(offSeconds, onSeconds);
    return report;
  }

 private:
  ooc::svc::SvcConfig configFor(std::uint64_t seed) const {
    ooc::svc::SvcConfig config = config_;
    config.seed = seed;
    return config;
  }

  std::string name_;
  ooc::svc::SvcConfig config_;
  std::uint64_t timedBase_;
  std::uint64_t warmupBase_;
  std::size_t tickRuns_;
};

// --- checker workload -------------------------------------------------------

/// `size` consecutive configurations, from `offset` on, of two interleaved
/// random walks, so every explore call mixes both walks.
class SliceStrategy final : public ooc::check::ExplorationStrategy {
 public:
  SliceStrategy(const ooc::check::ExplorationStrategy& even,
                const ooc::check::ExplorationStrategy& odd,
                std::size_t offset, std::size_t size)
      : even_(even), odd_(odd), offset_(offset), size_(size) {}

  const char* name() const noexcept override { return "check-sweep"; }
  std::size_t size() const noexcept override { return size_; }
  ooc::check::Scenario generate(std::size_t index) const override {
    const std::size_t global = offset_ + index;
    return (global % 2 == 0 ? even_ : odd_).generate(global / 2);
  }

 private:
  const ooc::check::ExplorationStrategy& even_;
  const ooc::check::ExplorationStrategy& odd_;
  std::size_t offset_;
  std::size_t size_;
};

/// Sum of one counter over every label set of a registry snapshot.
std::uint64_t counterSum(const std::string& snapshot, std::string_view name) {
  const std::string needle = "\"name\":\"" + std::string(name) + "\"";
  std::uint64_t sum = 0;
  for (std::size_t at = snapshot.find(needle); at != std::string::npos;
       at = snapshot.find(needle, at + needle.size())) {
    const std::size_t value = snapshot.find("\"value\":", at);
    if (value == std::string::npos) break;
    sum += std::strtoull(snapshot.c_str() + value + 8, nullptr, 10);
  }
  return sum;
}

/// What one configuration's run reported, for same-program comparisons.
struct ConfigOutcome {
  std::uint64_t messages = 0;
  ooc::Value decided = ooc::kNoValue;
  bool allDecided = false;
  friend bool operator==(const ConfigOutcome&,
                         const ConfigOutcome&) = default;
};

/// One configuration's run: what it reported, and when runScenario was
/// called and returned.
struct ConfigRun {
  ConfigOutcome outcome;
  Clock::time_point called;
  Clock::time_point returned;
};

/// Wall time of the three calls explore's body makes per configuration.
struct CallSplit {
  double generate = 0, run = 0, invariants = 0;
  double total() const { return generate + run + invariants; }
};

/// The two random walks check-sweep interleaves, seeded from `seedBase`:
/// benor-vac + common-coin, asynchronous, n from 3 to 25 with random
/// crashes, inputs and delay bounds; and phaseking-ac + king-conciliator in
/// lockstep at n=13 with a random number and placement of equivocators.
struct Walks {
  explicit Walks(std::uint64_t seedBase)
      : benor(scenario("benor-vac", "common-coin", 5),
              options(seedBase, 3, 25)),
        king(scenario("phaseking-ac", "king-conciliator", 13),
             options(seedBase + kSeedStride / 2, 13, 13)) {}

  SliceStrategy slice(std::size_t offset, std::size_t size = kSlice) const {
    return {benor, king, offset, size};
  }

  ooc::check::RandomWalkStrategy benor;
  ooc::check::RandomWalkStrategy king;

 private:
  static ooc::check::Scenario scenario(const char* detector,
                                       const char* driver, std::size_t n) {
    ooc::check::Scenario scenario;
    scenario.family = ooc::check::Family::kCompose;
    scenario.compose.detector = detector;
    scenario.compose.driver = driver;
    scenario.compose.n = n;
    return scenario;
  }
  static ooc::check::RandomWalkStrategy::Options options(
      std::uint64_t seedBase, std::size_t minN, std::size_t maxN) {
    ooc::check::RandomWalkStrategy::Options options;
    options.seedBase = seedBase;
    options.runs = kSeedStride / 2;
    options.minProcesses = minN;
    options.maxProcesses = maxN;
    return options;
  }
};

class CheckWorkload final : public Workload {
 public:
  CheckWorkload(std::uint64_t seedBase, std::uint64_t seedOffset)
      : walks_(seedBase + seedOffset),
        warmupBase_(seedBase),
        suite_(ooc::check::safetySuite(true)),
        invariants_(ooc::check::view(suite_)) {}

  void setUp() override {
    warmProcess();
    const Walks warmup(warmupBase_);
    ooc::obs::metrics().enable(true);
    (void)explore(warmup.slice(kWarmupOffset), benchThreads());
    ooc::obs::metrics().enable(false);
    ooc::obs::metrics().reset();
  }

  TimedReport timed(double seconds, Audit& audit) override {
    const std::size_t threads = benchThreads();
    auto& registry = ooc::obs::metrics();
    std::vector<Block> blocks;
    std::size_t offset = 0;
    // The registry is on, as under `check --json`; its event counter gives
    // each block's simulator events.
    registry.enable(true);
    for (int b = 0; b < kBlocks; ++b) {
      Block block;
      registry.reset();
      const Clock::time_point start = Clock::now();
      do {
        const Clock::time_point called = Clock::now();
        const ooc::check::CheckReport report =
            explore(walks_.slice(offset), threads);
        block.callSeconds.push_back(secondsSince(called));
        auditSlice(audit, report, offset);
        block.ops += static_cast<double>(report.configsExplored);
        offset += kSlice;
      } while (secondsSince(start) < seconds / kBlocks);
      block.events = static_cast<double>(
          counterSum(registry.toJson(), "events_executed"));
      blocks.push_back(block);
    }
    registry.enable(false);
    registry.reset();

    TimedReport report;
    fillWallClock(report, blocks);
    const DecisionTicks ticks =
        decisionTicks(scaledCount(2000, seconds), threads);
    report.latencyTicksP50 = quantile(ticks.latencies, 0.5);
    report.latencyTicksP95 = quantile(ticks.latencies, 0.95);
    report.opsPerKtick = ratio(ticks.decisions * 1000.0, ticks.span);
    report.gapTicks = quantile(ticks.gaps, 0.75);
    return report;
  }

  LayerReport traced(double seconds, Audit& audit, SpanLog& spans) override {
    SpanLog::Scope root(spans, "workload", "check-sweep");
    const std::size_t threads = benchThreads();
    auto& registry = ooc::obs::metrics();
    LayerTotals layers;
    ObjectCounter objects;
    CallSplit plain, traced;
    std::vector<ooc::sweep::SweepStats> wide;
    std::vector<double> baseCalls;
    double baseSeconds = 0, oneSeconds = 0, wideOffSeconds = 0,
           oneOffSeconds = 0, messages = 0, rounds = 0;
    std::size_t configs = 0;

    const auto timedExplore = [&](std::size_t offset, std::size_t width,
                                  bool withRegistry, const char* detail,
                                  double& total) {
      SpanLog::Scope span(spans, "explore", detail);
      registry.reset();
      registry.enable(withRegistry);
      const Clock::time_point called = Clock::now();
      ooc::check::CheckReport report = explore(walks_.slice(offset), width);
      total += secondsSince(called);
      registry.enable(false);
      auditSlice(audit, report, offset);
      return report;
    };

    // Each slice runs every variant back to back, so a slow spell on the
    // machine hits both sides of each comparison alike.
    for (std::size_t offset = 0;
         baseSeconds < kTraceShare * seconds || offset == 0;
         offset += kSlice) {
      SpanLog::Scope run(spans, "run", "slice " + std::to_string(offset));
      const double before = baseSeconds;
      wide.push_back(
          timedExplore(offset, threads, true, "base", baseSeconds).sweep);
      baseCalls.push_back(baseSeconds - before);
      const std::string wideSnapshot = registry.toJson();
      (void)timedExplore(offset, 1, true, "1 thread", oneSeconds);
      audit.record(registry.toJson() == wideSnapshot, [&] {
        return "slice " + std::to_string(offset) +
               ": the registry differs between 1 thread and " +
               std::to_string(threads);
      });
      (void)timedExplore(offset, threads, false, "registry off",
                         wideOffSeconds);
      (void)timedExplore(offset, 1, false, "1 thread, registry off",
                         oneOffSeconds);
      registry.reset();

      // explore's body by hand at 1 thread: untraced, then traced.
      const SliceStrategy slice = walks_.slice(offset);
      std::vector<ConfigOutcome> outcomes;
      for (std::size_t i = 0; i < kSlice; ++i)
        outcomes.push_back(runConfig(slice, i, plain, audit).outcome);
      std::uint64_t events = 0;
      for (std::size_t i = 0; i < kSlice; ++i) {
        EventClock clock;
        ooc::compose::RunHooks hooks;
        hooks.observer = &clock;
        hooks.telemetry = &objects;
        const ConfigRun run = runConfig(slice, i, traced, audit, &spans, hooks);
        layers.add(clock, run.called, run.returned);
        events += clock.events;
        messages += static_cast<double>(run.outcome.messages);
        rounds += static_cast<double>(objects.maxRound);
        objects.maxRound = 0;
        audit.record(run.outcome == outcomes[i], [&] {
          return "slice " + std::to_string(offset) + " config " +
                 std::to_string(i) + ": tracing changed the run";
        });
      }
      audit.record(events == counterSum(wideSnapshot, "events_executed"), [&] {
        return "slice " + std::to_string(offset) +
               ": the traced event count differs from the registry's";
      });
      configs += kSlice;
    }

    LayerReport report;
    report.fillSim(layers);
    const auto perConfig = [&](double total) {
      return ratio(total, static_cast<double>(configs));
    };
    report.callMsP90 = quantile(baseCalls, 0.9) * 1e3;
    report.eventsPerOp = perConfig(static_cast<double>(layers.events));
    report.msgsPerOp = perConfig(messages);
    report.traceOverhead = ratio(traced.total(), plain.total()) - 1.0;
    report.detectorCallsPerRun =
        perConfig(static_cast<double>(objects.detectorCalls));
    report.driverCallsPerRun =
        perConfig(static_cast<double>(objects.driverCalls));
    report.roundsPerRun = perConfig(rounds);
    report.generateShare = ratio(plain.generate, plain.total());
    report.runShare = ratio(plain.run, plain.total());
    report.invariantsShare = ratio(plain.invariants, plain.total());
    report.fillSweep(wide, oneSeconds, threads);
    report.registryCost1t = 1.0 - ratio(oneOffSeconds, oneSeconds);
    report.registryCost4t = 1.0 - ratio(wideOffSeconds, baseSeconds);
    return report;
  }

 private:
  ooc::check::CheckReport explore(const SliceStrategy& slice,
                                  std::size_t threads) const {
    ooc::check::CheckerOptions options;
    options.threads = threads;
    options.shrink = false;
    options.maxFindings = 0;
    return ooc::check::explore(slice, invariants_, options);
  }

  static void auditSlice(Audit& audit, const ooc::check::CheckReport& report,
                         std::size_t offset) {
    const std::size_t missing =
        kSlice - std::min(kSlice, report.configsExplored);
    audit.add(kSlice, report.findings.size() + missing, [&] {
      std::string what = "slice " + std::to_string(offset) + ":";
      for (const ooc::check::Finding& finding : report.findings)
        what += " config " + std::to_string(finding.configIndex) +
                " broke " + finding.violation.invariant + ";";
      if (missing > 0) what += " " + std::to_string(missing) + " unexplored";
      return what;
    });
  }

  /// One configuration as explore's body runs it, each call timed into
  /// `split`. With `spans`, the calls are recorded as spans; `hooks`
  /// observe the run.
  ConfigRun runConfig(const SliceStrategy& slice, std::size_t index,
                      CallSplit& split, Audit& audit,
                      SpanLog* spans = nullptr,
                      const ooc::compose::RunHooks& hooks = {}) const {
    std::optional<SpanLog::Scope> span;
    if (spans != nullptr) span.emplace(*spans, "generate");
    Clock::time_point start = Clock::now();
    const ooc::check::Scenario scenario = slice.generate(index);
    split.generate += secondsSince(start);

    span.reset();
    if (spans != nullptr) span.emplace(*spans, "runScenario");
    ConfigRun run;
    run.called = Clock::now();
    const ooc::check::RunReport report =
        ooc::check::runScenario(scenario, hooks);
    run.returned = Clock::now();
    split.run += secondsBetween(run.called, run.returned);
    span.reset();

    std::size_t fired = 0;
    for (const ooc::check::Invariant* invariant : invariants_) {
      std::optional<SpanLog::Scope> check;
      if (spans != nullptr)
        check.emplace(*spans, "Invariant::check", invariant->name());
      start = Clock::now();
      if (invariant->check(scenario, report)) ++fired;
      split.invariants += secondsSince(start);
    }
    audit.record(fired == 0, [&] {
      return ooc::check::describe(scenario) + ": " + std::to_string(fired) +
             " invariant(s) fired";
    });
    run.outcome = {report.messages, report.decidedValue, report.allDecided};
    return run;
  }

  /// Decision ticks of the first `count` timed configurations, re-run
  /// untimed with an observer: RunReport carries no decision ticks.
  DecisionTicks decisionTicks(std::size_t count, std::size_t threads) const {
    const SliceStrategy timedSet = walks_.slice(0, count);
    std::vector<std::vector<Tick>> perConfig(count);
    ooc::sweep::Options pool;
    pool.threads = threads;
    ooc::sweep::parallelFor(
        count,
        [&](std::size_t i, ooc::sweep::Control&) {
          EventClock clock;
          ooc::compose::RunHooks hooks;
          hooks.observer = &clock;
          (void)ooc::check::runScenario(timedSet.generate(i), hooks);
          perConfig[i] = std::move(clock.decisionTicks);
        },
        pool);
    DecisionTicks ticks;
    for (std::vector<Tick>& decisions : perConfig)
      ticks.add(std::move(decisions));
    return ticks;
  }

  Walks walks_;
  std::uint64_t warmupBase_;
  std::vector<std::unique_ptr<ooc::check::Invariant>> suite_;
  std::vector<const ooc::check::Invariant*> invariants_;
};

// --- driver -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string traceOut;
  int setupReps = 9;
  bool setupOnly = false;
};

const char* const kUsage =
    "usage: ooc_benchmark --workload NAME [--seed S] [--seconds T]\n"
    "                     [--trace 0|1] [--trace-out PATH] [--setup-reps K]\n"
    "workloads: svc-compose svc-raft svc-paxos-faults check-sweep\n";

Options parseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      const std::string trace = value();
      if (trace != "0" && trace != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      options.trace = trace == "1";
    } else if (arg == "--trace-out") {
      options.traceOut = value();
    } else if (arg == "--setup-reps") {
      options.setupReps = std::stoi(value());
    } else if (arg == "--setup-only") {
      options.setupOnly = true;
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (options.workload.empty())
    throw std::invalid_argument("--workload is required");
  if (!(options.seconds > 0.0) || options.setupReps < 1)
    throw std::invalid_argument("--seconds and --setup-reps must be positive");
  return options;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  // The bases sit clear of the E19 (19000) and E21 (350000, 360000) seeds.
  const std::uint64_t offset = seed * kSeedStride;
  if (name == "svc-compose")
    return std::make_unique<SvcWorkload>(name, serviceConfig("compose"),
                                         1'100'000, offset, 60);
  if (name == "svc-raft")
    return std::make_unique<SvcWorkload>(name, serviceConfig("raft"),
                                         1'200'000, offset, 120);
  if (name == "svc-paxos-faults")
    return std::make_unique<SvcWorkload>(name, paxosFaultsConfig(),
                                         1'300'000, offset, 80);
  if (name == "check-sweep")
    return std::make_unique<CheckWorkload>(1'400'000, offset);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

/// Set-up time: the median wall time of fresh processes that each do this
/// workload's set-up and exit, so process start, static initialisation and
/// the registry catalog count in every sample.
double setupSeconds(const Options& options) {
  std::vector<std::string> args = {"/proc/self/exe", "--setup-only",
                                   "--workload", options.workload,
                                   "--seed", std::to_string(options.seed)};
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  std::vector<double> samples;
  bool ok = true;
  for (int rep = 0; rep < options.setupReps && ok; ++rep) {
    const Clock::time_point start = Clock::now();
    pid_t pid = 0;
    int status = 0;
    ok = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv.data(),
                     environ) == 0 &&
         waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0;
    samples.push_back(secondsSince(start));
  }
  posix_spawn_file_actions_destroy(&actions);
  if (!ok) throw std::runtime_error("a set-up process failed");
  return median(samples);
}

/// Peak resident memory of this process image. getrusage's ru_maxrss is
/// not used: Linux carries it across exec, so it starts at the peak of
/// whatever process forked this one.
double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

const char* compilerName() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

void printProvenance(const Options& options) {
  const char* commit = std::getenv("OOC_BENCH_COMMIT");
  ooc::obs::JsonWriter json;
  json.beginObject()
      .key("workload").value(options.workload)
      .key("seed").value(options.seed)
      .key("seconds").value(options.seconds)
      .key("trace").value(options.trace)
      .key("commit").value(commit != nullptr ? commit : "unknown")
      .key("build_type").value(OOC_BENCH_BUILD_TYPE)
      .key("compiler").value(compilerName())
      .key("nproc").value(
          static_cast<std::uint64_t>(ooc::sweep::hardwareThreads()))
      .key("threads").value(static_cast<std::uint64_t>(benchThreads()))
      .endObject();
  std::printf("# provenance %s\n", json.str().c_str());
}

void printResult(const std::string& workload, const Audit& audit,
                 const std::vector<Metric>& metrics) {
  ooc::obs::JsonWriter json;
  json.beginObject()
      .key("correct").value(audit.failed == 0)
      .key("attempted").value(audit.attempted)
      .key("failed").value(audit.failed)
      .key("metrics").beginObject();
  for (const Metric& metric : metrics) {
    std::printf("%s %s %s %s\n", workload.c_str(), metric.name.c_str(),
                ooc::obs::formatJsonNumber(metric.value).c_str(),
                metric.unit.c_str());
    json.key(metric.name)
        .beginObject()
        .key("value").value(metric.value)
        .key("unit").value(metric.unit)
        .endObject();
  }
  json.endObject().endObject();
  std::printf("%s\n", json.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parseArgs(argc, argv);
    std::unique_ptr<Workload> workload =
        makeWorkload(options.workload, options.seed);
    if (options.setupOnly) {
      workload->setUp();
      return 0;
    }
    printProvenance(options);
    Audit audit;
    std::vector<Metric> metrics;
    if (options.trace) {
      workload->setUp();
      SpanLog spans;
      metrics = workload->traced(options.seconds, audit, spans).metrics();
      if (!options.traceOut.empty()) spans.write(options.traceOut);
    } else {
      metrics.push_back({"setup_s", setupSeconds(options), "s"});
      workload->setUp();
      // Read after set-up: a fixed pass over the workload's inputs. Later,
      // allocator fragmentation keeps adding memory in proportion to the
      // work that fits in the run, which would tie the reading to speed.
      const double peakRss = peakRssMb();
      for (Metric& metric : workload->timed(options.seconds, audit).metrics())
        metrics.push_back(std::move(metric));
      metrics.push_back({"peak_rss_mb", peakRss, "MB"});
    }
    for (const Metric& metric : metrics) {
      if (!std::isfinite(metric.value))
        throw std::runtime_error(metric.name + " is not finite");
    }
    printResult(options.workload, audit, metrics);
    return audit.failed == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ooc_benchmark: %s\n%s", error.what(), kUsage);
    return 2;
  }
}
