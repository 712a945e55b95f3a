// Unit tests for the telemetry layer (src/obs): metrics registry label
// handling, histogram bucket boundaries, disabled no-op behavior, JSON
// determinism, per-run batches and their concurrent commits, what the
// scenario runners publish, and the deterministic run-id stamping of
// serialized scenario and counterexample files.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "check/checker.hpp"
#include "check/invariant.hpp"
#include "check/replay.hpp"
#include "check/strategy.hpp"
#include "compose/composition.hpp"
#include "compose/kv.hpp"
#include "compose/run.hpp"
#include "harness/scenarios.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_id.hpp"
#include "svc/run.hpp"

namespace ooc {
namespace {

using obs::Labels;
using obs::Registry;

TEST(MetricsRegistry, DisabledMutatorsAreNoOps) {
  Registry reg;
  ASSERT_FALSE(reg.enabled());
  reg.addCounter("c", 3);
  reg.setGauge("g", 1.5);
  reg.observe("h", 7.0);
  EXPECT_EQ(reg.seriesCount(), 0u);
  EXPECT_EQ(reg.toJson(),
            "{\"counters\":[],\"gauges\":[],\"histograms\":[],"
            "\"dropped_series\":0}");
}

TEST(MetricsRegistry, CountersAccumulate) {
  Registry reg;
  reg.enable(true);
  reg.addCounter("runs", 1);
  reg.addCounter("runs", 2);
  reg.addCounter("runs", 1, {{"family", "benor"}});
  EXPECT_EQ(reg.seriesCount(), 2u);
  const std::string json = reg.toJson();
  EXPECT_NE(json.find("\"runs\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":3"), std::string::npos);
}

TEST(MetricsRegistry, LabelOrderDoesNotSplitSeries) {
  Registry reg;
  reg.enable(true);
  reg.addCounter("c", 1, {{"a", "1"}, {"b", "2"}});
  reg.addCounter("c", 1, {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(reg.seriesCount(), 1u);
}

TEST(MetricsRegistry, TypeMismatchIsIgnoredNotFatal) {
  Registry reg;
  reg.enable(true);
  reg.addCounter("x", 1);
  reg.setGauge("x", 9.0);   // same name, different type: dropped
  reg.observe("x", 1.0);    // likewise
  EXPECT_EQ(reg.seriesCount(), 1u);
  EXPECT_NE(reg.toJson().find("\"value\":1"), std::string::npos);
}

TEST(MetricsRegistry, CardinalityCapDropsAndCounts) {
  Registry reg;
  reg.enable(true);
  for (std::size_t i = 0; i < Registry::kMaxSeries + 10; ++i)
    reg.addCounter("c", 1, {{"i", std::to_string(i)}});
  EXPECT_EQ(reg.seriesCount(), Registry::kMaxSeries);
  EXPECT_EQ(reg.droppedSeries(), 10u);
  EXPECT_NE(reg.toJson().find("\"dropped_series\":10"), std::string::npos);
}

TEST(MetricsRegistry, HistogramBucketBoundariesAreInclusive) {
  Registry reg;
  reg.enable(true);
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  // Exactly-on-bound samples land in that bound's bucket (le semantics);
  // above-all-bounds samples land in the overflow bucket.
  reg.observe("h", 1.0, {}, bounds);
  reg.observe("h", 2.0, {}, bounds);
  reg.observe("h", 2.5, {}, bounds);
  reg.observe("h", 4.0, {}, bounds);
  reg.observe("h", 100.0, {}, bounds);
  const std::string json = reg.toJson();
  EXPECT_NE(json.find("\"buckets\":[{\"le\":1,\"count\":1},"
                      "{\"le\":2,\"count\":1},{\"le\":4,\"count\":2}]"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"overflow\":1"), std::string::npos);
  EXPECT_NE(json.find("\"count\":5"), std::string::npos);
  EXPECT_NE(json.find("\"min\":1"), std::string::npos);
  EXPECT_NE(json.find("\"max\":100"), std::string::npos);
}

TEST(MetricsRegistry, SnapshotIsByteIdenticalAcrossIdenticalRuns) {
  const auto fill = [](Registry& reg) {
    reg.enable(true);
    // Insertion order deliberately differs from sorted order.
    reg.addCounter("zeta", 5, {{"family", "raft"}});
    reg.addCounter("alpha", 2);
    reg.observe("rounds", 3.0, {{"family", "benor"}});
    reg.observe("rounds", 8.0, {{"family", "benor"}});
    reg.setGauge("temp", 0.25);
  };
  Registry a, b;
  fill(a);
  fill(b);
  EXPECT_EQ(a.toJson(), b.toJson());

  // Same series filled in a different call order: still identical.
  Registry c;
  c.enable(true);
  c.setGauge("temp", 0.25);
  c.observe("rounds", 3.0, {{"family", "benor"}});
  c.addCounter("alpha", 2);
  c.addCounter("zeta", 5, {{"family", "raft"}});
  c.observe("rounds", 8.0, {{"family", "benor"}});
  EXPECT_EQ(a.toJson(), c.toJson());
}

TEST(MetricsRegistry, ResetDropsSeriesKeepsEnabled) {
  Registry reg;
  reg.enable(true);
  reg.addCounter("c", 1);
  reg.reset();
  EXPECT_TRUE(reg.enabled());
  EXPECT_EQ(reg.seriesCount(), 0u);
}

TEST(MetricsRegistry, ResetAllowsReRegistrationUnderANewType) {
  // The first registration pins a name's type (later mismatched writes are
  // dropped); reset() forgets the pin along with the data.
  Registry reg;
  reg.enable(true);
  reg.addCounter("x", 1);
  reg.setGauge("x", 9.0);  // mismatched: dropped
  EXPECT_EQ(reg.seriesCount(), 1u);
  reg.reset();
  reg.setGauge("x", 9.0);  // now the first registration: a gauge
  EXPECT_EQ(reg.seriesCount(), 1u);
  EXPECT_NE(reg.toJson().find("\"gauges\":[{\"name\":\"x\""),
            std::string::npos)
      << reg.toJson();
}

TEST(MetricsRegistry, ResetClearsTheCardinalityCapAndDropCount) {
  Registry reg;
  reg.enable(true);
  for (std::size_t i = 0; i < Registry::kMaxSeries + 1; ++i)
    reg.addCounter("c", 1, {{"i", std::to_string(i)}});
  ASSERT_EQ(reg.droppedSeries(), 1u);
  reg.reset();
  EXPECT_EQ(reg.droppedSeries(), 0u);
  // Capacity is free again: a new series interns instead of dropping.
  reg.addCounter("fresh", 1);
  EXPECT_EQ(reg.seriesCount(), 1u);
  EXPECT_EQ(reg.droppedSeries(), 0u);
}

TEST(MetricsRegistry, DefaultBucketTopBoundaryIsInclusive) {
  // defaultBuckets() tops out at 65536; a sample exactly on the top bound
  // must land in that bucket, one past it in the overflow bucket.
  Registry reg;
  reg.enable(true);
  reg.observe("h", 65536.0);
  reg.observe("h", 65537.0);
  const std::string json = reg.toJson();
  EXPECT_NE(json.find("{\"le\":65536,\"count\":1}"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"overflow\":1"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Batches: one run's updates folded locally, committed under one lock.

/// One registry update, replayable per call or into a batch.
struct Update {
  bool counter = true;
  std::string name;
  double value = 0;  // counter delta or histogram sample
  Labels labels;
  std::vector<double> bounds = obs::defaultBuckets();
};

/// Registry and Batch share the addCounter/observe signatures.
template <typename Sink>
void feed(Sink& sink, const std::vector<Update>& updates) {
  for (const Update& update : updates) {
    if (update.counter) {
      sink.addCounter(update.name, static_cast<std::uint64_t>(update.value),
                      update.labels);
    } else {
      sink.observe(update.name, update.value, update.labels, update.bounds);
    }
  }
}

TEST(MetricsBatch, CommitMatchesThePerCallFeed) {
  const std::vector<double> custom = {1.0, 2.0, 4.0};
  const std::vector<Update> first = {
      {true, "runs", 1, {{"family", "benor"}}},
      {true, "runs", 2, {{"family", "benor"}}},
      {true, "runs", 0, {{"family", "raft"}}},
      {true, "c", 1, {{"a", "1"}, {"b", "2"}}},
      {true, "c", 4, {{"b", "2"}, {"a", "1"}}},  // same series
      {false, "h", 3, {{"family", "benor"}}},
      {false, "h", 65536, {{"family", "benor"}}},
      {false, "h", 70000, {{"family", "benor"}}},
      {false, "custom", 1, {}, custom},
      {false, "custom", 2.5, {}, custom},
      {true, "x", 1, {}},
      {false, "x", 5, {}},  // type mismatch: dropped
      {false, "y", 5, {}},
      {true, "y", 1, {}},  // likewise
  };
  const std::vector<Update> second = {
      {true, "runs", 7, {{"family", "benor"}}},
      {true, "c", 1, {{"a", "1"}, {"b", "2"}}},
      {false, "h", 1, {{"family", "benor"}}},
      {false, "custom", 4, {}, custom},
      {false, "custom", 100, {}, custom},
      {false, "custom", 3, {}, {8.0}},  // other bounds: dropped
      {false, "x", 5, {}},              // still a counter
  };

  Registry perCall;
  perCall.enable(true);
  feed(perCall, first);
  feed(perCall, second);

  Registry batched;
  batched.enable(true);
  for (const auto* updates : {&first, &second}) {
    obs::Batch batch;
    feed(batch, *updates);
    batched.commit(batch);
  }
  EXPECT_EQ(batched.toJson(), perCall.toJson());
  EXPECT_EQ(batched.seriesCount(), 7u);
  const std::string json = batched.toJson();
  EXPECT_NE(json.find("\"count\":4,\"sum\":135540,\"min\":1,\"max\":70000"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("{\"le\":4,\"count\":2}],\"overflow\":1"),
            std::string::npos)
      << json;
}

TEST(MetricsBatch, CardinalityCapCountsOncePerDroppedEntry) {
  std::vector<Update> updates;
  for (std::size_t i = 0; i < Registry::kMaxSeries + 10; ++i)
    updates.push_back({true, "c", 1, {{"i", std::to_string(i)}}});
  Registry perCall;
  perCall.enable(true);
  feed(perCall, updates);
  Registry batched;
  batched.enable(true);
  obs::Batch batch;
  feed(batch, updates);
  batched.commit(batch);
  EXPECT_EQ(batched.toJson(), perCall.toJson());
  EXPECT_EQ(batched.droppedSeries(), 10u);

  // Past the cap, a per-call feed counts every call; a commit counts each
  // dropped entry once, however many updates it folded.
  obs::Batch late;
  for (int i = 0; i < 3; ++i) late.addCounter("late", 1);
  batched.commit(late);
  EXPECT_EQ(batched.droppedSeries(), 11u);
  for (int i = 0; i < 3; ++i) perCall.addCounter("late", 1);
  EXPECT_EQ(perCall.droppedSeries(), 13u);
}

TEST(MetricsBatch, SizeIsBoundedByTheSeriesNotTheUpdates) {
  obs::Batch batch;
  for (int i = 0; i < 100000; ++i) {
    batch.addCounter("events", 1, {{"family", "benor"}});
    batch.observe("ticks", static_cast<double>(i % 300),
                  {{"family", "benor"}});
    batch.addCounter("events", 2, {{"family", "raft"}});
  }
  EXPECT_EQ(batch.size(), 3u);

  Registry reg;
  reg.commit(batch);  // disabled: a no-op
  EXPECT_EQ(reg.seriesCount(), 0u);
  reg.enable(true);
  reg.commit(batch);
  EXPECT_NE(reg.toJson().find("\"value\":100000"), std::string::npos);
  EXPECT_NE(reg.toJson().find("\"value\":200000"), std::string::npos);
  EXPECT_NE(reg.toJson().find("\"count\":100000,\"sum\":14940000"),
            std::string::npos)
      << reg.toJson();
}

/// The i-th of a deterministic family of small per-run batches.
obs::Batch runBatch(int i) {
  obs::Batch batch;
  const Labels family = {{"family", i % 3 == 0 ? "benor" : "raft"}};
  batch.addCounter("runs", 1, family);
  batch.addCounter("events", static_cast<std::uint64_t>(i % 97), family);
  batch.addCounter("round", 1, {{"round", std::to_string(i % 40)}});
  batch.observe("ticks", static_cast<double>(i % 500), family);
  batch.observe("ticks", static_cast<double>(i % 7), family);
  return batch;
}

TEST(MetricsBatch, ConcurrentCommitsMatchOneThreadInOrder) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 1000;
  Registry serial;
  serial.enable(true);
  for (int i = 0; i < kThreads * kPerThread; ++i) serial.commit(runBatch(i));

  Registry shared;
  shared.enable(true);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&shared, t] {
      for (int i = t; i < kThreads * kPerThread; i += kThreads)
        shared.commit(runBatch(i));
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(shared.toJson(), serial.toJson());
}

TEST(JsonWriter, EscapesAndNestsDeterministically) {
  obs::JsonWriter w;
  w.beginObject();
  w.key("s").value("a\"b\\c\n\t");
  w.key("list").beginArray().value(1).value(true).value(2.5).endArray();
  w.key("null_like").value(std::nan(""));
  w.endObject();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\n\\t\",\"list\":[1,true,2.5],"
            "\"null_like\":null}");
}

TEST(JsonNumbers, IntegralAndRoundTripFormatting) {
  EXPECT_EQ(obs::formatJsonNumber(0.0), "0");
  EXPECT_EQ(obs::formatJsonNumber(42.0), "42");
  EXPECT_EQ(obs::formatJsonNumber(-3.0), "-3");
  EXPECT_EQ(obs::formatJsonNumber(2.5), "2.5");
  EXPECT_EQ(obs::formatJsonNumber(1.0 / 0.0), "null");
  // The chosen decimal form parses back to the same double.
  for (const double v : {0.1, 1.0 / 3.0, 1e-7, 12345.6789, 2e300}) {
    const std::string s = obs::formatJsonNumber(v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
}

TEST(RunId, DeterministicAndSensitiveToInput) {
  EXPECT_EQ(obs::runId("abc"), obs::runId("abc"));
  EXPECT_NE(obs::runId("abc"), obs::runId("abd"));
  EXPECT_EQ(obs::runId("abc").size(), 16u);
}

TEST(RunId, SerializedConfigsCarryAStableStamp) {
  compose::Composition config;
  config.n = 4;
  config.inputs = {0, 1, 0, 1};
  config.seed = 99;
  const std::string text = compose::serialize(config);
  ASSERT_EQ(text.rfind("# run-id=", 0), 0u) << text;

  // The stamp is the hash of the payload, so re-serializing the parsed
  // config — and hashing the stamped text itself — reproduce it.
  const std::string stamp = text.substr(9, 16);
  EXPECT_EQ(compose::configRunId(text), stamp);
  const std::string again =
      compose::serialize(compose::parseComposition(text));
  EXPECT_EQ(again, text);

  // Different seed, different id.
  config.seed = 100;
  EXPECT_NE(compose::serialize(config).substr(9, 16), stamp);
}

TEST(RunId, CounterexampleRoundTripPreservesRunId) {
  check::Scenario scenario;
  scenario.compose.n = 4;
  scenario.compose.inputs = {0, 1, 0, 1};
  scenario.compose.seed = 7;
  scenario.compose.maxDelay = 2;

  const check::RecordedRun run = check::recordRun(scenario);
  check::CounterexampleFile file;
  file.scenario = scenario;
  file.invariant = "example";
  file.detail = "round-trip test";
  file.trace = run.trace;

  const std::string text = check::serializeCounterexample(file);
  EXPECT_NE(text.find("runid="), std::string::npos);

  const check::CounterexampleFile parsed = check::parseCounterexample(text);
  EXPECT_FALSE(parsed.runId.empty());
  EXPECT_EQ(parsed.runId,
            compose::configRunId(check::serialize(parsed.scenario)));
  EXPECT_EQ(check::serializeCounterexample(parsed), text);

  // Pre-runid files (the v1 format before stamping) still parse, and the
  // id is recomputed from the scenario.
  std::string legacy = text;
  const auto pos = legacy.find("runid=");
  const auto eol = legacy.find('\n', pos);
  legacy.erase(pos, eol - pos + 1);
  const check::CounterexampleFile old = check::parseCounterexample(legacy);
  EXPECT_EQ(old.runId, parsed.runId);
}

// ---------------------------------------------------------------------------
// What the runners publish: the registry snapshot of a fixed set of runs,
// pinned by FNV-1a digest. The digests were recorded from a feed that took
// the registry lock once per update; any regrouping of a run's updates must
// move no series, bucket or sum.

std::string snapshotOf(void (*runs)()) {
  Registry& reg = obs::metrics();
  reg.reset();
  reg.enable(true);
  runs();
  reg.enable(false);
  std::string json = reg.toJson();
  reg.reset();
  return json;
}

/// The two random walks of the repository benchmark's check-sweep workload
/// (benchmark/README.md), 24 configurations each.
void exploreCheckSweepWalks() {
  const auto walk = [](const char* detector, const char* driver,
                       std::size_t n, std::uint64_t seedBase,
                       std::size_t minN) {
    check::Scenario base;
    base.family = check::Family::kCompose;
    base.compose.detector = detector;
    base.compose.driver = driver;
    base.compose.n = n;
    check::RandomWalkStrategy::Options options;
    options.seedBase = seedBase;
    options.runs = 24;
    options.minProcesses = minN;
    options.maxProcesses = n;
    return check::RandomWalkStrategy(base, options);
  };
  const auto suite = check::safetySuite(true);
  check::CheckerOptions options;
  options.threads = 2;
  options.shrink = false;
  options.maxFindings = 0;
  for (const check::RandomWalkStrategy& strategy :
       {walk("benor-vac", "common-coin", 25, 1'400'000, 3),
        walk("phaseking-ac", "king-conciliator", 13, 6'400'000, 13)}) {
    const check::CheckReport report =
        check::explore(strategy, check::view(suite), options);
    EXPECT_EQ(report.configsExplored, 24u);
    EXPECT_TRUE(report.findings.empty());
  }
}

/// 66 rounds: the round label collapses into "33+" past round 32.
void runLongComposition() {
  compose::Composition composition;
  composition.detector = "benor-vac";
  composition.driver = "local-coin";
  composition.n = 13;
  const compose::CompositionResult result =
      compose::runComposition(composition);
  EXPECT_TRUE(result.allDecided);
  EXPECT_GT(result.maxDecisionRound, 32u);
}

void runDurableRaftRestart() {
  harness::RaftScenarioConfig config;
  config.n = 5;
  config.seed = 4;
  config.dropProbability = 0.1;
  config.raft.durable = true;
  config.raft.syncBeforeReply = true;
  config.restarts.push_back({0, 160, 5});
  config.restarts.push_back({1, 200, 5});
  const auto result = harness::runRaft(config);
  EXPECT_TRUE(result.allDecided);
  EXPECT_EQ(result.recoveries, 2u);
}

void runMonolithicBaselines() {
  harness::MonolithicBenOrConfig benor;
  benor.n = 7;
  benor.inputs = {0, 1, 0, 1, 1, 0, 1};
  benor.seed = 11;
  benor.crashes = {{6, 30}};
  EXPECT_TRUE(harness::runMonolithicBenOr(benor).allDecided);
  harness::MonolithicPhaseKingConfig king;
  king.seed = 11;
  EXPECT_TRUE(harness::runMonolithicPhaseKing(king).allDecided);
}

void runSvcPerEngine() {
  for (const char* engine : {"compose", "paxos", "raft"}) {
    svc::SvcConfig config;
    config.engine = engine;
    config.seed = 5;
    config.service.window = 2;
    config.workload.commandsPerNode = 12;
    config.workload.keySpace = 256;
    const svc::SvcResult result = svc::runSvc(config);
    EXPECT_TRUE(result.prefixOk && result.exactlyOnce && result.allApplied)
        << engine;
  }
}

TEST(RunnerTelemetry, PublishedSeriesMatchTheirPinnedDigests) {
  struct Pin {
    const char* what;
    void (*runs)();
    const char* digest;
  };
  const Pin pins[] = {
      {"check-sweep walks", exploreCheckSweepWalks, "65612ab0cddb7294"},
      {"long composition", runLongComposition, "23157e064d9625fe"},
      {"durable raft restart", runDurableRaftRestart, "bb74bb8b3e0510e0"},
      {"monolithic baselines", runMonolithicBaselines, "a9f279c13c8ab6e3"},
      {"svc engines", runSvcPerEngine, "199623c8fdd9badb"},
  };
  for (const Pin& pin : pins) {
    const std::string json = snapshotOf(pin.runs);
    EXPECT_EQ(obs::toHex(obs::fnv1a(json)), pin.digest)
        << pin.what << ": " << json;
  }
}

}  // namespace
}  // namespace ooc
