// Unit tests for the telemetry layer (src/obs): metrics registry label
// handling, histogram bucket boundaries, disabled no-op behavior, JSON
// determinism, and the deterministic run-id stamping of serialized
// scenario and counterexample files.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "check/replay.hpp"
#include "compose/composition.hpp"
#include "compose/kv.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/run_id.hpp"

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

}  // namespace
}  // namespace ooc
