// Unit tests of the metrics registry: counter atomicity under
// ParallelFor, enable-disable gating, snapshot ordering and determinism,
// metric-pointer stability across ResetValues, the sketch macro's
// quantiles, and JSON and Prometheus snapshot validity. The three
// primitives are counters, gauges and quantile sketches.

#include "util/metrics.h"

#include <gtest/gtest.h>

#include <string>

#include "util/parallel.h"

namespace elitenet {
namespace util {
namespace {

// Same structural JSON check as trace_test: balanced braces/brackets
// outside of strings.
bool JsonBalanced(const std::string& s) {
  int braces = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    if (braces < 0 || brackets < 0) return false;
  }
  return braces == 0 && brackets == 0 && !in_string;
}

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetMetricsEnabled(true);
    MetricsRegistry::Global().ResetValues();
  }
  void TearDown() override {
    SetMetricsEnabled(false);
    MetricsRegistry::Global().ResetValues();
    SetThreadCount(0);
  }
};

TEST_F(MetricsTest, CounterAtomicUnderParallelFor) {
  SetThreadCount(4);
  constexpr size_t kItems = 100000;
  ParallelFor(0, kItems, 0, [](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      ELITENET_COUNT("metrics_test.atomic", 1);
    }
  });
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snap.CounterOr0("metrics_test.atomic"), kItems);
}

TEST_F(MetricsTest, DisabledMacrosRecordNothing) {
  SetMetricsEnabled(false);
  ELITENET_COUNT("metrics_test.gated", 5);
  EXPECT_EQ(MetricsRegistry::Global().Snapshot().CounterOr0(
                "metrics_test.gated"),
            0u);
  SetMetricsEnabled(true);
  ELITENET_COUNT("metrics_test.gated", 5);
  EXPECT_EQ(MetricsRegistry::Global().Snapshot().CounterOr0(
                "metrics_test.gated"),
            5u);
}

TEST_F(MetricsTest, SnapshotIsSortedAndRepeatable) {
  ELITENET_COUNT("metrics_test.b", 2);
  ELITENET_COUNT("metrics_test.a", 1);
  ELITENET_COUNT("metrics_test.c", 3);
  const MetricsSnapshot first = MetricsRegistry::Global().Snapshot();
  const MetricsSnapshot second = MetricsRegistry::Global().Snapshot();
  ASSERT_EQ(first.counters.size(), second.counters.size());
  for (size_t i = 0; i < first.counters.size(); ++i) {
    EXPECT_EQ(first.counters[i].name, second.counters[i].name);
    EXPECT_EQ(first.counters[i].value, second.counters[i].value);
    if (i > 0) {
      EXPECT_LT(first.counters[i - 1].name, first.counters[i].name);
    }
  }
  EXPECT_EQ(first.ToJson(), second.ToJson());
}

TEST_F(MetricsTest, GaugeLastWriteWins) {
  ELITENET_GAUGE_SET("metrics_test.gauge", 41);
  ELITENET_GAUGE_SET("metrics_test.gauge", -7);
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  bool found = false;
  for (const auto& g : snap.gauges) {
    if (g.name == "metrics_test.gauge") {
      EXPECT_EQ(g.value, -7);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(MetricsTest, PointersSurviveResetValues) {
  Counter* c = MetricsRegistry::Global().GetCounter("metrics_test.stable");
  c->Add(9);
  EXPECT_EQ(c->value(), 9u);
  MetricsRegistry::Global().ResetValues();
  // Same object, zeroed — cached macro pointers must stay valid.
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("metrics_test.stable"), c);
  EXPECT_EQ(c->value(), 0u);
  c->Add(2);
  EXPECT_EQ(MetricsRegistry::Global().Snapshot().CounterOr0(
                "metrics_test.stable"),
            2u);
}

TEST_F(MetricsTest, CounterOr0ForUnknownName) {
  EXPECT_EQ(MetricsRegistry::Global().Snapshot().CounterOr0(
                "metrics_test.never_registered"),
            0u);
}

TEST_F(MetricsTest, JsonSnapshotIsWellFormed) {
  ELITENET_COUNT("metrics_test.json \"quoted\"", 1);
  ELITENET_GAUGE_SET("metrics_test.json_gauge", 12);
  ELITENET_SKETCH("metrics_test.json_sketch", 300);
  const std::string json = MetricsRegistry::Global().Snapshot().ToJson();
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  // Sketches replaced the power-of-two histograms; no empty section is
  // left behind for a consumer to mistake for data.
  EXPECT_EQ(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"sketches\""), std::string::npos);
  EXPECT_NE(json.find("metrics_test.json \\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json.find("metrics_test.json_sketch"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST_F(MetricsTest, SketchMacroRecordsQuantiles) {
  for (int i = 1; i <= 100; ++i) {
    ELITENET_SKETCH("metrics_test.sketch_macro", i);
  }
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  bool found = false;
  for (const auto& s : snap.sketches) {
    if (s.name != "metrics_test.sketch_macro") continue;
    found = true;
    EXPECT_EQ(s.count, 100u);
    // p50 within the sketch's 1/64 relative-error bound of 50.
    EXPECT_NEAR(s.p50, 50.0, 1.0);
    EXPECT_NEAR(s.p99, 99.0, 99.0 / 64.0 + 0.5);
    EXPECT_GE(s.max, 100u);
  }
  EXPECT_TRUE(found);
}

TEST_F(MetricsTest, PrometheusTextIsSane) {
  ELITENET_COUNT("metrics_test.prom.count", 3);
  ELITENET_GAUGE_SET("metrics_test.prom-gauge", -4);
  ELITENET_SKETCH("metrics_test.prom.sketch", 42);
  const std::string text =
      MetricsRegistry::Global().Snapshot().ToPrometheusText();
  // Names are sanitized to [a-zA-Z0-9_] and prefixed.
  EXPECT_NE(text.find("elitenet_metrics_test_prom_count 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("elitenet_metrics_test_prom_gauge -4"),
            std::string::npos)
      << text;
  // Sketches render as summaries with quantile labels + count/sum.
  EXPECT_NE(text.find("elitenet_metrics_test_prom_sketch{quantile=\"0.5\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("elitenet_metrics_test_prom_sketch_count 1"),
            std::string::npos)
      << text;
  // Every sample line is whole, the last quantile too.
  EXPECT_NE(text.find("elitenet_metrics_test_prom_sketch{quantile=\"0.99\"} "
                      "42.0\n"),
            std::string::npos)
      << text;
  // Every line is "name[{labels}] value" or a # comment.
  EXPECT_EQ(text.find("  "), std::string::npos);
}

}  // namespace
}  // namespace util
}  // namespace elitenet
