// bench::Json / bench::Report: the one writer behind every BENCH_*.json.
// Checks the text it renders — string escaping, non-finite doubles as
// null, nesting, empty containers, key replacement — and that a report
// carries each environment field exactly once, whatever the bench set;
// plus the shared sample summaries (Summarize, Percentile).

#include "bench_common.h"

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace elitenet {
namespace bench {
namespace {

size_t CountOf(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++count;
  }
  return count;
}

TEST(BenchJsonTest, ScalarsRenderExactly) {
  EXPECT_EQ(Json().Dump(), "null");
  EXPECT_EQ(Json(true).Dump(), "true");
  EXPECT_EQ(Json(false).Dump(), "false");
  EXPECT_EQ(Json(-5).Dump(), "-5");
  EXPECT_EQ(Json(std::numeric_limits<uint64_t>::max()).Dump(),
            "18446744073709551615");
  EXPECT_EQ(Json(0.5).Dump(), "0.5");
  EXPECT_EQ(Json(0.1).Dump(), "0.1");  // shortest text, not %.17g's
  const double third = 1.0 / 3.0;
  EXPECT_EQ(std::strtod(Json(third).Dump().c_str(), nullptr), third);
  EXPECT_EQ(Json(std::string("plain")).Dump(), "\"plain\"");
}

TEST(BenchJsonTest, StringsAndKeysAreEscaped) {
  EXPECT_EQ(Json("q\"b\\n\nt\tc\x01").Dump(),
            "\"q\\\"b\\\\n\\nt\\tc\\u0001\"");
  EXPECT_EQ(Json::Object().Set("k\"ey", "v").Dump(), "{\"k\\\"ey\": \"v\"}");
}

TEST(BenchJsonTest, NonFiniteDoublesAreNull) {
  Json a = Json::Array();
  a.Add(std::nan(""))
      .Add(std::numeric_limits<double>::infinity())
      .Add(-std::numeric_limits<double>::infinity())
      .Add(1.5);
  EXPECT_EQ(a.Dump(), "[null, null, null, 1.5]");
}

TEST(BenchJsonTest, NestedContainersIndent) {
  Json rows = Json::Array();
  rows.Add(Json::Object().Set("a", 1).Set("b", Json::Array().Add(1).Add(2)))
      .Add(Json::Array());
  Json doc = Json::Object();
  doc.Set("name", "x").Set("rows", std::move(rows));
  EXPECT_EQ(doc.Dump(),
            "{\n"
            "  \"name\": \"x\",\n"
            "  \"rows\": [\n"
            "    {\n"
            "      \"a\": 1,\n"
            "      \"b\": [1, 2]\n"
            "    },\n"
            "    []\n"
            "  ]\n"
            "}");
}

TEST(BenchJsonTest, EmptyContainers) {
  EXPECT_EQ(Json::Object().Dump(), "{}");
  EXPECT_EQ(Json::Array().Dump(), "[]");
  EXPECT_EQ(Json::Object().Set("a", Json::Object()).Dump(),
            "{\n  \"a\": {}\n}");
}

TEST(BenchJsonTest, SetReplacesInPlace) {
  Json o = Json::Object();
  o.Set("first", 1).Set("second", 2).Set("first", "again");
  EXPECT_EQ(o.Dump(), "{\"first\": \"again\", \"second\": 2}");
}

TEST(BenchReportTest, EnvironmentFieldsAppearExactlyOnce) {
  Report report;
  // A bench field that collides with an environment field is replaced,
  // not duplicated.
  report.Set("scale", 4000).Set("threads", 99).Set("rows", Json::Array());
  const std::string text = report.Dump();
  for (const char* field :
       {"commit", "hardware_concurrency", "nproc", "threads",
        "peak_rss_bytes", "resident_delta_bytes", "scale", "rows"}) {
    EXPECT_EQ(CountOf(text, std::string("\"") + field + "\":"), 1u)
        << field << " in\n" << text;
  }
  EXPECT_EQ(CountOf(text, "\"threads\": 99"), 0u) << text;
  EXPECT_EQ(text.front(), '{');
  EXPECT_EQ(text.substr(text.size() - 2), "}\n");
}

TEST(BenchReportTest, WriteRoundTripsAndReportsFailure) {
  Report report;
  report.Set("answer", 42);
  const std::string path = testing::TempDir() + "/bench_report_test.json";
  ASSERT_TRUE(report.Write(path));
  std::ifstream in(path);
  std::stringstream written;
  written << in.rdbuf();
  EXPECT_EQ(CountOf(written.str(), "\"answer\": 42"), 1u);
  EXPECT_EQ(CountOf(written.str(), "\"commit\":"), 1u);
  EXPECT_FALSE(report.Write(testing::TempDir() + "/no/such/dir/x.json"));
}

TEST(BenchSummarizeTest, MedianMinMax) {
  const Spread odd = Summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(odd.median, 2.0);
  EXPECT_EQ(odd.min, 1.0);
  EXPECT_EQ(odd.max, 3.0);
  const Spread even = Summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(even.median, 2.5);
  EXPECT_EQ(even.min, 1.0);
  EXPECT_EQ(even.max, 4.0);
  const Spread none = Summarize({});
  EXPECT_EQ(none.median, 0.0);
}

TEST(BenchPercentileTest, NearestRankOfASortedSample) {
  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(i);
  EXPECT_EQ(Percentile(sorted, 0.50), 50.0);
  EXPECT_EQ(Percentile(sorted, 0.95), 95.0);
  EXPECT_EQ(Percentile(sorted, 0.99), 99.0);
  EXPECT_EQ(Percentile(sorted, 0.0), 1.0);
  EXPECT_EQ(Percentile(sorted, 1.0), 100.0);
  // Nearest rank never interpolates: the 0.5 rank of {1, 2, 3, 4} is 2.
  const std::vector<double> four = {1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(Percentile(four, 0.50), 2.0);
  EXPECT_EQ(Percentile(four, 0.51), 3.0);
  EXPECT_EQ(Percentile({}, 0.99), 0.0);
}

TEST(BenchHexTest, SixteenLowerCaseDigits) {
  EXPECT_EQ(Hex64(0), "0000000000000000");
  EXPECT_EQ(Hex64(0xDEADBEEFull), "00000000deadbeef");
}

}  // namespace
}  // namespace bench
}  // namespace elitenet
