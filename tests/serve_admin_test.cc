// End-to-end test of the admin channel through ServeLines: queries and
// '#' admin lines interleaved on one session, each admin command answered
// with exactly one well-formed JSON line off the query fast path, plain
// comments skipped silently, bad arguments answered with error JSON, and
// #trace round-tripping an id scraped from #recent output.

#include "serve/server.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "graph/builder.h"
#include "serve/partition.h"
#include "serve/router.h"
#include "serve/telemetry.h"

namespace elitenet {
namespace serve {
namespace {

graph::DiGraph TestGraph() {
  graph::GraphBuilder b(6);
  EXPECT_TRUE(b.AddEdge(0, 1).ok());
  EXPECT_TRUE(b.AddEdge(1, 0).ok());
  EXPECT_TRUE(b.AddEdge(1, 2).ok());
  EXPECT_TRUE(b.AddEdge(2, 0).ok());
  EXPECT_TRUE(b.AddEdge(2, 3).ok());
  EXPECT_TRUE(b.AddEdge(3, 4).ok());
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

// Runs one ServeLines session over `input`, returning the output lines
// and the session stats.
struct SessionResult {
  std::vector<std::string> lines;
  ServeStats stats;
};

SessionResult RunSession(const std::string& input,
                         const EngineOptions& opts = EngineOptions()) {
  const graph::DiGraph g = TestGraph();
  auto engine = QueryEngine::Create(g, opts);
  EXPECT_TRUE(engine.ok());

  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  EXPECT_NE(in, nullptr);
  EXPECT_NE(out, nullptr);
  std::fputs(input.c_str(), in);
  std::rewind(in);

  SessionResult result;
  result.stats = ServeLines(engine->get(), in, out);

  std::rewind(out);
  std::string line;
  int c;
  while ((c = std::fgetc(out)) != EOF) {
    if (c == '\n') {
      result.lines.push_back(line);
      line.clear();
    } else {
      line.push_back(static_cast<char>(c));
    }
  }
  if (!line.empty()) result.lines.push_back(line);
  std::fclose(in);
  std::fclose(out);
  return result;
}

// Balanced-brace JSON shape check (strings respected).
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

TEST(ServeAdminTest, AdminLinesAnswerOffTheQueryPath) {
  const SessionResult r = RunSession(
      "ego 0\n"
      "#stats\n"
      "#healthz\n"
      "ego 1\n"
      "#recent 2\n"
      "#slow\n"
      "quit\n");
  // 2 queries + 4 admin responses, one line each, in order.
  ASSERT_EQ(r.lines.size(), 6u);
  EXPECT_EQ(r.stats.requests, 2u);
  EXPECT_EQ(r.stats.admin, 4u);
  EXPECT_EQ(r.stats.errors, 0u);
  for (const std::string& line : r.lines) {
    EXPECT_TRUE(JsonBalanced(line)) << line;
    EXPECT_EQ(line.front(), '{') << line;
  }
  EXPECT_NE(r.lines[1].find("\"type\":\"stats\""), std::string::npos);
  // Both completed queries are accounted out of flight again (guards a
  // regression where the decrement was gated behind the metrics switch).
  EXPECT_NE(r.lines[1].find("\"inflight\":0"), std::string::npos)
      << r.lines[1];
  EXPECT_NE(r.lines[2].find("\"type\":\"healthz\""), std::string::npos);
  EXPECT_NE(r.lines[4].find("\"type\":\"recent\""), std::string::npos);
  EXPECT_NE(r.lines[5].find("\"type\":\"slow\""), std::string::npos);
  // #recent 2 reports both completed queries.
  EXPECT_NE(r.lines[4].find("\"ego 0\""), std::string::npos);
  EXPECT_NE(r.lines[4].find("\"ego 1\""), std::string::npos);
}

TEST(ServeAdminTest, StatsReportWarmStagesOnlyWhenBuilt) {
  const graph::DiGraph g = TestGraph();
  EngineOptions opts;
  opts.warm_index_path = testing::TempDir() + "/admin_warm_stages.widx";
  std::remove(opts.warm_index_path.c_str());
  auto cmd = ParseAdminLine("#stats");
  ASSERT_TRUE(cmd.ok());

  // A build reports every stage, in build order, next to warmup_seconds.
  auto built = QueryEngine::Create(g, opts);
  ASSERT_TRUE(built.ok());
  const std::string built_stats = (*built)->AdminResponse(*cmd);
  const size_t stages = built_stats.find(
      "\"warm_from_cache\":false,\"warm_stage_seconds\":{\"mutual\":");
  ASSERT_NE(stages, std::string::npos) << built_stats;
  size_t at = stages;
  for (const char* name :
       {"heavy_reach", "components", "pagerank", "fingerprint"}) {
    std::string key = "\"";
    key.append(name).append("\":");
    const size_t next = built_stats.find(key, at);
    ASSERT_NE(next, std::string::npos) << name << " in " << built_stats;
    at = next;
  }
  EXPECT_LT(at, built_stats.find("\"cache\":{"));
  EXPECT_TRUE(JsonBalanced(built_stats)) << built_stats;

  // A restore from the sidecar has no stage rows.
  auto restored = QueryEngine::Create(g, opts);
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE((*restored)->warm_index_from_cache());
  const std::string restored_stats = (*restored)->AdminResponse(*cmd);
  EXPECT_NE(restored_stats.find("\"warm_from_cache\":true,\"cache\":{"),
            std::string::npos)
      << restored_stats;
  EXPECT_EQ(restored_stats.find("warm_stage_seconds"), std::string::npos);
  std::remove(opts.warm_index_path.c_str());
}

TEST(ServeAdminTest, PlainCommentsAreSkippedSilently) {
  const SessionResult r = RunSession(
      "# a comment, not an admin verb\n"
      "#\n"
      "ego 0\n"
      "quit\n");
  ASSERT_EQ(r.lines.size(), 1u);
  EXPECT_EQ(r.stats.requests, 1u);
  EXPECT_EQ(r.stats.admin, 0u);
  EXPECT_EQ(r.stats.errors, 0u);
}

TEST(ServeAdminTest, BadAdminArgumentsProduceErrorJson) {
  const SessionResult r = RunSession(
      "#recent five\n"
      "#trace not-hex\n"
      "quit\n");
  ASSERT_EQ(r.lines.size(), 2u);
  EXPECT_EQ(r.stats.errors, 2u);
  for (const std::string& line : r.lines) {
    EXPECT_TRUE(JsonBalanced(line)) << line;
    EXPECT_NE(line.find("\"type\":\"error\""), std::string::npos) << line;
    EXPECT_NE(line.find("InvalidArgument"), std::string::npos) << line;
  }
}

TEST(ServeAdminTest, TraceRoundTripsFromRecentOutput) {
  const SessionResult first = RunSession(
      "ego 2\n"
      "#recent 1\n"
      "quit\n");
  ASSERT_EQ(first.lines.size(), 2u);
  // Scrape the trace id out of the #recent response.
  const std::string& recent = first.lines[1];
  const std::string key = "\"trace_id\":\"";
  const size_t pos = recent.find(key);
  ASSERT_NE(pos, std::string::npos) << recent;
  const std::string hex = recent.substr(pos + key.size(), 16);
  uint64_t id = 0;
  ASSERT_TRUE(ParseTraceId(hex, &id));

  // Same deterministic stream in a fresh session: #trace finds the
  // record by the scraped id (trace ids are a pure function of the
  // request sequence, so session two assigns the same id).
  const SessionResult second = RunSession(
      "ego 2\n"
      "#trace " + hex + "\n"
      "quit\n");
  ASSERT_EQ(second.lines.size(), 2u);
  EXPECT_NE(second.lines[1].find("\"type\":\"trace\""), std::string::npos);
  EXPECT_NE(second.lines[1].find(hex), std::string::npos);
  EXPECT_NE(second.lines[1].find("\"ego 2\""), std::string::npos);
}

TEST(ServeAdminTest, TraceMissReportsNotFound) {
  const SessionResult r = RunSession(
      "#trace ffffffffffffffff\n"
      "quit\n");
  ASSERT_EQ(r.lines.size(), 1u);
  // A well-formed id that is not resident still answers (the command
  // parsed fine) — with found:false and no record.
  EXPECT_TRUE(JsonBalanced(r.lines[0])) << r.lines[0];
  EXPECT_NE(r.lines[0].find("\"found\":false"), std::string::npos)
      << r.lines[0];
  EXPECT_EQ(r.lines[0].find("\"record\""), std::string::npos) << r.lines[0];
}

TEST(ServeAdminTest, FlagParsingConfiguresTelemetry) {
  EngineOptions opts;
  EXPECT_TRUE(ParseServeFlag("--metrics=/tmp/m.json", &opts));
  EXPECT_EQ(opts.metrics_path, "/tmp/m.json");
  EXPECT_TRUE(ParseServeFlag("--metrics-interval=250", &opts));
  EXPECT_EQ(opts.metrics_interval_ms, 250);
  EXPECT_TRUE(ParseServeFlag("--flight-recorder=1024", &opts));
  EXPECT_EQ(opts.telemetry.recorder_capacity, 1024u);
  EXPECT_TRUE(ParseServeFlag("--slow-ms=20", &opts));
  EXPECT_EQ(opts.telemetry.slow_us, 20000u);
  EXPECT_TRUE(ParseServeFlag("--sample=8", &opts));
  EXPECT_EQ(opts.telemetry.sample_every, 8u);
  EXPECT_TRUE(ParseServeFlag("--no-telemetry", &opts));
  EXPECT_FALSE(opts.telemetry.enabled);
  EXPECT_FALSE(ParseServeFlag("--unknown=1", &opts));
  EXPECT_FALSE(ParseServeFlag("ego 5", &opts));

  // Overflowing, non-numeric and out-of-range values are rejected and
  // leave the options untouched (2^32 must not wrap to sample_every=0).
  EXPECT_FALSE(ParseServeFlag("--sample=4294967296", &opts));
  EXPECT_FALSE(ParseServeFlag("--sample=99999999999999999999", &opts));
  EXPECT_FALSE(ParseServeFlag("--sample=8x", &opts));
  EXPECT_FALSE(ParseServeFlag("--sample=", &opts));
  EXPECT_EQ(opts.telemetry.sample_every, 8u);
  EXPECT_TRUE(ParseServeFlag("--sample=4294967295", &opts));
  EXPECT_EQ(opts.telemetry.sample_every, 4294967295u);
  EXPECT_FALSE(ParseServeFlag(
      "--flight-recorder=" + std::to_string(kMaxRecorderCapacity + 1), &opts));
  EXPECT_FALSE(ParseServeFlag("--flight-recorder=9223372036854775809", &opts));
  EXPECT_EQ(opts.telemetry.recorder_capacity, 1024u);
  EXPECT_TRUE(ParseServeFlag(
      "--flight-recorder=" + std::to_string(kMaxRecorderCapacity), &opts));
  EXPECT_FALSE(ParseServeFlag("--slow-ms=18446744073709552", &opts));
  EXPECT_EQ(opts.telemetry.slow_us, 20000u);
  EXPECT_FALSE(ParseServeFlag("--metrics-interval=2147483648", &opts));
  EXPECT_FALSE(ParseServeFlag("--metrics-interval=-5", &opts));
  EXPECT_EQ(opts.metrics_interval_ms, 250);
}

// The one serve command line: every flag of the union, the positional
// worker count, sidecar paths, and exit-2 rejections of bad values.
TEST(ServeAdminTest, ServeArgsParseTheWholeFlagSet) {
  auto parse = [](std::vector<const char*> args, RouterOptions* opts) {
    return ParseServeArgs("g.eng2", static_cast<int>(args.size()),
                          args.data(), opts);
  };
  RouterOptions opts;
  ASSERT_TRUE(parse({"3", "--cache=17", "--sample=4"}, &opts).ok());
  EXPECT_EQ(opts.num_shards, 0);  // unsharded
  EXPECT_EQ(opts.engine.threads, 3);
  EXPECT_EQ(opts.engine.cache_capacity, 17u);
  EXPECT_EQ(opts.engine.telemetry.sample_every, 4u);
  EXPECT_EQ(opts.engine.warm_index_path, "g.eng2.widx");
  EXPECT_EQ(opts.partition_path, PartitionPathFor("g.eng2"));

  RouterOptions ropts;
  ASSERT_TRUE(
      parse({"--threads=2", "--shards=4", "--no-widx"}, &ropts).ok());
  EXPECT_EQ(ropts.num_shards, 4);
  EXPECT_EQ(ropts.engine.threads, 2);
  EXPECT_TRUE(ropts.engine.warm_index_path.empty());
  EXPECT_TRUE(ropts.partition_path.empty());

  for (const char* bad :
       {"--shards=abc", "--shards=256", "--shards=-1", "--threads=0",
        "--threads=4294967297", "--shard-threads=", "--shard-threads=3",
        "--cache=18446744073709551616", "abc", "0", "--sample=4294967296",
        "--flight-recorder=18446744073709551615", "--bogus"}) {
    RouterOptions o;
    const Status s = parse({bad}, &o);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(s.message().find(bad), std::string::npos) << s.message();
  }

  // The environment fallbacks are checked like their flags.
  ASSERT_EQ(setenv("ELITENET_FLIGHT_RECORDER", "99999999999999999999", 1), 0);
  RouterOptions env_opts;
  EXPECT_FALSE(parse({}, &env_opts).ok());
  ASSERT_EQ(setenv("ELITENET_FLIGHT_RECORDER", "512", 1), 0);
  ASSERT_TRUE(parse({}, &env_opts).ok());
  EXPECT_EQ(env_opts.engine.telemetry.recorder_capacity, 512u);
  ASSERT_EQ(unsetenv("ELITENET_FLIGHT_RECORDER"), 0);
}

}  // namespace
}  // namespace serve
}  // namespace elitenet
