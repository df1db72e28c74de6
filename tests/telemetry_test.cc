// Tests of the serving telemetry plane: deterministic trace ids, the
// flight-recorder ring (wrap, ordering, lookup, concurrent hammer), slow
// -query pinning, admin-command parsing round-trips, the engine-level
// correctness bar — response bytes identical with telemetry off, sampled,
// and full, at 1/2/4 workers — and the exporter's files (each Prometheus
// family declared once, one count per request). Carries the serve and
// tsan labels.

#include "serve/telemetry.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "gen/verified_network.h"
#include "serve/engine.h"
#include "serve/request.h"

namespace elitenet {
namespace serve {
namespace {

// --------------------------------------------------------------------------
// Trace ids

TEST(TraceIdTest, DeterministicAndDistinct) {
  std::set<uint64_t> seen;
  for (uint64_t seq = 1; seq <= 10000; ++seq) {
    const uint64_t id = TraceIdFor(seq);
    EXPECT_EQ(id, TraceIdFor(seq));  // pure function of seq
    EXPECT_TRUE(seen.insert(id).second) << "collision at seq " << seq;
  }
}

TEST(TraceIdTest, HexRoundTrip) {
  for (uint64_t seq : {uint64_t{1}, uint64_t{42}, uint64_t{1} << 60}) {
    const uint64_t id = TraceIdFor(seq);
    const std::string hex = TraceIdHex(id);
    EXPECT_EQ(hex.size(), 16u);
    uint64_t back = 0;
    ASSERT_TRUE(ParseTraceId(hex, &back)) << hex;
    EXPECT_EQ(back, id);
  }
  uint64_t v = 0;
  EXPECT_TRUE(ParseTraceId("0xABCDEF", &v));
  EXPECT_EQ(v, 0xABCDEFu);
  EXPECT_FALSE(ParseTraceId("", &v));
  EXPECT_FALSE(ParseTraceId("xyz", &v));
  EXPECT_FALSE(ParseTraceId("12345678901234567", &v));  // 17 digits
}

TEST(TraceIdTest, SamplingDensityMatchesSampleEvery) {
  TelemetryOptions opts;
  opts.sample_every = 64;
  Telemetry tel(opts);
  uint64_t sampled = 0;
  constexpr uint64_t kN = 64000;
  for (uint64_t seq = 1; seq <= kN; ++seq) {
    if (tel.Sampled(TraceIdFor(seq))) ++sampled;
  }
  // splitmix64 output is uniform, so the 1-in-64 rate concentrates
  // tightly around kN/64 = 1000.
  EXPECT_GT(sampled, kN / 64 / 2);
  EXPECT_LT(sampled, kN / 64 * 2);
}

// --------------------------------------------------------------------------
// Flight recorder

RequestRecord MakeRecord(uint64_t seq, RequestType type = RequestType::kEgoSummary) {
  RequestRecord r;
  r.seq = seq;
  r.trace_id = TraceIdFor(seq);
  r.request.type = type;
  r.latency_us = seq;
  return r;
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(0).capacity(), 1u);
  EXPECT_EQ(FlightRecorder(1).capacity(), 1u);
  EXPECT_EQ(FlightRecorder(3).capacity(), 4u);
  EXPECT_EQ(FlightRecorder(256).capacity(), 256u);
  EXPECT_EQ(FlightRecorder(257).capacity(), 512u);
}

// Above the stated maximum the ring refuses outright: rounding 2^63+1 up
// to a power of two would never terminate.
TEST(FlightRecorderDeathTest, CapacityAboveMaximumIsFatal) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(FlightRecorder(kMaxRecorderCapacity + 1), "EN_CHECK");
  EXPECT_DEATH(FlightRecorder((size_t{1} << 63) + 1), "EN_CHECK");
}

TEST(FlightRecorderTest, RecentIsNewestFirstAfterWrap) {
  FlightRecorder ring(8);
  for (uint64_t seq = 1; seq <= 20; ++seq) ring.Push(MakeRecord(seq));
  EXPECT_EQ(ring.total(), 20u);
  const auto recent = ring.Recent(100);
  ASSERT_EQ(recent.size(), 8u);  // resident = capacity after wrap
  for (size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].seq, 20 - i);  // newest first
  }
  const auto top3 = ring.Recent(3);
  ASSERT_EQ(top3.size(), 3u);
  EXPECT_EQ(top3[0].seq, 20u);
  EXPECT_EQ(top3[2].seq, 18u);
}

TEST(FlightRecorderTest, FindTraceHitsResidentAndMissesEvicted) {
  FlightRecorder ring(8);
  for (uint64_t seq = 1; seq <= 12; ++seq) ring.Push(MakeRecord(seq));
  RequestRecord out;
  ASSERT_TRUE(ring.FindTrace(TraceIdFor(12), &out));
  EXPECT_EQ(out.seq, 12u);
  ASSERT_TRUE(ring.FindTrace(TraceIdFor(5), &out));  // still resident
  EXPECT_EQ(out.seq, 5u);
  EXPECT_FALSE(ring.FindTrace(TraceIdFor(2), &out));  // lapped away
  EXPECT_FALSE(ring.FindTrace(0xdeadbeef, &out));     // never pushed
}

TEST(FlightRecorderTest, ConcurrentPushersAndReadersAreSafe) {
  FlightRecorder ring(64);
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 5000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&ring, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        ring.Push(MakeRecord(t * kPerThread + i + 1));
      }
    });
  }
  std::thread reader([&ring] {
    for (int i = 0; i < 200; ++i) {
      const auto recent = ring.Recent(64);
      EXPECT_LE(recent.size(), 64u);
      // Ticket order must hold even mid-hammer: newest first.
      for (size_t j = 1; j < recent.size(); ++j) {
        EXPECT_NE(recent[j].trace_id, 0u);
      }
      RequestRecord out;
      (void)ring.FindTrace(TraceIdFor(1), &out);
    }
  });
  for (auto& w : writers) w.join();
  reader.join();
  EXPECT_EQ(ring.total(), kThreads * kPerThread);
  EXPECT_EQ(ring.Recent(1000).size(), 64u);
}

TEST(TelemetryTest, SlowRingPinsOverThresholdAndDeadlineMisses) {
  TelemetryOptions opts;
  opts.slow_us = 1000;
  Telemetry tel(opts);
  RequestRecord fast = MakeRecord(1);
  fast.latency_us = 10;
  RequestRecord slow = MakeRecord(2);
  slow.latency_us = 5000;
  RequestRecord missed = MakeRecord(3);
  missed.latency_us = 10;
  missed.deadline_missed = true;
  tel.Record(fast);
  tel.Record(slow);
  tel.Record(missed);
  EXPECT_EQ(tel.recent().total(), 3u);
  const auto slow_records = tel.slow().Recent(10);
  ASSERT_EQ(slow_records.size(), 2u);
  EXPECT_EQ(slow_records[0].seq, 3u);
  EXPECT_EQ(slow_records[1].seq, 2u);
}

TEST(TelemetryTest, SloCountersBreakDownByType) {
  Telemetry tel(TelemetryOptions{});
  RequestRecord ego = MakeRecord(1, RequestType::kEgoSummary);
  ego.cache_hit = true;
  RequestRecord dist = MakeRecord(2, RequestType::kDistance);
  dist.ok = false;
  RequestRecord topk = MakeRecord(3, RequestType::kTopKRank);
  topk.degraded = true;
  tel.Record(ego);
  tel.Record(dist);
  tel.Record(topk);
  EXPECT_EQ(tel.type_counters(RequestType::kEgoSummary).requests, 1u);
  EXPECT_EQ(tel.type_counters(RequestType::kEgoSummary).cache_hits, 1u);
  EXPECT_EQ(tel.type_counters(RequestType::kDistance).errors, 1u);
  EXPECT_EQ(tel.type_counters(RequestType::kTopKRank).degraded, 1u);
  const SloCounters totals = tel.totals();
  EXPECT_EQ(totals.requests, 3u);
  EXPECT_EQ(totals.errors, 1u);
  EXPECT_EQ(totals.degraded, 1u);
  EXPECT_EQ(totals.cache_hits, 1u);
}

// --------------------------------------------------------------------------
// Admin parsing

TEST(AdminParseTest, RecognizesEveryVerb) {
  auto stats = ParseAdminLine("#stats");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->kind, AdminCommand::Kind::kStats);

  auto healthz = ParseAdminLine("  #healthz  ");
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz->kind, AdminCommand::Kind::kHealthz);

  auto recent = ParseAdminLine("#recent 5");
  ASSERT_TRUE(recent.ok());
  EXPECT_EQ(recent->kind, AdminCommand::Kind::kRecent);
  EXPECT_EQ(recent->n, 5u);

  auto recent_default = ParseAdminLine("#recent");
  ASSERT_TRUE(recent_default.ok());
  EXPECT_EQ(recent_default->n, 16u);

  auto slow = ParseAdminLine("# slow 3");
  ASSERT_TRUE(slow.ok());
  EXPECT_EQ(slow->kind, AdminCommand::Kind::kSlow);
  EXPECT_EQ(slow->n, 3u);

  auto trace = ParseAdminLine("#trace 00000000deadbeef");
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->kind, AdminCommand::Kind::kTrace);
  EXPECT_EQ(trace->trace_id, 0xdeadbeefu);
}

TEST(AdminParseTest, PlainCommentsAreNotFound) {
  // '#' lines with unknown verbs stay comments — old request files keep
  // working.
  EXPECT_TRUE(ParseAdminLine("# this is a comment").status().code() == StatusCode::kNotFound);
  EXPECT_TRUE(ParseAdminLine("#").status().code() == StatusCode::kNotFound);
  EXPECT_TRUE(ParseAdminLine("ego 5").status().code() == StatusCode::kNotFound);
  EXPECT_TRUE(ParseAdminLine("").status().code() == StatusCode::kNotFound);
}

TEST(AdminParseTest, BadArgumentsAreInvalidNotComments) {
  EXPECT_TRUE(
      ParseAdminLine("#recent five").status().code() == StatusCode::kInvalidArgument);
  EXPECT_TRUE(ParseAdminLine("#trace").status().code() == StatusCode::kInvalidArgument);
  EXPECT_TRUE(ParseAdminLine("#trace zz").status().code() == StatusCode::kInvalidArgument);
  EXPECT_TRUE(ParseAdminLine("#stats extra").status().code() == StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------------
// Engine byte-identity: telemetry observes, never decides.

class TelemetryEngineTest : public ::testing::Test {
 public:
  static void SetUpTestSuite() {
    gen::VerifiedNetworkConfig cfg;
    cfg.num_users = 1200;
    // The paper's density is too sparse for a 1200-node tail; thicken it
    // so the small fixture still generates (and has paths to probe).
    cfg.density = 0.006;
    cfg.seed = 99;
    auto net = gen::GenerateVerifiedNetwork(cfg);
    ASSERT_TRUE(net.ok());
    graph_ = new graph::DiGraph(std::move(net->graph));
  }
  static void TearDownTestSuite() {
    delete graph_;
    graph_ = nullptr;
  }
  static graph::DiGraph* graph_;
};

graph::DiGraph* TelemetryEngineTest::graph_ = nullptr;

std::vector<Request> SmallMix() {
  std::vector<Request> mix;
  for (uint32_t i = 0; i < 40; ++i) {
    Request ego;
    ego.type = RequestType::kEgoSummary;
    ego.node = i * 7 % 1200;
    mix.push_back(ego);
    Request nb;
    nb.type = RequestType::kNeighbors;
    nb.node = i * 13 % 1200;
    nb.limit = 16;
    mix.push_back(nb);
    Request d;
    d.type = RequestType::kDistance;
    d.node = i % 1200;
    d.target = (i * 31 + 5) % 1200;
    mix.push_back(d);
  }
  Request topk;
  topk.type = RequestType::kTopKRank;
  topk.k = 10;
  mix.push_back(topk);
  return mix;
}

std::vector<std::string> ReplayResponses(const EngineOptions& opts,
                                         const std::vector<Request>& mix) {
  auto engine = QueryEngine::Create(*TelemetryEngineTest::graph_, opts);
  EXPECT_TRUE(engine.ok());
  std::vector<std::future<QueryResponse>> futures;
  futures.reserve(mix.size());
  for (const Request& r : mix) futures.push_back((*engine)->Submit(r));
  std::vector<std::string> out;
  out.reserve(mix.size());
  for (auto& f : futures) out.push_back(f.get().json);
  return out;
}

TEST_F(TelemetryEngineTest, ResponsesIdenticalAcrossTelemetryAndWorkers) {
  const std::vector<Request> mix = SmallMix();
  EngineOptions base;
  base.cache_capacity = 64;
  base.threads = 1;
  base.telemetry.enabled = false;
  const std::vector<std::string> reference = ReplayResponses(base, mix);

  for (int threads : {1, 2, 4}) {
    for (uint32_t sample_every : {uint32_t{0}, uint32_t{64}, uint32_t{1}}) {
      EngineOptions opts = base;
      opts.threads = threads;
      opts.telemetry.enabled = true;
      opts.telemetry.sample_every = sample_every;
      const std::vector<std::string> got = ReplayResponses(opts, mix);
      ASSERT_EQ(got.size(), reference.size());
      for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], reference[i])
            << "threads=" << threads << " sample_every=" << sample_every
            << " request " << i;
      }
    }
  }
}

TEST_F(TelemetryEngineTest, SubmittedRequestsGetSequentialTraceIds) {
  EngineOptions opts;
  opts.threads = 2;
  opts.telemetry.recorder_capacity = 512;
  auto engine = QueryEngine::Create(*graph_, opts);
  ASSERT_TRUE(engine.ok());
  const std::vector<Request> mix = SmallMix();
  std::vector<std::future<QueryResponse>> futures;
  for (const Request& r : mix) futures.push_back((*engine)->Submit(r));
  for (auto& f : futures) f.get();

  const Telemetry& tel = (*engine)->telemetry();
  EXPECT_EQ(tel.totals().requests, mix.size());
  // Every record's trace id must be the splitmix of its seq, and the
  // seqs must cover 1..n exactly (claimed at submission, in order).
  std::set<uint64_t> seqs;
  for (const RequestRecord& r : tel.recent().Recent(mix.size())) {
    EXPECT_EQ(r.trace_id, TraceIdFor(r.seq));
    seqs.insert(r.seq);
  }
  EXPECT_EQ(seqs.size(), mix.size());
  EXPECT_EQ(*seqs.begin(), 1u);
  EXPECT_EQ(*seqs.rbegin(), mix.size());
}

TEST_F(TelemetryEngineTest, RuntimeToggleStopsRecordingNotResponses) {
  EngineOptions opts;
  opts.threads = 1;
  opts.cache_capacity = 0;  // identical compute paths on both replays
  auto engine = QueryEngine::Create(*graph_, opts);
  ASSERT_TRUE(engine.ok());
  const std::vector<Request> mix = SmallMix();

  std::vector<std::string> on_responses;
  for (const Request& r : mix) {
    on_responses.push_back((*engine)->Submit(r).get().json);
  }
  const uint64_t recorded = (*engine)->telemetry().totals().requests;
  EXPECT_EQ(recorded, mix.size());

  // Off: nothing new is recorded, and the bytes do not change — the
  // live switch bench_observability's A/B flips must be invisible on
  // the wire.
  (*engine)->SetTelemetryEnabled(false);
  for (size_t i = 0; i < mix.size(); ++i) {
    EXPECT_EQ((*engine)->Submit(mix[i]).get().json, on_responses[i]);
  }
  EXPECT_EQ((*engine)->telemetry().totals().requests, recorded);

  // Back on: recording resumes.
  (*engine)->SetTelemetryEnabled(true);
  (*engine)->Submit(mix[0]).get();
  EXPECT_EQ((*engine)->telemetry().totals().requests, recorded + 1);
}

TEST_F(TelemetryEngineTest, SampledRequestsCarrySpanTrees) {
  EngineOptions opts;
  opts.threads = 1;
  opts.cache_capacity = 0;          // every request computes
  opts.telemetry.sample_every = 1;  // sample everything
  auto engine = QueryEngine::Create(*graph_, opts);
  ASSERT_TRUE(engine.ok());
  Request r;
  r.type = RequestType::kEgoSummary;
  r.node = 3;
  (*engine)->Execute(r);

  const auto recent = (*engine)->telemetry().recent().Recent(1);
  ASSERT_EQ(recent.size(), 1u);
  EXPECT_TRUE(recent[0].sampled);
  ASSERT_FALSE(recent[0].spans.empty());
  // Root span is the per-type span; serve.compute nests under it.
  EXPECT_STREQ(recent[0].spans[0].name, "serve.ego");
  bool has_compute = false;
  for (const auto& s : recent[0].spans) {
    if (std::string_view(s.name) == "serve.compute") {
      has_compute = true;
      EXPECT_GT(s.depth, 0);
    }
  }
  EXPECT_TRUE(has_compute);
}

TEST_F(TelemetryEngineTest, AdminResponsesAreOneLineJson) {
  EngineOptions opts;
  opts.threads = 1;
  auto engine = QueryEngine::Create(*graph_, opts);
  ASSERT_TRUE(engine.ok());
  Request r;
  r.type = RequestType::kEgoSummary;
  r.node = 1;
  (*engine)->Execute(r);

  for (const char* line :
       {"#stats", "#healthz", "#recent 4", "#slow", "#trace 1"}) {
    auto cmd = ParseAdminLine(line);
    ASSERT_TRUE(cmd.ok()) << line;
    const std::string json = (*engine)->AdminResponse(*cmd);
    EXPECT_FALSE(json.empty()) << line;
    EXPECT_EQ(json.front(), '{') << line;
    EXPECT_EQ(json.back(), '}') << line;
    EXPECT_EQ(json.find('\n'), std::string::npos) << line;
  }

  // #trace on a resident id round-trips to the full record.
  const auto recent = (*engine)->telemetry().recent().Recent(1);
  ASSERT_FALSE(recent.empty());
  auto cmd = ParseAdminLine("#trace " + TraceIdHex(recent[0].trace_id));
  ASSERT_TRUE(cmd.ok());
  const std::string json = (*engine)->AdminResponse(*cmd);
  EXPECT_NE(json.find(TraceIdHex(recent[0].trace_id)), std::string::npos);
  EXPECT_NE(json.find("\"type\":\"trace\""), std::string::npos);
}

TEST_F(TelemetryEngineTest, SummaryTextCountsMalformedLines) {
  EngineOptions opts;
  opts.threads = 1;
  auto engine = QueryEngine::Create(*graph_, opts);
  ASSERT_TRUE(engine.ok());
  for (const char* line : {"ego 1", "dist 1 2", "topk 5", "no such verb",
                           "ego 1", "neighbors 3 out"}) {
    (*engine)->ExecuteLine(line);
  }
  const std::string summary = RenderSummaryText((*engine)->telemetry());
  EXPECT_NE(summary.find("  requests=5 errors=0 "), std::string::npos)
      << summary;
  EXPECT_NE(summary.find(" malformed_lines=1\n"), std::string::npos)
      << summary;
}

// --------------------------------------------------------------------------
// Exporter: every per-request number has one family, counted once.

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Balanced braces and brackets outside strings, and no open string.
bool JsonBalanced(const std::string& s) {
  int depth = 0;
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
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

TEST_F(TelemetryEngineTest, ExporterDeclaresEachFamilyOnce) {
  const std::string path = testing::TempDir() + "/telemetry_exporter.json";
  std::remove(path.c_str());
  std::remove((path + ".prom").c_str());
  EngineOptions opts;
  opts.threads = 2;
  opts.metrics_path = path;
  opts.metrics_interval_ms = 3600 * 1000;  // only the final write at stop
  std::string stats;
  {
    auto engine = QueryEngine::Create(*graph_, opts);
    ASSERT_TRUE(engine.ok());
    for (const char* line :
         {"ego 1", "dist 1 2", "topk 5", "ego 1", "no such verb"}) {
      (*engine)->ExecuteLine(line);
    }
    Request r;
    r.type = RequestType::kNeighbors;
    r.node = 3;
    (*engine)->Submit(r).get();
    stats = (*engine)->AdminResponse(AdminCommand{});
  }  // the engine stops its exporter, which writes once more

  EXPECT_NE(stats.find("\"malformed_lines\":1,"), std::string::npos)
      << stats;
  EXPECT_NE(stats.find("\"totals\":{\"requests\":5,"), std::string::npos)
      << stats;

  const std::string prom = ReadFile(path + ".prom");
  ASSERT_FALSE(prom.empty());
  std::map<std::string, int> declared;  // family -> # TYPE lines
  std::istringstream lines(prom);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream fields(line.substr(7));
      std::string name;
      fields >> name;
      ++declared[name];
    }
  }
  for (const auto& [name, times] : declared) {
    EXPECT_EQ(times, 1) << name << " declared " << times << " times";
  }
  lines = std::istringstream(prom);
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::string name = line.substr(0, line.find_first_of("{ "));
    // A summary's _count and _sum samples belong to the summary family.
    for (const std::string_view suffix : {"_count", "_sum"}) {
      if (declared.count(name) == 0 && name.ends_with(suffix)) {
        name.resize(name.size() - suffix.size());
      }
    }
    EXPECT_EQ(declared.count(name), 1u) << "undeclared sample: " << line;
  }
  EXPECT_NE(prom.find("\nelitenet_serve_malformed_lines_total 1\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("\nelitenet_serve_queue_wait_us_count 1\n"),
            std::string::npos)
      << prom;

  const std::string json = ReadFile(path);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(JsonBalanced(json)) << json;
  EXPECT_NE(json.find("\"malformed_lines\":1,"), std::string::npos) << json;
}

}  // namespace
}  // namespace serve
}  // namespace elitenet
