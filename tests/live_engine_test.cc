#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/io.h"
#include "serve/delta_overlay.h"
#include "serve/engine.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/warm_index_cache.h"

namespace elitenet {
namespace serve {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

std::string TmpPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// Mutual pair 0<->1, cycle 0->1->2->0, tail 2->3->4, isolated 5.
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

std::unique_ptr<QueryEngine> MakeLiveEngine(const graph::DiGraph& g,
                                            int threads = 1,
                                            LiveEngineOptions live = {}) {
  EngineOptions opts;
  opts.threads = threads;
  auto engine = QueryEngine::CreateLive(g, live, opts);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(*engine);
}

// Runs one ServeLines session (the admin channel lives there, off the
// query fast path) and returns the output lines.
std::vector<std::string> ServeSession(QueryEngine* engine,
                                      const std::string& input) {
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  EXPECT_NE(in, nullptr);
  EXPECT_NE(out, nullptr);
  std::fputs(input.c_str(), in);
  std::rewind(in);
  ServeLines(engine, in, out);
  std::rewind(out);
  std::vector<std::string> lines;
  std::string line;
  int c;
  while ((c = std::fgetc(out)) != EOF) {
    if (c == '\n') {
      lines.push_back(line);
      line.clear();
    } else {
      line.push_back(static_cast<char>(c));
    }
  }
  std::fclose(in);
  std::fclose(out);
  return lines;
}

Mutation Follow(graph::NodeId s, graph::NodeId d) {
  return {MutationOp::kFollow, s, d};
}
Mutation Unfollow(graph::NodeId s, graph::NodeId d) {
  return {MutationOp::kUnfollow, s, d};
}

TEST(LiveEngineTest, ResponsesCarryVersionAndAsOf) {
  const graph::DiGraph g = TestGraph();
  auto engine = MakeLiveEngine(g);
  EXPECT_TRUE(engine->is_live());

  const QueryResponse r0 = engine->ExecuteLine("ego 1");
  ASSERT_TRUE(r0.ok) << r0.json;
  EXPECT_TRUE(Contains(r0.json, "\"version\":0")) << r0.json;
  EXPECT_TRUE(Contains(r0.json, "\"as_of\":0")) << r0.json;

  ASSERT_TRUE(engine->Apply(Follow(5, 1)).ok());
  const QueryResponse r1 = engine->ExecuteLine("ego 1");
  ASSERT_TRUE(r1.ok) << r1.json;
  EXPECT_TRUE(Contains(r1.json, "\"version\":1")) << r1.json;
  EXPECT_TRUE(Contains(r1.json, "\"in_degree\":2")) << r1.json;
}

TEST(LiveEngineTest, StaticResponsesAreUnchanged) {
  const graph::DiGraph g = TestGraph();
  auto live = MakeLiveEngine(g);
  auto static_engine = QueryEngine::Create(g);
  ASSERT_TRUE(static_engine.ok());
  const QueryResponse rs = (*static_engine)->ExecuteLine("ego 1");
  EXPECT_FALSE(Contains(rs.json, "\"version\"")) << rs.json;
  EXPECT_FALSE(Contains(rs.json, "\"as_of\"")) << rs.json;
  // Live-at-version-0 is the static answer plus the version fields.
  const QueryResponse rl = live->ExecuteLine("ego 1");
  EXPECT_TRUE(Contains(rl.json, "\"out_degree\":2")) << rl.json;
  EXPECT_TRUE(Contains(rl.json, "\"mutual\":1")) << rl.json;
}

TEST(LiveEngineTest, VersionPinReplaysHistory) {
  const graph::DiGraph g = TestGraph();
  auto engine = MakeLiveEngine(g);
  const QueryResponse before = engine->ExecuteLine("neighbors 5 out");
  ASSERT_TRUE(before.ok);
  EXPECT_TRUE(Contains(before.json, "\"total\":0")) << before.json;

  ASSERT_TRUE(engine->Apply(Follow(5, 1)).ok());
  ASSERT_TRUE(engine->Apply(Follow(5, 2)).ok());

  const QueryResponse head = engine->ExecuteLine("neighbors 5 out");
  EXPECT_TRUE(Contains(head.json, "\"version\":2")) << head.json;
  EXPECT_TRUE(Contains(head.json, "\"total\":2")) << head.json;

  const QueryResponse pinned = engine->ExecuteLine("neighbors 5 out @1");
  ASSERT_TRUE(pinned.ok) << pinned.json;
  EXPECT_TRUE(Contains(pinned.json, "\"version\":1")) << pinned.json;
  EXPECT_TRUE(Contains(pinned.json, "\"total\":1")) << pinned.json;

  // A pin above the applied version is a client error, not a wait.
  const QueryResponse future = engine->ExecuteLine("ego 1 @99");
  EXPECT_FALSE(future.ok);
  EXPECT_TRUE(Contains(future.json, "\"type\":\"error\"")) << future.json;
}

// A pin far past the applied version is a client error with fixed bytes;
// one past 2^64-1 does not parse.
TEST(LiveEngineTest, DeepVersionPinRepliesArePinned) {
  auto engine = MakeLiveEngine(TestGraph());
  ASSERT_TRUE(engine->Apply(Follow(5, 1)).ok());
  EXPECT_EQ(engine->ExecuteLine("ego 1 @18446744073709551615").json,
            "{\"type\":\"error\",\"code\":\"FailedPrecondition\","
            "\"message\":\"version 18446744073709551615 not applied yet "
            "(head is 1)\",\"request\":\"ego 1 @18446744073709551615\"}");
  EXPECT_EQ(engine->ExecuteLine("ego 1 @18446744073709551616").json,
            "{\"type\":\"error\",\"code\":\"InvalidArgument\","
            "\"message\":\"bad version pin: @18446744073709551616\","
            "\"request\":\"ego 1 @18446744073709551616\"}");
}

TEST(LiveEngineTest, StaticEngineRejectsVersionPins) {
  auto engine = QueryEngine::Create(TestGraph());
  ASSERT_TRUE(engine.ok());
  const QueryResponse r = (*engine)->ExecuteLine("ego 1 @3");
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(Contains(r.json, "version pins require a live engine"))
      << r.json;
}

TEST(LiveEngineTest, CacheDoesNotServeStaleVersions) {
  const graph::DiGraph g = TestGraph();
  auto engine = MakeLiveEngine(g);
  // Prime the cache at version 1 (version 0 cannot be pinned — "@0"
  // means "unpinned" on the wire), mutate, and ask again: the live cache
  // key includes the resolved version, so the answer must move.
  ASSERT_TRUE(engine->Apply(Follow(0, 4)).ok());
  const QueryResponse r1 = engine->ExecuteLine("ego 0");
  EXPECT_TRUE(Contains(r1.json, "\"version\":1")) << r1.json;
  EXPECT_TRUE(Contains(r1.json, "\"out_degree\":2")) << r1.json;
  ASSERT_TRUE(engine->Apply(Unfollow(0, 4)).ok());
  const QueryResponse r2 = engine->ExecuteLine("ego 0");
  EXPECT_TRUE(Contains(r2.json, "\"version\":2")) << r2.json;
  EXPECT_TRUE(Contains(r2.json, "\"out_degree\":1")) << r2.json;
  // Pinned replay of the old version still hits the old bytes.
  const QueryResponse r1again = engine->ExecuteLine("ego 0 @1");
  EXPECT_EQ(r1again.json, r1.json);
}

TEST(LiveEngineTest, DistanceIsExactForTouchedEndpoints) {
  const graph::DiGraph g = TestGraph();
  auto engine = MakeLiveEngine(g);
  const QueryResponse before = engine->ExecuteLine("dist 0 3");
  ASSERT_TRUE(before.ok);
  EXPECT_TRUE(Contains(before.json, "\"distance\":3")) << before.json;

  ASSERT_TRUE(engine->Apply(Follow(0, 3)).ok());
  const QueryResponse after = engine->ExecuteLine("dist 0 3");
  ASSERT_TRUE(after.ok);
  EXPECT_TRUE(Contains(after.json, "\"distance\":1")) << after.json;

  ASSERT_TRUE(engine->Apply(Unfollow(0, 3)).ok());
  const QueryResponse back = engine->ExecuteLine("dist 0 3");
  EXPECT_TRUE(Contains(back.json, "\"distance\":3")) << back.json;
}

// Unfollow(1, 2) touches 1 and 2 but neither endpoint of `dist 0 3`,
// whose only path ran through that edge: the live answer must still be
// exact at the snapshot version, the bytes a static engine over the edge
// set without 1->2 gives, plus the version fields.
TEST(LiveEngineTest, DistanceIsExactWhenOnlyAnIntermediateNodeWasTouched) {
  auto engine = MakeLiveEngine(TestGraph());
  ASSERT_TRUE(engine->Apply(Unfollow(1, 2)).ok());
  const QueryResponse live = engine->ExecuteLine("dist 0 3");
  ASSERT_TRUE(live.ok) << live.json;
  EXPECT_TRUE(Contains(live.json, "\"reachable\":false,\"distance\":-1"))
      << live.json;

  graph::GraphBuilder b(6);
  ASSERT_TRUE(b.AddEdges({{0, 1}, {1, 0}, {2, 0}, {2, 3}, {3, 4}}).ok());
  auto without = b.Build();
  ASSERT_TRUE(without.ok());
  auto reference = QueryEngine::Create(std::move(*without));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  std::string expected = (*reference)->ExecuteLine("dist 0 3").json;
  const std::string dst = "\"dst\":3";
  expected.insert(expected.find(dst) + dst.size(),
                  ",\"version\":1,\"as_of\":0");
  EXPECT_EQ(live.json, expected);
}

TEST(LiveEngineTest, PinnedResponsesByteIdenticalAcrossWorkerCounts) {
  const graph::DiGraph g = TestGraph();
  const std::vector<Mutation> muts = {Follow(5, 1), Unfollow(2, 3),
                                      Follow(4, 0), Follow(3, 5),
                                      Unfollow(0, 1), Follow(0, 1)};
  const std::vector<std::string> lines = {
      "ego 0 @3",  "ego 5 @6",        "neighbors 1 in 8 @4",
      "dist 0 4 @2", "topk 3 @5",     "fingerprint @6",
      "neighbors 3 out @6"};

  std::vector<std::string> reference;
  for (int workers : {1, 2, 4, 8}) {
    auto engine = MakeLiveEngine(g, workers);
    for (const Mutation& m : muts) ASSERT_TRUE(engine->Apply(m).ok());
    std::vector<std::future<QueryResponse>> futures;
    for (const std::string& line : lines) {
      auto parsed = ParseRequest(line);
      ASSERT_TRUE(parsed.ok()) << line;
      futures.push_back(engine->Submit(*parsed));
    }
    std::vector<std::string> got;
    for (auto& f : futures) {
      const QueryResponse r = f.get();
      EXPECT_TRUE(r.ok) << r.json;
      got.push_back(r.json);
    }
    if (reference.empty()) {
      reference = got;
    } else {
      EXPECT_EQ(got, reference) << "workers=" << workers;
    }
  }
}

TEST(LiveEngineTest, AdminVersionAndOverlayVerbs) {
  const graph::DiGraph g = TestGraph();
  auto engine = MakeLiveEngine(g);
  ASSERT_TRUE(engine->Apply(Follow(5, 1)).ok());
  ASSERT_TRUE(engine->Apply(Follow(0, 1)).ok());  // no-op

  const std::vector<std::string> lines =
      ServeSession(engine.get(), "#version\n#overlay\nquit\n");
  ASSERT_EQ(lines.size(), 2u);
  const std::string& ver = lines[0];
  EXPECT_TRUE(Contains(ver, "\"type\":\"version\"")) << ver;
  EXPECT_TRUE(Contains(ver, "\"live\":true")) << ver;
  EXPECT_TRUE(Contains(ver, "\"version\":2")) << ver;
  EXPECT_TRUE(Contains(ver, "\"base_version\":0")) << ver;
  EXPECT_TRUE(Contains(ver, "\"edges\":7")) << ver;

  const std::string& ov = lines[1];
  EXPECT_TRUE(Contains(ov, "\"type\":\"overlay\"")) << ov;
  EXPECT_TRUE(Contains(ov, "\"applied\":2")) << ov;
  EXPECT_TRUE(Contains(ov, "\"follows\":1")) << ov;
  EXPECT_TRUE(Contains(ov, "\"noops\":1")) << ov;

  // Static engines answer them too, reporting live:false.
  auto static_engine = QueryEngine::Create(g);
  ASSERT_TRUE(static_engine.ok());
  const std::vector<std::string> st =
      ServeSession(static_engine->get(), "#version\nquit\n");
  ASSERT_EQ(st.size(), 1u);
  EXPECT_TRUE(Contains(st[0], "\"live\":false")) << st[0];
  EXPECT_TRUE(Contains(st[0], "\"edges\":6")) << st[0];
}

TEST(LiveEngineTest, ApplyOnStaticEngineFails) {
  auto engine = QueryEngine::Create(TestGraph());
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->Apply(Follow(5, 1)).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*engine)->CompactNow().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(LiveEngineTest, CompactNowFoldsOverlayAndKeepsServing) {
  const graph::DiGraph g = TestGraph();
  LiveEngineOptions live;
  live.compact_path = TmpPath("live_engine_compacted.eng2");
  const std::string widx_path = live.compact_path + ".widx";
  std::remove(widx_path.c_str());
  auto engine = MakeLiveEngine(g, 2, live);
  ASSERT_TRUE(engine->Apply(Follow(5, 1)).ok());
  ASSERT_TRUE(engine->Apply(Unfollow(2, 3)).ok());

  const QueryResponse before = engine->ExecuteLine("ego 5");
  auto stats = engine->CompactNow();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->folded_version, 2u);
  EXPECT_EQ(stats->num_edges, 6u);

  // The compacted base's sidecar is keyed by the checksum of the file
  // the compaction wrote, so a restart from that file warm-starts.
  auto mapped = graph::MapBinary(live.compact_path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  const EngineOptions defaults;
  WarmIndexKey key;
  key.graph_checksum = graph::GraphChecksum(*mapped);
  key.config_hash = WarmConfigHash(defaults.pagerank, defaults.fingerprint);
  EXPECT_EQ(key.graph_checksum, stats->graph_checksum);
  auto restored = LoadWarmIndexes(widx_path, key, mapped->num_nodes());
  EXPECT_TRUE(restored.ok()) << restored.status().ToString();

  // Same logical graph after the swap; as_of advances to the new base.
  const QueryResponse after = engine->ExecuteLine("ego 5");
  ASSERT_TRUE(after.ok) << after.json;
  EXPECT_TRUE(Contains(after.json, "\"out_degree\":1")) << after.json;
  EXPECT_TRUE(Contains(after.json, "\"as_of\":2")) << after.json;
  EXPECT_TRUE(Contains(after.json, "\"version\":2")) << after.json;
  EXPECT_EQ(engine->overlay_stats().compactions, 1u);

  // Pins below the new base are compacted away and must error cleanly.
  const QueryResponse old = engine->ExecuteLine("ego 5 @1");
  EXPECT_FALSE(old.ok);
  EXPECT_TRUE(Contains(old.json, "\"type\":\"error\"")) << old.json;

  // A compactNow with nothing new to fold still succeeds.
  auto again = engine->CompactNow();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->folded_version, 2u);
}

TEST(LiveEngineTest, WalRecoveryRestoresServingState) {
  const graph::DiGraph g = TestGraph();
  LiveEngineOptions live;
  live.log_path = TmpPath("live_engine_recovery.wal");
  std::remove(live.log_path.c_str());
  std::string head_json;
  {
    auto engine = MakeLiveEngine(g, 1, live);
    ASSERT_TRUE(engine->Apply(Follow(5, 1)).ok());
    ASSERT_TRUE(engine->Apply(Follow(5, 2)).ok());
    head_json = engine->ExecuteLine("ego 5").json;
  }
  auto engine = MakeLiveEngine(g, 1, live);
  EXPECT_EQ(engine->overlay_stats().recovered, 2u);
  EXPECT_EQ(engine->applied_version(), 2u);
  EXPECT_EQ(engine->ExecuteLine("ego 5").json, head_json);
}

}  // namespace
}  // namespace serve
}  // namespace elitenet
