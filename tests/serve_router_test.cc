// The sharded router's load-bearing contract: response bytes identical
// to the unsharded engine's at every shard count × worker count —
// including error, cached, degraded, and BFS-fallback paths — plus the
// QoS admission behaviour (batch sheds first, interactive holds) and the
// reference check that a materialized shard serves the same bytes. The
// hammer test at the bottom is the TSan target.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/digraph.h"
#include "serve/engine.h"
#include "serve/partition.h"
#include "serve/request.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/telemetry.h"
#include "util/deadline.h"
#include "util/rng.h"
#include "worker_gate.h"

namespace elitenet {
namespace serve {
namespace {

using graph::DiGraph;
using graph::NodeId;

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// The engine test's fixture graph: mutual pair, cycle, tail to a sink
// (so dist 4 0 is unreachable), isolated node 5.
DiGraph SmallGraph() {
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

// A seeded scale-free-ish graph big enough that a 4-way partition has
// real work on every shard.
DiGraph BigGraph(uint32_t n = 300, uint64_t seed = 2018) {
  graph::GraphBuilder b(n);
  util::Rng rng(seed);
  for (uint32_t u = 1; u < n; ++u) {
    EXPECT_TRUE(b.AddEdge(u, 0).ok());
    const uint32_t fanout = 1 + static_cast<uint32_t>(rng.UniformU64(5));
    for (uint32_t j = 0; j < fanout; ++j) {
      const NodeId v = static_cast<NodeId>(rng.UniformU64(n));
      if (v != u) {
        EXPECT_TRUE(b.AddEdge(u, v).ok());
      }
    }
  }
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

// Every request type (ego, neighbors, topk, dist, fingerprint),
// out-of-range errors, parse errors, and QoS-tagged lines (class never
// changes bytes).
std::vector<std::string> RequestMix(uint32_t n) {
  std::vector<std::string> mix = {
      "ego 0",
      "ego 1",
      "ego " + std::to_string(n - 1),
      "ego " + std::to_string(n + 7),  // out of range -> error bytes
      "neighbors 0 out 4",
      "neighbors 0 in 8",
      "neighbors 2 out 64",
      "neighbors 1 in 2",
      "topk 1",
      "topk 5",
      "topk 10000",  // clamped to n
      "dist 1 0",
      "dist 0 " + std::to_string(n - 1),
      "dist " + std::to_string(n - 1) + " " + std::to_string(n + 9),
      "fingerprint",
      "ego 3 !batch",
      "topk 3 !analytics",
      "frobnicate 1",  // unknown verb -> parse error bytes
      "dist 1",        // wrong arity -> parse error bytes
      "topk 0",        // zero k -> parse error bytes
  };
  return mix;
}

std::unique_ptr<QueryEngine> Baseline(const DiGraph& g,
                                      const EngineOptions& opts = {}) {
  auto engine = QueryEngine::Create(g, opts);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(*engine);
}

std::unique_ptr<ShardedRouter> MakeRouter(const DiGraph& g, int shards,
                                          int router_threads,
                                          EngineOptions engine = {}) {
  RouterOptions ropts;
  ropts.num_shards = shards;
  engine.threads = router_threads;
  ropts.engine = engine;
  auto router = ShardedRouter::Create(g, ropts);
  EXPECT_TRUE(router.ok()) << router.status().ToString();
  return std::move(*router);
}

TEST(ShardedRouterTest, BytesIdenticalAcrossShardAndWorkerCounts) {
  for (const DiGraph& g : {SmallGraph(), BigGraph()}) {
    auto baseline = Baseline(g);
    const std::vector<std::string> mix = RequestMix(g.num_nodes());
    std::vector<QueryResponse> expected;
    for (const std::string& line : mix) {
      expected.push_back(baseline->ExecuteLine(line));
    }

    for (int shards : {1, 2, 4}) {
      for (int threads : {1, 4}) {
        auto router = MakeRouter(g, shards, threads);
        // Cold pass (compute path) and warm pass (cache-hit path) must
        // both reproduce the engine's bytes exactly.
        for (int pass = 0; pass < 2; ++pass) {
          for (size_t i = 0; i < mix.size(); ++i) {
            const QueryResponse got = router->ExecuteLine(mix[i]);
            EXPECT_EQ(got.json, expected[i].json)
                << mix[i] << " (shards=" << shards << " threads=" << threads
                << " pass=" << pass << ")";
            EXPECT_EQ(got.ok, expected[i].ok) << mix[i];
          }
        }
        EXPECT_GT(router->cache_hits(), 0u);  // pass 2 actually hit
      }
    }
  }
}

TEST(ShardedRouterTest, SubmitMatchesExecuteBytes) {
  const DiGraph g = BigGraph();
  auto baseline = Baseline(g);
  auto router = MakeRouter(g, 4, 2);
  for (const std::string& line : RequestMix(g.num_nodes())) {
    auto parsed = ParseRequest(line);
    if (!parsed.ok()) continue;  // Submit takes parsed requests only
    const QueryResponse want = baseline->Execute(*parsed);
    std::future<QueryResponse> fut = router->Submit(*parsed);
    const QueryResponse got = fut.get();
    EXPECT_EQ(got.json, want.json) << line;
  }
}

TEST(ShardedRouterTest, VersionPinErrorBytesMatchEngine) {
  const DiGraph g = SmallGraph();
  auto baseline = Baseline(g);
  auto router = MakeRouter(g, 2, 1);
  const QueryResponse want = baseline->ExecuteLine("ego 1 @3");
  const QueryResponse got = router->ExecuteLine("ego 1 @3");
  ASSERT_FALSE(want.ok);  // static engines reject version pins
  EXPECT_EQ(got.json, want.json);
  EXPECT_FALSE(got.ok);
}

// Every ordered pair of a fixed 24-node sample, one endpoint out of
// range, at every shard × router-thread count: the router's answers
// (completed, unreachable, src == dst and NotFound alike) are the
// engine's bytes.
TEST(ShardedRouterTest, DistanceBytesMatchEngine) {
  const DiGraph g = BigGraph();
  const uint32_t n = g.num_nodes();
  EngineOptions uncached;
  uncached.cache_capacity = 0;  // every line computes
  auto baseline = Baseline(g, uncached);

  // Node 0 is everyone's out-neighbour and has out-degree 0 in BigGraph,
  // so every "dist 0 v" with v != 0 is unreachable.
  std::vector<uint32_t> sample = {0, 1, 2, 5, n - 1, n + 3};
  util::Rng rng(25);
  while (sample.size() < 24) {
    const uint32_t v = static_cast<uint32_t>(rng.UniformU64(n));
    if (std::ranges::find(sample, v) == sample.end()) sample.push_back(v);
  }
  std::vector<std::string> lines;
  std::vector<QueryResponse> want;
  size_t unreachable = 0, same = 0, missing = 0;
  for (uint32_t s : sample) {
    for (uint32_t t : sample) {
      lines.push_back("dist " + std::to_string(s) + " " + std::to_string(t));
      want.push_back(baseline->ExecuteLine(lines.back()));
      ASSERT_TRUE(Contains(want.back().json, "\"degraded\":false") ||
                  !want.back().ok)
          << want.back().json;
      unreachable += Contains(want.back().json, "\"reachable\":false");
      same += s == t;
      missing += !want.back().ok;
    }
  }
  EXPECT_GT(unreachable, 0u);
  EXPECT_EQ(same, sample.size());
  EXPECT_EQ(missing, 2 * sample.size() - 1);  // pairs naming node n + 3

  for (int shards : {1, 2, 4}) {
    for (int threads : {1, 4}) {
      auto router = MakeRouter(g, shards, threads, uncached);
      for (size_t i = 0; i < lines.size(); ++i) {
        const QueryResponse got = router->ExecuteLine(lines[i]);
        EXPECT_EQ(got.json, want[i].json)
            << lines[i] << " shards=" << shards << " threads=" << threads;
        EXPECT_EQ(got.ok, want[i].ok) << lines[i];
      }
    }
  }
}

TEST(ShardedRouterTest, DegradedDistanceBytesMatchEngine) {
  const DiGraph g = BigGraph();
  auto baseline = Baseline(g, EngineOptions{});

  auto r = ParseRequest("dist 1 299");
  ASSERT_TRUE(r.ok());
  // An already-expired deadline degrades both sides at the first level
  // poll — deterministically, so the bytes (including the expansion
  // count and lower bound) must agree.
  const util::Deadline expired = util::Deadline::After(0);
  const QueryResponse want = baseline->Execute(*r, expired);
  ASSERT_TRUE(Contains(want.json, "\"degraded\":true")) << want.json;
  for (int shards : {1, 2, 4}) {
    auto router = MakeRouter(g, shards, 1, EngineOptions{});
    const QueryResponse got = router->Execute(*r, expired);
    EXPECT_EQ(got.json, want.json) << "shards=" << shards;
  }
}

// Runs `script` through one ServeLines session over `front`; returns the
// output lines with #stats answers dropped (their graph/shard sections
// legitimately differ between backends).
std::vector<std::string> ServeScript(FrontDoor* front,
                                     const std::string& script,
                                     ServeStats* stats) {
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  EXPECT_NE(in, nullptr);
  EXPECT_NE(out, nullptr);
  std::fputs(script.c_str(), in);
  std::rewind(in);
  *stats = ServeLines(front, in, out);
  std::rewind(out);
  std::vector<std::string> lines;
  std::string line;
  for (int c; (c = std::fgetc(out)) != EOF;) {
    if (c != '\n') {
      line.push_back(static_cast<char>(c));
      continue;
    }
    if (!Contains(line, "\"type\":\"stats\"")) lines.push_back(line);
    line.clear();
  }
  std::fclose(in);
  std::fclose(out);
  return lines;
}

TEST(ShardedRouterTest, ServeLinesMatchesEngineLineForLine) {
  const DiGraph g = BigGraph();
  const std::string script =
      "ego 0\n"
      "topk 5\n"
      "dist 1 0\n"
      "neighbors 2 out 16\n"
      "fingerprint\n"
      "frobnicate 1\n"  // parse error
      "ego 1 @3\n"      // version pin on a static backend
      "#recent five\n"  // bad admin argument
      "# a plain comment\n"
      "#stats\n"
      "ego 7 !batch\n"
      "quit\n"
      "ego 9\n";  // after quit: never answered
  auto engine = Baseline(g);
  auto router = MakeRouter(g, 2, 2);
  ServeStats engine_stats, router_stats;
  const std::vector<std::string> want =
      ServeScript(engine.get(), script, &engine_stats);
  const std::vector<std::string> got =
      ServeScript(router.get(), script, &router_stats);
  ASSERT_EQ(want.size(), 9u);
  EXPECT_EQ(got, want);
  EXPECT_TRUE(Contains(want[6], "version pins require a live engine"))
      << want[6];
  EXPECT_EQ(engine_stats.requests, 8u);
  EXPECT_EQ(engine_stats.errors, 3u);
  EXPECT_EQ(engine_stats.admin, 2u);
  EXPECT_EQ(router_stats.requests, engine_stats.requests);
  EXPECT_EQ(router_stats.errors, engine_stats.errors);
  EXPECT_EQ(router_stats.degraded, engine_stats.degraded);
  EXPECT_EQ(router_stats.admin, engine_stats.admin);
}

TEST(ShardedRouterTest, BatchShedsUnderOverloadWhileInteractiveHolds) {
  // The single router worker is parked on a gate while the test fills
  // the queue, so admission sees the backlog it was built to see whatever
  // the search speed; the chain's `dist 0 <end>` then walks every level
  // once the gate opens.
  constexpr uint32_t kChain = 10000;
  graph::GraphBuilder b(kChain);
  for (uint32_t u = 0; u + 1 < kChain; ++u) {
    ASSERT_TRUE(b.AddEdge(u, u + 1).ok());
  }
  auto chain = b.Build();
  ASSERT_TRUE(chain.ok());

  EngineOptions engine;
  engine.cache_capacity = 0;  // no cache shortcuts around the executor
  engine.qos.batch_cap = 1;
  auto router = MakeRouter(*chain, 2, 1, engine);
  WorkerGate gate;
  router->SubmitExempt([&gate] { gate.Arrive(); });
  gate.AwaitArrival();

  auto slow = ParseRequest("dist 0 " + std::to_string(kChain - 1));
  ASSERT_TRUE(slow.ok());
  std::future<QueryResponse> slow_fut = router->Submit(*slow);

  // The worker is parked, so the slow request and the first batch
  // request both wait in the queue; batch admission is a pure function of
  // the batch backlog, so the second batch submit sheds.
  auto batch1 = ParseRequest("ego 1 !batch");
  auto batch2 = ParseRequest("ego 2 !batch");
  auto inter = ParseRequest("ego 3");
  ASSERT_TRUE(batch1.ok());
  ASSERT_TRUE(batch2.ok());
  ASSERT_TRUE(inter.ok());
  std::future<QueryResponse> ok_fut = router->Submit(*batch1);
  std::future<QueryResponse> shed_fut = router->Submit(*batch2);
  std::future<QueryResponse> inter_fut = router->Submit(*inter);

  const QueryResponse shed = shed_fut.get();  // resolves immediately
  EXPECT_FALSE(shed.ok);
  EXPECT_TRUE(Contains(shed.json, "\"code\":\"overloaded\"")) << shed.json;
  EXPECT_TRUE(Contains(shed.json, "batch")) << shed.json;
  gate.Release();

  const QueryResponse admitted = ok_fut.get();
  EXPECT_TRUE(admitted.ok) << admitted.json;
  const QueryResponse interactive = inter_fut.get();
  EXPECT_TRUE(interactive.ok) << interactive.json;
  const QueryResponse slow_resp = slow_fut.get();
  EXPECT_TRUE(slow_resp.ok) << slow_resp.json;
  EXPECT_TRUE(Contains(slow_resp.json,
                       "\"distance\":" + std::to_string(kChain - 1)))
      << slow_resp.json;

  // #healthz latches the saturation and names the shedding class.
  auto healthz = ParseAdminLine("#healthz");
  ASSERT_TRUE(healthz.ok());
  const std::string health = router->AdminResponse(*healthz);
  EXPECT_TRUE(Contains(health, "\"qos_degraded\":true")) << health;
  EXPECT_TRUE(Contains(health, "\"shedding\":[\"batch\"]")) << health;
}

// The router's shards share the base graph, so nothing in the serving
// path would notice a handler reading a row its shard could not hold.
// This is the check that the design stays distributable: a compute unit
// over shard s's reference materialization (rules R1–R4, hub rows on
// every shard) answers every node homed on s with the router's bytes.
// The stored heavy-node reach is cleared, so every ego walks the
// materialized rows.
TEST(ShardedRouterTest, MaterializedShardsServeTheRouterBytes) {
  const DiGraph g = BigGraph();
  const std::string all = std::to_string(g.num_nodes());
  for (int shards : {2, 4}) {
    auto router = MakeRouter(g, shards, 1);
    const Partition& p = router->partition();
    ASSERT_FALSE(p.hubs.empty());
    WarmIndexes warm = router->warm_indexes();
    ASSERT_FALSE(warm.heavy_ids.empty());
    warm.heavy_ids.clear();
    warm.heavy_reach.clear();
    for (int s = 0; s < shards; ++s) {
      auto sg = BuildShardGraph(g, p, s);
      ASSERT_TRUE(sg.ok()) << sg.status().ToString();
      ASSERT_EQ(sg->num_nodes(), g.num_nodes());
      for (NodeId h : p.hubs) {
        EXPECT_TRUE(std::ranges::equal(sg->OutNeighbors(h), g.OutNeighbors(h)))
            << "hub " << h << " out-row, shard " << s << "/" << shards;
        EXPECT_TRUE(std::ranges::equal(sg->InNeighbors(h), g.InNeighbors(h)))
            << "hub " << h << " in-row, shard " << s << "/" << shards;
      }
      ComputeUnit unit(std::move(*sg));
      uint64_t homed = 0;
      for (NodeId u = 0; u < g.num_nodes(); ++u) {
        if (p.home[u] != s) continue;
        ++homed;
        const std::string node = std::to_string(u);
        for (const std::string& line :
             {"ego " + node, "neighbors " + node + " out " + all,
              "neighbors " + node + " in " + all}) {
          auto r = ParseRequest(line);
          ASSERT_TRUE(r.ok()) << line;
          const QueryResponse got =
              unit.Compute(*r, util::Deadline::Infinite(), warm, nullptr);
          EXPECT_EQ(got.json, router->ExecuteLine(line).json)
              << line << " (shard " << s << "/" << shards << ")";
        }
      }
      EXPECT_EQ(homed, p.home_nodes[s]);
    }
  }
}

TEST(ShardedRouterTest, StatsCarryShardsAndClassSections) {
  const DiGraph g = BigGraph();
  auto router = MakeRouter(g, 3, 2);
  (void)router->ExecuteLine("ego 1");
  (void)router->ExecuteLine("topk 4 !analytics");

  auto stats = ParseAdminLine("#stats");
  ASSERT_TRUE(stats.ok());
  const std::string json = router->AdminResponse(*stats);
  EXPECT_TRUE(Contains(json, "\"shards\":[")) << json;
  EXPECT_TRUE(Contains(json, "\"hub_replicas\":")) << json;
  for (const char* cls : {"interactive", "analytics", "batch"}) {
    EXPECT_TRUE(Contains(json, std::string("\"") + cls + "\"")) << json;
  }
  // One entry per shard, each naming only its home-node count.
  const Partition& p = router->partition();
  std::string rows = "\"shards\":[";
  for (int s = 0; s < 3; ++s) {
    if (s > 0) rows += ',';
    rows += "{\"id\":" + std::to_string(s) +
            ",\"nodes\":" + std::to_string(p.home_nodes[s]) + "}";
  }
  rows += "],\"hub_replicas\":" + std::to_string(p.hubs.size());
  EXPECT_TRUE(Contains(json, rows)) << json << "\nwant " << rows;

  const EngineStatsContext ctx = router->StatsContext();
  ASSERT_EQ(ctx.shards.size(), 3u);
  uint64_t homes = 0;
  for (const auto& s : ctx.shards) homes += s.nodes;
  EXPECT_EQ(homes, g.num_nodes());
  EXPECT_EQ(ctx.hub_replicas, router->partition().hubs.size());
}

// TSan target: concurrent mixed-class Submit, synchronous ExecuteLine,
// and admin introspection against one router.
TEST(ShardedRouterTest, HammerConcurrentSubmitAndAdmin) {
  const DiGraph g = BigGraph(200, 7);
  EngineOptions engine;
  engine.qos.batch_cap = 8;  // small enough that real sheds happen
  auto router = MakeRouter(g, 2, 4, engine);

  constexpr int kClients = 4;
  constexpr int kPerClient = 120;
  std::atomic<uint64_t> answered{0};
  std::atomic<bool> stop{false};

  std::thread admin([&] {
    auto stats = ParseAdminLine("#stats");
    auto health = ParseAdminLine("#healthz");
    ASSERT_TRUE(stats.ok());
    ASSERT_TRUE(health.ok());
    while (!stop.load()) {
      EXPECT_TRUE(Contains(router->AdminResponse(*stats), "\"shards\""));
      EXPECT_TRUE(Contains(router->AdminResponse(*health), "\"ok\""));
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      util::Rng rng(1000 + static_cast<uint64_t>(c));
      const char* kClass[3] = {"", " !batch", " !analytics"};
      for (int i = 0; i < kPerClient; ++i) {
        const uint32_t node =
            static_cast<uint32_t>(rng.UniformU64(g.num_nodes()));
        std::string line;
        switch (rng.UniformU64(4)) {
          case 0:
            line = "ego " + std::to_string(node);
            break;
          case 1:
            line = "neighbors " + std::to_string(node) + " out 8";
            break;
          case 2:
            line = "topk " + std::to_string(1 + rng.UniformU64(16));
            break;
          default:
            line = "dist " + std::to_string(node) + " " +
                   std::to_string(rng.UniformU64(g.num_nodes()));
            break;
        }
        line += kClass[rng.UniformU64(3)];
        if (rng.UniformU64(2) == 0) {
          auto parsed = ParseRequest(line);
          ASSERT_TRUE(parsed.ok()) << line;
          const QueryResponse resp = router->Submit(*parsed).get();
          // Sheds are legal under pressure; anything else must be ok.
          if (!resp.ok) {
            EXPECT_TRUE(Contains(resp.json, "overloaded")) << resp.json;
          }
        } else {
          const QueryResponse resp = router->ExecuteLine(line);
          EXPECT_TRUE(resp.ok) << line << " -> " << resp.json;
        }
        answered.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  stop.store(true);
  admin.join();
  EXPECT_EQ(answered.load(), uint64_t{kClients} * kPerClient);

  // The router stayed coherent: totals add up and a final query answers.
  EXPECT_TRUE(router->ExecuteLine("ego 0").ok);
}

}  // namespace
}  // namespace serve
}  // namespace elitenet
