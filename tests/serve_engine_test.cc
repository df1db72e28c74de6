#include "serve/engine.h"

#include <algorithm>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/bidirectional.h"
#include "analysis/centrality.h"
#include "core/dataset.h"
#include "gen/churn.h"
#include "gen/verified_network.h"
#include "graph/builder.h"
#include "graph/io.h"
#include "serve/mutation_log.h"
#include "serve/request.h"
#include "serve/router.h"
#include "serve/warm_index_cache.h"

namespace elitenet {
namespace serve {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// A small fixed graph with every structural feature the ego summary
// reports: a mutual pair (0<->1), a cycle (0->1->2->0), a tail reaching a
// sink (2->3->4), and an isolated node (5).
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

std::unique_ptr<QueryEngine> MakeEngine(const graph::DiGraph& g,
                                        int threads = 1) {
  EngineOptions opts;
  opts.threads = threads;
  auto engine = QueryEngine::Create(g, opts);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(*engine);
}

TEST(QueryEngineTest, RejectsEmptyGraph) {
  graph::GraphBuilder b(0);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(QueryEngine::Create(std::move(*g)).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryEngineTest, EgoSummaryMatchesGraph) {
  const graph::DiGraph g = TestGraph();
  auto engine = MakeEngine(g);
  const QueryResponse r = engine->ExecuteLine("ego 1");
  ASSERT_TRUE(r.ok) << r.json;
  EXPECT_TRUE(Contains(r.json, "\"type\":\"ego\"")) << r.json;
  EXPECT_TRUE(Contains(r.json, "\"node\":1")) << r.json;
  EXPECT_TRUE(Contains(r.json, "\"out_degree\":2")) << r.json;
  EXPECT_TRUE(Contains(r.json, "\"in_degree\":1")) << r.json;
  EXPECT_TRUE(Contains(r.json, "\"mutual\":1")) << r.json;  // 1<->0 only
  EXPECT_TRUE(Contains(r.json, "\"degraded\":false")) << r.json;

  // The reported PageRank is the warm index's value, byte-for-byte the
  // same double the analysis kernel computes.
  auto pr = analysis::PageRank(g);
  ASSERT_TRUE(pr.ok());
  EXPECT_TRUE(Contains(r.json, JsonDouble(pr->scores[1]))) << r.json;

  const QueryResponse isolated = engine->ExecuteLine("ego 5");
  ASSERT_TRUE(isolated.ok);
  EXPECT_TRUE(Contains(isolated.json, "\"is_isolated\":true"))
      << isolated.json;
}

TEST(QueryEngineTest, TopKMatchesAnalysisRanking) {
  const graph::DiGraph g = TestGraph();
  auto engine = MakeEngine(g);
  auto pr = analysis::PageRank(g);
  ASSERT_TRUE(pr.ok());
  const auto top = analysis::TopKByScore(pr->scores, 3);

  const QueryResponse r = engine->ExecuteLine("topk 3");
  ASSERT_TRUE(r.ok) << r.json;
  EXPECT_TRUE(Contains(r.json, "\"returned\":3")) << r.json;
  // Rows appear in the analysis kernel's order.
  size_t pos = 0;
  for (size_t i = 0; i < top.size(); ++i) {
    const std::string needle = "\"rank\":" + std::to_string(i + 1) +
                               ",\"node\":" + std::to_string(top[i]);
    const size_t found = r.json.find(needle, pos);
    EXPECT_NE(found, std::string::npos) << needle << " in " << r.json;
    pos = found;
  }

  // k beyond n clips instead of failing.
  const QueryResponse big = engine->ExecuteLine("topk 100");
  ASSERT_TRUE(big.ok);
  EXPECT_TRUE(Contains(big.json, "\"returned\":6")) << big.json;
}

TEST(QueryEngineTest, DistanceMatchesBidirectionalKernel) {
  const graph::DiGraph g = TestGraph();
  auto engine = MakeEngine(g);
  const auto expect = analysis::BidirectionalDistance(g, 0, 4);
  ASSERT_EQ(expect.distance, 4u);  // 0 -> 1 -> 2 -> 3 -> 4

  const QueryResponse r = engine->ExecuteLine("dist 0 4");
  ASSERT_TRUE(r.ok) << r.json;
  EXPECT_FALSE(r.degraded);
  EXPECT_TRUE(Contains(r.json, "\"reachable\":true")) << r.json;
  EXPECT_TRUE(Contains(
      r.json, "\"distance\":" + std::to_string(expect.distance)))
      << r.json;
}

// The dist reply a completed search over g must give for (u, v), from the
// reference kernel analysis::BidirectionalDistance.
std::string ReferenceDistJson(const graph::DiGraph& g, graph::NodeId u,
                              graph::NodeId v) {
  const uint32_t d = analysis::BidirectionalDistance(g, u, v).distance;
  const bool reachable = d != UINT32_MAX;
  return "{\"type\":\"dist\",\"src\":" + std::to_string(u) +
         ",\"dst\":" + std::to_string(v) +
         ",\"reachable\":" + (reachable ? "true" : "false") +
         ",\"distance\":" + (reachable ? std::to_string(d) : "-1") +
         ",\"degraded\":false}";
}

TEST(QueryEngineTest, DistanceBytesMatchTheReferenceKernelOnEveryPair) {
  const graph::DiGraph g = TestGraph();
  auto engine = MakeEngine(g);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      const std::string line =
          "dist " + std::to_string(u) + " " + std::to_string(v);
      const QueryResponse a = engine->ExecuteLine(line);
      ASSERT_TRUE(a.ok) << line << ": " << a.json;
      EXPECT_EQ(a.json, ReferenceDistJson(g, u, v)) << line;
    }
  }
}

// A 300-node directed path: distances far past what a one-byte label
// could hold, each the reference kernel's answer.
TEST(QueryEngineTest, LongPathDistancesMatchTheReferenceKernel) {
  constexpr graph::NodeId kLen = 300;
  graph::GraphBuilder b(kLen);
  for (graph::NodeId u = 0; u + 1 < kLen; ++u) {
    ASSERT_TRUE(b.AddEdge(u, u + 1).ok());
  }
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  auto engine = MakeEngine(*g);

  for (graph::NodeId u = 0; u < kLen; u += 23) {
    for (graph::NodeId v = 0; v < kLen; ++v) {
      const std::string line =
          "dist " + std::to_string(u) + " " + std::to_string(v);
      const QueryResponse a = engine->ExecuteLine(line);
      ASSERT_TRUE(a.ok) << line << ": " << a.json;
      EXPECT_EQ(a.json, ReferenceDistJson(*g, u, v)) << line;
    }
  }
  EXPECT_TRUE(Contains(engine->ExecuteLine("dist 0 299").json,
                       "\"distance\":299"));
}

TEST(QueryEngineTest, UnreachableDistanceIsCompleteNotDegraded) {
  const graph::DiGraph g = TestGraph();
  auto engine = MakeEngine(g);
  // Node 4 is a sink, node 5 isolated: both directions provably empty.
  for (const char* line : {"dist 4 0", "dist 0 5", "dist 5 0"}) {
    const QueryResponse r = engine->ExecuteLine(line);
    ASSERT_TRUE(r.ok) << line << ": " << r.json;
    EXPECT_FALSE(r.degraded) << line;
    EXPECT_TRUE(Contains(r.json, "\"reachable\":false")) << r.json;
    EXPECT_TRUE(Contains(r.json, "\"distance\":-1")) << r.json;
  }
}

TEST(QueryEngineTest, TinyDeadlineDegradesGracefully) {
  // A long chain: thousands of BFS levels, each polling the deadline, so
  // a ~0 budget provably cannot complete yet still yields a well-formed
  // response carrying the proven lower bound.
  constexpr graph::NodeId kChain = 20000;
  graph::GraphBuilder b(kChain);
  for (graph::NodeId u = 0; u + 1 < kChain; ++u) {
    ASSERT_TRUE(b.AddEdge(u, u + 1).ok());
  }
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  auto engine = MakeEngine(*g);

  const QueryResponse r = engine->ExecuteLine("dist 0 19999 1");
  ASSERT_TRUE(r.ok) << r.json;
  EXPECT_TRUE(r.degraded) << r.json;
  EXPECT_TRUE(Contains(r.json, "\"degraded\":true")) << r.json;
  EXPECT_TRUE(Contains(r.json, "\"reachable\":null")) << r.json;
  EXPECT_TRUE(Contains(r.json, "\"distance\":-1")) << r.json;
  EXPECT_TRUE(Contains(r.json, "\"lower_bound\":")) << r.json;

  // Degraded responses are never cached: asking again with no deadline
  // must recompute and return the true distance.
  const QueryResponse full = engine->ExecuteLine("dist 0 19999");
  ASSERT_TRUE(full.ok) << full.json;
  EXPECT_FALSE(full.degraded);
  EXPECT_TRUE(Contains(full.json, "\"distance\":19999")) << full.json;
}

TEST(QueryEngineTest, ResponsesAreByteIdenticalAcrossWorkerCounts) {
  const graph::DiGraph g = TestGraph();
  std::vector<std::string> lines;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    lines.push_back("ego " + std::to_string(u));
    lines.push_back("neighbors " + std::to_string(u) + " out");
    lines.push_back("neighbors " + std::to_string(u) + " in 2");
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      lines.push_back("dist " + std::to_string(u) + " " + std::to_string(v));
    }
  }
  lines.push_back("topk 4");

  std::vector<std::string> reference;
  for (int threads : {1, 2, 4}) {
    auto engine = MakeEngine(g, threads);
    // Submit everything, then reap in order — completion order is up to
    // the scheduler, response bytes must not be.
    std::vector<std::future<QueryResponse>> futures;
    for (const std::string& line : lines) {
      auto req = ParseRequest(line);
      ASSERT_TRUE(req.ok()) << line;
      futures.push_back(engine->Submit(*req));
    }
    std::vector<std::string> got;
    for (auto& f : futures) got.push_back(f.get().json);
    if (reference.empty()) {
      reference = got;
    } else {
      ASSERT_EQ(got.size(), reference.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i], reference[i])
            << "thread count " << threads << " diverged on " << lines[i];
      }
    }
  }
}

TEST(QueryEngineTest, MappedSnapshotWithSidecarServesIdenticalBytes) {
  // The full persistence path — text edge list -> ENG2 zero-copy mmap ->
  // .widx warm-index restore — must serve byte-identical responses to an
  // engine rebuilt from the text file, at any worker count. This is the
  // contract that makes the cold-start fast path safe to ship.
  const graph::DiGraph g = TestGraph();
  const std::string txt = testing::TempDir() + "/sidecar_identity.txt";
  const std::string eng2 = testing::TempDir() + "/sidecar_identity.eng2";
  const std::string widx = WarmIndexPathFor(eng2);
  ASSERT_TRUE(graph::WriteEdgeListText(g, txt).ok());
  std::remove(widx.c_str());

  // Canonical graph comes back through the public text loader; the ENG2
  // snapshot is written from it so every path serves the same bytes.
  auto from_text = core::LoadAnyGraph(txt);
  ASSERT_TRUE(from_text.ok()) << from_text.status().ToString();
  ASSERT_TRUE(graph::SaveBinaryV2(*from_text, eng2).ok());

  std::vector<std::string> lines;
  for (graph::NodeId u = 0; u < from_text->num_nodes(); ++u) {
    lines.push_back("ego " + std::to_string(u));
    lines.push_back("neighbors " + std::to_string(u) + " out");
    for (graph::NodeId v = 0; v < from_text->num_nodes(); ++v) {
      lines.push_back("dist " + std::to_string(u) + " " + std::to_string(v));
    }
  }
  lines.push_back("topk 5");
  lines.push_back("fingerprint");

  // Reference: rebuilt-from-text engine, no sidecar.
  std::vector<std::string> reference;
  {
    auto engine = MakeEngine(*from_text);
    for (const std::string& line : lines) {
      reference.push_back(engine->ExecuteLine(line).json);
    }
  }

  // First mapped start writes the sidecar, second restores it; both must
  // match the reference byte for byte, at 1 and 4 workers.
  for (int round = 0; round < 2; ++round) {
    for (int threads : {1, 4}) {
      auto mapped = core::LoadAnyGraph(eng2);
      ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
      ASSERT_TRUE(mapped->borrows_storage());
      EngineOptions opts;
      opts.threads = threads;
      opts.warm_index_path = widx;
      auto engine = QueryEngine::Create(std::move(*mapped), opts);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      if (round == 0 && threads == 1) {
        EXPECT_FALSE((*engine)->warm_index_from_cache());
      } else {
        EXPECT_TRUE((*engine)->warm_index_from_cache());
      }
      for (size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ((*engine)->ExecuteLine(lines[i]).json, reference[i])
            << "round " << round << " threads " << threads << " line "
            << lines[i];
      }
    }
  }
}

TEST(QueryEngineTest, CacheHitsAreCountedAndByteIdentical) {
  auto engine = MakeEngine(TestGraph());
  const QueryResponse miss = engine->ExecuteLine("topk 3");
  ASSERT_TRUE(miss.ok);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_EQ(engine->cache_hits(), 0u);
  EXPECT_EQ(engine->cache_misses(), 1u);

  const QueryResponse hit = engine->ExecuteLine("topk 3");
  ASSERT_TRUE(hit.ok);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.json, miss.json);
  EXPECT_EQ(engine->cache_hits(), 1u);
  EXPECT_EQ(engine->cache_misses(), 1u);

  // Same query with a (generous) deadline shares the cache entry: the
  // deadline is not part of the key.
  Request with_deadline;
  with_deadline.type = RequestType::kTopKRank;
  with_deadline.k = 3;
  with_deadline.deadline_us = 60ULL * 1000 * 1000;
  const QueryResponse hit2 = engine->Execute(with_deadline);
  ASSERT_TRUE(hit2.ok);
  EXPECT_TRUE(hit2.cache_hit);
  EXPECT_EQ(hit2.json, miss.json);
}

TEST(QueryEngineTest, OutOfRangeNodesAreCleanErrors) {
  auto engine = MakeEngine(TestGraph());
  for (const char* line :
       {"ego 999", "neighbors 999 out", "dist 0 999", "dist 999 0"}) {
    const QueryResponse r = engine->ExecuteLine(line);
    EXPECT_FALSE(r.ok) << line;
    EXPECT_TRUE(Contains(r.json, "\"type\":\"error\"")) << r.json;
    EXPECT_TRUE(Contains(r.json, "NotFound")) << r.json;
  }
  // Parse failures are also well-formed error responses.
  const QueryResponse bad = engine->ExecuteLine("launch missiles");
  EXPECT_FALSE(bad.ok);
  EXPECT_TRUE(Contains(bad.json, "\"type\":\"error\"")) << bad.json;
}

// The wire's integer bounds, pinned by exact reply bytes: a k far past n
// answers as k = n, node ids n and 2^32-1 are NotFound, 2^32 does not
// parse, and a QoS class token never changes a reply.
TEST(QueryEngineTest, ResourceBoundRepliesArePinned) {
  auto engine = MakeEngine(TestGraph());
  auto error = [](const std::string& code, const std::string& message,
                  const std::string& request) {
    return "{\"type\":\"error\",\"code\":\"" + code + "\",\"message\":\"" +
           message + "\",\"request\":\"" + request + "\"}";
  };
  const std::string not_found = "NotFound";
  const std::string bad = "InvalidArgument";
  const std::string no_endpoint = "distance endpoint not in graph";
  std::string topk_all = engine->ExecuteLine("topk 6").json;
  ASSERT_TRUE(Contains(topk_all, "\"k\":6,\"returned\":6,")) << topk_all;
  topk_all.replace(topk_all.find("\"k\":6"), 5, "\"k\":4294967295");
  const std::string topk2 = engine->ExecuteLine("topk 2").json;
  ASSERT_TRUE(Contains(topk2, "\"returned\":2,")) << topk2;

  const std::vector<std::pair<std::string, std::string>> cases = {
      {"topk 4294967295", topk_all},
      {"topk 4294967296",
       error(bad, "bad k: 4294967296", "topk 4294967296")},
      {"ego 6", error(not_found, "node 6 not in graph", "ego 6")},
      {"ego 4294967295",
       error(not_found, "node 4294967295 not in graph", "ego 4294967295")},
      {"ego 4294967296",
       error(bad, "bad node id: 4294967296", "ego 4294967296")},
      {"neighbors 6 out",
       error(not_found, "node 6 not in graph", "neighbors 6 out 32")},
      {"neighbors 4294967295 in",
       error(not_found, "node 4294967295 not in graph",
             "neighbors 4294967295 in 32")},
      {"dist 0 6", error(not_found, no_endpoint, "dist 0 6")},
      {"dist 6 0", error(not_found, no_endpoint, "dist 6 0")},
      {"dist 0 4294967295",
       error(not_found, no_endpoint, "dist 0 4294967295")},
      {"dist 4294967295 4294967295",
       error(not_found, no_endpoint, "dist 4294967295 4294967295")},
      {"topk 2 !interactive", topk2},
      {"topk 2 !analytics", topk2},
      {"topk 2 !batch", topk2},
      {"topk 2 !urgent",
       error(bad, "bad qos class (want interactive|batch|analytics): !urgent",
             "topk 2 !urgent")},
  };
  for (const auto& [line, want] : cases) {
    EXPECT_EQ(engine->ExecuteLine(line).json, want) << line;
  }
}

// Out-rows as sets, so a churn trace can be mirrored edge by edge.
using OutRows = std::vector<std::set<graph::NodeId>>;

OutRows RowsOf(const graph::DiGraph& g) {
  OutRows rows(g.num_nodes());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::NodeId v : g.OutNeighbors(u)) rows[u].insert(v);
  }
  return rows;
}

// Distinct nodes within two follows of u, excluding u.
uint64_t BruteForceReach(const OutRows& rows, graph::NodeId u) {
  std::set<graph::NodeId> seen;
  for (graph::NodeId v : rows[u]) {
    seen.insert(v);
    seen.insert(rows[v].begin(), rows[v].end());
  }
  seen.erase(u);
  return seen.size();
}

uint64_t ReachOf(const QueryResponse& r) {
  const std::string key = "\"reach_2hop\":";
  const size_t at = r.json.find(key);
  EXPECT_NE(at, std::string::npos) << r.json;
  if (at == std::string::npos) return 0;
  return std::stoull(r.json.substr(at + key.size()));
}

void ExpectReachOfEveryNode(FrontDoor* front, const OutRows& rows,
                            const std::string& what) {
  for (graph::NodeId u = 0; u < rows.size(); ++u) {
    const QueryResponse r = front->ExecuteLine("ego " + std::to_string(u));
    ASSERT_TRUE(r.ok) << what << ": " << r.json;
    ASSERT_EQ(ReachOf(r), BruteForceReach(rows, u)) << what << " node " << u;
  }
}

graph::DiGraph Network() {
  gen::VerifiedNetworkConfig cfg;
  cfg.num_users = 2000;
  auto net = gen::GenerateVerifiedNetwork(cfg);
  EXPECT_TRUE(net.ok()) << net.status().ToString();
  return std::move(net->graph);
}

// reach_2hop is pinned to a brute-force count for every node, on the
// static engine, a 2-shard router and a live engine before and after
// churn — not only to the other paths' agreement — and so is every value
// of the heavy-node table the warm build stores.
TEST(QueryEngineTest, Reach2HopMatchesBruteForceOnEveryBacking) {
  const graph::DiGraph g = Network();
  OutRows rows = RowsOf(g);

  // A reciprocal pair u<->v puts u two follows from itself; the count
  // must still leave u out.
  size_t reciprocal_roots = 0;
  for (graph::NodeId u = 0; u < rows.size(); ++u) {
    for (graph::NodeId v : rows[u]) {
      if (rows[v].count(u) > 0) {
        ++reciprocal_roots;
        break;
      }
    }
  }
  ASSERT_GT(reciprocal_roots, 0u);

  // The table covers some nodes but not all, so the lookup and the walk
  // both run below.
  auto engine = MakeEngine(g);
  const WarmIndexes& warm = engine->warm_indexes();
  ASSERT_FALSE(warm.heavy_ids.empty());
  ASSERT_LT(warm.heavy_ids.size(), rows.size() / 4);
  for (size_t i = 0; i < warm.heavy_ids.size(); ++i) {
    EXPECT_EQ(warm.heavy_reach[i], BruteForceReach(rows, warm.heavy_ids[i]))
        << "stored reach of node " << warm.heavy_ids[i];
  }
  ExpectReachOfEveryNode(engine.get(), rows, "static");

  RouterOptions ropts;
  ropts.num_shards = 2;
  auto router = ShardedRouter::Create(g, ropts);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  ExpectReachOfEveryNode(router->get(), rows, "2-shard router");

  auto live = QueryEngine::CreateLive(g, LiveEngineOptions{}, EngineOptions{});
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ExpectReachOfEveryNode(live->get(), rows, "live before churn");
  gen::MutationTraceConfig tcfg;
  tcfg.num_mutations = 3000;
  auto trace = gen::GenerateMutationTrace(g, tcfg);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  std::set<graph::NodeId> touched;
  for (const gen::EdgeMutation& m : trace->mutations) {
    const Mutation mut{m.follow ? MutationOp::kFollow : MutationOp::kUnfollow,
                       m.src, m.dst};
    auto applied = (*live)->Apply(mut);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    ASSERT_TRUE(applied->changed);
    if (m.follow) {
      rows[m.src].insert(m.dst);
    } else {
      rows[m.src].erase(m.dst);
    }
    touched.insert(m.src);
    touched.insert(m.dst);
  }
  // Both kinds of root are covered: walks through changed rows and walks
  // the churn never reached.
  ASSERT_GT(touched.size(), 0u);
  ASSERT_LT(touched.size(), rows.size());
  ExpectReachOfEveryNode(live->get(), rows, "live after churn");
}


// Drops a live response's `,"version":V,"as_of":A` so its bytes compare
// with a static engine's.
std::string WithoutVersionFields(std::string json) {
  const size_t at = json.find(",\"version\":");
  if (at == std::string::npos) return json;
  const size_t end = json.find(',', json.find("\"as_of\":", at));
  json.erase(at, end - at);
  return json;
}

// Writes g's warm indexes under `opts`, after `edit`, as the sidecar at
// opts.warm_index_path, so an engine started with `opts` serves them.
template <typename Edit>
void WriteSidecar(const graph::DiGraph& g, const EngineOptions& opts,
                  Edit edit) {
  WarmIndexes warm;
  ASSERT_TRUE(ComputeWarmIndexes(g, opts, &warm).ok());
  edit(&warm);
  const WarmIndexKey key = {
      graph::GraphChecksum(g),
      WarmConfigHash(opts.pagerank, opts.fingerprint)};
  ASSERT_TRUE(SaveWarmIndexes(opts.warm_index_path, key, warm).ok());
}

// Every front over g started from the sidecar at opts.warm_index_path:
// the static engine, a 2-shard router and a live engine, each with a tag.
std::vector<std::pair<std::string, std::unique_ptr<FrontDoor>>> FrontsOf(
    const graph::DiGraph& g, const EngineOptions& opts) {
  std::vector<std::pair<std::string, std::unique_ptr<FrontDoor>>> fronts;
  auto engine = QueryEngine::Create(g, opts);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  fronts.emplace_back("static", std::move(*engine));
  RouterOptions ropts;
  ropts.engine = opts;
  ropts.num_shards = 2;
  auto router = ShardedRouter::Create(g, ropts);
  EXPECT_TRUE(router.ok()) << router.status().ToString();
  fronts.emplace_back("2-shard router", std::move(*router));
  auto live = QueryEngine::CreateLive(g, LiveEngineOptions{}, opts);
  EXPECT_TRUE(live.ok()) << live.status().ToString();
  fronts.emplace_back("live", std::move(*live));
  for (const auto& [tag, front] : fronts) {
    EXPECT_TRUE(front->warm_index_from_cache()) << tag;
  }
  return fronts;
}

// Ego bytes do not depend on where reach_2hop came from: the static
// engine, the router and the live engine answer every heavy node and a
// spread of light ones identically, from a sidecar with the heavy-node
// table and from one without it.
TEST(QueryEngineTest, EgoBytesIdenticalAcrossBackingsWithAndWithoutTable) {
  const graph::DiGraph g = Network();
  auto reference = MakeEngine(g);
  const WarmIndexes& warm = reference->warm_indexes();
  ASSERT_FALSE(warm.heavy_ids.empty());
  std::vector<std::string> lines;
  for (graph::NodeId u : warm.heavy_ids) {
    lines.push_back("ego " + std::to_string(u));
  }
  for (graph::NodeId u = 0; u < g.num_nodes(); u += 7) {
    lines.push_back("ego " + std::to_string(u));
  }
  std::vector<std::string> want;
  for (const std::string& line : lines) {
    want.push_back(reference->ExecuteLine(line).json);
  }

  for (const bool table : {true, false}) {
    const std::string what = table ? "table" : "no table";
    EngineOptions opts;
    opts.threads = 1;
    opts.warm_index_path = testing::TempDir() + "/ego_bytes.widx";
    WriteSidecar(g, opts, [table](WarmIndexes* w) {
      if (table) return;
      w->heavy_ids.clear();
      w->heavy_reach.clear();
    });
    for (const auto& [tag, front] : FrontsOf(g, opts)) {
      for (size_t i = 0; i < lines.size(); ++i) {
        ASSERT_EQ(WithoutVersionFields(front->ExecuteLine(lines[i]).json),
                  want[i])
            << what << ", " << tag << ": " << lines[i];
      }
    }
  }
}

// The stored value, not a walk, is what every front serves for a heavy
// node: a sidecar whose table is off by one for one node shows up in the
// reply of the static engine, the router and an unmutated live engine.
TEST(QueryEngineTest, HeavyNodesAreAnsweredFromTheTable) {
  const graph::DiGraph g = Network();
  EngineOptions opts;
  opts.threads = 1;
  opts.warm_index_path = testing::TempDir() + "/planted.widx";
  graph::NodeId u = 0;
  uint32_t planted = 0;
  WriteSidecar(g, opts, [&](WarmIndexes* w) {
    ASSERT_FALSE(w->heavy_ids.empty());
    u = w->heavy_ids[0];
    planted = w->heavy_reach[0] - 1;
    w->heavy_reach[0] = planted;
  });
  for (const auto& [tag, front] : FrontsOf(g, opts)) {
    EXPECT_EQ(ReachOf(front->ExecuteLine("ego " + std::to_string(u))), planted)
        << tag;
  }
}

// A live engine may serve a stored reach only while the rows the walk
// reads are the base's. Here u is a heavy node that stays untouched, but
// one of its out-neighbours gains an out-edge to a node outside u's two
// hops: the reply must carry the walked count (the stored one plus one).
// After CompactNow the rebuilt table holds the new count and serves it.
TEST(QueryEngineTest, LiveHeavyNodeWalksWhenAnOutNeighbourIsTouched) {
  const graph::DiGraph g = Network();
  OutRows rows = RowsOf(g);
  LiveEngineOptions live;
  live.compact_path = testing::TempDir() + "/heavy_reach_compacted.eng2";
  auto created = QueryEngine::CreateLive(g, live, EngineOptions{});
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  QueryEngine* engine = created->get();
  const auto stored_reach = [engine](graph::NodeId u) {
    const LiveSnapshot snap = engine->live_snapshot();
    return static_cast<const WarmIndexes*>(snap.warm_payload())
        ->StoredReach(u);
  };

  const auto* warm = static_cast<const WarmIndexes*>(
      engine->live_snapshot().warm_payload());
  ASSERT_FALSE(warm->heavy_ids.empty());
  const graph::NodeId u = warm->heavy_ids[0];
  ASSERT_FALSE(rows[u].empty());
  const graph::NodeId v = *rows[u].begin();
  ASSERT_NE(v, u);
  graph::NodeId w = 0;
  while (w == u || rows[u].count(w) > 0 ||
         std::any_of(rows[u].begin(), rows[u].end(),
                     [&](graph::NodeId x) { return rows[x].count(w) > 0; })) {
    ++w;
  }
  ASSERT_LT(w, rows.size());
  const uint64_t before = BruteForceReach(rows, u);
  ASSERT_EQ(*stored_reach(u), before);
  const std::string line = "ego " + std::to_string(u);
  ASSERT_EQ(ReachOf(engine->ExecuteLine(line)), before);

  ASSERT_TRUE(engine->Apply({MutationOp::kFollow, v, w}).ok());
  rows[v].insert(w);
  ASSERT_FALSE(engine->live_snapshot().Touched(u));
  const uint64_t after = BruteForceReach(rows, u);
  ASSERT_EQ(after, before + 1);
  EXPECT_EQ(ReachOf(engine->ExecuteLine(line)), after);
  EXPECT_EQ(*stored_reach(u), before) << "the epoch's table is the base's";

  ASSERT_TRUE(engine->CompactNow().ok());
  ASSERT_NE(stored_reach(u), nullptr) << "u is still heavy after compaction";
  EXPECT_EQ(*stored_reach(u), after);
  EXPECT_EQ(ReachOf(engine->ExecuteLine(line)), after);
}

}  // namespace
}  // namespace serve
}  // namespace elitenet
