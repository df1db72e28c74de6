// Direction-optimizing BFS vs a textbook reference on adversarial graph
// shapes (chains, stars, disconnected pieces, zero-edge graphs, random
// digraphs), in all three edge directions and all three kernel modes, at
// several thread counts — the kernels must agree with the reference bit
// for bit everywhere. Also covers ScratchArena epoch semantics, the flat
// undirected CSR, degree relabeling, and the adaptive HasEdge.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "analysis/clustering.h"
#include "graph/builder.h"
#include "graph/frontier.h"
#include "graph/traversal.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace elitenet {
namespace {

using graph::DiGraph;
using graph::NodeId;

DiGraph MakeGraph(NodeId n,
                  const std::vector<std::pair<NodeId, NodeId>>& edges) {
  graph::GraphBuilder b(n);
  EXPECT_TRUE(b.AddEdges(edges).ok());
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

std::vector<NodeId> Successors(const DiGraph& g, NodeId u,
                               graph::TraversalDirection dir) {
  switch (dir) {
    case graph::TraversalDirection::kForward: {
      const auto s = g.OutNeighbors(u);
      return {s.begin(), s.end()};
    }
    case graph::TraversalDirection::kReverse: {
      const auto s = g.InNeighbors(u);
      return {s.begin(), s.end()};
    }
    case graph::TraversalDirection::kUndirected:
      return analysis::UndirectedNeighbors(g, u);
  }
  return {};
}

// Level-synchronous textbook BFS with the canonical conventions the kernel
// promises: minimum-id parent one level closer, visit order ascending
// within each level.
struct RefBfs {
  std::vector<uint32_t> dist;
  std::vector<NodeId> parent;
  std::vector<NodeId> order;
};

RefBfs ReferenceBfs(const DiGraph& g, NodeId source,
                    graph::TraversalDirection dir) {
  RefBfs out;
  out.dist.assign(g.num_nodes(), UINT32_MAX);
  out.parent.assign(g.num_nodes(), graph::kNoParent);
  out.dist[source] = 0;
  out.parent[source] = source;
  std::vector<NodeId> level{source};
  while (!level.empty()) {
    out.order.insert(out.order.end(), level.begin(), level.end());
    std::vector<NodeId> next;
    for (NodeId u : level) {
      for (NodeId v : Successors(g, u, dir)) {
        if (out.dist[v] == UINT32_MAX) {
          out.dist[v] = out.dist[u] + 1;
          out.parent[v] = u;
          next.push_back(v);
        } else if (out.dist[v] == out.dist[u] + 1 && u < out.parent[v]) {
          out.parent[v] = u;
        }
      }
    }
    std::sort(next.begin(), next.end());
    next.erase(std::unique(next.begin(), next.end()), next.end());
    level.swap(next);
  }
  return out;
}

constexpr graph::BfsMode kModes[] = {graph::BfsMode::kClassic,
                                     graph::BfsMode::kDirectionOptimizing,
                                     graph::BfsMode::kBottomUp};
constexpr graph::TraversalDirection kDirections[] = {
    graph::TraversalDirection::kForward, graph::TraversalDirection::kReverse,
    graph::TraversalDirection::kUndirected};
constexpr int kThreadCounts[] = {1, 2, 4, 8};

// Every mode and direction must reproduce the reference exactly.
void CheckAllModes(const DiGraph& g, NodeId source) {
  for (auto dir : kDirections) {
    const RefBfs ref = ReferenceBfs(g, source, dir);
    for (auto mode : kModes) {
      graph::ScratchArena arena(g.num_nodes());
      std::vector<NodeId> order;
      graph::BfsOptions opts;
      opts.mode = mode;
      opts.direction = dir;
      opts.compute_parents = true;
      opts.visit_order = &order;
      // Low thresholds so direction-optimizing actually flips on tiny
      // test graphs instead of staying top-down throughout.
      opts.min_bottom_up_frontier = 1;
      opts.alpha = 4.0;
      const graph::BfsStats stats = graph::Bfs(g, source, &arena, opts);
      uint64_t reached = 0;
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(arena.DistanceOr(v, UINT32_MAX), ref.dist[v])
            << "dist of node " << v << " from " << source << " mode "
            << static_cast<int>(mode) << " dir " << static_cast<int>(dir);
        ASSERT_EQ(arena.ParentOr(v, graph::kNoParent), ref.parent[v])
            << "parent of node " << v << " from " << source << " mode "
            << static_cast<int>(mode) << " dir " << static_cast<int>(dir);
        if (ref.dist[v] != UINT32_MAX) ++reached;
      }
      EXPECT_EQ(stats.nodes_visited, reached);
      EXPECT_EQ(order, ref.order);
    }
  }
}

TEST(TraversalTest, ChainGraph) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u + 1 < 12; ++u) edges.push_back({u, u + 1});
  const DiGraph g = MakeGraph(12, edges);
  CheckAllModes(g, 0);
  CheckAllModes(g, 6);
  CheckAllModes(g, 11);
}

TEST(TraversalTest, StarGraph) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId leaf = 1; leaf < 40; ++leaf) edges.push_back({0, leaf});
  const DiGraph g = MakeGraph(40, edges);
  CheckAllModes(g, 0);
  CheckAllModes(g, 17);  // a leaf: reaches nothing forward, hub reverse
}

TEST(TraversalTest, DisconnectedGraph) {
  // Two components plus isolated nodes 8 and 9.
  const DiGraph g = MakeGraph(
      10, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 6}, {6, 7}});
  for (NodeId s = 0; s < g.num_nodes(); ++s) CheckAllModes(g, s);
}

TEST(TraversalTest, ZeroEdgeGraph) {
  const DiGraph g = MakeGraph(5, {});
  CheckAllModes(g, 0);
  CheckAllModes(g, 4);
  graph::ScratchArena arena(g.num_nodes());
  const graph::BfsStats stats = graph::Bfs(g, 2, &arena);
  EXPECT_EQ(stats.nodes_visited, 1u);
  EXPECT_EQ(stats.levels, 0u);
  EXPECT_EQ(arena.DistanceOr(2, UINT32_MAX), 0u);
  EXPECT_EQ(arena.DistanceOr(1, UINT32_MAX), UINT32_MAX);
}

TEST(TraversalTest, RandomGraphsAtEveryThreadCount) {
  util::Rng rng(404);
  std::vector<std::pair<NodeId, NodeId>> edges;
  const NodeId n = 180;
  for (uint32_t e = 0; e < 2200; ++e) {
    const auto u = static_cast<NodeId>(rng.UniformU64(n));
    const auto v = static_cast<NodeId>(rng.UniformU64(n));
    if (u != v) edges.push_back({u, v});
  }
  const DiGraph g = MakeGraph(n, edges);
  for (int threads : kThreadCounts) {
    util::SetThreadCount(threads);
    CheckAllModes(g, 0);
    CheckAllModes(g, n / 2);
  }
  util::SetThreadCount(0);
}

TEST(TraversalTest, DirectionOptimizingActuallySwitches) {
  // Dense-ish random digraph: the middle level holds most nodes, so with
  // the test thresholds the heuristic must go bottom-up at least once.
  util::Rng rng(77);
  std::vector<std::pair<NodeId, NodeId>> edges;
  const NodeId n = 400;
  for (uint32_t e = 0; e < 6000; ++e) {
    const auto u = static_cast<NodeId>(rng.UniformU64(n));
    const auto v = static_cast<NodeId>(rng.UniformU64(n));
    if (u != v) edges.push_back({u, v});
  }
  const DiGraph g = MakeGraph(n, edges);
  graph::ScratchArena arena(g.num_nodes());
  graph::BfsOptions opts;
  opts.min_bottom_up_frontier = 1;
  opts.alpha = 4.0;
  const graph::BfsStats stats = graph::Bfs(g, 0, &arena, opts);
  EXPECT_GT(stats.direction_switches, 0u);
  EXPECT_GT(stats.bottom_up_levels, 0u);

  // And the forced-bottom-up run scans no more edges than classic by more
  // than the in-edge total (sanity bound, not a perf assertion).
  graph::BfsOptions classic;
  classic.mode = graph::BfsMode::kClassic;
  graph::ScratchArena arena2(g.num_nodes());
  const graph::BfsStats cstats = graph::Bfs(g, 0, &arena2, classic);
  EXPECT_EQ(cstats.nodes_visited, stats.nodes_visited);
  EXPECT_EQ(cstats.direction_switches, 0u);
}

TEST(TraversalTest, ScratchArenaEpochReuse) {
  const DiGraph g = MakeGraph(6, {{0, 1}, {1, 2}, {3, 4}});
  graph::ScratchArena arena(g.num_nodes());
  const uint32_t epoch0 = arena.epoch();
  graph::Bfs(g, 0, &arena);
  EXPECT_EQ(arena.epoch(), epoch0 + 1);
  EXPECT_EQ(arena.DistanceOr(2, UINT32_MAX), 2u);
  EXPECT_EQ(arena.DistanceOr(4, UINT32_MAX), UINT32_MAX);

  // A new traversal invalidates the old facts without touching memory.
  graph::Bfs(g, 3, &arena);
  EXPECT_EQ(arena.epoch(), epoch0 + 2);
  EXPECT_EQ(arena.DistanceOr(2, UINT32_MAX), UINT32_MAX);
  EXPECT_EQ(arena.DistanceOr(4, UINT32_MAX), 1u);

  // BeginEpoch alone wipes the view.
  arena.BeginEpoch();
  EXPECT_FALSE(arena.Visited(3));
  EXPECT_EQ(arena.DistanceOr(4, 123u), 123u);

  // Reset rebinds to a different graph size.
  arena.Reset(2);
  EXPECT_EQ(arena.num_nodes(), 2u);
  EXPECT_FALSE(arena.Visited(0));
}

TEST(TraversalTest, MultiRootSharedEpochSweep) {
  // WCC-style sweep: later roots must not re-enter earlier components.
  const DiGraph g = MakeGraph(7, {{0, 1}, {2, 3}, {3, 2}, {5, 6}});
  graph::ScratchArena arena(g.num_nodes());
  arena.BeginEpoch();
  uint64_t remaining = 2 * g.num_edges();
  graph::BfsOptions opts;
  opts.direction = graph::TraversalDirection::kUndirected;
  opts.fresh_epoch = false;
  opts.remaining_degree = &remaining;
  std::vector<uint64_t> component_sizes;
  for (NodeId root = 0; root < g.num_nodes(); ++root) {
    if (arena.Visited(root)) continue;
    const graph::BfsStats stats = graph::Bfs(g, root, &arena, opts);
    component_sizes.push_back(stats.nodes_visited);
  }
  EXPECT_EQ(component_sizes, (std::vector<uint64_t>{2, 2, 1, 2}));
  EXPECT_EQ(remaining, 0u);  // every endpoint's degree was consumed
}

TEST(TraversalTest, UndirectedCsrMatchesPerNodeNeighbors) {
  util::Rng rng(505);
  std::vector<std::pair<NodeId, NodeId>> edges;
  const NodeId n = 120;
  for (uint32_t e = 0; e < 900; ++e) {
    const auto u = static_cast<NodeId>(rng.UniformU64(n));
    const auto v = static_cast<NodeId>(rng.UniformU64(n));
    if (u != v) edges.push_back({u, v});
  }
  const DiGraph g = MakeGraph(n, edges);
  for (int threads : kThreadCounts) {
    util::SetThreadCount(threads);
    const graph::UndirectedCsr csr = graph::BuildUndirectedCsr(g);
    ASSERT_EQ(csr.num_nodes(), n);
    for (NodeId u = 0; u < n; ++u) {
      const std::vector<NodeId> expected = analysis::UndirectedNeighbors(g, u);
      const auto got = csr.Neighbors(u);
      ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()), expected)
          << "node " << u << " at " << threads << " threads";
      EXPECT_EQ(csr.Degree(u), expected.size());
    }
  }
  util::SetThreadCount(0);
}

TEST(TraversalTest, RelabelByDegreeIsDegreeSortedIsomorphism) {
  util::Rng rng(606);
  std::vector<std::pair<NodeId, NodeId>> edges;
  const NodeId n = 90;
  for (uint32_t e = 0; e < 500; ++e) {
    const auto u = static_cast<NodeId>(rng.UniformU64(n));
    const auto v = static_cast<NodeId>(rng.UniformU64(n));
    if (u != v) edges.push_back({u, v});
  }
  const DiGraph g = MakeGraph(n, edges);
  for (int threads : kThreadCounts) {
    util::SetThreadCount(threads);
    const graph::DegreeRelabeling r = g.RelabelByDegree();
    ASSERT_EQ(r.graph.num_nodes(), n);
    ASSERT_EQ(r.graph.num_edges(), g.num_edges());

    // new_to_old and old_to_new are inverse bijections.
    ASSERT_EQ(r.new_to_old.size(), n);
    ASSERT_EQ(r.old_to_new.size(), n);
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(r.old_to_new[r.new_to_old[v]], v);
    }

    // Total degree is non-increasing in the new id order, ties by old id.
    for (NodeId v = 0; v + 1 < n; ++v) {
      const uint32_t da = g.OutDegree(r.new_to_old[v]) +
                          g.InDegree(r.new_to_old[v]);
      const uint32_t db = g.OutDegree(r.new_to_old[v + 1]) +
                          g.InDegree(r.new_to_old[v + 1]);
      EXPECT_GE(da, db);
      if (da == db) {
        EXPECT_LT(r.new_to_old[v], r.new_to_old[v + 1]);
      }
    }

    // Edge-for-edge isomorphism under the mapping.
    for (NodeId u = 0; u < n; ++u) {
      std::vector<NodeId> mapped;
      for (NodeId v : g.OutNeighbors(u)) mapped.push_back(r.old_to_new[v]);
      std::sort(mapped.begin(), mapped.end());
      const auto got = r.graph.OutNeighbors(r.old_to_new[u]);
      ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()), mapped)
          << "node " << u << " at " << threads << " threads";
    }
  }
  util::SetThreadCount(0);
}

TEST(TraversalTest, HasEdgeAdaptiveOnShortAndLongRows) {
  // Node 0: long row (binary-search path); others: short rows (linear).
  std::vector<std::pair<NodeId, NodeId>> edges;
  const NodeId n = 64;
  for (NodeId v = 1; v < 40; v += 2) edges.push_back({0, v});  // 20 > 8
  edges.push_back({1, 5});
  edges.push_back({1, 9});
  edges.push_back({2, 0});
  const DiGraph g = MakeGraph(n, edges);
  ASSERT_GE(g.OutDegree(0), graph::DiGraph::kHasEdgeLinearThreshold);
  ASSERT_LT(g.OutDegree(1), graph::DiGraph::kHasEdgeLinearThreshold);

  std::set<std::pair<NodeId, NodeId>> present(edges.begin(), edges.end());
  for (NodeId u = 0; u < 4; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(g.HasEdge(u, v), present.count({u, v}) > 0)
          << "(" << u << ", " << v << ")";
    }
  }
}

}  // namespace
}  // namespace elitenet
