#include "analysis/clustering.h"

#include <gtest/gtest.h>

#include "core/fingerprint.h"
#include "gen/generators.h"
#include "gen/verified_network.h"
#include "graph/builder.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace elitenet {
namespace analysis {
namespace {

using graph::DiGraph;
using graph::GraphBuilder;
using graph::NodeId;

DiGraph Build(NodeId n,
              const std::vector<std::pair<NodeId, NodeId>>& edges) {
  GraphBuilder b(n);
  EXPECT_TRUE(b.AddEdges(edges).ok());
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(UndirectedNeighborsTest, UnionOfInAndOut) {
  const DiGraph g = Build(4, {{0, 1}, {2, 0}, {0, 2}});
  const auto n0 = UndirectedNeighbors(g, 0);
  EXPECT_EQ(n0, (std::vector<NodeId>{1, 2}));  // 2 deduplicated
  const auto n3 = UndirectedNeighbors(g, 3);
  EXPECT_TRUE(n3.empty());
}

TEST(ClusteringTest, DirectedTriangleIsFullyClustered) {
  const DiGraph g = Build(3, {{0, 1}, {1, 2}, {2, 0}});
  const ClusteringStats s = ComputeClustering(g);
  EXPECT_DOUBLE_EQ(s.average_local, 1.0);
  EXPECT_DOUBLE_EQ(s.transitivity, 1.0);
  EXPECT_EQ(s.triangles, 1u);
  EXPECT_EQ(s.nodes_evaluated, 3u);
}

TEST(ClusteringTest, StarHasZeroClustering) {
  const DiGraph g = Build(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}});
  const ClusteringStats s = ComputeClustering(g);
  EXPECT_DOUBLE_EQ(s.average_local, 0.0);
  EXPECT_EQ(s.triangles, 0u);
  // Only the hub has degree >= 2.
  EXPECT_EQ(s.nodes_evaluated, 1u);
}

TEST(ClusteringTest, PartialTriangle) {
  // Path 1-0-2 plus closing edge 1-2: a triangle plus pendant 3.
  const DiGraph g = Build(4, {{0, 1}, {0, 2}, {1, 2}, {0, 3}});
  const ClusteringStats s = ComputeClustering(g);
  // Node 0: degree 3, neighbors {1,2,3}, one linked pair of 3 -> 1/3.
  // Nodes 1, 2: degree 2, their single pair linked -> 1.0.
  // Node 3: degree 1, not evaluated.
  EXPECT_NEAR(s.average_local, (1.0 / 3.0 + 1.0 + 1.0) / 3.0, 1e-12);
  EXPECT_EQ(s.triangles, 1u);
}

TEST(ClusteringTest, MutualEdgesDoNotDoubleCount) {
  // Fully mutual triangle: same clustering as the one-way triangle.
  const DiGraph g =
      Build(3, {{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 0}, {0, 2}});
  const ClusteringStats s = ComputeClustering(g);
  EXPECT_DOUBLE_EQ(s.average_local, 1.0);
  EXPECT_EQ(s.triangles, 1u);
}

TEST(ClusteringTest, EmptyGraph) {
  const ClusteringStats s = ComputeClustering(DiGraph());
  EXPECT_EQ(s.average_local, 0.0);
  EXPECT_EQ(s.nodes_evaluated, 0u);
}

TEST(ClusteringSampledTest, SmallGraphFallsBackToExact) {
  const DiGraph g = Build(3, {{0, 1}, {1, 2}, {2, 0}});
  util::Rng rng(3);
  const ClusteringStats s = ComputeClusteringSampled(g, 100, &rng);
  EXPECT_DOUBLE_EQ(s.average_local, 1.0);
}

TEST(ClusteringSampledTest, SampleApproximatesExact) {
  // Random graph: sampled estimate within a few points of exact.
  util::Rng rng(5);
  GraphBuilder b(400);
  for (int i = 0; i < 4000; ++i) {
    const NodeId u = static_cast<NodeId>(rng.UniformU64(400));
    const NodeId v = static_cast<NodeId>(rng.UniformU64(400));
    if (u != v) {
      ASSERT_TRUE(b.AddEdge(u, v).ok());
    }
  }
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const ClusteringStats exact = ComputeClustering(*g);
  util::Rng rng2(7);
  const ClusteringStats approx = ComputeClusteringSampled(*g, 200, &rng2);
  EXPECT_NEAR(approx.average_local, exact.average_local, 0.02);
  EXPECT_EQ(approx.nodes_evaluated, 200u);
}

// ---------------------------------------------------------------------------
// Reference: the per-node kernel the oriented one replaced. For every
// evaluated u it intersects N(u) with each neighbour's full undirected row,
// counting every linked pair from both ends. The sweep folds per-chunk
// partials in the library's chunk order, so averages compare bitwise.

uint64_t SortedIntersectionSize(const std::vector<NodeId>& a,
                                const std::vector<NodeId>& b) {
  uint64_t count = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

ClusteringStats ReferenceSweep(const DiGraph& g,
                               const std::vector<NodeId>& nodes) {
  const size_t grain = util::EffectiveGrain(nodes.size(), 0);
  double coeff_sum = 0.0;
  uint64_t evaluated = 0, closed = 0, open_pairs = 0;
  for (size_t lo = 0; lo < nodes.size(); lo += grain) {
    double chunk_sum = 0.0;
    for (size_t i = lo; i < std::min(lo + grain, nodes.size()); ++i) {
      const std::vector<NodeId> nu = UndirectedNeighbors(g, nodes[i]);
      if (nu.size() < 2) continue;
      uint64_t linked = 0;
      for (NodeId v : nu) {
        linked += SortedIntersectionSize(nu, UndirectedNeighbors(g, v));
      }
      const uint64_t d = nu.size();
      chunk_sum += static_cast<double>(linked) /
                   (static_cast<double>(d) * static_cast<double>(d - 1));
      ++evaluated;
      closed += linked;
      open_pairs += d * (d - 1);
    }
    coeff_sum += chunk_sum;
  }
  ClusteringStats s;
  s.nodes_evaluated = evaluated;
  if (evaluated > 0) {
    s.average_local = coeff_sum / static_cast<double>(evaluated);
  }
  s.triangles = closed / 6;
  if (open_pairs > 0) {
    s.transitivity =
        static_cast<double>(closed) / static_cast<double>(open_pairs);
  }
  return s;
}

ClusteringStats ReferenceExact(const DiGraph& g) {
  std::vector<NodeId> nodes(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) nodes[u] = u;
  return ReferenceSweep(g, nodes);
}

ClusteringStats ReferenceSampled(const DiGraph& g, uint32_t samples,
                                 util::Rng* rng) {
  std::vector<NodeId> eligible;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.OutDegree(u) + g.InDegree(u) >= 2) eligible.push_back(u);
  }
  if (eligible.size() <= samples) return ReferenceExact(g);
  rng->Shuffle(&eligible);
  eligible.resize(samples);
  return ReferenceSweep(g, eligible);
}

void ExpectSameStats(const ClusteringStats& got, const ClusteringStats& want) {
  EXPECT_EQ(got.triangles, want.triangles);
  EXPECT_EQ(got.nodes_evaluated, want.nodes_evaluated);
  EXPECT_EQ(got.transitivity, want.transitivity);
  // Bitwise, not approximately: the fingerprint and .widx bytes rest on it.
  EXPECT_EQ(got.average_local, want.average_local);
}

// Exact at 1 and 3 threads, and sampled at several sample sizes and seeds,
// each against the reference.
void ExpectMatchesReference(const DiGraph& g) {
  const ClusteringStats exact = ReferenceExact(g);
  for (int threads : {1, 3}) {
    util::SetThreadCount(threads);
    SCOPED_TRACE(threads);
    ExpectSameStats(ComputeClustering(g), exact);
    for (uint32_t samples : {1u, 7u, g.num_nodes() / 3 + 1}) {
      for (uint64_t seed : {11u, 12u}) {
        SCOPED_TRACE(samples);
        util::Rng a(seed), b(seed);
        ExpectSameStats(ComputeClusteringSampled(g, samples, &a),
                        ReferenceSampled(g, samples, &b));
      }
    }
  }
  util::SetThreadCount(0);
}

TEST(ClusteringEquivalenceTest, ErdosRenyi) {
  util::Rng rng(21);
  auto g = gen::ErdosRenyi(600, 9000, &rng);
  ASSERT_TRUE(g.ok());
  ExpectMatchesReference(*g);
}

TEST(ClusteringEquivalenceTest, PreferentialAttachment) {
  util::Rng rng(22);
  auto g = gen::PreferentialAttachment(800, 6, &rng);
  ASSERT_TRUE(g.ok());
  ExpectMatchesReference(*g);
}

TEST(ClusteringEquivalenceTest, WattsStrogatz) {
  util::Rng rng(23);
  auto g = gen::WattsStrogatz(700, 6, 0.1, &rng);
  ASSERT_TRUE(g.ok());
  ExpectMatchesReference(*g);
}

TEST(ClusteringEquivalenceTest, MutualClique) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < 12; ++u) {
    for (NodeId v = 0; v < 12; ++v) {
      if (u != v) edges.push_back({u, v});
    }
  }
  const DiGraph g = Build(12, edges);
  ExpectMatchesReference(g);
  const ClusteringStats s = ComputeClustering(g);
  EXPECT_EQ(s.average_local, 1.0);
  EXPECT_EQ(s.triangles, 220u);  // C(12, 3)
}

TEST(ClusteringEquivalenceTest, StarWithReciprocalLeaves) {
  // Hub 0 and leaves 1..30, every spoke both ways, plus a few rim edges.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId leaf = 1; leaf <= 30; ++leaf) {
    edges.push_back({0, leaf});
    edges.push_back({leaf, 0});
  }
  for (NodeId leaf = 1; leaf < 30; leaf += 3) edges.push_back({leaf, leaf + 1});
  ExpectMatchesReference(Build(31, edges));
}

TEST(ClusteringEquivalenceTest, IsolatedNodesAndMutualPairs) {
  // A triangle, ten isolated nodes, and mutual pairs: each pair member has
  // out + in = 2, so it is eligible for sampling, but its undirected degree
  // is 1 and it must drop out of nodes_evaluated.
  std::vector<std::pair<NodeId, NodeId>> edges = {{0, 1}, {1, 2}, {2, 0}};
  for (NodeId u = 13; u < 41; u += 2) {
    edges.push_back({u, u + 1});
    edges.push_back({u + 1, u});
  }
  const DiGraph g = Build(41, edges);
  ExpectMatchesReference(g);
  util::Rng rng(5);
  const ClusteringStats s = ComputeClusteringSampled(g, 10, &rng);
  EXPECT_LT(s.nodes_evaluated, 10u);
}

// Recorded before the oriented kernel replaced the per-node one:
// ComputeFingerprint's clustering on the default-seed verified network.
// 3,000 users has fewer than 4,000 eligible nodes (exact fallback);
// 12,000 users takes the sampled path.
TEST(ClusteringGoldenTest, VerifiedFingerprintClustering) {
  const std::pair<uint32_t, double> golden[] = {
      {3000, 0x1.adec54f29b3b1p-3},
      {12000, 0x1.3f7808f2e430ep-3},
  };
  for (const auto& [users, want] : golden) {
    gen::VerifiedNetworkConfig cfg;
    cfg.num_users = users;
    auto net = gen::GenerateVerifiedNetwork(cfg);
    ASSERT_TRUE(net.ok());
    const auto fp = core::ComputeFingerprint(net->graph);
    ASSERT_TRUE(fp.ok());
    EXPECT_EQ(fp->clustering, want) << users;
  }
}

}  // namespace
}  // namespace analysis
}  // namespace elitenet
