#include "analysis/reciprocity.h"

#include <gtest/gtest.h>

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

// The per-edge containment-probe formulation the merge replaced.
std::vector<uint32_t> ProbedMutualDegrees(const DiGraph& g) {
  std::vector<uint32_t> mutual(g.num_nodes(), 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) mutual[u] += g.HasEdge(v, u);
  }
  return mutual;
}

void ExpectMergeEqualsProbes(const DiGraph& g) {
  const std::vector<uint32_t> want = ProbedMutualDegrees(g);
  uint64_t reciprocated = 0;
  for (uint32_t m : want) reciprocated += m;
  for (int threads : {1, 4}) {
    util::SetThreadCount(threads);
    EXPECT_EQ(MutualDegrees(g), want) << threads << " threads";
    const ReciprocityStats s = ComputeReciprocity(g);
    EXPECT_EQ(s.total_edges, g.num_edges());
    EXPECT_EQ(s.reciprocated_edges, reciprocated);
    EXPECT_EQ(s.mutual_pairs, reciprocated / 2);
    EXPECT_EQ(s.rate, g.num_edges() == 0
                          ? 0.0
                          : static_cast<double>(reciprocated) /
                                static_cast<double>(g.num_edges()));
  }
  util::SetThreadCount(0);
}

// Node 4 has an in-row longer than its out-row and node 5 the other way
// round; node 3's one edge is not returned.
TEST(ReciprocityTest, MutualDegreesMergeEqualsProbesOnHandBuiltGraph) {
  const DiGraph g = Build(7, {{0, 1}, {1, 0}, {0, 2}, {2, 0}, {3, 4},
                              {5, 4}, {6, 4}, {4, 6}, {5, 0}, {5, 1},
                              {5, 3}, {1, 5}});
  ExpectMergeEqualsProbes(g);
  EXPECT_EQ(MutualDegrees(g),
            (std::vector<uint32_t>{2, 2, 1, 0, 1, 1, 1}));
}

TEST(ReciprocityTest, MutualDegreesMergeEqualsProbesOnGeneratedNetwork) {
  gen::VerifiedNetworkConfig cfg;
  cfg.num_users = 4000;
  auto net = gen::GenerateVerifiedNetwork(cfg);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  ExpectMergeEqualsProbes(net->graph);
  EXPECT_GT(ComputeReciprocity(net->graph).reciprocated_edges, 0u);
}

TEST(ReciprocityTest, EmptyGraphIsZero) {
  const ReciprocityStats s = ComputeReciprocity(DiGraph());
  EXPECT_EQ(s.rate, 0.0);
  EXPECT_EQ(s.total_edges, 0u);
}

TEST(ReciprocityTest, NoMutualEdges) {
  const ReciprocityStats s =
      ComputeReciprocity(Build(3, {{0, 1}, {1, 2}, {2, 0}}));
  EXPECT_EQ(s.reciprocated_edges, 0u);
  EXPECT_EQ(s.mutual_pairs, 0u);
  EXPECT_DOUBLE_EQ(s.rate, 0.0);
}

TEST(ReciprocityTest, FullyMutual) {
  const ReciprocityStats s =
      ComputeReciprocity(Build(2, {{0, 1}, {1, 0}}));
  EXPECT_EQ(s.reciprocated_edges, 2u);
  EXPECT_EQ(s.mutual_pairs, 1u);
  EXPECT_DOUBLE_EQ(s.rate, 1.0);
}

TEST(ReciprocityTest, MixedGraph) {
  // 4 edges: one mutual pair (0<->1) and two one-way.
  const ReciprocityStats s =
      ComputeReciprocity(Build(4, {{0, 1}, {1, 0}, {2, 3}, {3, 1}}));
  EXPECT_EQ(s.total_edges, 4u);
  EXPECT_EQ(s.reciprocated_edges, 2u);
  EXPECT_DOUBLE_EQ(s.rate, 0.5);
}

TEST(ReciprocityTest, PlantedRateRecovered) {
  // Build a graph where each of 500 pairs is mutual with known fraction.
  util::Rng rng(7);
  GraphBuilder b(2000);
  uint64_t mutual = 0, total = 0;
  for (int i = 0; i < 1000; ++i) {
    const NodeId u = static_cast<NodeId>(2 * i % 2000);
    const NodeId v = static_cast<NodeId>((2 * i + 1) % 2000);
    ASSERT_TRUE(b.AddEdge(u, v).ok());
    ++total;
    if (rng.Bernoulli(0.3)) {
      ASSERT_TRUE(b.AddEdge(v, u).ok());
      mutual += 2;
      ++total;
    }
  }
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const ReciprocityStats s = ComputeReciprocity(*g);
  EXPECT_EQ(s.total_edges, total);
  EXPECT_EQ(s.reciprocated_edges, mutual);
}

}  // namespace
}  // namespace analysis
}  // namespace elitenet
