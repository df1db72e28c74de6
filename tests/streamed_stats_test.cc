#include "analysis/streamed_stats.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/assortativity.h"
#include "analysis/degree.h"
#include "analysis/reciprocity.h"
#include "gen/generators.h"
#include "graph/builder.h"
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

// Bit-exact comparison against the three standalone kernels. The fused
// pass promises byte-identical CSV output, so every floating-point field
// is compared with == (through EXPECT_EQ), not a tolerance.
void ExpectMatchesKernels(const DiGraph& g) {
  const StreamedBasicStats s = ComputeStreamedBasicStats(g);
  const DegreeStats d = ComputeDegreeStats(g);
  const ReciprocityStats r = ComputeReciprocity(g);
  const AssortativityReport a = ComputeAssortativity(g);

  EXPECT_EQ(s.degrees.min_out_degree, d.min_out_degree);
  EXPECT_EQ(s.degrees.max_out_degree, d.max_out_degree);
  EXPECT_EQ(s.degrees.argmax_out_degree, d.argmax_out_degree);
  EXPECT_EQ(s.degrees.avg_out_degree, d.avg_out_degree);
  EXPECT_EQ(s.degrees.min_in_degree, d.min_in_degree);
  EXPECT_EQ(s.degrees.max_in_degree, d.max_in_degree);
  EXPECT_EQ(s.degrees.argmax_in_degree, d.argmax_in_degree);
  EXPECT_EQ(s.degrees.avg_in_degree, d.avg_in_degree);
  EXPECT_EQ(s.degrees.isolated_nodes, d.isolated_nodes);
  EXPECT_EQ(s.degrees.sink_nodes, d.sink_nodes);
  EXPECT_EQ(s.degrees.source_nodes, d.source_nodes);
  EXPECT_EQ(s.degrees.density, d.density);

  EXPECT_EQ(s.reciprocity.total_edges, r.total_edges);
  EXPECT_EQ(s.reciprocity.reciprocated_edges, r.reciprocated_edges);
  EXPECT_EQ(s.reciprocity.mutual_pairs, r.mutual_pairs);
  EXPECT_EQ(s.reciprocity.rate, r.rate);

  EXPECT_EQ(s.assortativity.out_in, a.out_in);
  EXPECT_EQ(s.assortativity.out_out, a.out_out);
  EXPECT_EQ(s.assortativity.in_in, a.in_in);
  EXPECT_EQ(s.assortativity.in_out, a.in_out);
  EXPECT_EQ(s.assortativity.total, a.total);
}

TEST(StreamedStatsTest, EmptyGraph) { ExpectMatchesKernels(DiGraph()); }

TEST(StreamedStatsTest, SingleIsolatedNode) {
  ExpectMatchesKernels(Build(1, {}));
}

TEST(StreamedStatsTest, SmallMixedGraph) {
  // Mutual pair, a chain, a sink, a source, and an isolated node — every
  // degree-stat branch is exercised.
  ExpectMatchesKernels(
      Build(7, {{0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 4}, {5, 0}}));
}

TEST(StreamedStatsTest, RandomGraphBitIdentical) {
  util::Rng rng(2018);
  auto g = gen::ErdosRenyi(500, 4000, &rng);
  ASSERT_TRUE(g.ok());
  ExpectMatchesKernels(*g);
}

TEST(StreamedStatsTest, SkewedGraphBitIdentical) {
  // Preferential attachment gives heavy-tailed degrees, the regime where
  // naive accumulation-order changes would show up in the correlations.
  util::Rng rng(7);
  auto g = gen::PreferentialAttachment(800, 5, &rng);
  ASSERT_TRUE(g.ok());
  ExpectMatchesKernels(*g);
}

}  // namespace
}  // namespace analysis
}  // namespace elitenet
