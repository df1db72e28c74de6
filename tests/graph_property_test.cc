// Property-based sweeps over graph families and sizes: structural
// invariants that must hold for every graph the generators can produce.

#include <cstdint>
#include <numeric>
#include <tuple>

#include <gtest/gtest.h>

#include "analysis/centrality.h"
#include "analysis/clustering.h"
#include "analysis/components.h"
#include "analysis/degree.h"
#include "analysis/distance.h"
#include "analysis/reciprocity.h"
#include "gen/generators.h"
#include "graph/io.h"
#include "graph/subgraph.h"
#include "util/rng.h"

namespace elitenet {
namespace {

using graph::DiGraph;
using graph::NodeId;

enum class Family { kErdosRenyi, kPreferential, kWattsStrogatz };

std::string FamilyName(Family f) {
  switch (f) {
    case Family::kErdosRenyi: return "ErdosRenyi";
    case Family::kPreferential: return "Preferential";
    case Family::kWattsStrogatz: return "WattsStrogatz";
  }
  return "?";
}

DiGraph MakeGraph(Family family, NodeId n, uint64_t seed) {
  util::Rng rng(seed);
  Result<DiGraph> g = Status::Internal("unset");
  switch (family) {
    case Family::kErdosRenyi:
      g = gen::ErdosRenyi(n, static_cast<uint64_t>(n) * 6, &rng);
      break;
    case Family::kPreferential:
      g = gen::PreferentialAttachment(n, 5, &rng);
      break;
    case Family::kWattsStrogatz:
      g = gen::WattsStrogatz(n, 5, 0.2, &rng);
      break;
  }
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

class GraphPropertyTest
    : public testing::TestWithParam<std::tuple<Family, NodeId, uint64_t>> {
 protected:
  DiGraph MakeParamGraph() {
    const auto& [family, n, seed] = GetParam();
    return MakeGraph(family, n, seed);
  }
};

TEST_P(GraphPropertyTest, DegreeSumsEqualEdgeCount) {
  const DiGraph g = MakeParamGraph();
  uint64_t out_sum = 0, in_sum = 0;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    out_sum += g.OutDegree(u);
    in_sum += g.InDegree(u);
  }
  EXPECT_EQ(out_sum, g.num_edges());
  EXPECT_EQ(in_sum, g.num_edges());
}

TEST_P(GraphPropertyTest, TransposeInvariants) {
  const DiGraph g = MakeParamGraph();
  const DiGraph t = g.Transpose();
  EXPECT_EQ(t.num_edges(), g.num_edges());
  // Reciprocity is transpose-invariant.
  EXPECT_DOUBLE_EQ(analysis::ComputeReciprocity(g).rate,
                   analysis::ComputeReciprocity(t).rate);
  // SCC structure is transpose-invariant (same component count).
  EXPECT_EQ(analysis::StronglyConnectedComponents(g).num_components,
            analysis::StronglyConnectedComponents(t).num_components);
  // Weak components identical labels up to renaming: same sizes multiset.
  auto ws = analysis::WeaklyConnectedComponents(g).sizes;
  auto wt = analysis::WeaklyConnectedComponents(t).sizes;
  std::sort(ws.begin(), ws.end());
  std::sort(wt.begin(), wt.end());
  EXPECT_EQ(ws, wt);
}

TEST_P(GraphPropertyTest, BinarySnapshotRoundTrips) {
  const DiGraph g = MakeParamGraph();
  const std::string path = testing::TempDir() + "/prop_snapshot.eng2";
  ASSERT_TRUE(graph::SaveBinaryV2(g, path).ok());
  auto loaded = graph::MapBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, g);
}

TEST_P(GraphPropertyTest, SccIsFinerThanWeak) {
  const DiGraph g = MakeParamGraph();
  const auto weak = analysis::WeaklyConnectedComponents(g);
  const auto strong = analysis::StronglyConnectedComponents(g);
  EXPECT_GE(strong.num_components, weak.num_components);
  // Every SCC lies inside one weak component.
  std::vector<uint32_t> scc_to_weak(strong.num_components, UINT32_MAX);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    uint32_t& w = scc_to_weak[strong.label[u]];
    if (w == UINT32_MAX) {
      w = weak.label[u];
    } else {
      EXPECT_EQ(w, weak.label[u]);
    }
  }
}

TEST_P(GraphPropertyTest, CondensationIsAcyclic) {
  const DiGraph g = MakeParamGraph();
  const auto scc = analysis::StronglyConnectedComponents(g);
  const DiGraph dag = analysis::Condensation(g, scc);
  // A DAG's SCCs are all singletons.
  const auto dag_scc = analysis::StronglyConnectedComponents(dag);
  EXPECT_EQ(dag_scc.num_components, dag.num_nodes());
}

TEST_P(GraphPropertyTest, AttractingComponentsExistAndAreTerminal) {
  const DiGraph g = MakeParamGraph();
  const auto scc = analysis::StronglyConnectedComponents(g);
  const auto att = analysis::FindAttractingComponents(g, scc);
  EXPECT_GE(att.count, 1u);  // every finite digraph has a terminal SCC
  // Verify terminality directly for each reported component.
  std::vector<bool> is_attracting(scc.num_components, false);
  for (uint32_t id : att.ids) is_attracting[id] = true;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (!is_attracting[scc.label[u]]) continue;
    for (NodeId v : g.OutNeighbors(u)) {
      EXPECT_EQ(scc.label[v], scc.label[u]);
    }
  }
}

TEST_P(GraphPropertyTest, BfsTriangleInequalityFromSource) {
  const DiGraph g = MakeParamGraph();
  const auto dist = analysis::Bfs(g, 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (dist[u] == analysis::kUnreachable) continue;
    for (NodeId v : g.OutNeighbors(u)) {
      ASSERT_NE(dist[v], analysis::kUnreachable);
      EXPECT_LE(dist[v], dist[u] + 1);
    }
  }
}

TEST_P(GraphPropertyTest, PageRankIsProperDistribution) {
  const DiGraph g = MakeParamGraph();
  auto pr = analysis::PageRank(g);
  ASSERT_TRUE(pr.ok());
  const double sum =
      std::accumulate(pr->scores.begin(), pr->scores.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-8);
  const double floor =
      0.15 / static_cast<double>(g.num_nodes()) - 1e-12;
  for (double s : pr->scores) EXPECT_GE(s, floor);
}

TEST_P(GraphPropertyTest, BetweennessNonNegativeAndBounded) {
  const DiGraph g = MakeParamGraph();
  analysis::BetweennessOptions opts;
  opts.pivots = std::min<uint32_t>(g.num_nodes(), 64);
  auto bc = analysis::Betweenness(g, opts);
  ASSERT_TRUE(bc.ok());
  const double n = g.num_nodes();
  for (double b : *bc) {
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, n * n);  // loose upper bound on pair dependencies
  }
}

TEST_P(GraphPropertyTest, LocalClusteringInUnitInterval) {
  const DiGraph g = MakeParamGraph();
  util::Rng rng(99);
  const auto s = analysis::ComputeClusteringSampled(g, 200, &rng);
  EXPECT_GE(s.average_local, 0.0);
  EXPECT_LE(s.average_local, 1.0);
  EXPECT_GE(s.transitivity, 0.0);
  EXPECT_LE(s.transitivity, 1.0);
}

TEST_P(GraphPropertyTest, InducedFullSubgraphIsIdentity) {
  const DiGraph g = MakeParamGraph();
  auto sub = graph::InduceByMask(
      g, std::vector<bool>(g.num_nodes(), true));
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ(sub->graph, g);
}

INSTANTIATE_TEST_SUITE_P(
    Families, GraphPropertyTest,
    testing::Combine(testing::Values(Family::kErdosRenyi,
                                     Family::kPreferential,
                                     Family::kWattsStrogatz),
                     testing::Values<NodeId>(50, 400),
                     testing::Values<uint64_t>(1, 2)),
    [](const testing::TestParamInfo<GraphPropertyTest::ParamType>& info) {
      return FamilyName(std::get<0>(info.param)) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace elitenet
