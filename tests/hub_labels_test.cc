// Pruned landmark labeling tests: the oracle must agree with BFS on
// every (s, t) pair of randomized digraphs — exactness is the whole
// contract — the label arrays must satisfy the structural invariants
// ValidateHubLabels checks, the labels of the generator graph
// must match a recorded digest, and the construction budget and depth
// cap must abort cleanly (empty result, never a partial one).

#include "graph/hub_labels.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/verified_network.h"
#include "graph/builder.h"
#include "graph/frontier.h"
#include "graph/traversal.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace elitenet {
namespace graph {
namespace {

// Ground truth: forward BFS distances from every source.
std::vector<std::vector<uint32_t>> AllPairsBfs(const DiGraph& g) {
  std::vector<std::vector<uint32_t>> dist(g.num_nodes());
  ScratchArena arena(g.num_nodes());
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    Bfs(g, s, &arena);
    dist[s].resize(g.num_nodes());
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      dist[s][t] = arena.DistanceOr(t, kInfiniteDistance);
    }
  }
  return dist;
}

DiGraph RandomDigraph(NodeId n, double p, uint64_t seed) {
  GraphBuilder b(n);
  util::Rng rng(seed);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      if (u != v && rng.Bernoulli(p)) {
        EXPECT_TRUE(b.AddEdge(u, v).ok());
      }
    }
  }
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

void ExpectOracleMatchesBfs(const DiGraph& g, const std::string& what) {
  const HubLabels labels = BuildHubLabels(g);
  ASSERT_FALSE(labels.empty()) << what;
  ASSERT_TRUE(ValidateHubLabels(labels, g.num_nodes()).ok()) << what;
  const auto truth = AllPairsBfs(g);
  for (NodeId s = 0; s < g.num_nodes(); ++s) {
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      ASSERT_EQ(labels.Distance(s, t), truth[s][t])
          << what << ": dist(" << s << ", " << t << ")";
    }
  }
}

TEST(HubLabelsTest, EmptyGraphBuildsEmptyOracle) {
  GraphBuilder b(0);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const HubLabels labels = BuildHubLabels(*g);
  EXPECT_EQ(labels.num_nodes(), 0u);
  EXPECT_TRUE(ValidateHubLabels(labels, 0).ok());
}

TEST(HubLabelsTest, SingleNodeAndSelfDistance) {
  GraphBuilder b(1);
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const HubLabels labels = BuildHubLabels(*g);
  ASSERT_FALSE(labels.empty());
  EXPECT_EQ(labels.Distance(0, 0), 0u);
}

TEST(HubLabelsTest, DirectedPathIsAsymmetric) {
  constexpr NodeId kLen = 12;
  GraphBuilder b(kLen);
  for (NodeId u = 0; u + 1 < kLen; ++u) {
    ASSERT_TRUE(b.AddEdge(u, u + 1).ok());
  }
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const HubLabels labels = BuildHubLabels(*g);
  ASSERT_FALSE(labels.empty());
  for (NodeId s = 0; s < kLen; ++s) {
    for (NodeId t = 0; t < kLen; ++t) {
      const uint32_t want = s <= t ? t - s : kInfiniteDistance;
      EXPECT_EQ(labels.Distance(s, t), want) << s << " -> " << t;
    }
  }
}

// A 300-node directed path needs labels deeper than one byte holds: the
// builder must refuse it outright rather than store a truncated distance.
TEST(HubLabelsTest, PathDeeperThanDepthCapBuildsNoLabels) {
  constexpr NodeId kLen = 300;
  static_assert(kLen - 1 > kMaxHubLabelDist);
  GraphBuilder b(kLen);
  for (NodeId u = 0; u + 1 < kLen; ++u) {
    ASSERT_TRUE(b.AddEdge(u, u + 1).ok());
  }
  auto g = b.Build();
  ASSERT_TRUE(g.ok());
  HubLabelOptions no_budget;
  no_budget.max_avg_label_entries = 0;  // the cap alone must stop it
  for (const HubLabelOptions& opts : {HubLabelOptions{}, no_budget}) {
    const HubLabels labels = BuildHubLabels(*g, opts);
    EXPECT_TRUE(labels.empty());
    EXPECT_TRUE(labels.out().offsets.empty());
    EXPECT_TRUE(labels.in().ranks.empty());
    EXPECT_TRUE(ValidateHubLabels(labels, kLen).ok());
  }
}

TEST(HubLabelsTest, MatchesBfsOnRandomDigraphs) {
  // Sparse through dense, several seeds each: disconnected fragments,
  // one giant SCC, and everything between.
  for (const double p : {0.02, 0.08, 0.25}) {
    for (const uint64_t seed : {1u, 7u, 99u}) {
      const DiGraph g = RandomDigraph(60, p, seed);
      ExpectOracleMatchesBfs(
          g, "p=" + std::to_string(p) + " seed=" + std::to_string(seed));
    }
  }
}

TEST(HubLabelsTest, MatchesBfsOnGeneratedNetwork) {
  // The smallest scale the generator's default density supports. Full
  // all-pairs would be 16M checks; BFS from a spread of sources against
  // every target keeps the same exactness bar at test speed.
  gen::VerifiedNetworkConfig cfg;
  cfg.num_users = 4000;
  auto net = gen::GenerateVerifiedNetwork(cfg);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  const DiGraph& g = net->graph;

  const HubLabels labels = BuildHubLabels(g);
  ASSERT_FALSE(labels.empty());
  ASSERT_TRUE(ValidateHubLabels(labels, g.num_nodes()).ok());

  ScratchArena arena(g.num_nodes());
  util::Rng rng(2026);
  for (int i = 0; i < 200; ++i) {
    const NodeId s = static_cast<NodeId>(rng.UniformU64(g.num_nodes()));
    Bfs(g, s, &arena);
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      ASSERT_EQ(labels.Distance(s, t),
                arena.DistanceOr(t, kInfiniteDistance))
          << "dist(" << s << ", " << t << ")";
    }
  }
}

// FNV-1a over every node's rows, out then in: row length, then each
// entry's hub rank and distance as u64 words. Independent of how the
// arrays encode an entry, so it pins the label set, not the layout.
uint64_t LabelDigest(const HubLabels& labels) {
  uint64_t h = 0xCBF29CE484222325ULL;
  auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  };
  for (NodeId u = 0; u < labels.num_nodes(); ++u) {
    for (const HubLabelRow row : {labels.OutLabels(u), labels.InLabels(u)}) {
      mix(row.size());
      for (size_t i = 0; i < row.size(); ++i) {
        mix(row.ranks[i]);
        mix(row.dists[i]);
      }
    }
  }
  return h;
}

// Golden labels for the 4k-user generator graph (default config). The
// digest was recorded from the packed u64 layout that preceded the split
// rank/distance arrays: a layout or speed change must reproduce the
// exact same (rank, dist) rows at any thread count.
TEST(HubLabelsTest, GeneratedNetworkMatchesGoldenDigest) {
  gen::VerifiedNetworkConfig cfg;
  cfg.num_users = 4000;
  auto net = gen::GenerateVerifiedNetwork(cfg);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  for (const int threads : {1, 4}) {
    util::SetThreadCount(threads);
    const HubLabels labels = BuildHubLabels(net->graph);
    ASSERT_FALSE(labels.empty()) << threads;
    const HubLabelStats stats = labels.Stats();
    EXPECT_EQ(stats.out_entries, 124822u) << threads;
    EXPECT_EQ(stats.in_entries, 112630u) << threads;
    EXPECT_EQ(LabelDigest(labels), 0x82ea4ecd501c8a4dULL) << threads;
  }
  util::SetThreadCount(0);
}

TEST(HubLabelsTest, StatsDescribeTheLabelArrays) {
  const DiGraph g = RandomDigraph(50, 0.1, 3);
  const HubLabels labels = BuildHubLabels(g);
  ASSERT_FALSE(labels.empty());
  const HubLabelStats stats = labels.Stats();
  EXPECT_EQ(stats.out_entries, labels.out().ranks.size());
  EXPECT_EQ(stats.in_entries, labels.in().ranks.size());
  // Every node carries at least its own hub in both directions.
  EXPECT_GE(stats.out_entries, static_cast<uint64_t>(g.num_nodes()));
  EXPECT_GE(stats.in_entries, static_cast<uint64_t>(g.num_nodes()));
  EXPECT_GE(stats.max_out_entries, 1u);
  EXPECT_GE(stats.avg_out_entries, 1.0);
  // 8 bytes per offset, 4 per hub rank and 1 per distance.
  EXPECT_EQ(stats.bytes,
            (labels.out().offsets.size() + labels.in().offsets.size()) * 8 +
                (stats.out_entries + stats.in_entries) * (4 + 1));
}

TEST(HubLabelsTest, BudgetAbortReturnsEmptyNotPartial) {
  const DiGraph g = RandomDigraph(80, 0.1, 11);
  HubLabelOptions opts;
  opts.max_avg_label_entries = 1;  // impossible: self-labels alone hit it
  const HubLabels labels = BuildHubLabels(g, opts);
  EXPECT_TRUE(labels.empty());
  for (const HubLabelArrays* a : {&labels.out(), &labels.in()}) {
    EXPECT_TRUE(a->offsets.empty());
    EXPECT_TRUE(a->ranks.empty());
    EXPECT_TRUE(a->dists.empty());
  }
  // "Not built" is a valid state.
  EXPECT_TRUE(ValidateHubLabels(labels, g.num_nodes()).ok());
}

}  // namespace
}  // namespace graph
}  // namespace elitenet
