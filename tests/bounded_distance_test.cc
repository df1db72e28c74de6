#include "graph/bounded_distance.h"

#include <chrono>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/bidirectional.h"
#include "gen/verified_network.h"
#include "graph/frontier.h"
#include "util/deadline.h"
#include "util/rng.h"

namespace elitenet {
namespace graph {
namespace {

graph::DiGraph Network() {
  gen::VerifiedNetworkConfig cfg;
  cfg.num_users = 2000;
  auto net = gen::GenerateVerifiedNetwork(cfg);
  EXPECT_TRUE(net.ok()) << net.status().ToString();
  return std::move(net->graph);
}

// Completed searches agree with the analysis kernel on distance and on
// the nodes expanded, reachable or not.
TEST(BoundedDistanceTest, MatchesAnalysisKernelOnSampledPairs) {
  const graph::DiGraph g = Network();
  const NodeId n = g.num_nodes();
  std::vector<std::pair<NodeId, NodeId>> pairs;
  util::Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.UniformU64(n)),
                       static_cast<NodeId>(rng.UniformU64(n)));
  }
  // Unreachable ones on purpose: into nodes nobody follows, out of nodes
  // that follow nobody.
  for (NodeId u = 0; u < n && pairs.size() < 400; ++u) {
    if (g.InDegree(u) == 0) pairs.emplace_back(static_cast<NodeId>(u / 2), u);
    if (g.OutDegree(u) == 0) pairs.emplace_back(u, static_cast<NodeId>(u / 2));
  }

  graph::ScratchArena fwd(n), bwd(n);
  const util::Deadline never = util::Deadline::Infinite();
  size_t reachable = 0, unreachable = 0;
  for (const auto& [s, t] : pairs) {
    const analysis::PairDistance want =
        analysis::BidirectionalDistance(g, s, t);
    const BoundedDistanceResult got =
        BoundedBidirectionalDistance(GraphAdj{&g}, s, t, never, &fwd, &bwd);
    ASSERT_TRUE(got.completed);
    ASSERT_EQ(got.distance, want.distance) << s << " -> " << t;
    ASSERT_EQ(got.expanded, want.expanded) << s << " -> " << t;
    if (want.distance == UINT32_MAX) {
      EXPECT_EQ(got.lower_bound, UINT32_MAX);
      ++unreachable;
    } else {
      EXPECT_EQ(got.lower_bound, got.distance);
      ++reachable;
    }
  }
  EXPECT_GT(reachable, 100u);
  EXPECT_GT(unreachable, 10u);
}

// Adjacency that lets the deadline run out while level `cut` is being
// prepared, so the search stops at the next level's poll: a degraded
// answer after a fixed number of completed levels, whatever the host.
struct ExpiringAdj {
  GraphAdj inner;
  const util::Deadline* deadline;
  int cut;
  mutable int levels = 0;
  void PrepareLevel(std::span<const NodeId>, bool) const {
    if (++levels != cut) return;
    while (!deadline->Expired()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  template <typename Fn>
  void ForEachOut(NodeId u, Fn&& fn) const {
    inner.ForEachOut(u, fn);
  }
  template <typename Fn>
  void ForEachIn(NodeId u, Fn&& fn) const {
    inner.ForEachIn(u, fn);
  }
};

// The (lower_bound, expanded) pair of a degraded answer is part of the
// response bytes, so it is pinned: for an already-expired deadline and
// for one that runs out after four of the six levels a 42 -> 1908 search
// needs.
TEST(BoundedDistanceTest, DegradedBoundsArePinned) {
  const graph::DiGraph g = Network();
  graph::ScratchArena fwd(g.num_nodes()), bwd(g.num_nodes());
  const NodeId s = 42, t = 1908;
  const analysis::PairDistance full = analysis::BidirectionalDistance(g, s, t);
  ASSERT_EQ(full.distance, 6u);
  ASSERT_EQ(full.expanded, 19u);

  const BoundedDistanceResult expired = BoundedBidirectionalDistance(
      GraphAdj{&g}, s, t, util::Deadline::After(0), &fwd, &bwd);
  EXPECT_FALSE(expired.completed);
  EXPECT_EQ(expired.lower_bound, 1u);
  EXPECT_EQ(expired.expanded, 0u);

  const util::Deadline soon = util::Deadline::After(200000);
  const BoundedDistanceResult cut = BoundedBidirectionalDistance(
      ExpiringAdj{GraphAdj{&g}, &soon, 4}, s, t, soon, &fwd, &bwd);
  EXPECT_FALSE(cut.completed);
  EXPECT_EQ(cut.lower_bound, 5u);
  EXPECT_EQ(cut.expanded, 5u);
}

}  // namespace
}  // namespace graph
}  // namespace elitenet
