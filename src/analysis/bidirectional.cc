#include "analysis/bidirectional.h"

#include <vector>

#include "graph/bounded_distance.h"
#include "util/check.h"
#include "util/deadline.h"

namespace elitenet {
namespace analysis {

using graph::DiGraph;
using graph::NodeId;

// The serving kernel (graph/bounded_distance.h) with a deadline that
// never expires: the same expansion, so the same distance and `expanded`.
PairDistance BidirectionalDistance(const DiGraph& g, NodeId source,
                                   NodeId target,
                                   graph::ScratchArena* fwd,
                                   graph::ScratchArena* bwd) {
  EN_CHECK(source < g.num_nodes());
  EN_CHECK(target < g.num_nodes());
  EN_CHECK(fwd != nullptr && bwd != nullptr);
  EN_CHECK(fwd->num_nodes() == g.num_nodes());
  EN_CHECK(bwd->num_nodes() == g.num_nodes());
  const graph::BoundedDistanceResult d = graph::BoundedBidirectionalDistance(
      graph::GraphAdj{&g}, source, target, util::Deadline::Infinite(), fwd,
      bwd);
  return {d.distance, d.expanded};
}

PairDistance BidirectionalDistance(const DiGraph& g, NodeId source,
                                   NodeId target) {
  graph::ScratchArena fwd(g.num_nodes());
  graph::ScratchArena bwd(g.num_nodes());
  return BidirectionalDistance(g, source, target, &fwd, &bwd);
}

PairSampleResult SamplePairDistances(const DiGraph& g, uint32_t pairs,
                                     util::Rng* rng) {
  EN_CHECK(rng != nullptr);
  PairSampleResult out;
  std::vector<NodeId> candidates;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.OutDegree(u) + g.InDegree(u) > 0) candidates.push_back(u);
  }
  if (candidates.size() < 2) return out;

  // Two arenas for the whole sweep: each pair recycles the stamped
  // buffers with an O(1) epoch bump instead of two O(n) allocations.
  graph::ScratchArena fwd(g.num_nodes());
  graph::ScratchArena bwd(g.num_nodes());
  double dist_sum = 0.0, expanded_sum = 0.0;
  for (uint32_t i = 0; i < pairs; ++i) {
    const NodeId s = candidates[rng->UniformU64(candidates.size())];
    NodeId t;
    do {
      t = candidates[rng->UniformU64(candidates.size())];
    } while (t == s);
    const PairDistance d = BidirectionalDistance(g, s, t, &fwd, &bwd);
    expanded_sum += static_cast<double>(d.expanded);
    if (d.distance == UINT32_MAX) {
      ++out.unreachable_pairs;
    } else {
      ++out.reachable_pairs;
      dist_sum += d.distance;
    }
  }
  if (out.reachable_pairs > 0) {
    out.mean_distance = dist_sum / static_cast<double>(out.reachable_pairs);
  }
  if (pairs > 0) {
    out.mean_expanded = expanded_sum / static_cast<double>(pairs);
  }
  return out;
}

}  // namespace analysis
}  // namespace elitenet
