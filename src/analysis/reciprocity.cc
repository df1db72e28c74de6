#include "analysis/reciprocity.h"

#include "util/parallel.h"

namespace elitenet {
namespace analysis {

std::vector<uint32_t> MutualDegrees(const graph::DiGraph& g) {
  std::vector<uint32_t> mutual(g.num_nodes());
  util::ParallelFor(0, g.num_nodes(), 0, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const graph::NodeId u = static_cast<graph::NodeId>(i);
      // v is in both rows exactly when u->v and v->u both exist. The
      // merge steps by flags, not by a three-way branch on the order.
      const auto outs = g.OutNeighbors(u);
      const auto ins = g.InNeighbors(u);
      size_t a = 0, b = 0;
      uint32_t count = 0;
      while (a < outs.size() && b < ins.size()) {
        const graph::NodeId x = outs[a];
        const graph::NodeId y = ins[b];
        count += x == y;
        a += x <= y;
        b += y <= x;
      }
      mutual[i] = count;
    }
  });
  return mutual;
}

ReciprocityStats ReciprocityFromMutualDegrees(
    uint64_t num_edges, std::span<const uint32_t> mutual) {
  ReciprocityStats s;
  s.total_edges = num_edges;
  for (uint32_t m : mutual) s.reciprocated_edges += m;
  s.mutual_pairs = s.reciprocated_edges / 2;
  if (s.total_edges > 0) {
    s.rate = static_cast<double>(s.reciprocated_edges) /
             static_cast<double>(s.total_edges);
  }
  return s;
}

ReciprocityStats ComputeReciprocity(const graph::DiGraph& g) {
  return ReciprocityFromMutualDegrees(g.num_edges(), MutualDegrees(g));
}

}  // namespace analysis
}  // namespace elitenet
