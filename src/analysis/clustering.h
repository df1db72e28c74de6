// Local clustering coefficients on the undirected projection of the
// follow graph (Section IV-A reports an average of 0.1583).

#ifndef ELITENET_ANALYSIS_CLUSTERING_H_
#define ELITENET_ANALYSIS_CLUSTERING_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/digraph.h"
#include "util/rng.h"

namespace elitenet {
namespace analysis {

struct ClusteringStats {
  /// Average of local coefficients over nodes with undirected degree >= 2.
  double average_local = 0.0;
  /// Global transitivity: 3 * triangles / connected triples.
  double transitivity = 0.0;
  uint64_t nodes_evaluated = 0;
  uint64_t triangles = 0;  ///< total closed-triple count / not deduplicated
};

/// Exact computation over a loop-free graph: every linked neighbour pair is
/// counted once, from its endpoint of lower (total degree, id), so the
/// work is O(m·√m) and memory O(n + m).
ClusteringStats ComputeClustering(const graph::DiGraph& g);

/// Approximates the average local coefficient by evaluating `samples`
/// uniformly random nodes of undirected degree >= 2 (exact per node).
/// Falls back to the exact value when the graph has fewer eligible nodes.
/// Beyond the eligible-node list, the kernel needs a 1.5-bit-per-node
/// bitmap plus oriented rows over the sampled nodes' neighbours only, so
/// it stays small when samples << n.
ClusteringStats ComputeClusteringSampled(const graph::DiGraph& g,
                                         uint32_t samples, util::Rng* rng);

/// Undirected neighborhood of u (out ∪ in, deduplicated, sorted).
std::vector<graph::NodeId> UndirectedNeighbors(const graph::DiGraph& g,
                                               graph::NodeId u);

}  // namespace analysis
}  // namespace elitenet

#endif  // ELITENET_ANALYSIS_CLUSTERING_H_
