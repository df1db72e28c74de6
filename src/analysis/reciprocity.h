// Link reciprocity (Section IV-C): fraction of directed edges whose
// reverse edge also exists. Paper: 33.7% for verified users vs 22.1% for
// the whole Twitter graph (Kwak et al.) and 68% for Flickr.

#ifndef ELITENET_ANALYSIS_RECIPROCITY_H_
#define ELITENET_ANALYSIS_RECIPROCITY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.h"

namespace elitenet {
namespace analysis {

struct ReciprocityStats {
  uint64_t total_edges = 0;
  /// Edges u->v for which v->u also exists (each direction counted).
  uint64_t reciprocated_edges = 0;
  /// Unordered node pairs with edges both ways.
  uint64_t mutual_pairs = 0;
  /// reciprocated_edges / total_edges; 0 for empty graphs.
  double rate = 0.0;
};

/// Per-node count of reciprocated out-edges, |out(u) ∩ in(u)|: one sorted
/// merge of the two rows per node, O(m) in all, with no per-edge
/// containment probe. Parallel over nodes; the same array at any thread
/// count.
std::vector<uint32_t> MutualDegrees(const graph::DiGraph& g);

/// The stats of a graph with `num_edges` edges whose MutualDegrees are
/// `mutual`: reciprocated_edges is their sum.
ReciprocityStats ReciprocityFromMutualDegrees(
    uint64_t num_edges, std::span<const uint32_t> mutual);

/// ReciprocityFromMutualDegrees over MutualDegrees(g).
ReciprocityStats ComputeReciprocity(const graph::DiGraph& g);

}  // namespace analysis
}  // namespace elitenet

#endif  // ELITENET_ANALYSIS_RECIPROCITY_H_
