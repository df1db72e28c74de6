// Pruned landmark labeling (2-hop hub labels) — an exact distance oracle
// for directed graphs, after Akiba, Iwata & Yoshida (SIGMOD'13).
//
// Every node carries two label sets: L_out(v) = {(h, d(v->h))} for hubs h
// reachable *from* v, and L_in(v) = {(h, d(h->v))} for hubs that reach v.
// The directed distance is then a sorted-merge intersection:
//
//   dist(s, t) = min over h in L_out(s) ∩ L_in(t) of d(s->h) + d(h->t)
//
// which is exact for *every* pair when the labels come from pruned BFS in
// a fixed total order over hubs: process nodes in degree-descending order
// (the RelabelByDegree order — biggest hubs first); for hub k run one
// forward and one reverse BFS, and at each visited node u at depth d,
// *prune* (add no label, expand no edge) whenever the first k-1 hubs
// already certify a distance <= d. On low-diameter skewed graphs — the
// verified-network shape — almost every BFS collapses after a handful of
// nodes, so total label size stays near-linear and a query is a
// microsecond merge instead of a graph traversal.
//
// Determinism: the label set is a pure function of (graph, hub order) —
// pruning consults only labels of earlier hubs, which are fixed for the
// whole BFS of hub k. The pruned BFSs run serially, one after another
// (only the final flatten into CSR arrays is parallel), so output is
// bit-identical at any thread count.
//
// The flat representation is CSR-shaped (offsets + two parallel entry
// arrays per direction). The serving stack no longer builds or reads the
// labeling — its dist query runs the bounded bidirectional search
// (graph/bounded_distance.h) — so it remains only as a library for the
// servebench layer rows that time its build and queries.

#ifndef ELITENET_GRAPH_HUB_LABELS_H_
#define ELITENET_GRAPH_HUB_LABELS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.h"
#include "util/status.h"

namespace elitenet {
namespace graph {

/// Label entries are stored split, not packed: a row is a run of u32 hub
/// ranks (rank 0 = biggest hub in the degree order) and a parallel run of
/// u8 BFS distances. Rows are sorted ascending by rank, so intersection
/// is a linear merge, and an entry costs 5 bytes instead of the 8 of a
/// packed (rank<<32)|dist word. The prune scan during construction reads
/// those same runs, so the narrower layout is also what makes it fast.
///
/// One byte holds every distance up to kMaxHubLabelDist. The short
/// diameter of the verified network keeps real labels far below that; a
/// graph that needs a deeper BFS gets no labeling at all (see
/// BuildHubLabels), never a truncated distance.
inline constexpr uint32_t kMaxHubLabelDist = 254;
/// "No label" in the dense per-root distance view the prune check reads.
inline constexpr uint8_t kHubDistInfinite = 255;

/// One direction of the flat labeling: row u is entries
/// [offsets[u], offsets[u+1]) of the parallel `ranks` and `dists` arrays.
struct HubLabelArrays {
  std::vector<EdgeIdx> offsets;  ///< n+1, or empty when not built
  std::vector<uint32_t> ranks;
  std::vector<uint8_t> dists;
};

/// A view of one node's row.
struct HubLabelRow {
  std::span<const uint32_t> ranks;
  std::span<const uint8_t> dists;
  size_t size() const { return ranks.size(); }
};

struct HubLabelOptions {
  /// Construction budget: abort (returning an unbuilt oracle) once the
  /// average label count per node per direction exceeds this. Guards the
  /// pathological shapes where pruning cannot win — dense long-diameter
  /// graphs drive total label size toward O(n^2) — so callers degrade to
  /// query-time BFS instead of stalling startup. The default clears the
  /// verified network at bench scale (measured ~486/543 avg out/in
  /// entries at 40k users) with headroom. (A long directed chain stops
  /// even earlier, at the kMaxHubLabelDist depth cap.) 0 disables the
  /// budget.
  uint32_t max_avg_label_entries = 768;
};

/// Aggregate label-size statistics (the bench/report surface).
struct HubLabelStats {
  uint64_t out_entries = 0;
  uint64_t in_entries = 0;
  uint32_t max_out_entries = 0;  ///< largest single L_out row
  uint32_t max_in_entries = 0;   ///< largest single L_in row
  double avg_out_entries = 0.0;
  double avg_in_entries = 0.0;
  uint64_t bytes = 0;  ///< flat arrays, offsets included
};

/// The flat 2-hop labeling. Default-constructed (or aborted) state is
/// "not built": empty() is true and Distance must not be called.
class HubLabels {
 public:
  /// Node count the labeling describes; 0 when not built.
  NodeId num_nodes() const {
    return out_.offsets.empty()
               ? 0
               : static_cast<NodeId>(out_.offsets.size() - 1);
  }
  bool empty() const { return out_.offsets.empty(); }

  /// Exact directed distance s -> t by label intersection;
  /// UINT32_MAX (graph::kInfiniteDistance) when t is unreachable from s.
  /// Requires a built labeling and in-range ids.
  uint32_t Distance(NodeId s, NodeId t) const;

  HubLabelStats Stats() const;

  HubLabelRow OutLabels(NodeId u) const { return Row(out_, u); }
  HubLabelRow InLabels(NodeId u) const { return Row(in_, u); }

  /// Raw arrays. Rows are indexed by *original* node id; entries carry
  /// hub ranks.
  const HubLabelArrays& out() const { return out_; }
  const HubLabelArrays& in() const { return in_; }

 private:
  friend HubLabels BuildHubLabels(const DiGraph& g,
                                  const HubLabelOptions& options);

  static HubLabelRow Row(const HubLabelArrays& a, NodeId u) {
    const size_t lo = a.offsets[u];
    const size_t len = a.offsets[u + 1] - lo;
    return {{a.ranks.data() + lo, len}, {a.dists.data() + lo, len}};
  }

  HubLabelArrays out_;  ///< L_out rows
  HubLabelArrays in_;   ///< L_in rows
};

/// Builds the pruned labeling. Returns an empty (unbuilt) HubLabels when
/// the construction budget is exceeded, or when some pruned BFS would
/// label a node deeper than kMaxHubLabelDist — never a partial labeling.
/// Bit-identical output at any util::ThreadCount().
HubLabels BuildHubLabels(const DiGraph& g,
                         const HubLabelOptions& options = {});

/// Structural invariants of a labeling: offsets are monotone and sized
/// n+1, the rank and distance arrays both have offsets[n] entries, hub
/// ranks are < n, distances are < n and at most kMaxHubLabelDist, and
/// every row is strictly ascending by hub rank. An empty labeling (all
/// six arrays empty) is valid — it means "oracle not built".
Status ValidateHubLabels(const HubLabels& labels, NodeId expected_nodes);

}  // namespace graph
}  // namespace elitenet

#endif  // ELITENET_GRAPH_HUB_LABELS_H_
