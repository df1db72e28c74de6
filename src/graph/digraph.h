// Immutable directed graph in compressed sparse row (CSR) form.
//
// DiGraph stores both the forward adjacency (out-neighbors) and the reverse
// adjacency (in-neighbors), each as a CSR pair of (offsets, targets). Node
// ids are dense 32-bit integers [0, num_nodes). Edge counts use 64 bits:
// the paper-scale graph has 79,213,811 edges and the design leaves headroom.
//
// Storage model: the four CSR arrays are immutable views (std::span) into
// a refcounted backing block. The block is either heap vectors (the
// GraphBuilder path) or externally owned memory such as a read-only file
// mapping (graph/io.h MapBinary over util/mmap_file.h) — every kernel in
// analysis/ runs unchanged on either. Because the storage never mutates,
// copies, Transpose(), and pass-by-value are O(1) pointer shares, not
// O(m) array copies.
//
// Construction goes through GraphBuilder (graph/builder.h), which sorts and
// deduplicates; every algorithm in analysis/ takes `const DiGraph&`.

#ifndef ELITENET_GRAPH_DIGRAPH_H_
#define ELITENET_GRAPH_DIGRAPH_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "util/check.h"

namespace elitenet {
namespace graph {

using NodeId = uint32_t;
using EdgeIdx = uint64_t;

/// An immutable directed graph with O(1) out- and in-neighbor access.
class DiGraph {
 public:
  /// Empty graph with zero nodes.
  DiGraph();

  /// Takes ownership of prebuilt CSR arrays. `out_offsets` must have
  /// num_nodes+1 entries, be non-decreasing, start at 0 and end at
  /// out_targets.size(); neighbor lists must be sorted ascending and
  /// duplicate-free. Same for the reverse CSR, which must describe the
  /// exact transpose edge multiset. GraphBuilder guarantees all of this.
  DiGraph(std::vector<EdgeIdx> out_offsets, std::vector<NodeId> out_targets,
          std::vector<EdgeIdx> in_offsets, std::vector<NodeId> in_targets);

  /// Borrowed-storage mode: views over memory owned elsewhere (typically
  /// a read-only mmap of an ENG2 snapshot). `keepalive` is retained for
  /// the graph's lifetime — and the lifetime of every copy — so the
  /// views can never dangle. The caller must have validated the same CSR
  /// invariants the owning constructor documents. `checksum`, when
  /// given, is graph::GraphChecksum of these exact spans, already
  /// verified against their bytes (MapBinary passes the chain it checked
  /// while mapping); the graph carries it so GraphChecksum is O(1).
  static DiGraph FromBorrowed(std::span<const EdgeIdx> out_offsets,
                              std::span<const NodeId> out_targets,
                              std::span<const EdgeIdx> in_offsets,
                              std::span<const NodeId> in_targets,
                              std::shared_ptr<const void> keepalive,
                              std::optional<uint64_t> checksum);

  /// Copies share the immutable backing block: O(1).
  DiGraph(const DiGraph&) = default;
  DiGraph& operator=(const DiGraph&) = default;
  /// Moved-from graphs reset to the empty state (valid, zero nodes).
  DiGraph(DiGraph&& other) noexcept;
  DiGraph& operator=(DiGraph&& other) noexcept;

  NodeId num_nodes() const {
    return static_cast<NodeId>(out_offsets_.size() - 1);
  }
  EdgeIdx num_edges() const { return out_targets_.size(); }

  /// Out-neighbors of `u`, sorted ascending.
  std::span<const NodeId> OutNeighbors(NodeId u) const {
    EN_CHECK(u < num_nodes());
    return {out_targets_.data() + out_offsets_[u],
            out_targets_.data() + out_offsets_[u + 1]};
  }

  /// In-neighbors of `u`, sorted ascending.
  std::span<const NodeId> InNeighbors(NodeId u) const {
    EN_CHECK(u < num_nodes());
    return {in_targets_.data() + in_offsets_[u],
            in_targets_.data() + in_offsets_[u + 1]};
  }

  uint32_t OutDegree(NodeId u) const {
    EN_CHECK(u < num_nodes());
    return static_cast<uint32_t>(out_offsets_[u + 1] - out_offsets_[u]);
  }

  uint32_t InDegree(NodeId u) const {
    EN_CHECK(u < num_nodes());
    return static_cast<uint32_t>(in_offsets_[u + 1] - in_offsets_[u]);
  }

  /// True iff edge u->v exists. Degree-adaptive: linear scan of the sorted
  /// row below kHasEdgeLinearThreshold neighbors (branch-predictable, no
  /// pivot arithmetic), binary search above.
  bool HasEdge(NodeId u, NodeId v) const;

  /// Row length below which HasEdge scans linearly instead of bisecting.
  static constexpr uint32_t kHasEdgeLinearThreshold = 8;

  /// Edge density m / (n * (n-1)); 0 for graphs with fewer than 2 nodes.
  double Density() const;

  /// Nodes with neither in- nor out-edges.
  uint64_t CountIsolated() const;

  /// Raw CSR access, for serialization and tight algorithm loops.
  std::span<const EdgeIdx> out_offsets() const { return out_offsets_; }
  std::span<const NodeId> out_targets() const { return out_targets_; }
  std::span<const EdgeIdx> in_offsets() const { return in_offsets_; }
  std::span<const NodeId> in_targets() const { return in_targets_; }

  /// True when the CSR views point into externally owned memory (a file
  /// mapping) rather than heap vectors built by this process.
  bool borrows_storage() const { return borrowed_; }

  /// The whole-graph checksum handed to FromBorrowed, if any. Copies and
  /// moves keep it; the owning constructor, Transpose() (whose halves
  /// are swapped, so its bytes hash differently) and a moved-from graph
  /// have none. Read it through graph::GraphChecksum.
  std::optional<uint64_t> carried_checksum() const { return checksum_; }

  /// Returns the transpose graph (every edge reversed). O(1): shares the
  /// backing block with the two CSR halves swapped.
  DiGraph Transpose() const;

  /// Relabels nodes in descending total-degree (out + in) order, ties
  /// broken by ascending original id. On skewed graphs this packs the hubs
  /// — the rows traversals touch most — into the front of the CSR arrays
  /// for cache locality. See DegreeRelabeling for mapping results back.
  struct DegreeRelabeling RelabelByDegree() const;

  /// Structural equality (same node count and identical edge sets).
  bool operator==(const DiGraph& other) const;

 private:
  struct VectorStorage;  // heap backing for the owning constructor

  std::span<const EdgeIdx> out_offsets_;
  std::span<const NodeId> out_targets_;
  std::span<const EdgeIdx> in_offsets_;
  std::span<const NodeId> in_targets_;
  /// Keeps the viewed memory alive: a VectorStorage block, a file
  /// mapping, or (for the empty graph) nothing.
  std::shared_ptr<const void> keepalive_;
  bool borrowed_ = false;
  std::optional<uint64_t> checksum_;
};

/// A degree-ordered relabeling of a DiGraph: the permuted graph plus both
/// directions of the id mapping. Results computed on `graph` map back to
/// original ids via new_to_old (and sources map in via old_to_new);
/// permutation-invariant aggregates (distance histograms, component sizes,
/// coreness multisets) need no mapping at all.
struct DegreeRelabeling {
  DiGraph graph;
  /// new id -> original id (the sort order).
  std::vector<NodeId> new_to_old;
  /// original id -> new id (the inverse permutation).
  std::vector<NodeId> old_to_new;
};

}  // namespace graph
}  // namespace elitenet

#endif  // ELITENET_GRAPH_DIGRAPH_H_
