// Direction-optimizing traversal kernels (Beamer, Asanović & Patterson,
// SC'12) over the CSR DiGraph, plus the flat undirected-adjacency helper
// the peeling kernels use.
//
// A classic top-down BFS scans every out-edge of the frontier. On
// low-diameter skewed graphs — exactly the shape of the verified-user
// network (mean separation 2.74, power-law degrees) — the middle levels
// hold most of the graph, and it is far cheaper to flip direction: iterate
// the *unvisited* nodes (a bitmap) and probe their in-edges until any
// predecessor in the current frontier is found, short-circuiting the rest
// of the row. The kernel switches per level with the standard edge-count
// heuristics:
//
//   top-down -> bottom-up  when  frontier_out_degree > unvisited_degree/alpha
//   bottom-up -> top-down  when  |frontier| < n / beta
//
// Determinism: distances are level-exact and therefore identical in every
// mode, and so are the level sets and the visited count. Visit order, when
// collected, is canonicalized to ascending id within each level, so
// {classic, direction-optimizing, forced bottom-up} agree on it too. No
// BFS tree is recorded: nothing reads one. Each traversal runs on one
// thread against one ScratchArena; callers parallelize across sources
// with per-block arenas.

#ifndef ELITENET_GRAPH_TRAVERSAL_H_
#define ELITENET_GRAPH_TRAVERSAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/digraph.h"
#include "graph/frontier.h"

namespace elitenet {
namespace graph {

/// Sentinel distance for unreached nodes (matches analysis::kUnreachable).
inline constexpr uint32_t kInfiniteDistance = UINT32_MAX;

enum class BfsMode : uint8_t {
  /// Classic top-down queue BFS at every level (the reference baseline).
  kClassic,
  /// Beamer-style per-level direction switching (the default).
  kDirectionOptimizing,
  /// Bottom-up at every level after the source (test/bench hook).
  kBottomUp,
};

/// Which edge set defines a traversal step u -> v.
enum class TraversalDirection : uint8_t {
  kForward,     ///< out-edges (successors = OutNeighbors)
  kReverse,     ///< in-edges (successors = InNeighbors)
  kUndirected,  ///< both (successors = OutNeighbors ∪ InNeighbors)
};

struct BfsOptions {
  BfsMode mode = BfsMode::kDirectionOptimizing;
  TraversalDirection direction = TraversalDirection::kForward;

  /// When non-null, visited nodes are *appended* level by level, ascending
  /// id within each level (the canonical order Brandes consumes).
  std::vector<NodeId>* visit_order = nullptr;

  /// When false the kernel does not call arena->BeginEpoch(): nodes already
  /// visited in the caller's epoch act as walls, letting multi-root sweeps
  /// (WCC) share one epoch. The caller must have called BeginEpoch itself.
  bool fresh_epoch = true;

  /// In/out running total of successor-side degree over unvisited nodes,
  /// for multi-root sweeps that would otherwise recompute it per root.
  /// When null the kernel derives the initial value from the graph.
  uint64_t* remaining_degree = nullptr;

  /// Beamer switching parameters (SC'12 defaults).
  double alpha = 14.0;
  double beta = 24.0;
  /// Never go bottom-up from a frontier smaller than this: tiny frontiers
  /// (small components, chain graphs) would pay the O(n/64) bitmap sweeps
  /// without amortizing them.
  uint32_t min_bottom_up_frontier = 128;
};

struct BfsStats {
  uint32_t levels = 0;             ///< BFS depth reached (last non-empty level).
  uint64_t nodes_visited = 0;      ///< includes the source
  uint64_t edges_scanned = 0;      ///< edge probes actually performed
  uint32_t direction_switches = 0; ///< top-down <-> bottom-up flips
  uint32_t bottom_up_levels = 0;
};

/// Single-source BFS from `source`. Results (visited/dist) live in
/// `arena` until its next BeginEpoch/Reset; read them with
/// arena->DistanceOr(v, kInfiniteDistance) etc. The arena must be sized
/// for `g` (arena->num_nodes() == g.num_nodes()).
BfsStats Bfs(const DiGraph& g, NodeId source, ScratchArena* arena,
             const BfsOptions& options = {});

/// Flat undirected adjacency (out ∪ in, deduplicated, sorted per row) in
/// CSR form — one contiguous target array instead of n heap vectors, built
/// in parallel. The k-core peel and other undirected kernels scan this.
struct UndirectedCsr {
  std::vector<EdgeIdx> offsets;  ///< size n+1
  std::vector<NodeId> targets;

  NodeId num_nodes() const {
    return static_cast<NodeId>(offsets.empty() ? 0 : offsets.size() - 1);
  }
  uint32_t Degree(NodeId u) const {
    return static_cast<uint32_t>(offsets[u + 1] - offsets[u]);
  }
  std::span<const NodeId> Neighbors(NodeId u) const {
    return {targets.data() + offsets[u], targets.data() + offsets[u + 1]};
  }
};

UndirectedCsr BuildUndirectedCsr(const DiGraph& g);

}  // namespace graph
}  // namespace elitenet

#endif  // ELITENET_GRAPH_TRAVERSAL_H_
