// Deadline-aware bounded bidirectional search: the one expansion behind
// every point-to-point distance in the library — the analysis kernel
// (analysis::BidirectionalDistance, a wrapper with a deadline that never
// expires) and the serving BFS fallback, which the query engine and every
// router shard run through the same compute unit.
//
// Advance the smaller frontier, finish the level, take the best meeting,
// with one deadline poll per level. The adjacency is a template
// parameter so one definition serves two backings:
//
//   * a static DiGraph (GraphAdj below) — the engine's graph, or the
//     router's shared base graph,
//   * a live MVCC snapshot (serve/compute.cc SnapAdj).
//
// Both iterate a node's neighbors in ascending id order, so the expansion
// order — and therefore the bytes of a completed answer and the
// (lower_bound, expanded) pair of a degraded one — is identical across
// backings. There is no second BFS to drift.
//
// PrepareLevel(frontier, forward) is the per-level seam: a no-op for both
// backings, it is where a backing may act once before a level expands
// (tests use it to run a deadline out at a fixed level).

#ifndef ELITENET_GRAPH_BOUNDED_DISTANCE_H_
#define ELITENET_GRAPH_BOUNDED_DISTANCE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>

#include "graph/digraph.h"
#include "graph/frontier.h"
#include "util/deadline.h"

namespace elitenet {
namespace graph {

struct BoundedDistanceResult {
  uint32_t distance = UINT32_MAX;
  /// Proven minimum for the true distance: completed levels with no
  /// meeting push it up; UINT32_MAX once unreachability is proven.
  uint32_t lower_bound = 0;
  uint64_t expanded = 0;
  /// False when the deadline expired first (distance is then unknown).
  bool completed = true;
};

/// The in-memory DiGraph backing (the live snapshot's is in
/// serve/compute.cc).
struct GraphAdj {
  const DiGraph* g;
  void PrepareLevel(std::span<const NodeId>, bool) const {}
  template <typename Fn>
  void ForEachOut(NodeId u, Fn&& fn) const {
    for (NodeId v : g->OutNeighbors(u)) fn(v);
  }
  template <typename Fn>
  void ForEachIn(NodeId u, Fn&& fn) const {
    for (NodeId v : g->InNeighbors(u)) fn(v);
  }
};

/// Adjacency contract: ForEachOut/ForEachIn visit neighbors in ascending
/// id order; PrepareLevel(frontier, forward) is called once before a
/// level expands (a no-op for both serving backings).
///
/// The per-edge loop has no branch on whether a head is new: the head is
/// marked (ScratchArena::Mark), stored at the level queue's end, and the
/// end advances by the fresh flag. A pass over the new level's fresh
/// nodes then writes their depth and looks for a meeting, whose branch
/// is rarely taken: a meeting ends the search after this level. Parents
/// are not recorded: nothing reads them.
template <typename Adj>
BoundedDistanceResult BoundedBidirectionalDistance(
    const Adj& g, NodeId source, NodeId target,
    const util::Deadline& deadline, ScratchArena* fwd, ScratchArena* bwd) {
  BoundedDistanceResult out;
  if (source == target) {
    out.distance = 0;
    return out;
  }
  out.lower_bound = 1;

  // One side of the search: its arena, its current level (`size` nodes
  // from `frontier`), the queue the next level fills, and its depth.
  struct Side {
    ScratchArena* arena;
    NodeId* frontier;
    NodeId* next;
    size_t size;
    uint32_t depth;
  };
  const auto start = [](ScratchArena* a, NodeId root) {
    a->BeginEpoch();
    a->Mark(root);
    a->SetDistance(root, 0);
    Side side{a, a->level_queue(0), a->level_queue(1), 1, 0};
    side.frontier[0] = root;
    return side;
  };
  Side fs = start(fwd, source);
  Side bs = start(bwd, target);

  constexpr uint32_t kUnset = UINT32_MAX;
  while (fs.size > 0 && bs.size > 0) {
    if (deadline.Expired()) {
      out.completed = false;
      return out;
    }
    const bool forward = fs.size <= bs.size;
    Side& side = forward ? fs : bs;
    const ScratchArena& other = *(forward ? bs : fs).arena;
    const std::span<const NodeId> level(side.frontier, side.size);
    g.PrepareLevel(level, forward);
    ScratchArena& a = *side.arena;
    const uint32_t depth = ++side.depth;
    NodeId* next = side.next;
    size_t k = 0;
    const auto visit = [&](NodeId v) {
      next[k] = v;
      k += a.Mark(v);
    };
    out.expanded += level.size();
    if (forward) {
      for (NodeId u : level) g.ForEachOut(u, visit);
    } else {
      for (NodeId u : level) g.ForEachIn(u, visit);
    }
    // The new level holds each fresh node once: stamp its depth and look
    // for a meeting with the other side.
    uint32_t best = kUnset;
    for (size_t i = 0; i < k; ++i) {
      const NodeId v = next[i];
      a.SetDistance(v, depth);
      if (other.Visited(v)) best = std::min(best, depth + other.Distance(v));
    }
    std::swap(side.frontier, side.next);
    side.size = k;
    if (best != kUnset) {
      out.distance = best;
      out.lower_bound = best;
      return out;
    }
    // Both levels complete with no meeting: any s->t path is longer than
    // everything explored from either side.
    out.lower_bound = fs.depth + bs.depth + 1;
  }
  out.lower_bound = kUnset;  // exhausted a side: provably unreachable
  return out;
}

}  // namespace graph
}  // namespace elitenet

#endif  // ELITENET_GRAPH_BOUNDED_DISTANCE_H_
