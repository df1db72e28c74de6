// Frontier data structures for the traversal kernels (graph/traversal.h):
// a word-addressed bitmap over node ids, epoch-stamped VisitMarks, and the
// ScratchArena built on them that owns every per-traversal buffer
// (visited stamps, distances, sparse frontier queues, fixed-size level
// queues, dense frontier bitmaps).
//
// The arena exists so hot loops stop reallocating O(n) std::vector scratch
// per BFS source: buffers are sized once per graph and recycled across
// traversals. "Cleared" state is represented by an epoch counter instead of
// a memset — BeginEpoch bumps the counter, instantly invalidating every
// visited/dist entry stamped in earlier epochs (a full wipe happens
// only on 32-bit epoch wraparound, once every ~4 billion traversals).
//
// Arenas are strictly single-threaded: parallel sweeps give each worker
// block its own arena (see analysis/distance.cc), which is also what keeps
// the bottom-up bitmap writes TSan-clean — no bitmap is ever shared.

#ifndef ELITENET_GRAPH_FRONTIER_H_
#define ELITENET_GRAPH_FRONTIER_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/digraph.h"
#include "util/check.h"

namespace elitenet {
namespace graph {

/// Fixed-capacity bitset over node ids, stored as 64-bit words so dense
/// frontier sweeps can skip 64 unset nodes per load.
class NodeBitmap {
 public:
  NodeBitmap() = default;
  explicit NodeBitmap(size_t num_bits) { Resize(num_bits); }

  /// Resizes to `num_bits` bits, clearing everything.
  void Resize(size_t num_bits) {
    num_bits_ = num_bits;
    words_.assign((num_bits + 63) / 64, 0);
  }

  size_t num_bits() const { return num_bits_; }

  void ClearAll() { std::fill(words_.begin(), words_.end(), uint64_t{0}); }

  bool Test(NodeId v) const {
    return (words_[v >> 6] >> (v & 63)) & uint64_t{1};
  }
  void Set(NodeId v) { words_[v >> 6] |= uint64_t{1} << (v & 63); }
  void Clear(NodeId v) { words_[v >> 6] &= ~(uint64_t{1} << (v & 63)); }

  /// Raw word access for word-at-a-time iteration over set bits.
  const std::vector<uint64_t>& words() const { return words_; }

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

/// Epoch-stamped visit marks, 4 bytes per node: the part of a traversal's
/// scratch that the ego walk needs (serve::TwoHopReach), and the base of
/// ScratchArena. BeginEpoch() invalidates every mark in O(1); the stamps
/// are rewiped only on 32-bit epoch wraparound.
class VisitMarks {
 public:
  VisitMarks() = default;
  explicit VisitMarks(NodeId num_nodes) { Reset(num_nodes); }

  /// Sizes the stamps for `num_nodes` and wipes them. Stamps hold 0
  /// ("never visited") and the epoch starts at 1, so every node reads
  /// unvisited even before the first BeginEpoch.
  void Reset(NodeId num_nodes) {
    num_nodes_ = num_nodes;
    epoch_ = 1;
    stamp_.assign(num_nodes, 0);
  }

  NodeId num_nodes() const { return num_nodes_; }

  /// Starts a new traversal: O(1) except on 32-bit epoch wraparound,
  /// where the stamps are rewiped.
  void BeginEpoch() {
    if (epoch_ == UINT32_MAX) {
      std::fill(stamp_.begin(), stamp_.end(), uint32_t{0});
      epoch_ = 0;
    }
    ++epoch_;
  }

  /// Number of BeginEpoch calls since the last wipe (test hook).
  uint32_t epoch() const { return epoch_; }

  bool Visited(NodeId v) const { return stamp_[v] == epoch_; }

  /// Marks `v` visited in the current epoch and returns whether it was
  /// unvisited before, with no branch: a compare, a store and a flag the
  /// caller adds or masks with (`reach += Mark(w)`). Serving traversals
  /// mark every edge's head this way, because a per-edge
  /// `if (!Visited(w))` is taken about half the time on power-law graphs
  /// and mispredicts as often.
  bool Mark(NodeId v) {
    const bool fresh = stamp_[v] != epoch_;
    stamp_[v] = epoch_;
    return fresh;
  }

 private:
  NodeId num_nodes_ = 0;
  uint32_t epoch_ = 0;
  std::vector<uint32_t> stamp_;
};

/// Reusable single-threaded scratch for graph traversals. All state a BFS
/// needs — visited marks, distances, sparse queues, dense bitmaps — lives
/// here and survives across sources, so the per-source setup cost
/// is one epoch bump instead of several O(n) allocations.
///
/// Lifetime rules:
///   * Reset(n) sizes the arena for an n-node graph (full wipe).
///   * BeginEpoch() starts a new traversal; every Visited/Distance fact
///     recorded before it reads as "unvisited" afterwards.
///   * Results of the *latest* traversal stay readable until the next
///     BeginEpoch (or Reset), which is how callers consume BFS output
///     without materializing a dist vector.
///   * Mark (VisitMarks) records a visit without a distance.
class ScratchArena : public VisitMarks {
 public:
  ScratchArena() = default;
  explicit ScratchArena(NodeId num_nodes) { Reset(num_nodes); }

  /// Sizes every buffer for `num_nodes` and wipes all recorded state.
  void Reset(NodeId num_nodes) {
    VisitMarks::Reset(num_nodes);
    dist_.resize(num_nodes);
    frontier_.clear();
    next_.clear();
    level_queues_[0].reset();
    level_queues_[1].reset();
    frontier_bits_.Resize(num_nodes);
    next_bits_.Resize(num_nodes);
    unvisited_bits_.Resize(num_nodes);
  }

  /// Marks `v` visited in the current epoch at `dist`.
  void Visit(NodeId v, uint32_t dist) {
    Mark(v);
    dist_[v] = dist;
  }

  /// Distance of a visited node (unchecked: caller guarantees Visited).
  uint32_t Distance(NodeId v) const { return dist_[v]; }
  uint32_t DistanceOr(NodeId v, uint32_t fallback) const {
    return Visited(v) ? dist_[v] : fallback;
  }

  void SetDistance(NodeId v, uint32_t d) { dist_[v] = d; }

  /// Sparse frontier queues (current level / next level).
  std::vector<NodeId>& frontier() { return frontier_; }
  std::vector<NodeId>& next() { return next_; }

  /// Two num_nodes-slot level queues (`which` is 0 or 1) for kernels that
  /// store every edge's head and advance by the Mark flag (`q[k] = v;
  /// k += fresh`): a level adds each node at most once, so num_nodes
  /// slots always suffice and the append needs no capacity check.
  /// Allocated on first use and never zero-filled, so only the pages a
  /// level reaches become resident.
  NodeId* level_queue(int which) {
    std::unique_ptr<NodeId[]>& q = level_queues_[which];
    if (q == nullptr) q.reset(new NodeId[num_nodes()]);
    return q.get();
  }

  /// Dense frontier bitmaps for bottom-up levels, plus the bitmap of
  /// still-unvisited nodes the bottom-up sweep iterates.
  NodeBitmap& frontier_bits() { return frontier_bits_; }
  NodeBitmap& next_bits() { return next_bits_; }
  NodeBitmap& unvisited_bits() { return unvisited_bits_; }

 private:
  std::vector<uint32_t> dist_;
  std::vector<NodeId> frontier_;
  std::vector<NodeId> next_;
  std::unique_ptr<NodeId[]> level_queues_[2];
  NodeBitmap frontier_bits_;
  NodeBitmap next_bits_;
  NodeBitmap unvisited_bits_;
};

/// Number of set bits.
uint64_t CountSetBits(const NodeBitmap& bits);

/// Appends every set bit's index to `out` in ascending order (clears `out`
/// first).
void ExtractSetBits(const NodeBitmap& bits, std::vector<NodeId>* out);

}  // namespace graph
}  // namespace elitenet

#endif  // ELITENET_GRAPH_FRONTIER_H_
