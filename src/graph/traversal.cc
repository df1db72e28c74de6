#include "graph/traversal.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/check.h"
#include "util/metrics.h"
#include "util/parallel.h"

namespace elitenet {
namespace graph {
namespace {

// Edge-set adapters. Each direction supplies the successor iteration used
// by top-down levels, the predecessor probe used by bottom-up levels, and
// the successor-degree bookkeeping behind the Beamer switch heuristic.
// A bottom-up probe (ProbeRow) answers only whether some predecessor is
// in the frontier: it stops at the first hit and returns how many edges
// it read.
std::pair<bool, uint64_t> ProbeRow(std::span<const NodeId> row,
                                   const NodeBitmap& frontier) {
  for (size_t i = 0; i < row.size(); ++i) {
    if (frontier.Test(row[i])) return {true, i + 1};
  }
  return {false, row.size()};
}

struct ForwardAdj {
  const DiGraph& g;
  uint64_t TotalDegree() const { return g.num_edges(); }
  uint64_t SuccDegree(NodeId u) const { return g.OutDegree(u); }
  template <typename Fn>
  void ForEachSucc(NodeId u, Fn&& fn) const {
    for (NodeId v : g.OutNeighbors(u)) fn(v);
  }
  std::pair<bool, uint64_t> FindFrontierPred(
      NodeId v, const NodeBitmap& frontier) const {
    return ProbeRow(g.InNeighbors(v), frontier);
  }
};

struct ReverseAdj {
  const DiGraph& g;
  uint64_t TotalDegree() const { return g.num_edges(); }
  uint64_t SuccDegree(NodeId u) const { return g.InDegree(u); }
  template <typename Fn>
  void ForEachSucc(NodeId u, Fn&& fn) const {
    for (NodeId v : g.InNeighbors(u)) fn(v);
  }
  std::pair<bool, uint64_t> FindFrontierPred(
      NodeId v, const NodeBitmap& frontier) const {
    return ProbeRow(g.OutNeighbors(v), frontier);
  }
};

struct UndirectedAdj {
  const DiGraph& g;
  uint64_t TotalDegree() const { return 2 * g.num_edges(); }
  uint64_t SuccDegree(NodeId u) const {
    return static_cast<uint64_t>(g.OutDegree(u)) + g.InDegree(u);
  }
  template <typename Fn>
  void ForEachSucc(NodeId u, Fn&& fn) const {
    for (NodeId v : g.OutNeighbors(u)) fn(v);
    for (NodeId v : g.InNeighbors(u)) fn(v);
  }
  // The out-row first, then the in-row, stopping at the first hit.
  std::pair<bool, uint64_t> FindFrontierPred(
      NodeId v, const NodeBitmap& frontier) const {
    const auto [found, probes] = ProbeRow(g.OutNeighbors(v), frontier);
    if (found) return {true, probes};
    const auto [in_found, in_probes] = ProbeRow(g.InNeighbors(v), frontier);
    return {in_found, probes + in_probes};
  }
};

template <typename Adj>
BfsStats BfsImpl(const DiGraph& g, NodeId source, ScratchArena* arena,
                 const BfsOptions& opt, const Adj& adj) {
  BfsStats stats;
  const NodeId n = g.num_nodes();
  if (opt.fresh_epoch) arena->BeginEpoch();
  EN_CHECK_MSG(!arena->Visited(source), "BFS source already visited");

  uint64_t remaining = opt.remaining_degree != nullptr
                           ? *opt.remaining_degree
                           : adj.TotalDegree();

  std::vector<NodeId>& frontier = arena->frontier();
  std::vector<NodeId>& next = arena->next();
  frontier.clear();
  next.clear();

  arena->Visit(source, 0);
  frontier.push_back(source);
  stats.nodes_visited = 1;
  if (opt.visit_order != nullptr) opt.visit_order->push_back(source);
  uint64_t frontier_degree = adj.SuccDegree(source);
  remaining -= frontier_degree;

  bool bottom_up = false;
  bool frontier_bits_valid = false;
  bool unvisited_bits_valid = false;
  uint32_t level = 0;

  while (!frontier.empty()) {
    ++level;

    // Per-level direction decision (Beamer heuristics). Inputs — frontier
    // size, frontier successor degree, remaining unvisited degree — are
    // functions of the graph and the level sets alone, so the decision is
    // identical on every run at every thread count.
    bool want_bottom_up = false;
    switch (opt.mode) {
      case BfsMode::kClassic:
        want_bottom_up = false;
        break;
      case BfsMode::kBottomUp:
        want_bottom_up = true;
        break;
      case BfsMode::kDirectionOptimizing:
        if (!bottom_up) {
          want_bottom_up =
              frontier.size() >= opt.min_bottom_up_frontier &&
              static_cast<double>(frontier_degree) * opt.alpha >
                  static_cast<double>(remaining);
        } else {
          want_bottom_up = static_cast<double>(frontier.size()) * opt.beta >=
                           static_cast<double>(n);
        }
        break;
    }
    if (want_bottom_up != bottom_up) {
      ++stats.direction_switches;
      bottom_up = want_bottom_up;
    }

    next.clear();
    uint64_t next_degree = 0;

    if (!bottom_up) {
      // Top-down: scan the sparse frontier's successor rows.
      for (NodeId u : frontier) {
        adj.ForEachSucc(u, [&](NodeId v) {
          ++stats.edges_scanned;
          if (!arena->Visited(v)) {
            arena->Visit(v, level);
            next.push_back(v);
            next_degree += adj.SuccDegree(v);
          }
        });
      }
      if (opt.visit_order != nullptr) {
        std::sort(next.begin(), next.end());
      }
      // Top-down visits bypass the dense structures; rebuild on re-entry.
      frontier_bits_valid = false;
      unvisited_bits_valid = false;
    } else {
      // Bottom-up: iterate unvisited nodes word-at-a-time and probe their
      // predecessor rows against the dense frontier bitmap. Discovery
      // order is ascending id, so `next` needs no canonicalizing sort.
      ++stats.bottom_up_levels;
      NodeBitmap& fbits = arena->frontier_bits();
      NodeBitmap& nbits = arena->next_bits();
      NodeBitmap& ubits = arena->unvisited_bits();
      if (!frontier_bits_valid) {
        fbits.ClearAll();
        for (NodeId u : frontier) fbits.Set(u);
      }
      if (!unvisited_bits_valid) {
        ubits.ClearAll();
        for (NodeId v = 0; v < n; ++v) {
          if (!arena->Visited(v)) ubits.Set(v);
        }
        unvisited_bits_valid = true;
      }
      nbits.ClearAll();
      const std::vector<uint64_t>& words = ubits.words();
      for (size_t wi = 0; wi < words.size(); ++wi) {
        uint64_t w = words[wi];
        while (w != 0) {
          const NodeId v =
              static_cast<NodeId>(wi * 64 + std::countr_zero(w));
          w &= w - 1;
          const auto [found, probes] = adj.FindFrontierPred(v, fbits);
          stats.edges_scanned += probes;
          if (found) {
            arena->Visit(v, level);
            next.push_back(v);
            nbits.Set(v);
            ubits.Clear(v);
            next_degree += adj.SuccDegree(v);
          }
        }
      }
      std::swap(fbits, nbits);  // next level's frontier bitmap, ready-made
      frontier_bits_valid = true;
    }

    if (!next.empty()) {
      stats.levels = level;
      stats.nodes_visited += next.size();
      if (opt.visit_order != nullptr) {
        opt.visit_order->insert(opt.visit_order->end(), next.begin(),
                                next.end());
      }
    }
    remaining -= next_degree;
    frontier_degree = next_degree;
    frontier.swap(next);
  }

  if (opt.remaining_degree != nullptr) *opt.remaining_degree = remaining;

  ELITENET_COUNT("graph.bfs.runs", 1);
  ELITENET_COUNT("graph.bfs.edges_scanned", stats.edges_scanned);
  if (stats.direction_switches > 0) {
    ELITENET_COUNT("graph.bfs.direction_switches", stats.direction_switches);
    ELITENET_COUNT("graph.bfs.bottom_up_levels", stats.bottom_up_levels);
  }
  return stats;
}

}  // namespace

BfsStats Bfs(const DiGraph& g, NodeId source, ScratchArena* arena,
             const BfsOptions& options) {
  EN_CHECK(arena != nullptr);
  EN_CHECK(source < g.num_nodes());
  EN_CHECK_EQ(arena->num_nodes(), g.num_nodes());
  switch (options.direction) {
    case TraversalDirection::kReverse:
      return BfsImpl(g, source, arena, options, ReverseAdj{g});
    case TraversalDirection::kUndirected:
      return BfsImpl(g, source, arena, options, UndirectedAdj{g});
    case TraversalDirection::kForward:
    default:
      return BfsImpl(g, source, arena, options, ForwardAdj{g});
  }
}

UndirectedCsr BuildUndirectedCsr(const DiGraph& g) {
  const NodeId n = g.num_nodes();
  UndirectedCsr csr;
  csr.offsets.assign(static_cast<size_t>(n) + 1, 0);

  // Exact-size layout in two merge scans. A count pass walks each row's
  // sorted out/in merge without writing, so the targets array is
  // allocated at its final (deduplicated) size — peak residency is the
  // merged size itself, never the out+in upper bound, which at the
  // paper's reciprocity overshoots by ~17% and at full reciprocity by 2x.
  // Rows are disjoint, so both passes parallelize with no coordination
  // and are trivially deterministic.
  util::ParallelFor(0, n, 0, [&](size_t lo, size_t hi) {
    for (size_t x = lo; x < hi; ++x) {
      const NodeId u = static_cast<NodeId>(x);
      const auto a = g.OutNeighbors(u);
      const auto b = g.InNeighbors(u);
      size_t i = 0, j = 0;
      EdgeIdx count = 0;
      while (i < a.size() && j < b.size()) {
        if (a[i] == b[j]) {
          ++i;
          ++j;
        } else if (a[i] < b[j]) {
          ++i;
        } else {
          ++j;
        }
        ++count;
      }
      count += static_cast<EdgeIdx>(a.size() - i);
      count += static_cast<EdgeIdx>(b.size() - j);
      csr.offsets[x + 1] = count;
    }
  });
  for (size_t x = 0; x < n; ++x) csr.offsets[x + 1] += csr.offsets[x];

  csr.targets.resize(csr.offsets[n]);
  util::ParallelFor(0, n, 0, [&](size_t lo, size_t hi) {
    for (size_t x = lo; x < hi; ++x) {
      const NodeId u = static_cast<NodeId>(x);
      const auto a = g.OutNeighbors(u);
      const auto b = g.InNeighbors(u);
      size_t i = 0, j = 0;
      EdgeIdx w = csr.offsets[x];
      while (i < a.size() && j < b.size()) {
        if (a[i] == b[j]) {
          csr.targets[w++] = a[i];
          ++i;
          ++j;
        } else if (a[i] < b[j]) {
          csr.targets[w++] = a[i++];
        } else {
          csr.targets[w++] = b[j++];
        }
      }
      while (i < a.size()) csr.targets[w++] = a[i++];
      while (j < b.size()) csr.targets[w++] = b[j++];
    }
  });
  return csr;
}

}  // namespace graph
}  // namespace elitenet
