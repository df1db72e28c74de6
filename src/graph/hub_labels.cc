#include "graph/hub_labels.h"

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "graph/frontier.h"
#include "graph/traversal.h"
#include "util/parallel.h"

namespace elitenet {
namespace graph {
namespace {

// Per-node label rows under construction, indexed by relabeled id: hub
// ranks and distances in parallel vectors, the same split as the flat
// arrays, so the prune scan streams 5 bytes per entry.
struct LabelRows {
  explicit LabelRows(NodeId n) : ranks(n), dists(n) {}

  void Append(NodeId v, NodeId hub, uint32_t depth) {
    ranks[v].push_back(hub);
    dists[v].push_back(static_cast<uint8_t>(depth));
  }

  std::vector<std::vector<uint32_t>> ranks;
  std::vector<std::vector<uint8_t>> dists;
};

// How many candidates ahead the prune loop prefetches a row: far enough
// to cover a cache miss behind the short scans of pruned candidates.
constexpr size_t kPrefetchAhead = 16;

// The prune check for candidates[i] at `depth`. Prefetches the row of
// the candidate kPrefetchAhead places on, then scans v's row for a hub
// ranked before the root that certifies d(root, v) <= depth. Only that
// boolean matters, so the scan stops at the first certificate — rows
// lead with the highest-degree hubs, which certify almost every pruned
// candidate in one or two probes. On survival appends (root, depth) to
// v's row and returns true.
//
// root_dist[h] is kHubDistInfinite (255) for hubs the root's opposite
// row lacks. PrunedBfs never runs a level deeper than kMaxHubLabelDist,
// so 255 + d <= depth cannot hold and the scan needs no infinity test.
static_assert(kHubDistInfinite > kMaxHubLabelDist);
inline bool LabelIfUnpruned(LabelRows& rows,
                            const std::vector<NodeId>& candidates, size_t i,
                            NodeId root, const std::vector<uint8_t>& root_dist,
                            uint32_t depth) {
  if (i + kPrefetchAhead < candidates.size()) {
    const NodeId ahead = candidates[i + kPrefetchAhead];
    __builtin_prefetch(rows.ranks[ahead].data());
    __builtin_prefetch(rows.dists[ahead].data());
  }
  const NodeId v = candidates[i];
  const std::vector<uint32_t>& ranks = rows.ranks[v];
  const uint8_t* dists = rows.dists[v].data();
  for (size_t k = 0; k < ranks.size(); ++k) {
    if (uint32_t{root_dist[ranks[k]]} + dists[k] <= depth) return false;
  }
  rows.Append(v, root, depth);
  return true;
}

// One pruned BFS from `root` on the relabeled graph. Forward BFSs expand
// out-edges and append (root, d(root->v)) to L_in(v); backward BFSs expand
// in-edges and append to L_out(v). In both cases the rows being appended to
// are exactly the rows the prune query reads, so the routine takes just one
// row set plus the dense distance view of the root's *opposite* label set
// (root_dist[h] = d(root->h) forward, d(h->root) backward).
//
// Level-synchronous: each level first collects the unvisited neighbors
// of the frontier as candidates (marking them visited, in frontier
// order), then runs the prune check over the candidates in that order;
// survivors form the next frontier.
//
// Prune soundness: a candidate's row holds only hubs ranked before `root`
// (a (root, ·) entry would mean the node was already visited in this BFS),
// and root_dist is densified from rows that this BFS never appends to, so
// the query is exactly Query_{root-1} — fixed for the whole BFS.
//
// Adds the number of labels appended to *appended. Returns false, leaving
// the rows unusable, when the frontier is still non-empty at depth
// kMaxHubLabelDist + 1: a distance the u8 label cannot hold.
bool PrunedBfs(const DiGraph& rg, NodeId root, bool forward, LabelRows& rows,
               const std::vector<uint8_t>& root_dist, ScratchArena& arena,
               std::vector<NodeId>& candidates, uint64_t* appended) {
  arena.BeginEpoch();
  arena.Visit(root, 0, root);
  // The root is never prunable: hubs before it cannot certify distance 0.
  rows.Append(root, root, 0);
  ++*appended;

  std::vector<NodeId>& frontier = arena.frontier();
  frontier.clear();
  frontier.push_back(root);

  for (uint32_t depth = 1; !frontier.empty(); ++depth) {
    if (depth > kMaxHubLabelDist) return false;
    candidates.clear();
    for (const NodeId u : frontier) {
      for (const NodeId v :
           forward ? rg.OutNeighbors(u) : rg.InNeighbors(u)) {
        if (!arena.Visited(v)) {
          arena.Visit(v, depth, v);
          candidates.push_back(v);
        }
      }
    }
    frontier.clear();
    for (size_t i = 0; i < candidates.size(); ++i) {
      if (LabelIfUnpruned(rows, candidates, i, root, root_dist, depth)) {
        frontier.push_back(candidates[i]);
        ++*appended;
      }
    }
  }
  return true;
}

// Loads the root's row into root_dist, the dense prune view for one BFS
// (`set`), or resets those entries to "no label" afterwards (`!set`).
void Densify(const LabelRows& rows, NodeId root,
             std::vector<uint8_t>& root_dist, bool set) {
  const std::vector<uint32_t>& ranks = rows.ranks[root];
  const std::vector<uint8_t>& dists = rows.dists[root];
  for (size_t k = 0; k < ranks.size(); ++k) {
    root_dist[ranks[k]] = set ? dists[k] : kHubDistInfinite;
  }
}

// Flattens per-node rows (indexed by relabeled id) into CSR arrays indexed
// by original id. Rows are already sorted ascending by hub rank — labels
// were appended in hub-processing order.
void Flatten(const LabelRows& rows, const std::vector<NodeId>& old_to_new,
             HubLabelArrays* flat) {
  const size_t n = old_to_new.size();
  flat->offsets.resize(n + 1);
  flat->offsets[0] = 0;
  for (size_t o = 0; o < n; ++o) {
    flat->offsets[o + 1] =
        flat->offsets[o] + rows.ranks[old_to_new[o]].size();
  }
  flat->ranks.resize(flat->offsets[n]);
  flat->dists.resize(flat->offsets[n]);
  util::ParallelFor(0, n, 0, [&](size_t lo, size_t hi) {
    for (size_t o = lo; o < hi; ++o) {
      const NodeId r = old_to_new[o];
      std::copy(rows.ranks[r].begin(), rows.ranks[r].end(),
                flat->ranks.begin() + flat->offsets[o]);
      std::copy(rows.dists[r].begin(), rows.dists[r].end(),
                flat->dists.begin() + flat->offsets[o]);
    }
  });
}

}  // namespace

uint32_t HubLabels::Distance(NodeId s, NodeId t) const {
  if (s == t) return 0;
  const HubLabelRow out = OutLabels(s);
  const HubLabelRow in = InLabels(t);
  uint32_t best = kInfiniteDistance;
  size_t i = 0;
  size_t j = 0;
  while (i < out.size() && j < in.size()) {
    const uint32_t ho = out.ranks[i];
    const uint32_t hi = in.ranks[j];
    if (ho < hi) {
      ++i;
    } else if (hi < ho) {
      ++j;
    } else {
      const uint32_t d = uint32_t{out.dists[i]} + in.dists[j];
      if (d < best) best = d;
      ++i;
      ++j;
    }
  }
  return best;
}

HubLabelStats HubLabels::Stats() const {
  HubLabelStats stats;
  const NodeId n = num_nodes();
  stats.out_entries = out_.ranks.size();
  stats.in_entries = in_.ranks.size();
  for (NodeId u = 0; u < n; ++u) {
    const uint32_t out_row =
        static_cast<uint32_t>(out_.offsets[u + 1] - out_.offsets[u]);
    const uint32_t in_row =
        static_cast<uint32_t>(in_.offsets[u + 1] - in_.offsets[u]);
    if (out_row > stats.max_out_entries) stats.max_out_entries = out_row;
    if (in_row > stats.max_in_entries) stats.max_in_entries = in_row;
  }
  if (n > 0) {
    stats.avg_out_entries = static_cast<double>(stats.out_entries) / n;
    stats.avg_in_entries = static_cast<double>(stats.in_entries) / n;
  }
  for (const HubLabelArrays* a : {&out_, &in_}) {
    stats.bytes += a->offsets.size() * sizeof(EdgeIdx) +
                   a->ranks.size() * sizeof(uint32_t) +
                   a->dists.size() * sizeof(uint8_t);
  }
  return stats;
}

HubLabels BuildHubLabels(const DiGraph& g, const HubLabelOptions& options) {
  HubLabels labels;
  const NodeId n = g.num_nodes();
  if (n == 0) {
    labels.out_.offsets.assign(1, 0);
    labels.in_.offsets.assign(1, 0);
    return labels;
  }

  const DegreeRelabeling rel = g.RelabelByDegree();
  const DiGraph& rg = rel.graph;

  // Rows indexed by relabeled id == hub rank; hub rank r processes node r.
  LabelRows out_rows(n);
  LabelRows in_rows(n);
  uint64_t total_out = 0;
  uint64_t total_in = 0;
  const uint64_t budget =
      options.max_avg_label_entries == 0
          ? UINT64_MAX
          : static_cast<uint64_t>(options.max_avg_label_entries) * n;

  ScratchArena arena(n);
  std::vector<uint8_t> root_dist(n, kHubDistInfinite);
  std::vector<NodeId> candidates;

  for (NodeId r = 0; r < n; ++r) {
    // Forward: L_out(r) (hubs before r that r reaches) densifies the prune
    // query for appends into L_in. The densified row is never appended to
    // by this BFS, so the view stays valid throughout.
    Densify(out_rows, r, root_dist, /*set=*/true);
    const bool forward_ok =
        PrunedBfs(rg, r, /*forward=*/true, in_rows, root_dist, arena,
                  candidates, &total_in);
    Densify(out_rows, r, root_dist, /*set=*/false);
    if (!forward_ok || total_in > budget) return HubLabels{};

    // Backward over in-edges: L_in(r) drives the prune query for L_out.
    Densify(in_rows, r, root_dist, /*set=*/true);
    const bool backward_ok =
        PrunedBfs(rg, r, /*forward=*/false, out_rows, root_dist, arena,
                  candidates, &total_out);
    Densify(in_rows, r, root_dist, /*set=*/false);
    if (!backward_ok || total_out > budget) return HubLabels{};
  }

  Flatten(out_rows, rel.old_to_new, &labels.out_);
  Flatten(in_rows, rel.old_to_new, &labels.in_);
  return labels;
}

namespace {

Status ValidateSide(const char* side, const HubLabelArrays& a, NodeId n) {
  auto corrupt = [side](const char* what) {
    return Status::Corruption(std::string("hub label ") + side + " " + what);
  };
  if (a.offsets.size() != static_cast<size_t>(n) + 1) {
    return corrupt("offsets have wrong length");
  }
  if (a.ranks.size() != a.dists.size()) {
    return corrupt("rank and distance arrays differ in length");
  }
  if (a.offsets[0] != 0 || a.offsets[n] != a.ranks.size()) {
    return corrupt("offsets do not span the entry arrays");
  }
  // Real labels stay below n (a shortest path) and within one byte.
  const uint32_t max_dist =
      std::min<uint32_t>(kMaxHubLabelDist, n == 0 ? 0 : n - 1);
  for (NodeId u = 0; u < n; ++u) {
    if (a.offsets[u + 1] < a.offsets[u]) return corrupt("offsets decrease");
    uint64_t prev_rank = UINT64_MAX;
    for (EdgeIdx i = a.offsets[u]; i < a.offsets[u + 1]; ++i) {
      const uint32_t rank = a.ranks[i];
      if (rank >= n || a.dists[i] > max_dist) {
        return corrupt("entry out of range");
      }
      if (prev_rank != UINT64_MAX && rank <= prev_rank) {
        return corrupt("row not strictly ascending");
      }
      prev_rank = rank;
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidateHubLabels(const HubLabels& labels, NodeId expected_nodes) {
  if (labels.empty()) {
    // "Oracle not built" is a legal persisted state, but only when all
    // six arrays are absent together.
    const HubLabelArrays& out = labels.out();
    const HubLabelArrays& in = labels.in();
    if (!out.ranks.empty() || !out.dists.empty() || !in.offsets.empty() ||
        !in.ranks.empty() || !in.dists.empty()) {
      return Status::Corruption("hub labels partially present");
    }
    return Status::OK();
  }
  EN_RETURN_IF_ERROR(ValidateSide("out", labels.out(), expected_nodes));
  EN_RETURN_IF_ERROR(ValidateSide("in", labels.in(), expected_nodes));
  return Status::OK();
}

}  // namespace graph
}  // namespace elitenet
