#include "analysis/clustering.h"

#include <algorithm>
#include <bit>

#include "graph/frontier.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace elitenet {
namespace analysis {

using graph::DiGraph;
using graph::NodeId;

std::vector<NodeId> UndirectedNeighbors(const DiGraph& g, NodeId u) {
  const auto outs = g.OutNeighbors(u);
  const auto ins = g.InNeighbors(u);
  std::vector<NodeId> merged;
  merged.reserve(outs.size() + ins.size());
  std::set_union(outs.begin(), outs.end(), ins.begin(), ins.end(),
                 std::back_inserter(merged));
  return merged;
}

namespace {

// Calls fn(v) once for every v in N(u) = out(u) ∪ in(u), ascending; the
// sorted rows make the merge a dedup. The merge steps by comparison
// results rather than branches: interleaved rows mispredict a branchy one.
template <typename Fn>
void ForEachNeighbor(const DiGraph& g, NodeId u, Fn&& fn) {
  const auto outs = g.OutNeighbors(u);
  const auto ins = g.InNeighbors(u);
  size_t i = 0, j = 0;
  while (i < outs.size() && j < ins.size()) {
    const NodeId a = outs[i], b = ins[j];
    fn(a < b ? a : b);
    i += a <= b;
    j += b <= a;
  }
  for (; i < outs.size(); ++i) fn(outs[i]);
  for (; j < ins.size(); ++j) fn(ins[j]);
}

uint64_t TotalDegree(const DiGraph& g, NodeId v) {
  return uint64_t{g.OutDegree(v)} + g.InDegree(v);
}

// The touched set T = ∪ N(u) over the evaluated nodes: an n-bit membership
// bitmap plus a rank per 64-bit word, so Slot() numbers T's members
// 0..|T|-1 in id order at 1.5 bits per graph node.
class TouchedSet {
 public:
  TouchedSet(const DiGraph& g, const std::vector<NodeId>& nodes)
      : bits_(g.num_nodes()) {
    for (NodeId u : nodes) {
      for (NodeId v : g.OutNeighbors(u)) bits_.Set(v);
      for (NodeId v : g.InNeighbors(u)) bits_.Set(v);
    }
    const std::vector<uint64_t>& words = bits_.words();
    rank_.resize(words.size());
    uint32_t total = 0;
    for (size_t i = 0; i < words.size(); ++i) {
      rank_[i] = total;
      total += static_cast<uint32_t>(std::popcount(words[i]));
    }
    members_.reserve(total);
    graph::ExtractSetBits(bits_, &members_);
  }

  bool Contains(NodeId v) const { return bits_.Test(v); }
  /// Rank of v among T's members; requires Contains(v).
  uint32_t Slot(NodeId v) const {
    const uint64_t below = (uint64_t{1} << (v & 63)) - 1;
    const uint64_t word = bits_.words()[v >> 6];
    return rank_[v >> 6] + static_cast<uint32_t>(std::popcount(word & below));
  }
  const std::vector<NodeId>& members() const { return members_; }

 private:
  graph::NodeBitmap bits_;
  std::vector<uint32_t> rank_;
  std::vector<NodeId> members_;  // slot -> node id
};

// Oriented rows over T, as slots: row(s) = {Slot(w) : w ∈ N(v) ∩ T,
// key(v) < key(w)} for v = members()[s], where key(x) = (TotalDegree(x), x).
// Every linked pair of T lands in exactly one row, its lower-key
// endpoint's, and a hub's row holds only the few nodes above it.
struct OrientedRows {
  std::vector<uint64_t> offsets;  // |T| + 1
  std::vector<uint32_t> slots;

  OrientedRows(const DiGraph& g, const TouchedSet& t) {
    const std::vector<NodeId>& members = t.members();
    // Calls fn(w, up) for every w in N(v), up = w is a row entry. The
    // test uses & and | rather than && and ||: it fails about half the
    // time, unpredictably.
    const auto for_each_candidate = [&](size_t s, auto&& fn) {
      const NodeId v = members[s];
      const uint64_t dv = TotalDegree(g, v);
      ForEachNeighbor(g, v, [&](NodeId w) {
        const uint64_t dw = TotalDegree(g, w);
        fn(w, t.Contains(w) & ((dw > dv) | ((dw == dv) & (w > v))));
      });
    };
    // Count, prefix-sum, fill: every slot's row is written by exactly one
    // chunk, so both passes are race-free and thread-count independent.
    offsets.assign(members.size() + 1, 0);
    util::ParallelFor(0, members.size(), 0, [&](size_t lo, size_t hi) {
      for (size_t s = lo; s < hi; ++s) {
        uint64_t count = 0;
        for_each_candidate(s, [&](NodeId, bool up) { count += up; });
        offsets[s + 1] = count;
      }
    });
    for (size_t s = 0; s < members.size(); ++s) offsets[s + 1] += offsets[s];
    slots.resize(offsets.back());
    util::ParallelFor(0, members.size(), 0, [&](size_t lo, size_t hi) {
      for (size_t s = lo; s < hi; ++s) {
        uint32_t* out = slots.data() + offsets[s];
        for_each_candidate(s, [&](NodeId w, bool up) {
          if (up) *out++ = t.Slot(w);
        });
      }
    });
  }
};

// Per-chunk tallies of the clustering sweep. coeff_sum is the only
// floating-point member; folding partials in chunk order keeps the average
// bit-identical for any thread count (the integer members are exact under
// any merge order).
struct ClusteringPartial {
  double coeff_sum = 0.0;
  uint64_t nodes_evaluated = 0;
  uint64_t closed = 0;
  uint64_t open_pairs = 0;
};

// Shared kernel + sweep driver for the exact and sampled paths. For each
// u in `nodes`, closed_pairs(u) — the ordered pairs of linked neighbours —
// is 2 * Σ_{v ∈ N(u)} |row(v) ∩ N(u)|, with N(u) marked in a per-chunk
// bitmap over T. Chunks are folded in chunk order.
ClusteringStats SweepClustering(const DiGraph& g,
                                const std::vector<NodeId>& nodes) {
  ELITENET_COUNT("analysis.clustering.nodes_swept", nodes.size());
  const TouchedSet touched(g, nodes);
  const OrientedRows rows(g, touched);
  const ClusteringPartial total = util::ParallelReduce(
      0, nodes.size(), 0, ClusteringPartial{},
      [&](size_t lo, size_t hi) {
        ClusteringPartial p;
        graph::NodeBitmap marked(touched.members().size());
        std::vector<uint32_t> nu;
        for (size_t i = lo; i < hi; ++i) {
          nu.clear();
          ForEachNeighbor(g, nodes[i],
                          [&](NodeId v) { nu.push_back(touched.Slot(v)); });
          const uint64_t degree = nu.size();
          if (degree < 2) continue;  // can collapse below degree 2
          for (uint32_t s : nu) marked.Set(s);
          uint64_t linked = 0;  // unordered linked pairs in N(u)
          for (uint32_t s : nu) {
            for (uint64_t e = rows.offsets[s]; e < rows.offsets[s + 1]; ++e) {
              linked += marked.Test(rows.slots[e]);
            }
          }
          for (uint32_t s : nu) marked.Clear(s);
          const uint64_t closed = 2 * linked;
          ++p.nodes_evaluated;
          p.coeff_sum += static_cast<double>(closed) /
                         (static_cast<double>(degree) *
                          static_cast<double>(degree - 1));
          p.closed += closed;
          p.open_pairs += degree * (degree - 1);
        }
        return p;
      },
      [](ClusteringPartial a, ClusteringPartial b) {
        a.coeff_sum += b.coeff_sum;
        a.nodes_evaluated += b.nodes_evaluated;
        a.closed += b.closed;
        a.open_pairs += b.open_pairs;
        return a;
      });

  ClusteringStats s;
  s.nodes_evaluated = total.nodes_evaluated;
  if (s.nodes_evaluated > 0) {
    s.average_local =
        total.coeff_sum / static_cast<double>(s.nodes_evaluated);
  }
  // closed counts every triangle 6 times (3 apexes x 2 orientations);
  // open_pairs counts every connected triple twice.
  s.triangles = total.closed / 6;
  if (total.open_pairs > 0) {
    s.transitivity = static_cast<double>(total.closed) /
                     static_cast<double>(total.open_pairs);
  }
  return s;
}

}  // namespace

ClusteringStats ComputeClustering(const DiGraph& g) {
  ELITENET_SPAN("analysis.clustering");
  std::vector<NodeId> nodes(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) nodes[u] = u;
  return SweepClustering(g, nodes);
}

ClusteringStats ComputeClusteringSampled(const DiGraph& g, uint32_t samples,
                                         util::Rng* rng) {
  ELITENET_SPAN("analysis.clustering_sampled");
  EN_CHECK(rng != nullptr);
  const NodeId n = g.num_nodes();
  std::vector<NodeId> eligible;
  for (NodeId u = 0; u < n; ++u) {
    if (g.OutDegree(u) + g.InDegree(u) >= 2) eligible.push_back(u);
  }
  if (eligible.size() <= samples) return ComputeClustering(g);

  rng->Shuffle(&eligible);
  eligible.resize(samples);
  return SweepClustering(g, eligible);
}

}  // namespace analysis
}  // namespace elitenet
