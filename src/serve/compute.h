// The compute unit: the five query handlers (ego, topk, dist, neighbors,
// fingerprint) over one graph, answering from a warm-index bundle and,
// on a live engine, at one MVCC snapshot. It owns no admission plane —
// no executor, cache or telemetry — so the unsharded QueryEngine and
// every router shard run the very same handler code behind the one
// front door (serve/front_door.h), which is how shard bytes stay
// identical to the engine's.
//
// The response renderers live here too and take the optional live
// snapshot: a live response carries `"version"`/`"as_of"`, a static one
// carries neither.

#ifndef ELITENET_SERVE_COMPUTE_H_
#define ELITENET_SERVE_COMPUTE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/bounded_distance.h"
#include "graph/digraph.h"
#include "graph/frontier.h"
#include "serve/delta_overlay.h"
#include "serve/request.h"
#include "serve/warm_index_cache.h"
#include "util/deadline.h"
#include "util/status.h"

namespace elitenet {
namespace serve {

struct QueryResponse {
  /// Single-line JSON. Errors render as {"type":"error",...}.
  std::string json;
  bool ok = true;
  /// True when a deadline cut the computation short; json carries the
  /// best bound found. Never cached.
  bool degraded = false;
  /// True when served from the result cache (diagnostic only — the bytes
  /// are identical either way, so this flag never appears in json).
  bool cache_hit = false;
};

/// Scratch objects of type T, each built as T(num_nodes) for one graph,
/// pooled so that hot paths reuse O(n) buffers instead of allocating
/// them per request or task. Thread-safe; a pool never holds more
/// objects than it had concurrent borrowers.
template <typename T>
class ScratchPool {
 public:
  explicit ScratchPool(graph::NodeId num_nodes) : num_nodes_(num_nodes) {}

  /// Borrows a scratch, creating one on first use; hand it back with
  /// Return.
  std::unique_ptr<T> Borrow() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!pool_.empty()) {
        std::unique_ptr<T> s = std::move(pool_.back());
        pool_.pop_back();
        return s;
      }
    }
    return std::make_unique<T>(num_nodes_);
  }
  void Return(std::unique_ptr<T> s) {
    std::lock_guard<std::mutex> lock(mutex_);
    pool_.push_back(std::move(s));
  }

 private:
  const graph::NodeId num_nodes_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<T>> pool_;
};

/// The two arenas a bounded search needs; the ego walk marks in `fwd`.
struct SearchScratch {
  explicit SearchScratch(graph::NodeId n) : fwd(n), bwd(n) {}
  graph::ScratchArena fwd;
  graph::ScratchArena bwd;
};

/// The query handlers over one graph. Thread-safe: Compute only reads
/// the graph and borrows scratch from the pool.
class ComputeUnit {
 public:
  explicit ComputeUnit(graph::DiGraph g);

  const graph::DiGraph& graph() const { return graph_; }

  /// Answers `r` from `warm`. With `snap` (live engines) adjacency facts
  /// are read at the snapshot version; without it, from graph().
  QueryResponse Compute(const Request& r, const util::Deadline& deadline,
                        const WarmIndexes& warm, const LiveSnapshot* snap);

 private:
  QueryResponse DoEgoSummary(const Request& r, const WarmIndexes& warm,
                             const LiveSnapshot* snap);
  QueryResponse DoTopKRank(const Request& r, const WarmIndexes& warm,
                           const LiveSnapshot* snap);
  QueryResponse DoDistance(const Request& r, const util::Deadline& deadline,
                           const LiveSnapshot* snap);
  QueryResponse DoNeighbors(const Request& r, const LiveSnapshot* snap);
  QueryResponse DoFingerprint(const WarmIndexes& warm,
                              const LiveSnapshot* snap);

  const graph::DiGraph graph_;
  ScratchPool<SearchScratch> scratch_;
};

/// The ego walk's reach_2hop: distinct nodes within <= 2 follows of u,
/// excluding u, over any backing of the bounded search's adjacency
/// contract (graph::GraphAdj over the whole graph or a router shard's,
/// or the live SnapAdj). Every edge's head is counted by its branch-free
/// Mark flag, so the count is the number of distinct heads whatever the
/// order. Needs only visit marks: a ScratchArena's distances and parents
/// are left unwritten.
template <typename Adj>
uint64_t TwoHopReach(const Adj& adj, graph::NodeId u, graph::VisitMarks* a) {
  a->BeginEpoch();
  a->Mark(u);
  uint64_t reach = 0;
  adj.ForEachOut(u, [&](graph::NodeId v) { reach += a->Mark(v); });
  adj.ForEachOut(u, [&](graph::NodeId v) {
    adj.ForEachOut(v, [&](graph::NodeId w) { reach += a->Mark(w); });
  });
  return reach;
}

/// The edges the ego walk from u reads: outdeg(u) + Σ outdeg(v) over u's
/// out-neighbours v.
uint64_t EgoWork(const graph::DiGraph& g, graph::NodeId u);

/// How much walking the heavy-node table may absorb, in multiples of the
/// edge count. Out-degree is power-law on the verified graph, so the
/// walks' work sits on a few hundred hubs: at 40k users this budget
/// covers 758 nodes and takes ~0.14 s of one CPU to build.
inline constexpr uint64_t kHeavyReachWorkPerEdge = 24;

/// The heavy-node reach table of WarmIndexes: nodes by descending EgoWork
/// (ties by id, zero-work nodes never), taken while their running total
/// of work stays within kHeavyReachWorkPerEdge * m, in ascending id order
/// in `ids` and with each one's exact TwoHopReach in `reach`. A pure
/// function of the graph: the same table at any thread count. Parallel
/// over the chosen nodes; each worker walks with VisitMarks (4 bytes per
/// node) from a ScratchPool, freed on return.
void ComputeHeavyReach(const graph::DiGraph& g,
                       std::vector<graph::NodeId>* ids,
                       std::vector<uint32_t>* reach);

/// Renders the "topk" response. `in_out_degrees[i]` carries
/// {in_degree, out_degree} of warm.rank_order[i] and must cover at least
/// min(k, rank_order.size()) rows. The compute unit fills it from its
/// graph (or snapshot). A non-null `snap` adds the version fields.
std::string RenderTopKJson(const WarmIndexes& warm, uint32_t k,
                           std::span<const std::pair<uint32_t, uint32_t>>
                               in_out_degrees,
                           const LiveSnapshot* snap = nullptr);

/// The one error-line shape on the wire:
/// {"type":"error","code":"<code>","message":"<message>"[,"request":
/// "<request>"]}. Request errors, sheds, parse failures and bad admin
/// arguments all render through it.
std::string ErrorJson(std::string_view code, std::string_view message,
                      std::optional<std::string_view> request = {});

/// The well-formed error response for a *parsed* request
/// ({"type":"error",...,"request":"<canonical>"}), shared by the
/// handlers and the front door so error bytes match on every backend.
QueryResponse ErrorResponse(const Request& r, const Status& status);

/// Renders the "dist" response from a bounded-search result — completed
/// (reachable/distance) or degraded (lower_bound/expanded). Static,
/// shard and live searches all feed this one renderer, so their bytes
/// cannot drift. A non-null `snap` adds the version fields.
QueryResponse MakeDistanceResponse(const Request& r,
                                   const graph::BoundedDistanceResult& d,
                                   const LiveSnapshot* snap = nullptr);

}  // namespace serve
}  // namespace elitenet

#endif  // ELITENET_SERVE_COMPUTE_H_
