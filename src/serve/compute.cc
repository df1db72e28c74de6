#include "serve/compute.h"

#include <algorithm>
#include <array>
#include <bit>

#include "util/parallel.h"
#include "util/trace.h"

namespace elitenet {
namespace serve {

using graph::DiGraph;
using graph::NodeId;

namespace {

void AppendU64(std::string* out, uint64_t v) { *out += std::to_string(v); }

void AppendI64(std::string* out, int64_t v) { *out += std::to_string(v); }

void AppendBool(std::string* out, bool v) { *out += v ? "true" : "false"; }

// Live responses carry the snapshot version they answered at and the
// base version the epoch's warm indexes were computed at — the staleness
// bound for warm-index fields. Static responses stay byte-for-byte what
// they were before live mode existed.
void AppendVersionFields(std::string* j, const LiveSnapshot* snap) {
  if (snap == nullptr) return;
  *j += ",\"version\":";
  AppendU64(j, snap->version());
  *j += ",\"as_of\":";
  AppendU64(j, snap->base_version());
}

// The live MVCC snapshot backing of the shared traversals
// (graph/bounded_distance.h, TwoHopReach). It iterates neighbors in
// ascending id order, like GraphAdj, so the expansion order — and
// therefore the bytes of a completed answer — is identical across the two
// backings.
struct SnapAdj {
  const LiveSnapshot* s;
  void PrepareLevel(std::span<const NodeId>, bool) const {}
  template <typename Fn>
  void ForEachOut(NodeId u, Fn&& fn) const {
    s->ForEachOut(u, std::forward<Fn>(fn));
  }
  template <typename Fn>
  void ForEachIn(NodeId u, Fn&& fn) const {
    s->ForEachIn(u, std::forward<Fn>(fn));
  }
};

}  // namespace

std::string ErrorJson(std::string_view code, std::string_view message,
                      std::optional<std::string_view> request) {
  std::string j = "{\"type\":\"error\",\"code\":\"";
  j += code;
  j += "\",\"message\":\"";
  j += JsonEscape(message);
  if (request.has_value()) {
    j += "\",\"request\":\"";
    j += JsonEscape(*request);
  }
  j += "\"}";
  return j;
}

QueryResponse ErrorResponse(const Request& r, const Status& status) {
  QueryResponse resp;
  resp.ok = false;
  resp.json = ErrorJson(StatusCodeToString(status.code()), status.message(),
                        CanonicalEncoding(r));
  return resp;
}

std::string RenderTopKJson(const WarmIndexes& warm, uint32_t k,
                           std::span<const std::pair<uint32_t, uint32_t>>
                               in_out_degrees,
                           const LiveSnapshot* snap) {
  const uint32_t returned =
      std::min<uint32_t>(k, static_cast<uint32_t>(warm.rank_order.size()));
  std::string j = "{\"type\":\"topk\",\"k\":";
  AppendU64(&j, k);
  j += ",\"returned\":";
  AppendU64(&j, returned);
  AppendVersionFields(&j, snap);
  j += ",\"rows\":[";
  for (uint32_t i = 0; i < returned; ++i) {
    const NodeId u = warm.rank_order[i];
    if (i > 0) j += ',';
    j += "{\"rank\":";
    AppendU64(&j, i + 1);
    j += ",\"node\":";
    AppendU64(&j, u);
    j += ",\"score\":";
    j += JsonDouble(warm.pagerank[u]);
    j += ",\"in_degree\":";
    AppendU64(&j, in_out_degrees[i].first);
    j += ",\"out_degree\":";
    AppendU64(&j, in_out_degrees[i].second);
    j += '}';
  }
  j += "],\"degraded\":false}";
  return j;
}

QueryResponse MakeDistanceResponse(const Request& r,
                                   const graph::BoundedDistanceResult& d,
                                   const LiveSnapshot* snap) {
  QueryResponse resp;
  resp.degraded = !d.completed;
  std::string& j = resp.json;
  j = "{\"type\":\"dist\",\"src\":";
  AppendU64(&j, r.node);
  j += ",\"dst\":";
  AppendU64(&j, r.target);
  AppendVersionFields(&j, snap);
  if (d.completed) {
    // Note: no traversal-cost field here — a completed answer must be a
    // pure function of (graph, request) so every backing (whole graph,
    // router shard, live snapshot) gives the same bytes and the cache
    // may serve them.
    const bool reachable = d.distance != UINT32_MAX;
    j += ",\"reachable\":";
    AppendBool(&j, reachable);
    j += ",\"distance\":";
    AppendI64(&j, reachable ? static_cast<int64_t>(d.distance) : -1);
  } else {
    // Deadline hit: the true distance is unknown but provably at least
    // lower_bound (every completed level failed to meet). Degraded
    // responses are never cached, so the diagnostic expansion count is
    // safe to include.
    j += ",\"reachable\":null,\"distance\":-1,\"lower_bound\":";
    AppendU64(&j, d.lower_bound);
    j += ",\"expanded\":";
    AppendU64(&j, d.expanded);
  }
  j += ",\"degraded\":";
  AppendBool(&j, resp.degraded);
  j += '}';
  return resp;
}

uint64_t EgoWork(const DiGraph& g, NodeId u) {
  uint64_t work = g.OutDegree(u);
  for (NodeId v : g.OutNeighbors(u)) work += g.OutDegree(v);
  return work;
}

void ComputeHeavyReach(const DiGraph& g, std::vector<NodeId>* ids,
                       std::vector<uint32_t>* reach) {
  const NodeId n = g.num_nodes();
  const uint64_t budget = kHeavyReachWorkPerEdge * g.num_edges();
  // Pass 1: total work per power-of-two bucket (bucket b holds work in
  // [2^(b-1), 2^b)). Walking down from the top bucket finds the one where
  // the running total passes the budget; every chosen node has at least
  // that bucket's floor of work. No n-slot array is kept.
  using Buckets = std::array<uint64_t, 65>;
  const Buckets buckets = util::ParallelReduce(
      size_t{0}, size_t{n}, 0, Buckets{},
      [&](size_t lo, size_t hi) {
        Buckets part{};
        for (size_t u = lo; u < hi; ++u) {
          const uint64_t w = EgoWork(g, static_cast<NodeId>(u));
          part[std::bit_width(w)] += w;
        }
        return part;
      },
      [](Buckets acc, const Buckets& part) {
        for (size_t b = 0; b < acc.size(); ++b) acc[b] += part[b];
        return acc;
      });
  uint64_t floor_work = 1;
  uint64_t total = 0;
  for (int b = 64; b >= 1; --b) {
    total += buckets[b];
    if (total > budget) {
      floor_work = uint64_t{1} << (b - 1);
      break;
    }
  }
  // Pass 2: the candidates at or above the floor, by descending work
  // (ties by id); take them while the running total fits the budget.
  using Candidates = std::vector<std::pair<uint64_t, NodeId>>;
  Candidates candidates = util::ParallelReduce(
      size_t{0}, size_t{n}, 0, Candidates{},
      [&](size_t lo, size_t hi) {
        Candidates part;
        for (size_t u = lo; u < hi; ++u) {
          const uint64_t w = EgoWork(g, static_cast<NodeId>(u));
          if (w >= floor_work) part.emplace_back(w, static_cast<NodeId>(u));
        }
        return part;
      },
      [](Candidates acc, const Candidates& part) {
        acc.insert(acc.end(), part.begin(), part.end());
        return acc;
      });
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  ids->clear();
  total = 0;
  for (const auto& [w, u] : candidates) {
    if (total + w > budget) break;
    total += w;
    ids->push_back(u);
  }
  std::sort(ids->begin(), ids->end());

  // The walks, one node per task, on marks borrowed per task: at most
  // one set per concurrent worker ever exists.
  reach->assign(ids->size(), 0);
  ScratchPool<graph::VisitMarks> marks_pool(n);
  util::ParallelFor(0, ids->size(), 1, [&](size_t lo, size_t hi) {
    std::unique_ptr<graph::VisitMarks> marks = marks_pool.Borrow();
    for (size_t i = lo; i < hi; ++i) {
      (*reach)[i] = static_cast<uint32_t>(
          TwoHopReach(graph::GraphAdj{&g}, (*ids)[i], marks.get()));
    }
    marks_pool.Return(std::move(marks));
  });
}

ComputeUnit::ComputeUnit(DiGraph g)
    : graph_(std::move(g)), scratch_(graph_.num_nodes()) {}

QueryResponse ComputeUnit::Compute(const Request& r,
                                   const util::Deadline& deadline,
                                   const WarmIndexes& warm,
                                   const LiveSnapshot* snap) {
  ELITENET_SPAN("serve.compute");
  switch (r.type) {
    case RequestType::kEgoSummary:
      return DoEgoSummary(r, warm, snap);
    case RequestType::kTopKRank:
      return DoTopKRank(r, warm, snap);
    case RequestType::kDistance:
      return DoDistance(r, deadline, snap);
    case RequestType::kNeighbors:
      return DoNeighbors(r, snap);
    case RequestType::kFingerprint:
      return DoFingerprint(warm, snap);
  }
  return ErrorResponse(r, Status::Internal("unhandled request type"));
}

QueryResponse ComputeUnit::DoEgoSummary(const Request& r,
                                        const WarmIndexes& warm,
                                        const LiveSnapshot* snap) {
  const NodeId u = r.node;
  if (u >= graph_.num_nodes()) {
    return ErrorResponse(
        r, Status::NotFound("node " + std::to_string(u) + " not in graph"));
  }
  // Two-hop out-reach (distinct nodes within <= 2 follows, excluding u):
  // the per-user audience estimate verification-style lookups want. The
  // heaviest walks are stored in the warm bundle; the rest are marked in
  // a pooled arena so hub queries do not allocate O(n) scratch. Live
  // engines traverse the snapshot — exact at the request's version even
  // when only a neighbor-of-a-neighbor was touched.
  const uint32_t* stored = warm.StoredReach(u);
  const auto walk = [this, u](const auto& adj) {
    std::unique_ptr<SearchScratch> scratch = scratch_.Borrow();
    const uint64_t reach = TwoHopReach(adj, u, &scratch->fwd);
    scratch_.Return(std::move(scratch));
    return reach;
  };
  uint32_t out_deg = 0;
  uint32_t in_deg = 0;
  uint64_t reach = 0;
  // Exact unless u was touched: with neither u's follows nor its
  // followers changed since the base, the warm count still holds.
  uint64_t mutual = warm.mutual_degree[u];
  if (snap != nullptr) {
    // The stored count is the epoch base's. It holds at this version when
    // neither u nor any out-neighbour of u was touched, since then every
    // row the walk reads is the base's row: an O(deg u) check.
    const auto base_rows_hold = [snap, u] {
      if (snap->Touched(u)) return false;
      for (NodeId v : snap->base().OutNeighbors(u)) {
        if (snap->Touched(v)) return false;
      }
      return true;
    };
    reach = stored != nullptr && base_rows_hold() ? *stored
                                                  : walk(SnapAdj{snap});
    out_deg = snap->OutDegree(u);
    in_deg = snap->InDegree(u);
    if (snap->Touched(u)) {
      // Either direction at u changed: the warm count may be stale, so
      // recount at the snapshot version (deg(u) containment probes).
      mutual = 0;
      snap->ForEachOut(u, [&](NodeId v) {
        if (snap->HasEdge(v, u)) ++mutual;
      });
    }
  } else {
    reach = stored != nullptr ? *stored : walk(graph::GraphAdj{&graph_});
    out_deg = graph_.OutDegree(u);
    in_deg = graph_.InDegree(u);
  }

  QueryResponse resp;
  std::string& j = resp.json;
  j = "{\"type\":\"ego\",\"node\":";
  AppendU64(&j, u);
  AppendVersionFields(&j, snap);
  j += ",\"out_degree\":";
  AppendU64(&j, out_deg);
  j += ",\"in_degree\":";
  AppendU64(&j, in_deg);
  j += ",\"mutual\":";
  AppendU64(&j, mutual);
  j += ",\"reach_2hop\":";
  AppendU64(&j, reach);
  j += ",\"pagerank\":";
  j += JsonDouble(warm.pagerank[u]);
  j += ",\"rank\":";
  AppendU64(&j, warm.rank_of[u]);
  j += ",\"wcc_id\":";
  AppendU64(&j, warm.wcc.label[u]);
  j += ",\"wcc_size\":";
  AppendU64(&j, warm.wcc.sizes[warm.wcc.label[u]]);
  j += ",\"scc_id\":";
  AppendU64(&j, warm.scc.label[u]);
  j += ",\"scc_size\":";
  AppendU64(&j, warm.scc.sizes[warm.scc.label[u]]);
  j += ",\"is_sink\":";
  AppendBool(&j, out_deg == 0 && in_deg > 0);
  j += ",\"is_isolated\":";
  AppendBool(&j, out_deg == 0 && in_deg == 0);
  j += ",\"degraded\":false}";
  return resp;
}

QueryResponse ComputeUnit::DoTopKRank(const Request& r,
                                      const WarmIndexes& warm,
                                      const LiveSnapshot* snap) {
  const uint32_t returned =
      std::min<uint32_t>(r.k, static_cast<uint32_t>(warm.rank_order.size()));
  // Ordering and scores are as-of the warm bundle (the epoch base on a
  // live engine, "as_of"); the degree columns are read off this unit's
  // graph, or exact at the snapshot version.
  std::vector<std::pair<uint32_t, uint32_t>> degs;
  degs.reserve(returned);
  for (uint32_t i = 0; i < returned; ++i) {
    const NodeId u = warm.rank_order[i];
    if (snap != nullptr) {
      degs.emplace_back(snap->InDegree(u), snap->OutDegree(u));
    } else {
      degs.emplace_back(graph_.InDegree(u), graph_.OutDegree(u));
    }
  }
  QueryResponse resp;
  resp.json = RenderTopKJson(warm, r.k, degs, snap);
  return resp;
}

QueryResponse ComputeUnit::DoDistance(const Request& r,
                                      const util::Deadline& deadline,
                                      const LiveSnapshot* snap) {
  if (r.node >= graph_.num_nodes() || r.target >= graph_.num_nodes()) {
    return ErrorResponse(r, Status::NotFound("distance endpoint not in graph"));
  }
  // Exact at the snapshot version on a live engine, over this unit's
  // graph otherwise. The verified graph's short diameter keeps the
  // search within a few levels; a deadline can still cut it short.
  graph::BoundedDistanceResult d;
  std::unique_ptr<SearchScratch> scratch = scratch_.Borrow();
  if (snap != nullptr) {
    d = graph::BoundedBidirectionalDistance(SnapAdj{snap}, r.node, r.target,
                                            deadline, &scratch->fwd,
                                            &scratch->bwd);
  } else {
    d = graph::BoundedBidirectionalDistance(graph::GraphAdj{&graph_}, r.node,
                                            r.target, deadline, &scratch->fwd,
                                            &scratch->bwd);
  }
  scratch_.Return(std::move(scratch));
  return MakeDistanceResponse(r, d, snap);
}

QueryResponse ComputeUnit::DoNeighbors(const Request& r,
                                       const LiveSnapshot* snap) {
  const NodeId u = r.node;
  if (u >= graph_.num_nodes()) {
    return ErrorResponse(
        r, Status::NotFound("node " + std::to_string(u) + " not in graph"));
  }
  // Live engines materialize the merged row at the snapshot version; its
  // order (ascending) matches the static CSR row, so a node untouched
  // since the base was built lists identically on both paths.
  std::vector<NodeId> merged;
  if (snap != nullptr) {
    if (r.direction == NeighborDirection::kOut) {
      snap->CollectOut(u, &merged);
    } else {
      snap->CollectIn(u, &merged);
    }
  }
  const std::span<const NodeId> all =
      snap != nullptr ? std::span<const NodeId>(merged)
      : r.direction == NeighborDirection::kOut ? graph_.OutNeighbors(u)
                                               : graph_.InNeighbors(u);
  const size_t returned = std::min<size_t>(r.limit, all.size());
  QueryResponse resp;
  std::string& j = resp.json;
  j = "{\"type\":\"neighbors\",\"node\":";
  AppendU64(&j, u);
  AppendVersionFields(&j, snap);
  j += ",\"dir\":\"";
  j += r.direction == NeighborDirection::kOut ? "out" : "in";
  j += "\",\"total\":";
  AppendU64(&j, all.size());
  j += ",\"returned\":";
  AppendU64(&j, returned);
  j += ",\"nodes\":[";
  for (size_t i = 0; i < returned; ++i) {
    if (i > 0) j += ',';
    AppendU64(&j, all[i]);
  }
  j += "],\"degraded\":false}";
  return resp;
}

QueryResponse ComputeUnit::DoFingerprint(const WarmIndexes& warm,
                                         const LiveSnapshot* snap) {
  if (!warm.fingerprint_ok) {
    Request r;
    r.type = RequestType::kFingerprint;
    return ErrorResponse(
        r, Status::FailedPrecondition("fingerprint unavailable: " +
                                      warm.fingerprint_error));
  }
  QueryResponse resp;
  std::string& j = resp.json;
  // Every fingerprint field is a whole-graph statistic as-of the epoch
  // base — "as_of" is the honest timestamp; "version" says when it was
  // asked.
  j = "{\"type\":\"fingerprint\"";
  AppendVersionFields(&j, snap);
  j += ",\"density\":";
  j += JsonDouble(warm.fingerprint.density);
  j += ",\"reciprocity\":";
  j += JsonDouble(warm.fingerprint.reciprocity);
  j += ",\"clustering\":";
  j += JsonDouble(warm.fingerprint.clustering);
  j += ",\"assortativity\":";
  j += JsonDouble(warm.fingerprint.assortativity);
  j += ",\"giant_scc_fraction\":";
  j += JsonDouble(warm.fingerprint.giant_scc_fraction);
  j += ",\"mean_distance\":";
  j += JsonDouble(warm.fingerprint.mean_distance);
  j += ",\"powerlaw_alpha\":";
  j += JsonDouble(warm.fingerprint.powerlaw_alpha);
  j += ",\"attracting_fraction\":";
  j += JsonDouble(warm.fingerprint.attracting_fraction);
  j += ",\"similarity_to_paper\":";
  j += JsonDouble(warm.fingerprint_similarity);
  j += ",\"degraded\":false}";
  return resp;
}

}  // namespace serve
}  // namespace elitenet
