#include "serve/router.h"

#include <algorithm>
#include <future>
#include <span>
#include <utility>

#include "graph/bounded_distance.h"
#include "graph/io.h"
#include "util/trace.h"

namespace elitenet {
namespace serve {

using graph::DiGraph;
using graph::NodeId;

namespace {

using Shards = std::vector<std::unique_ptr<ShardedRouter::Shard>>;

// Scatter-gather over `n` slots: slot i belongs to shard home_of(i), and
// each shard runs fn(its graph, its slots) once, as one batched task on
// its own workers (never the router's, so a saturated router queue
// cannot deadlock its own sub-requests). Returns when every batch is
// done. Results land in fixed slots, so the merge is independent of
// shard count and completion order.
template <typename HomeOf, typename Fn>
void FanOut(const Shards& shards, uint32_t n, HomeOf home_of, const Fn& fn) {
  std::vector<std::vector<uint32_t>> by_shard(shards.size());
  for (uint32_t i = 0; i < n; ++i) by_shard[home_of(i)].push_back(i);
  std::vector<std::future<void>> waits;
  for (size_t s = 0; s < by_shard.size(); ++s) {
    if (by_shard[s].empty()) continue;
    auto done = std::make_shared<std::promise<void>>();
    waits.push_back(done->get_future());
    ShardedRouter::Shard* shard = shards[s].get();
    // `fn` and the slot list outlive the task: this call waits below.
    shard->workers.SubmitExempt([shard, slots = &by_shard[s], &fn, done] {
      fn(shard->unit.graph(), *slots);
      done->set_value();
    });
  }
  for (auto& w : waits) w.wait();
}

// The distributed-BFS adjacency: PrepareLevel fetches the whole frontier
// level's rows from each node's home shard (one batched sub-task per
// shard, in parallel on the shard workers — the stand-in for the RPC a
// networked deployment would make), then ForEachOut/ForEachIn replay
// them in frontier order. The home shard holds both exact rows of its
// nodes (partition rules R1+R2), so the replayed rows equal the base
// graph's and the shared search template walks the exact same expansion
// order as the unsharded engine's local BFS.
class ScatterAdj {
 public:
  ScatterAdj(const Shards* shards, const std::vector<uint8_t>* home)
      : shards_(shards), home_(home) {}

  void PrepareLevel(std::span<const NodeId> frontier, bool forward) const {
    ELITENET_SPAN("serve.router.gather_level");
    rows_.assign(frontier.size(), {});
    cursor_ = 0;
    FanOut(
        *shards_, static_cast<uint32_t>(frontier.size()),
        [&](uint32_t i) { return (*home_)[frontier[i]]; },
        [&](const DiGraph& g, const std::vector<uint32_t>& slots) {
          for (uint32_t i : slots) {
            const auto row = forward ? g.OutNeighbors(frontier[i])
                                     : g.InNeighbors(frontier[i]);
            rows_[i].assign(row.begin(), row.end());
          }
        });
  }

  template <typename Fn>
  void ForEachOut(NodeId, Fn&& fn) const {
    for (NodeId v : rows_[cursor_++]) fn(v);
  }
  template <typename Fn>
  void ForEachIn(NodeId, Fn&& fn) const {
    for (NodeId v : rows_[cursor_++]) fn(v);
  }

 private:
  const Shards* shards_;
  const std::vector<uint8_t>* home_;
  // Per-level row buffers, indexed by frontier position; the search
  // consumes each exactly once, in order (hence the cursor).
  mutable std::vector<std::vector<NodeId>> rows_;
  mutable size_t cursor_ = 0;
};

}  // namespace

ShardedRouter::ShardedRouter(const RouterOptions& options, uint64_t nodes,
                             uint64_t edges)
    : FrontDoor(options.engine),
      num_nodes_(nodes),
      num_edges_(edges),
      scratch_(static_cast<NodeId>(nodes)) {}

ShardedRouter::~ShardedRouter() {
  // The exporter's final snapshot reads shard stats, and queued jobs
  // still reach the shards, so close the front door while they live.
  Close();
}

Result<std::unique_ptr<ShardedRouter>> ShardedRouter::Create(
    DiGraph g, const RouterOptions& options) {
  if (g.num_nodes() == 0) {
    return Status::InvalidArgument("cannot serve an empty graph");
  }
  std::unique_ptr<ShardedRouter> router(
      new ShardedRouter(options, g.num_nodes(), g.num_edges()));

  util::SpanTimer timer("serve.router.warmup");
  // One hash of the base keys both sidecars.
  const uint64_t checksum = graph::GraphChecksum(g);
  {
    // One warm build over the *global* graph; every shard answers from
    // this bundle, which is what makes PageRank/component/hub-label
    // bytes identical across shard counts.
    ELITENET_SPAN("serve.router.warm_global");
    auto warm = LoadOrBuildWarmIndexes(g, options.engine, checksum,
                                       &router->warm_from_cache_);
    if (!warm.ok()) return warm.status();
    router->warm_ = std::move(*warm);
  }
  {
    ELITENET_SPAN("serve.router.partition");
    PartitionOptions popt;
    popt.num_shards = options.num_shards;
    auto part = LoadOrBuildPartition(g, popt, checksum, options.partition_path,
                                     &router->partition_from_cache_);
    if (!part.ok()) return part.status();
    router->partition_ = std::move(*part);
  }
  for (int s = 0; s < options.num_shards; ++s) {
    router->shards_.push_back(
        std::make_unique<Shard>(g, options.shard_threads));
  }
  router->warmup_seconds_ = timer.Seconds();
  router->Open();
  return router;
}

QueryResponse ShardedRouter::Compute(const Request& r,
                                     const util::Deadline& deadline,
                                     const LiveSnapshot&) {
  if (r.type == RequestType::kTopKRank) return DoTopK(r);
  if (r.type == RequestType::kDistance && r.node < num_nodes_ &&
      r.target < num_nodes_ && !distance_oracle_active()) {
    return ScatterDistance(r, deadline);
  }
  // Single-shard: the home shard's rows (and, for ego's 2-hop reach, its
  // halo rows) are exact; fingerprint and the hub-label oracle read only
  // the global warm bundle, so any shard renders the same bytes.
  // Out-of-range nodes route to shard 0, whose unit renders the engine's
  // NotFound bytes.
  return shards_[HomeShard(r.node)]->unit.Compute(r, deadline, warm_,
                                                  nullptr);
}

QueryResponse ShardedRouter::DoTopK(const Request& r) {
  ELITENET_SPAN("serve.router.scatter_topk");
  const uint32_t returned =
      std::min<uint32_t>(r.k, static_cast<uint32_t>(warm_.rank_order.size()));
  // Rank order and scores come from the global warm bundle; only the
  // degree columns need the graph, and each row's home shard holds both
  // of its rows exactly. Gather per shard in parallel into one slot per
  // rank position.
  std::vector<std::pair<uint32_t, uint32_t>> degrees(returned);
  FanOut(
      shards_, returned,
      [&](uint32_t i) { return HomeShard(warm_.rank_order[i]); },
      [&](const DiGraph& g, const std::vector<uint32_t>& slots) {
        for (uint32_t i : slots) {
          const NodeId u = warm_.rank_order[i];
          degrees[i] = {g.InDegree(u), g.OutDegree(u)};
        }
      });
  QueryResponse resp;
  resp.json = RenderTopKJson(warm_, r.k, degrees);
  return resp;
}

QueryResponse ShardedRouter::ScatterDistance(const Request& r,
                                             const util::Deadline& deadline) {
  // BFS fallback: the shared bounded search over the scatter-gather
  // adjacency — same expansion order as an unsharded engine's local BFS,
  // rendered by the same function, so completed *and* degraded bytes
  // match at every shard count.
  ELITENET_SPAN("serve.router.scatter_bfs");
  auto scratch = scratch_.Borrow();
  ScatterAdj adj(&shards_, &partition_.home);
  const graph::BoundedDistanceResult d = graph::BoundedBidirectionalDistance(
      adj, r.node, r.target, deadline, &scratch->fwd, &scratch->bwd);
  scratch_.Return(std::move(scratch));
  QueryResponse resp = MakeDistanceResponse(r, d);
  resp.oracle_fallback = true;
  return resp;
}

void ShardedRouter::AddStats(EngineStatsContext* ctx) const {
  ctx->nodes = num_nodes_;
  ctx->edges = num_edges_;
  ctx->oracle_active = distance_oracle_active();
  ctx->shards.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    EngineStatsContext::ShardEntry entry;
    entry.id = static_cast<int>(s);
    entry.nodes = partition_.home_nodes[s];
    for (size_t i = 0; i < kNumQosClasses; ++i) {
      const QosClassStats cs = shards_[s]->workers.class_stats(QosClassAt(i));
      entry.queue_depth += cs.queue_depth;
      entry.executed += cs.executed;
    }
    ctx->shards.push_back(entry);
  }
  ctx->hub_replicas = partition_.hubs.size();
}

}  // namespace serve
}  // namespace elitenet
