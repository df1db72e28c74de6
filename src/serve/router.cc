#include "serve/router.h"

#include <utility>

#include "graph/io.h"
#include "util/trace.h"

namespace elitenet {
namespace serve {

using graph::DiGraph;

ShardedRouter::ShardedRouter(const RouterOptions& options, uint64_t nodes,
                             uint64_t edges)
    : FrontDoor(options.engine), num_nodes_(nodes), num_edges_(edges) {}

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
  // One checksum keys both sidecars: O(1) on a mapped base, which carries
  // the value MapBinary verified; one hash of a resident one.
  const uint64_t checksum = graph::GraphChecksum(g);
  {
    // One warm build over the *global* graph; every shard answers from
    // this bundle, which is what makes PageRank/component/hub-label
    // bytes identical across shard counts.
    ELITENET_SPAN("serve.router.warm_global");
    auto warm = LoadOrBuildWarmIndexes(g, options.engine, checksum,
                                       &router->warm_from_cache_,
                                       &router->warm_stages_);
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
    router->shards_.push_back(std::make_unique<ComputeUnit>(g));
  }
  router->warmup_seconds_ = timer.Seconds();
  router->Open();
  return router;
}

QueryResponse ShardedRouter::Compute(const Request& r,
                                     const util::Deadline& deadline,
                                     const LiveSnapshot&) {
  // The home shard's unit runs the engine's own handler over the shared
  // base and the global warm bundle, so every request type renders the
  // unsharded bytes.
  return shards_[HomeShard(r.node)]->Compute(r, deadline, warm_, nullptr);
}

void ShardedRouter::AddStats(EngineStatsContext* ctx) const {
  ctx->nodes = num_nodes_;
  ctx->edges = num_edges_;
  ctx->shards.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    ctx->shards.push_back({static_cast<int>(s), partition_.home_nodes[s]});
  }
  ctx->hub_replicas = partition_.hubs.size();
}

}  // namespace serve
}  // namespace elitenet
