// Scale-out serving: N shard compute units behind one router.
//
// The router is a FrontDoor backend (serve/front_door.h): the one
// admission plane — QoS executor, result cache, telemetry, admin verbs —
// sits in front of it exactly as it sits in front of an unsharded
// QueryEngine, so every request is admitted, counted and cached exactly
// once. Behind it, each shard is a ComputeUnit (serve/compute.h) and
// nothing more: shards own no admission plane and no workers of their
// own, and every request is answered inline on the router worker that
// dequeued it.
//
// Every shard's unit holds the router's one base graph (a DiGraph copy
// is an O(1) share of the mapped CSR): memory is one base plus one warm
// bundle. The degree-aware partition (serve/partition.h) only routes:
// each request goes to the home shard of its node, whose unit runs the
// engine's own handler. For ego and neighbors the unit reads only rows
// its shard holds exactly under rules R1–R4, which a test holds by
// serving the same bytes from materialized shard rows. dist and topk
// read the shared base inline — the bounded bidirectional search over
// graph::GraphAdj and the degree columns of the ranked rows — exactly as
// an unsharded engine does.
//
// The contract that makes sharding an implementation detail: **response
// bytes are identical to the unsharded engine's at every shard count**,
// including error, degraded, and cached paths. It holds by construction:
// warm indexes are computed once, over the *global* graph, and every
// request runs the same ComputeUnit handler over the same base graph and
// bundle as the unsharded engine. Out-of-range nodes route to shard 0,
// whose unit renders the engine's NotFound bytes.

#ifndef ELITENET_SERVE_ROUTER_H_
#define ELITENET_SERVE_ROUTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "serve/compute.h"
#include "serve/engine.h"
#include "serve/front_door.h"
#include "serve/partition.h"
#include "serve/request.h"
#include "util/deadline.h"
#include "util/status.h"

namespace elitenet {
namespace serve {

struct RouterOptions {
  /// Shard count, 1..255. One shard is legal (and byte-identical to an
  /// unsharded engine — the degenerate case the identity tests pin).
  int num_shards = 2;
  /// No effect: shards run no workers of their own. Kept so existing
  /// callers that set it still compile.
  int shard_threads = 1;
  /// When non-empty, the partition is restored from / persisted to this
  /// ".pidx" sidecar (PartitionPathFor gives the convention).
  std::string partition_path;
  /// Front-door options: `threads` sizes the router's QoS executor,
  /// `qos` sets its admission caps, `cache_capacity` its result cache,
  /// `telemetry`/`metrics_path` its observability; `warm_index_path`
  /// and the index-shaping fields (pagerank, fingerprint) shape the
  /// *global* warm bundle.
  EngineOptions engine;
};

/// The sharded router. Thread-safe; one instance per served graph, like
/// QueryEngine — both are FrontDoors, so the line-protocol front end
/// drives either.
class ShardedRouter : public FrontDoor {
 public:
  /// Builds (or restores) the global warm bundle and the partition, and
  /// one compute unit per shard over `g` itself. Hashes `g` once, for
  /// both sidecar keys.
  static Result<std::unique_ptr<ShardedRouter>> Create(
      graph::DiGraph g, const RouterOptions& options = {});

  ~ShardedRouter() override;

  int num_shards() const { return static_cast<int>(shards_.size()); }
  uint64_t num_nodes() const { return num_nodes_; }
  uint64_t num_edges() const { return num_edges_; }

  /// The node→shard map and hub set in force.
  const Partition& partition() const { return partition_; }

  /// The global warm bundle every shard serves from.
  const WarmIndexes& warm_indexes() const { return warm_; }

  bool partition_from_cache() const { return partition_from_cache_; }

 protected:
  /// Routes `r` to its node's home shard — the front door's miss path.
  QueryResponse Compute(const Request& r, const util::Deadline& deadline,
                        const LiveSnapshot& snap) override;
  /// Global graph identity and one ShardEntry per shard.
  void AddStats(EngineStatsContext* ctx) const override;

 private:
  ShardedRouter(const RouterOptions& options, uint64_t nodes, uint64_t edges);

  int HomeShard(graph::NodeId u) const {
    return u < num_nodes_ ? partition_.home[u] : 0;
  }

  const uint64_t num_nodes_;
  const uint64_t num_edges_;
  WarmIndexes warm_;
  Partition partition_;
  bool partition_from_cache_ = false;
  /// One compute unit per shard, each over the shared base graph.
  std::vector<std::unique_ptr<ComputeUnit>> shards_;
};

}  // namespace serve
}  // namespace elitenet

#endif  // ELITENET_SERVE_ROUTER_H_
