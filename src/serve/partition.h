// Degree-aware partitioning for the sharded serving tier
// (serve/router.h): give every node a home shard such that every
// single-node query (ego, neighbors, mutual counts, 2-hop reach) is
// answerable *exactly* from the rows one shard holds, with the top-K
// hub rows on every shard. The router's shards all read the one base
// graph and the partition only routes; BuildShardGraph materializes a
// shard's rows as the reference a test serves from. A shard graph keeps
// the base's num_nodes and global ids, so the globally computed warm
// indexes index straight into it. Which rows are *exact* (complete):
//
//   R1  home(u) == s        → all of u's out-edges   (exact out-rows)
//   R2  home(v) == s        → every edge u→v         (exact in-rows)
//   R3  u or v is a hub     → edge included          (hub rows exact on
//                                                     every shard)
//   R4  u is an out-neighbor of a node homed on s ("halo")
//                           → all of u's out-edges   (2-hop exactness)
//
// R1+R2 make both adjacency rows of a node exact on its home shard; R4
// extends that to the out-rows of every direct neighbor, which is what
// lets the ego summary's 2-hop reach complete on one shard. R3 bounds
// the replication the power-law degree distribution would otherwise
// force through R4: the few huge hub rows are paid once per shard
// regardless of who follows them.
//
// Placement is greedy LPT: nodes in descending total-degree order, each
// assigned to the least-loaded shard (load = total degree + 1), ties to
// the lowest shard id — deterministic, so the same graph and options
// always produce the same partition, which the PIDX sidecar then caches
// across restarts.

#ifndef ELITENET_SERVE_PARTITION_H_
#define ELITENET_SERVE_PARTITION_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "util/status.h"

namespace elitenet {
namespace serve {

struct PartitionOptions {
  /// Shard count, 1..255 (the home map stores one byte per node).
  int num_shards = 1;
  /// Top-degree rows every shard holds (R3). Shapes the reference
  /// materialization and keys the PIDX sidecar; 0 disables hub
  /// replication.
  uint32_t hub_count = 64;
};

/// A node→shard assignment plus the replicated hub set. Immutable once
/// built; the router's routing table.
struct Partition {
  int num_shards = 1;
  /// home[u] = shard that owns node u's exact rows.
  std::vector<uint8_t> home;
  /// Hub nodes (ascending id order).
  std::vector<graph::NodeId> hubs;
  /// Checksum of the graph this partition was computed for.
  uint64_t graph_checksum = 0;
  /// Home-node count per shard (diagnostics / #stats).
  std::vector<uint64_t> home_nodes;

  bool is_hub(graph::NodeId u) const {
    return std::binary_search(hubs.begin(), hubs.end(), u);
  }
};

/// Deterministic degree-aware placement (see file comment). Fails only
/// when num_shards is outside 1..255; a shard may own zero nodes on a
/// tiny graph.
Result<Partition> BuildPartition(const graph::DiGraph& g,
                                 const PartitionOptions& options);

/// The reference materialization of shard `s`: same num_nodes as `g`,
/// exactly the edges of rules R1–R4 (GraphBuilder sorts and dedups
/// rows). The router serves from the base instead; the router tests
/// serve from this to hold it to R1–R4, and servebench times it.
Result<graph::DiGraph> BuildShardGraph(const graph::DiGraph& g,
                                       const Partition& p, int shard);

/// Sidecar path convention: "<graph_path>.pidx".
std::string PartitionPathFor(const std::string& graph_path);

/// Persists the partition as a PIDX sidecar in the sectioned container
/// of util/sectioned_file.h (atomic temp+rename, XXH64 per section):
/// header words graph checksum | node count | shard count | hub count
/// << 32, sections home map and hub ids. Keyed by (graph checksum, shard
/// count, hub count) — a shard-count change misses the key and triggers
/// a recompute instead of invalidating the (much more expensive) .widx
/// warm-index sidecar next to it.
Status SavePartition(const std::string& path, const Partition& p,
                     uint32_t hub_count);

/// Restores a partition whose key matches; any mismatch (stale graph,
/// different shard/hub count, corruption) is an error status — callers
/// rebuild.
Result<Partition> LoadPartition(const std::string& path,
                                uint64_t graph_checksum, int num_shards,
                                uint32_t hub_count,
                                graph::NodeId expected_nodes);

/// Sidecar-aware build: try LoadPartition when `path` is non-empty, else
/// (or on miss) build and best-effort SavePartition. `graph_checksum` is
/// graph::GraphChecksum(g). `*from_cache` reports which path ran.
Result<Partition> LoadOrBuildPartition(const graph::DiGraph& g,
                                       const PartitionOptions& options,
                                       uint64_t graph_checksum,
                                       const std::string& path,
                                       bool* from_cache);

}  // namespace serve
}  // namespace elitenet

#endif  // ELITENET_SERVE_PARTITION_H_
