#include "serve/partition.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "graph/builder.h"
#include "graph/io.h"
#include "util/sectioned_file.h"

namespace elitenet {
namespace serve {

using graph::DiGraph;
using graph::NodeId;

namespace {

// PIDX in the sectioned container (util/sectioned_file.h): header words
// {graph_checksum, num_nodes, num_shards | hub_count << 32}, sections
// home (one byte per node) and hubs (u32 ids, ascending). v2 has v1's
// payload bytes under XXH64 digests; a v1 sidecar is a miss and is
// rewritten.
constexpr util::SectionedFormat kPidx = {{'P', 'I', 'D', 'X'}, 2, 2};

enum SectionId : uint32_t {
  kHome = 0,
  kHubs = 1,
};

uint64_t ShardsAndHubs(uint32_t num_shards, uint32_t hub_count) {
  return num_shards | uint64_t{hub_count} << 32;
}

// BuildPartition over a graph whose checksum the caller already has.
Result<Partition> Place(const DiGraph& g, const PartitionOptions& options,
                        uint64_t graph_checksum) {
  if (options.num_shards < 1 || options.num_shards > 255) {
    return Status::InvalidArgument(
        "num_shards must be in 1..255 (one-byte home map), got " +
        std::to_string(options.num_shards));
  }
  const NodeId n = g.num_nodes();
  const int shards = options.num_shards;

  // Nodes in descending total-degree order, ties by ascending id — the
  // deterministic LPT order. The hub set is simply this order's prefix.
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  auto total_degree = [&](NodeId u) -> uint64_t {
    return static_cast<uint64_t>(g.OutDegree(u)) + g.InDegree(u);
  };
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    const uint64_t da = total_degree(a), db = total_degree(b);
    if (da != db) return da > db;
    return a < b;
  });

  Partition p;
  p.num_shards = shards;
  p.graph_checksum = graph_checksum;
  p.home.assign(n, 0);
  p.home_nodes.assign(static_cast<size_t>(shards), 0);

  const uint32_t hub_count =
      std::min<uint32_t>(options.hub_count, static_cast<uint32_t>(n));
  p.hubs.assign(order.begin(), order.begin() + hub_count);
  std::sort(p.hubs.begin(), p.hubs.end());

  // Greedy LPT: each node (heaviest first) lands on the least-loaded
  // shard; load is the node's total degree plus one so degree-zero nodes
  // still spread. Ties go to the lowest shard id — with the fixed node
  // order that makes the whole placement a pure function of the graph.
  std::vector<uint64_t> load(static_cast<size_t>(shards), 0);
  for (NodeId u : order) {
    int best = 0;
    for (int s = 1; s < shards; ++s) {
      if (load[s] < load[best]) best = s;
    }
    p.home[u] = static_cast<uint8_t>(best);
    load[best] += total_degree(u) + 1;
    ++p.home_nodes[best];
  }
  return p;
}

}  // namespace

Result<Partition> BuildPartition(const DiGraph& g,
                                 const PartitionOptions& options) {
  return Place(g, options, graph::GraphChecksum(g));
}

Result<DiGraph> BuildShardGraph(const DiGraph& g, const Partition& p,
                                int shard) {
  if (shard < 0 || shard >= p.num_shards) {
    return Status::InvalidArgument("shard index out of range");
  }
  if (p.home.size() != g.num_nodes()) {
    return Status::InvalidArgument(
        "partition home map does not cover this graph");
  }
  const NodeId n = g.num_nodes();
  const uint8_t s = static_cast<uint8_t>(shard);

  std::vector<uint8_t> hub(n, 0);
  for (NodeId h : p.hubs) hub[h] = 1;

  // R4 halo: every out-neighbor of a node homed here gets its full out
  // row, which is what makes the 2-hop ego reach single-shard exact.
  std::vector<uint8_t> halo(n, 0);
  for (NodeId u = 0; u < n; ++u) {
    if (p.home[u] != s) continue;
    for (NodeId v : g.OutNeighbors(u)) halo[v] = 1;
  }

  graph::GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    const bool full_row = p.home[u] == s || hub[u] != 0 || halo[u] != 0;
    for (NodeId v : g.OutNeighbors(u)) {
      if (full_row || p.home[v] == s || hub[v] != 0) {
        EN_RETURN_IF_ERROR(builder.AddEdge(u, v));
      }
    }
  }
  return builder.Build();
}

std::string PartitionPathFor(const std::string& graph_path) {
  std::string base = graph_path;
  while (base.size() > 1 && base.back() == '/') base.pop_back();
  return base + ".pidx";
}

Status SavePartition(const std::string& path, const Partition& p,
                     uint32_t hub_count) {
  EN_ASSIGN_OR_RETURN(util::SectionedWriter out,
                      util::SectionedWriter::Create(path, kPidx));
  EN_RETURN_IF_ERROR(out.AddSection(std::span<const uint8_t>(p.home)));
  EN_RETURN_IF_ERROR(out.AddSection(std::span<const NodeId>(p.hubs)));
  return out.Commit(
      {p.graph_checksum, p.home.size(),
       ShardsAndHubs(static_cast<uint32_t>(p.num_shards), hub_count)});
}

Result<Partition> LoadPartition(const std::string& path,
                                uint64_t graph_checksum, int num_shards,
                                uint32_t hub_count, NodeId expected_nodes) {
  EN_ASSIGN_OR_RETURN(util::SectionedFile file,
                      util::SectionedFile::Open(path, kPidx));
  if (file.words()[0] != graph_checksum ||
      file.words()[2] !=
          ShardsAndHubs(static_cast<uint32_t>(num_shards), hub_count)) {
    return Status::FailedPrecondition(
        "stale partition key (graph, shard count, or hub count changed): " +
        path);
  }
  if (file.words()[1] != expected_nodes) {
    return Status::FailedPrecondition("partition node count mismatch: " + path);
  }

  Partition p;
  p.num_shards = num_shards;
  p.graph_checksum = graph_checksum;
  if (file.section(kHome).size() != expected_nodes) {
    return Status::Corruption("partition home map has the wrong size");
  }
  EN_RETURN_IF_ERROR(file.CopySection(kHome, &p.home));
  EN_RETURN_IF_ERROR(file.CopySection(kHubs, &p.hubs));
  if (p.hubs.size() != std::min<uint64_t>(hub_count, expected_nodes)) {
    return Status::Corruption("partition hub list disagrees with hub count");
  }

  // The same validation a fresh build guarantees by construction.
  p.home_nodes.assign(static_cast<size_t>(num_shards), 0);
  for (uint8_t h : p.home) {
    if (h >= num_shards) {
      return Status::Corruption("partition home shard out of range");
    }
    ++p.home_nodes[h];
  }
  NodeId prev = 0;
  for (size_t i = 0; i < p.hubs.size(); ++i) {
    if (p.hubs[i] >= expected_nodes || (i > 0 && p.hubs[i] <= prev)) {
      return Status::Corruption("partition hub list not sorted in range");
    }
    prev = p.hubs[i];
  }
  return p;
}

Result<Partition> LoadOrBuildPartition(const DiGraph& g,
                                       const PartitionOptions& options,
                                       uint64_t graph_checksum,
                                       const std::string& path,
                                       bool* from_cache) {
  *from_cache = false;
  if (!path.empty()) {
    auto restored = LoadPartition(path, graph_checksum, options.num_shards,
                                  options.hub_count, g.num_nodes());
    if (restored.ok()) {
      *from_cache = true;
      return restored;
    }
  }
  auto built = Place(g, options, graph_checksum);
  if (!built.ok()) return built.status();
  if (!path.empty()) {
    // Best-effort, like the warm sidecar: a read-only filesystem must
    // not fail router startup.
    (void)SavePartition(path, *built, options.hub_count);
  }
  return built;
}

}  // namespace serve
}  // namespace elitenet
