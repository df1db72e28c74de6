// Partition correctness: deterministic degree-aware placement, the
// R1–R4 shard-edge rules that make single-node queries exact on one
// shard, and the PIDX sidecar round-trip with its corruption / stale-key
// rejection paths.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/digraph.h"
#include "graph/io.h"
#include "sectioned_bytes.h"
#include "serve/partition.h"
#include "util/rng.h"
#include "util/status.h"

namespace elitenet {
namespace serve {
namespace {

using graph::DiGraph;
using graph::GraphBuilder;
using graph::NodeId;

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

// A seeded power-law-ish graph: node 0 is a huge hub, low ids generally
// out-rank high ids, plus uniform noise so every rule has work to do.
DiGraph TestGraph(uint32_t n = 200, uint64_t seed = 2018) {
  GraphBuilder b(n);
  util::Rng rng(seed);
  for (uint32_t u = 1; u < n; ++u) {
    EXPECT_TRUE(b.AddEdge(u, 0).ok());  // everyone follows the hub
    const uint32_t fanout = 1 + static_cast<uint32_t>(rng.UniformU64(6));
    for (uint32_t j = 0; j < fanout; ++j) {
      const NodeId v = static_cast<NodeId>(rng.UniformU64(n));
      if (v != u) {
        EXPECT_TRUE(b.AddEdge(u, v).ok());
      }
    }
  }
  for (uint32_t j = 0; j < 40; ++j) {  // the hub follows a few back
    EXPECT_TRUE(b.AddEdge(0, 1 + static_cast<NodeId>(rng.UniformU64(n - 1))).ok());
  }
  auto g = std::move(b).Build();
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

std::vector<NodeId> Row(const DiGraph& g, NodeId u, bool out) {
  auto span = out ? g.OutNeighbors(u) : g.InNeighbors(u);
  return std::vector<NodeId>(span.begin(), span.end());
}

TEST(PartitionTest, ValidatesShardCount) {
  const DiGraph g = TestGraph(16);
  PartitionOptions opts;
  opts.num_shards = 0;
  EXPECT_EQ(BuildPartition(g, opts).status().code(),
            StatusCode::kInvalidArgument);
  opts.num_shards = 256;
  EXPECT_EQ(BuildPartition(g, opts).status().code(),
            StatusCode::kInvalidArgument);
  opts.num_shards = 255;
  EXPECT_TRUE(BuildPartition(g, opts).ok());
}

TEST(PartitionTest, PlacementIsDeterministicAndCoversEveryNode) {
  const DiGraph g = TestGraph();
  PartitionOptions opts;
  opts.num_shards = 4;
  opts.hub_count = 8;
  auto a = BuildPartition(g, opts);
  auto b = BuildPartition(g, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->home, b->home);
  EXPECT_EQ(a->hubs, b->hubs);
  EXPECT_EQ(a->home_nodes, b->home_nodes);

  ASSERT_EQ(a->home.size(), g.num_nodes());
  std::vector<uint64_t> counted(4, 0);
  for (uint8_t h : a->home) {
    ASSERT_LT(h, 4);
    ++counted[h];
  }
  EXPECT_EQ(a->home_nodes, counted);
  EXPECT_EQ(a->graph_checksum, graph::GraphChecksum(g));

  // Hubs are the highest-total-degree nodes, stored ascending; node 0
  // (followed by everyone) must be among them.
  ASSERT_EQ(a->hubs.size(), 8u);
  EXPECT_TRUE(std::is_sorted(a->hubs.begin(), a->hubs.end()));
  EXPECT_TRUE(a->is_hub(0));
}

TEST(PartitionTest, LptBalancesDegreeLoad) {
  const DiGraph g = TestGraph(400);
  PartitionOptions opts;
  opts.num_shards = 4;
  opts.hub_count = 0;
  auto p = BuildPartition(g, opts);
  ASSERT_TRUE(p.ok());
  std::vector<uint64_t> load(4, 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    load[p->home[u]] += g.OutDegree(u) + g.InDegree(u) + 1;
  }
  const uint64_t max = *std::max_element(load.begin(), load.end());
  const uint64_t min = *std::min_element(load.begin(), load.end());
  // Greedy LPT keeps the spread within the largest single item; with one
  // dominant hub node this bound is loose, so assert a generous 2x.
  EXPECT_LE(max, 2 * min) << "load spread " << min << ".." << max;
}

TEST(PartitionTest, ShardRulesMakeHomeRowsExact) {
  const DiGraph g = TestGraph();
  PartitionOptions opts;
  opts.num_shards = 3;
  opts.hub_count = 4;
  auto p = BuildPartition(g, opts);
  ASSERT_TRUE(p.ok());

  std::vector<DiGraph> shards;
  uint64_t edges_total = 0;
  for (int s = 0; s < 3; ++s) {
    auto sg = BuildShardGraph(g, *p, s);
    ASSERT_TRUE(sg.ok());
    ASSERT_EQ(sg->num_nodes(), g.num_nodes());
    edges_total += sg->num_edges();
    shards.push_back(std::move(*sg));
  }
  // Replication is real: R1 alone would sum to exactly num_edges.
  EXPECT_GT(edges_total, g.num_edges());

  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const int home = p->home[u];
    // R1+R2: both rows exact on the home shard.
    EXPECT_EQ(Row(shards[home], u, true), Row(g, u, true)) << "out " << u;
    EXPECT_EQ(Row(shards[home], u, false), Row(g, u, false)) << "in " << u;
    // R4: out-rows of u's out-neighbors exact on u's home shard (2-hop).
    for (NodeId v : g.OutNeighbors(u)) {
      EXPECT_EQ(Row(shards[home], v, true), Row(g, v, true))
          << "halo out-row " << v << " for " << u;
    }
    // Every shard row is a subset of the base row.
    for (int s = 0; s < 3; ++s) {
      for (NodeId v : shards[s].OutNeighbors(u)) {
        EXPECT_TRUE(std::binary_search(g.OutNeighbors(u).begin(),
                                       g.OutNeighbors(u).end(), v))
            << "phantom edge " << u << "->" << v << " on shard " << s;
      }
    }
  }
}

TEST(PartitionTest, HubRowsExactOnEveryShard) {
  const DiGraph g = TestGraph();
  PartitionOptions opts;
  opts.num_shards = 4;
  opts.hub_count = 6;
  auto p = BuildPartition(g, opts);
  ASSERT_TRUE(p.ok());
  for (int s = 0; s < 4; ++s) {
    auto sg = BuildShardGraph(g, *p, s);
    ASSERT_TRUE(sg.ok());
    for (NodeId h : p->hubs) {
      EXPECT_EQ(Row(*sg, h, true), Row(g, h, true))
          << "hub " << h << " out-row, shard " << s;
      EXPECT_EQ(Row(*sg, h, false), Row(g, h, false))
          << "hub " << h << " in-row, shard " << s;
    }
  }
}

TEST(PartitionTest, SingleShardIsTheFullGraph) {
  const DiGraph g = TestGraph(64);
  PartitionOptions opts;
  opts.num_shards = 1;
  auto p = BuildPartition(g, opts);
  ASSERT_TRUE(p.ok());
  auto sg = BuildShardGraph(g, *p, 0);
  ASSERT_TRUE(sg.ok());
  EXPECT_EQ(sg->num_edges(), g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    EXPECT_EQ(Row(*sg, u, true), Row(g, u, true));
  }
}

TEST(PartitionTest, PathConvention) {
  EXPECT_EQ(PartitionPathFor("follows.eng2"), "follows.eng2.pidx");
  EXPECT_EQ(PartitionPathFor("data/graph.eng"), "data/graph.eng.pidx");
  EXPECT_EQ(PartitionPathFor("dataset/"), "dataset.pidx");
}

TEST(PartitionTest, SidecarRoundTrips) {
  const DiGraph g = TestGraph();
  PartitionOptions opts;
  opts.num_shards = 4;
  opts.hub_count = 8;
  auto p = BuildPartition(g, opts);
  ASSERT_TRUE(p.ok());

  const std::string path = TempPath("roundtrip.pidx");
  ASSERT_TRUE(SavePartition(path, *p, opts.hub_count).ok());
  auto loaded = LoadPartition(path, p->graph_checksum, opts.num_shards,
                              opts.hub_count, g.num_nodes());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->home, p->home);
  EXPECT_EQ(loaded->hubs, p->hubs);
  EXPECT_EQ(loaded->home_nodes, p->home_nodes);
  EXPECT_EQ(loaded->graph_checksum, p->graph_checksum);
  EXPECT_EQ(loaded->num_shards, p->num_shards);
}

TEST(PartitionTest, SidecarRejectsStaleKey) {
  const DiGraph g = TestGraph(64);
  PartitionOptions opts;
  opts.num_shards = 2;
  opts.hub_count = 4;
  auto p = BuildPartition(g, opts);
  ASSERT_TRUE(p.ok());
  const std::string path = TempPath("stalekey.pidx");
  ASSERT_TRUE(SavePartition(path, *p, opts.hub_count).ok());

  // Any key component mismatch is FailedPrecondition — the caller
  // rebuilds rather than serving a partition for a different setup.
  EXPECT_EQ(LoadPartition(path, p->graph_checksum + 1, 2, 4, g.num_nodes())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(LoadPartition(path, p->graph_checksum, 3, 4, g.num_nodes())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(LoadPartition(path, p->graph_checksum, 2, 5, g.num_nodes())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(PartitionTest, SidecarRejectsCorruption) {
  const DiGraph g = TestGraph(64);
  PartitionOptions opts;
  opts.num_shards = 2;
  opts.hub_count = 4;
  auto p = BuildPartition(g, opts);
  ASSERT_TRUE(p.ok());
  const std::string path = TempPath("corrupt.pidx");
  ASSERT_TRUE(SavePartition(path, *p, opts.hub_count).ok());

  // Flip one byte inside the home-map section payload.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekg(0, std::ios::end);
    const auto size = static_cast<long>(f.tellg());
    const long target = size - 8;  // inside the last section's payload
    ASSERT_GT(target, 0);
    f.seekg(target);
    char byte = 0;
    f.read(&byte, 1);
    byte ^= 0x5A;
    f.seekp(target);
    f.write(&byte, 1);
  }
  EXPECT_EQ(LoadPartition(path, p->graph_checksum, 2, 4, g.num_nodes())
                .status()
                .code(),
            StatusCode::kCorruption);

  // Truncation is also rejected, not crashed on.
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<long>(bytes.size() / 2));
  }
  EXPECT_FALSE(
      LoadPartition(path, p->graph_checksum, 2, 4, g.num_nodes()).ok());
}

// A sidecar keyed for K hubs must carry min(K, n) of them. Found by the
// PIDX fuzz (io_robustness_test): an empty hub section behind a valid
// checksum loaded as a partition with no hubs under a key that says 4.
TEST(PartitionTest, SidecarHubListOfTheWrongSizeIsCorruption) {
  using namespace sectioned_bytes;
  const DiGraph g = TestGraph(64);
  PartitionOptions opts;
  opts.num_shards = 2;
  opts.hub_count = 4;
  auto p = BuildPartition(g, opts);
  ASSERT_TRUE(p.ok());
  const std::string path = TempPath("short_hubs.pidx");
  ASSERT_TRUE(SavePartition(path, *p, opts.hub_count).ok());
  const std::string good = ReadFileBytes(path);
  for (const uint64_t hub_bytes : {0, 4, 12}) {
    std::string bad = good;
    Put<uint64_t>(&bad, LengthAt(1), hub_bytes);
    ResealSections(&bad, 2);
    WriteFileBytes(path, bad);
    EXPECT_EQ(LoadPartition(path, p->graph_checksum, 2, 4, g.num_nodes())
                  .status()
                  .code(),
              StatusCode::kCorruption)
        << hub_bytes << " bytes of hubs";
  }
}

TEST(PartitionTest, LoadOrBuildReportsCacheState) {
  const DiGraph g = TestGraph(64);
  PartitionOptions opts;
  opts.num_shards = 2;
  opts.hub_count = 4;
  const std::string path = TempPath("loadorbuild.pidx");
  std::remove(path.c_str());

  const uint64_t checksum = graph::GraphChecksum(g);
  bool from_cache = true;
  auto first = LoadOrBuildPartition(g, opts, checksum, path, &from_cache);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(from_cache);  // built fresh, sidecar written

  auto second = LoadOrBuildPartition(g, opts, checksum, path, &from_cache);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(from_cache);  // restored
  EXPECT_EQ(second->home, first->home);
  EXPECT_EQ(second->hubs, first->hubs);

  // A shard-count change misses the key and silently rebuilds (and
  // rewrites the sidecar for the new setup).
  opts.num_shards = 2;
  opts.hub_count = 8;
  auto third = LoadOrBuildPartition(g, opts, checksum, path, &from_cache);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(from_cache);
  EXPECT_EQ(third->hubs.size(), 8u);

  // Empty path: always build, never touch disk.
  auto direct = LoadOrBuildPartition(g, opts, checksum, "", &from_cache);
  ASSERT_TRUE(direct.ok());
  EXPECT_FALSE(from_cache);
}

// PIDX v1 had v2's payload bytes under FNV-1a digests. A v1 sidecar is
// NotSupported, which LoadOrBuildPartition treats as a miss: it rebuilds
// and rewrites the file as v2, which the next start restores.
TEST(PartitionTest, Version1SidecarIsRebuiltAndRewritten) {
  using namespace sectioned_bytes;
  const DiGraph g = TestGraph(64);
  PartitionOptions opts;
  opts.num_shards = 2;
  opts.hub_count = 4;
  const std::string path = TempPath("old_version.pidx");
  std::remove(path.c_str());
  const uint64_t checksum = graph::GraphChecksum(g);
  bool from_cache = true;
  ASSERT_TRUE(LoadOrBuildPartition(g, opts, checksum, path, &from_cache).ok());

  std::string bytes = ReadFileBytes(path);
  ASSERT_EQ(Get<uint32_t>(bytes, kVersionAt), 2u);
  Put<uint32_t>(&bytes, kVersionAt, 1);
  WriteFileBytes(path, bytes);
  EXPECT_EQ(LoadPartition(path, checksum, opts.num_shards, opts.hub_count,
                          g.num_nodes())
                .status()
                .code(),
            StatusCode::kNotSupported);

  ASSERT_TRUE(LoadOrBuildPartition(g, opts, checksum, path, &from_cache).ok());
  EXPECT_FALSE(from_cache);
  EXPECT_EQ(Get<uint32_t>(ReadFileBytes(path), kVersionAt), 2u);
  ASSERT_TRUE(LoadOrBuildPartition(g, opts, checksum, path, &from_cache).ok());
  EXPECT_TRUE(from_cache);
}

}  // namespace
}  // namespace serve
}  // namespace elitenet
