// Warm-index sidecar tests: the save/load round trip restores exactly
// the indexes the engine computed, the key (graph checksum + config
// hash) invalidates stale sidecars with FailedPrecondition, structural
// damage is Corruption, and the engine degrades every failure to a
// silent rebuild — a bad .widx must never take down a server start.

#include "serve/warm_index_cache.h"

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/io.h"
#include "serve/engine.h"

namespace elitenet {
namespace serve {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

graph::DiGraph TestGraph() {
  graph::GraphBuilder b(6);
  EXPECT_TRUE(b.AddEdge(0, 1).ok());
  EXPECT_TRUE(b.AddEdge(1, 0).ok());
  EXPECT_TRUE(b.AddEdge(1, 2).ok());
  EXPECT_TRUE(b.AddEdge(2, 0).ok());
  EXPECT_TRUE(b.AddEdge(2, 3).ok());
  EXPECT_TRUE(b.AddEdge(3, 4).ok());
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

WarmIndexKey KeyFor(const graph::DiGraph& g, const EngineOptions& opts) {
  return {graph::GraphChecksum(g),
          WarmConfigHash(opts.pagerank, opts.fingerprint)};
}

void FlipByte(const std::string& path, long offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  char c;
  f.seekg(offset);
  f.get(c);
  f.seekp(offset);
  f.put(static_cast<char>(c ^ 0x01));
}

// Builds the engine once with the sidecar configured, which writes it.
std::unique_ptr<QueryEngine> EngineWithSidecar(const graph::DiGraph& g,
                                               const std::string& widx) {
  EngineOptions opts;
  opts.warm_index_path = widx;
  auto engine = QueryEngine::Create(g, opts);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(*engine);
}

TEST(WarmIndexPathTest, AppendsWidxAndStripsTrailingSlashes) {
  EXPECT_EQ(WarmIndexPathFor("follows.eng2"), "follows.eng2.widx");
  EXPECT_EQ(WarmIndexPathFor("data/run1/"), "data/run1.widx");
  EXPECT_EQ(WarmIndexPathFor("data/run1///"), "data/run1.widx");
}

TEST(WarmConfigHashTest, SensitiveToEveryIndexOption) {
  analysis::PageRankOptions pr;
  core::FingerprintOptions fp;
  const uint64_t base = WarmConfigHash(pr, fp);
  EXPECT_EQ(WarmConfigHash(pr, fp), base);

  analysis::PageRankOptions pr2 = pr;
  pr2.damping += 0.01;
  EXPECT_NE(WarmConfigHash(pr2, fp), base);

  core::FingerprintOptions fp2 = fp;
  fp2.seed += 1;
  EXPECT_NE(WarmConfigHash(pr, fp2), base);
}

TEST(WarmIndexCacheTest, RoundTripRestoresEveryIndex) {
  const graph::DiGraph g = TestGraph();
  const std::string widx = TempPath("roundtrip.widx");
  std::remove(widx.c_str());
  auto engine = EngineWithSidecar(g, widx);
  ASSERT_FALSE(engine->warm_index_from_cache());

  EngineOptions opts;
  auto restored = LoadWarmIndexes(widx, KeyFor(g, opts), g.num_nodes());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  const WarmIndexes& built = engine->warm_indexes();
  EXPECT_EQ(restored->pagerank, built.pagerank);
  EXPECT_EQ(restored->rank_order, built.rank_order);
  EXPECT_EQ(restored->rank_of, built.rank_of);
  EXPECT_EQ(restored->mutual_degree, built.mutual_degree);
  EXPECT_EQ(restored->wcc.label, built.wcc.label);
  EXPECT_EQ(restored->wcc.sizes, built.wcc.sizes);
  EXPECT_EQ(restored->wcc.num_components, built.wcc.num_components);
  EXPECT_EQ(restored->scc.label, built.scc.label);
  EXPECT_EQ(restored->scc.sizes, built.scc.sizes);
  EXPECT_EQ(restored->fingerprint.reciprocity, built.fingerprint.reciprocity);
  EXPECT_EQ(restored->fingerprint_ok, built.fingerprint_ok);
  EXPECT_EQ(restored->fingerprint_error, built.fingerprint_error);
  EXPECT_EQ(restored->fingerprint_similarity, built.fingerprint_similarity);
  ASSERT_FALSE(built.heavy_ids.empty());
  EXPECT_EQ(restored->heavy_ids, built.heavy_ids);
  EXPECT_EQ(restored->heavy_reach, built.heavy_reach);
}

TEST(WarmIndexCacheTest, StaleGraphChecksumIsFailedPrecondition) {
  const graph::DiGraph g = TestGraph();
  const std::string widx = TempPath("stale_graph.widx");
  std::remove(widx.c_str());
  EngineWithSidecar(g, widx);

  EngineOptions opts;
  WarmIndexKey key = KeyFor(g, opts);
  key.graph_checksum ^= 1;  // "the graph changed"
  EXPECT_EQ(LoadWarmIndexes(widx, key, g.num_nodes()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(WarmIndexCacheTest, StaleConfigHashIsFailedPrecondition) {
  const graph::DiGraph g = TestGraph();
  const std::string widx = TempPath("stale_config.widx");
  std::remove(widx.c_str());
  EngineWithSidecar(g, widx);

  EngineOptions opts;
  WarmIndexKey key = KeyFor(g, opts);
  key.config_hash ^= 1;  // "the index options changed"
  EXPECT_EQ(LoadWarmIndexes(widx, key, g.num_nodes()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(WarmIndexCacheTest, NodeCountMismatchIsFailedPrecondition) {
  const graph::DiGraph g = TestGraph();
  const std::string widx = TempPath("node_count.widx");
  std::remove(widx.c_str());
  EngineWithSidecar(g, widx);

  EngineOptions opts;
  EXPECT_EQ(
      LoadWarmIndexes(widx, KeyFor(g, opts), g.num_nodes() + 1)
          .status()
          .code(),
      StatusCode::kFailedPrecondition);
}

TEST(WarmIndexCacheTest, VersionSkewIsNotSupported) {
  const graph::DiGraph g = TestGraph();
  const std::string widx = TempPath("version.widx");
  std::remove(widx.c_str());
  EngineWithSidecar(g, widx);
  FlipByte(widx, 4);  // u32 version follows the magic
  EngineOptions opts;
  EXPECT_EQ(
      LoadWarmIndexes(widx, KeyFor(g, opts), g.num_nodes()).status().code(),
      StatusCode::kNotSupported);
}

uint32_t SidecarVersion(const std::string& path) {
  uint32_t version = 0;
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  f.seekg(4);  // u32 version follows the magic
  f.read(reinterpret_cast<char*>(&version), sizeof(version));
  return version;
}

// Forward compatibility, old side: a sidecar written by an earlier format
// generation — version 1 (no hub-label sections), version 2 (packed u64
// hub-label entries), version 3 (no heavy-node reach sections), version
// 4 (hub-label sections before the reach table), version 5 (v6's
// sections under FNV-1a digests) or version 6 (degree and reciprocity
// slots in the scalar block) — must be refused with NotSupported —
// never misparsed — and the engine must degrade it to a rebuild that
// rewrites the file in the current format, which the next start restores.
TEST(WarmIndexCacheTest, OldFormatSidecarDegradesToRebuildAndRewrite) {
  const graph::DiGraph g = TestGraph();
  const std::string widx = TempPath("old_format.widx");
  for (const uint32_t old_version : {1u, 2u, 3u, 4u, 5u, 6u}) {
    std::remove(widx.c_str());
    EngineWithSidecar(g, widx);

    // Rewind the header's version field (u32 at offset 4) from 7,
    // simulating a file left behind by an earlier release.
    {
      std::fstream f(widx, std::ios::in | std::ios::out | std::ios::binary);
      ASSERT_TRUE(f.good());
      f.seekp(4);
      f.write(reinterpret_cast<const char*>(&old_version),
              sizeof(old_version));
    }
    ASSERT_EQ(SidecarVersion(widx), old_version);

    EngineOptions opts;
    EXPECT_EQ(
        LoadWarmIndexes(widx, KeyFor(g, opts), g.num_nodes()).status().code(),
        StatusCode::kNotSupported)
        << old_version;

    auto engine = EngineWithSidecar(g, widx);  // must not fail
    EXPECT_FALSE(engine->warm_index_from_cache()) << old_version;
    EXPECT_EQ(SidecarVersion(widx), 7u) << "the rebuild rewrote v7";
    auto next = EngineWithSidecar(g, widx);
    EXPECT_TRUE(next->warm_index_from_cache()) << old_version;
  }
}

// Forward compatibility, new side: a sidecar must be cleanly rejected by
// readers that predate its section set, its hash or its scalar block. The
// v1–v6 readers' first check is `version == 1` … `6` (NotSupported on
// mismatch), so it suffices that the on-disk version advanced.
TEST(WarmIndexCacheTest, NewSectionsAreInvisibleToOldReaders) {
  const graph::DiGraph g = TestGraph();
  const std::string widx = TempPath("new_sections.widx");
  std::remove(widx.c_str());
  EngineWithSidecar(g, widx);

  EXPECT_EQ(SidecarVersion(widx), 7u)
      << "the smaller scalar block must bump the format version";
}

TEST(WarmIndexCacheTest, DamageIsCorruption) {
  const graph::DiGraph g = TestGraph();
  const std::string widx = TempPath("damage.widx");
  EngineOptions opts;
  const WarmIndexKey key = KeyFor(g, opts);

  // Bad magic.
  std::remove(widx.c_str());
  EngineWithSidecar(g, widx);
  FlipByte(widx, 0);
  EXPECT_EQ(LoadWarmIndexes(widx, key, g.num_nodes()).status().code(),
            StatusCode::kCorruption);

  // Payload bit flip (first section starts after the 64 B header and the
  // 12-entry * 32 B table, at 448).
  std::remove(widx.c_str());
  EngineWithSidecar(g, widx);
  FlipByte(widx, 448);
  EXPECT_EQ(LoadWarmIndexes(widx, key, g.num_nodes()).status().code(),
            StatusCode::kCorruption);

  // Truncation.
  std::remove(widx.c_str());
  EngineWithSidecar(g, widx);
  {
    std::string contents;
    std::ifstream in(widx, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in), {});
    in.close();
    std::ofstream(widx, std::ios::binary | std::ios::trunc)
        << contents.substr(0, contents.size() / 2);
  }
  EXPECT_EQ(LoadWarmIndexes(widx, key, g.num_nodes()).status().code(),
            StatusCode::kCorruption);

  // Zero-length file.
  std::ofstream(widx, std::ios::binary | std::ios::trunc).flush();
  EXPECT_EQ(LoadWarmIndexes(widx, key, g.num_nodes()).status().code(),
            StatusCode::kCorruption);

  // Missing file.
  std::remove(widx.c_str());
  EXPECT_EQ(LoadWarmIndexes(widx, key, g.num_nodes()).status().code(),
            StatusCode::kIoError);

  // Damaged arrays behind valid checksums: the decoder itself must
  // reject them, not just the section checksums.
  EngineWithSidecar(g, widx);
  auto good = LoadWarmIndexes(widx, key, g.num_nodes());
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  auto rejects = [&](const char* what, auto mutate) {
    WarmIndexes w = *good;
    mutate(w);
    ASSERT_TRUE(SaveWarmIndexes(widx, key, w).ok()) << what;
    EXPECT_EQ(LoadWarmIndexes(widx, key, g.num_nodes()).status().code(),
              StatusCode::kCorruption)
        << what;
  };
  const graph::NodeId n = g.num_nodes();
  // The heavy-node reach table is served as reach_2hop by id lookup.
  ASSERT_GE(good->heavy_ids.size(), 2u);
  rejects("heavy ids not strictly ascending",
          [](WarmIndexes& w) { w.heavy_ids[1] = w.heavy_ids[0]; });
  rejects("heavy id >= n", [n](WarmIndexes& w) { w.heavy_ids.back() = n; });
  rejects("heavy ids and reach of different lengths",
          [](WarmIndexes& w) { w.heavy_reach.pop_back(); });
  rejects("heavy reach > n - 1",
          [n](WarmIndexes& w) { w.heavy_reach[0] = n; });
  // The round trip of the undamaged copy still loads.
  ASSERT_TRUE(SaveWarmIndexes(widx, key, *good).ok());
  EXPECT_TRUE(LoadWarmIndexes(widx, key, n).ok());
}

TEST(WarmIndexCacheTest, SecondEngineStartRestoresFromSidecar) {
  const graph::DiGraph g = TestGraph();
  const std::string widx = TempPath("second_start.widx");
  std::remove(widx.c_str());

  auto first = EngineWithSidecar(g, widx);
  EXPECT_FALSE(first->warm_index_from_cache());
  auto second = EngineWithSidecar(g, widx);
  EXPECT_TRUE(second->warm_index_from_cache());

  for (const char* line :
       {"ego 0", "ego 1", "ego 5", "topk 6", "dist 0 4", "dist 4 0",
        "neighbors 1 out", "neighbors 0 in", "fingerprint"}) {
    const QueryResponse a = first->ExecuteLine(line);
    const QueryResponse b = second->ExecuteLine(line);
    EXPECT_EQ(a.json, b.json) << line;
  }
}

TEST(WarmIndexCacheTest, EngineDegradesCorruptSidecarToRebuild) {
  const graph::DiGraph g = TestGraph();
  const std::string widx = TempPath("degrade.widx");
  std::ofstream(widx, std::ios::binary | std::ios::trunc)
      << "garbage that is definitely not a WIDX file";

  auto engine = EngineWithSidecar(g, widx);  // must not fail
  EXPECT_FALSE(engine->warm_index_from_cache());

  // The rebuild rewrote a valid sidecar: the next start hits it.
  auto next = EngineWithSidecar(g, widx);
  EXPECT_TRUE(next->warm_index_from_cache());
}

TEST(WarmIndexCacheTest, GraphChangeInvalidatesAndRewrites) {
  const graph::DiGraph g = TestGraph();
  const std::string widx = TempPath("graph_change.widx");
  std::remove(widx.c_str());
  EngineWithSidecar(g, widx);

  // A different graph with the same node count: checksum key mismatch.
  graph::GraphBuilder b(6);
  ASSERT_TRUE(b.AddEdge(0, 2).ok());
  ASSERT_TRUE(b.AddEdge(2, 5).ok());
  auto other = b.Build();
  ASSERT_TRUE(other.ok());

  auto engine = EngineWithSidecar(*other, widx);
  EXPECT_FALSE(engine->warm_index_from_cache());
  auto again = EngineWithSidecar(*other, widx);
  EXPECT_TRUE(again->warm_index_from_cache());
}

}  // namespace
}  // namespace serve
}  // namespace elitenet
