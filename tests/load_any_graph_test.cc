// core::LoadAnyGraph is the one loading path shared by elitenet_cli and
// the serving front-ends: dataset directory, ".eng"/".eng2" ENG2
// snapshot, or text edge list. These tests pin the dispatch rule and — the part that
// matters for a long-lived server — that corrupt inputs surface a clean
// Status instead of crashing or yielding a half-loaded graph.

#include "core/dataset.h"

#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/study.h"
#include "graph/builder.h"
#include "graph/io.h"

namespace elitenet {
namespace core {
namespace {

std::string TempDirFor(const char* name) {
  return testing::TempDir() + "/" + name;
}

graph::DiGraph SmallGraph() {
  graph::GraphBuilder b(5);
  EXPECT_TRUE(b.AddEdge(0, 1).ok());
  EXPECT_TRUE(b.AddEdge(1, 2).ok());
  EXPECT_TRUE(b.AddEdge(2, 0).ok());
  EXPECT_TRUE(b.AddEdge(0, 3).ok());
  // Touch the last node so the edge-list text round trip (which infers
  // the node count from edges) reproduces the same graph.
  EXPECT_TRUE(b.AddEdge(3, 4).ok());
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

StudyDataset SmallDataset() {
  StudyConfig cfg;
  cfg.network.num_users = 2000;
  VerifiedStudy study(cfg);
  EXPECT_TRUE(study.Generate().ok());
  StudyDataset d;
  d.network = study.network();
  d.profiles = study.profiles();
  d.bios = study.bios();
  d.activity = study.activity();
  return d;
}

void TruncateFile(const std::string& path, long keep_bytes) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_GT(size, keep_bytes) << path;
  std::string head(static_cast<size_t>(keep_bytes), '\0');
  f = std::fopen(path.c_str(), "rb");
  ASSERT_EQ(std::fread(head.data(), 1, head.size(), f), head.size());
  std::fclose(f);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(head.data(), static_cast<std::streamsize>(head.size()));
}

TEST(LoadAnyGraphTest, DispatchesToBinarySnapshot) {
  // ".eng" is the same ENG2 snapshot as ".eng2", mapped zero-copy.
  const graph::DiGraph g = SmallGraph();
  const std::string path = testing::TempDir() + "/any_graph.eng";
  ASSERT_TRUE(graph::SaveBinaryV2(g, path).ok());
  GraphLoadInfo info;
  auto loaded = LoadAnyGraph(path, &info);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, g);
  EXPECT_EQ(info.format, "eng2-mmap");
  EXPECT_GT(info.bytes, 0u);
  EXPECT_TRUE(loaded->borrows_storage());
}

TEST(LoadAnyGraphTest, DispatchesToZeroCopySnapshot) {
  const graph::DiGraph g = SmallGraph();
  const std::string path = testing::TempDir() + "/any_graph.eng2";
  ASSERT_TRUE(graph::SaveBinaryV2(g, path).ok());
  GraphLoadInfo info;
  auto loaded = LoadAnyGraph(path, &info);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, g);
  EXPECT_EQ(info.format, "eng2-mmap");
  EXPECT_GT(info.bytes, 0u);
  EXPECT_TRUE(loaded->borrows_storage());
}

TEST(LoadAnyGraphTest, DispatchesToEdgeListText) {
  const graph::DiGraph g = SmallGraph();
  const std::string path = testing::TempDir() + "/any_graph.txt";
  ASSERT_TRUE(graph::WriteEdgeListText(g, path).ok());
  GraphLoadInfo info;
  auto loaded = LoadAnyGraph(path, &info);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, g);
  EXPECT_EQ(info.format, "edge-list");
}

TEST(LoadAnyGraphTest, DispatchesToDatasetDirectory) {
  const StudyDataset d = SmallDataset();
  const std::string dir = TempDirFor("any_graph_dataset");
  ASSERT_TRUE(SaveDataset(d, dir).ok());
  GraphLoadInfo info;
  auto loaded = LoadAnyGraph(dir, &info);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, d.network.graph);
  EXPECT_EQ(info.format, "dataset-dir");
  EXPECT_GT(info.bytes, 0u);  // the size of graph.eng2
  EXPECT_TRUE(loaded->borrows_storage());  // mapped zero-copy
}

TEST(LoadAnyGraphTest, MissingPathIsCleanError) {
  auto r = LoadAnyGraph("/no/such/graph.eng");
  EXPECT_FALSE(r.ok());
  auto r2 = LoadAnyGraph("/no/such/edges.txt");
  EXPECT_FALSE(r2.ok());
}

TEST(LoadAnyGraphTest, TruncatedBinarySnapshotIsCorruption) {
  const graph::DiGraph g = SmallGraph();
  const std::string path = testing::TempDir() + "/truncated.eng";
  ASSERT_TRUE(graph::SaveBinaryV2(g, path).ok());
  // Cut mid-table: the header parses but the section table is short.
  TruncateFile(path, 100);
  EXPECT_EQ(LoadAnyGraph(path).status().code(), StatusCode::kCorruption);
  // Cut mid-header too.
  ASSERT_TRUE(graph::SaveBinaryV2(g, path).ok());
  TruncateFile(path, 3);
  EXPECT_EQ(LoadAnyGraph(path).status().code(), StatusCode::kCorruption);
}

TEST(LoadAnyGraphTest, TruncatedZeroCopySnapshotIsCorruption) {
  const graph::DiGraph g = SmallGraph();
  const std::string path = testing::TempDir() + "/truncated.eng2";
  ASSERT_TRUE(graph::SaveBinaryV2(g, path).ok());
  TruncateFile(path, 200);  // past the section table, mid-payload
  EXPECT_EQ(LoadAnyGraph(path).status().code(), StatusCode::kCorruption);
  ASSERT_TRUE(graph::SaveBinaryV2(g, path).ok());
  TruncateFile(path, 10);  // mid-header
  EXPECT_EQ(LoadAnyGraph(path).status().code(), StatusCode::kCorruption);
}

TEST(LoadAnyGraphTest, SnapshotExtensionWithoutMagicIsCorruption) {
  // A ".eng2" file holding text must not fall back to the edge-list
  // parser: a snapshot extension promises a snapshot.
  const std::string path = testing::TempDir() + "/not_really.eng2";
  std::ofstream(path) << "0 1\n1 2\n";
  EXPECT_EQ(LoadAnyGraph(path).status().code(), StatusCode::kCorruption);
}

TEST(LoadAnyGraphTest, ZeroLengthSnapshotIsCorruption) {
  const std::string path = testing::TempDir() + "/zero_len.eng2";
  std::ofstream(path, std::ios::binary | std::ios::trunc).flush();
  EXPECT_EQ(LoadAnyGraph(path).status().code(), StatusCode::kCorruption);
}

TEST(LoadAnyGraphTest, TruncatedDatasetGraphIsCorruption) {
  const StudyDataset d = SmallDataset();
  const std::string dir = TempDirFor("any_graph_truncated");
  ASSERT_TRUE(SaveDataset(d, dir).ok());
  TruncateFile(dir + "/graph.eng2", 64);
  EXPECT_EQ(LoadAnyGraph(dir).status().code(), StatusCode::kCorruption);
}

TEST(LoadAnyGraphTest, ManifestCountMismatchIsCorruption) {
  const StudyDataset d = SmallDataset();
  const std::string dir = TempDirFor("any_graph_badmanifest");
  ASSERT_TRUE(SaveDataset(d, dir).ok());
  std::ofstream(dir + "/MANIFEST")
      << "elitenet-dataset v2\nusers 999\nedges 1\ndays 1\n";
  EXPECT_EQ(LoadAnyGraph(dir).status().code(), StatusCode::kCorruption);
}

TEST(LoadAnyGraphTest, GarbageUsersFileIsCorruption) {
  const StudyDataset d = SmallDataset();
  const std::string dir = TempDirFor("any_graph_badusers");
  ASSERT_TRUE(SaveDataset(d, dir).ok());
  std::ofstream(dir + "/users.bin", std::ios::binary | std::ios::trunc)
      << "this is not a users file at all";
  EXPECT_EQ(LoadAnyGraph(dir).status().code(), StatusCode::kCorruption);
}

TEST(LoadAnyGraphTest, GarbageEdgeListIsCorruption) {
  const std::string path = testing::TempDir() + "/garbage_edges.txt";
  std::ofstream(path) << "# comment is fine\n0 1\nnot numbers here\n";
  EXPECT_EQ(LoadAnyGraph(path).status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace core
}  // namespace elitenet
