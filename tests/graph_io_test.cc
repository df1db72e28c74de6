// Text edge-list reader and writer. The ENG2 snapshot has its own suite
// (io_v2_test.cc).

#include "graph/io.h"

#include <fstream>

#include <gtest/gtest.h>

#include "graph/builder.h"

namespace elitenet {
namespace graph {
namespace {

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

DiGraph SmallGraph() {
  GraphBuilder b(4);
  EXPECT_TRUE(b.AddEdges({{0, 1}, {1, 2}, {2, 0}, {0, 3}}).ok());
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

TEST(EdgeListTextTest, RoundTrip) {
  const DiGraph g = SmallGraph();
  const std::string path = TempPath("edges_roundtrip.txt");
  ASSERT_TRUE(WriteEdgeListText(g, path).ok());
  auto loaded = ReadEdgeListText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, g);
}

TEST(EdgeListTextTest, CommentsAndBlankLinesIgnored) {
  const std::string path = TempPath("edges_comments.txt");
  std::ofstream(path) << "# header\n\n0 1\n  # indented comment\n1 0\n";
  auto g = ReadEdgeListText(path);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);
  EXPECT_EQ(g->num_nodes(), 2u);
}

TEST(EdgeListTextTest, ExplicitNodeCountAllowsTrailingIsolated) {
  const std::string path = TempPath("edges_isolated.txt");
  std::ofstream(path) << "0 1\n";
  auto g = ReadEdgeListText(path, 10);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 10u);
  EXPECT_EQ(g->CountIsolated(), 8u);
}

TEST(EdgeListTextTest, MalformedLineIsCorruption) {
  const std::string path = TempPath("edges_bad.txt");
  std::ofstream(path) << "0 1 2\n";
  EXPECT_EQ(ReadEdgeListText(path).status().code(), StatusCode::kCorruption);
}

TEST(EdgeListTextTest, NonNumericIdIsCorruption) {
  const std::string path = TempPath("edges_nonnum.txt");
  std::ofstream(path) << "a b\n";
  EXPECT_EQ(ReadEdgeListText(path).status().code(), StatusCode::kCorruption);
}

TEST(EdgeListTextTest, MissingFileIsIoError) {
  EXPECT_EQ(ReadEdgeListText("/no/such/file.txt").status().code(),
            StatusCode::kIoError);
}

TEST(EdgeListTextTest, EmptyFileGivesEmptyGraph) {
  const std::string path = TempPath("edges_empty.txt");
  std::ofstream(path) << "";
  auto g = ReadEdgeListText(path);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 0u);
}

}  // namespace
}  // namespace graph
}  // namespace elitenet
