// ENG2 zero-copy snapshot tests: the save/map round trip, the borrowed-
// storage semantics of the mapped graph (copies and transposes share the
// mapping, the mapping outlives the loading scope), and the corruption
// matrix — every kind of damage must surface as a clean Status, never a
// crash or a half-valid graph, because MapBinary is the serving layer's
// startup path.

#include "graph/io.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/dataset.h"
#include "gen/generators.h"
#include "graph/builder.h"
#include "sectioned_bytes.h"
#include "util/rng.h"
#include "util/sectioned_file.h"

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

void FlipByte(const std::string& path, long offset) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good()) << path;
  char c;
  f.seekg(offset);
  f.get(c);
  f.seekp(offset);
  f.put(static_cast<char>(c ^ 0x01));
}

void Truncate(const std::string& path, size_t keep_bytes) {
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign(std::istreambuf_iterator<char>(in), {});
  }
  ASSERT_GT(contents.size(), keep_bytes);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      << contents.substr(0, keep_bytes);
}

TEST(SnapshotV2Test, RoundTrip) {
  const DiGraph g = SmallGraph();
  const std::string path = TempPath("v2_roundtrip.eng2");
  ASSERT_TRUE(SaveBinaryV2(g, path).ok());
  auto mapped = MapBinary(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(*mapped, g);
  EXPECT_TRUE(mapped->borrows_storage());
  EXPECT_FALSE(g.borrows_storage());
  EXPECT_EQ(GraphChecksum(*mapped), GraphChecksum(g));
}

// The reference XXH64 of each of the four CSR spans, folded in order,
// hashed afresh from the bytes `g` views — what GraphChecksum must
// return, carried or not.
uint64_t RecomputedChecksum(const DiGraph& g) {
  const auto digest = [](auto span) {
    return sectioned_bytes::Xxh64(std::string(
        reinterpret_cast<const char*>(span.data()), span.size_bytes()));
  };
  return sectioned_bytes::ChainDigests(
      {digest(g.out_offsets()), digest(g.out_targets()),
       digest(g.in_offsets()), digest(g.in_targets())});
}

TEST(SnapshotV2Test, MappedGraphCarriesTheChecksumItWasVerifiedWith) {
  util::Rng rng(5);
  auto built = gen::ErdosRenyi(300, 2000, &rng);
  ASSERT_TRUE(built.ok());
  const std::string path = TempPath("v2_carried.eng2");
  ASSERT_TRUE(SaveBinaryV2(*built, path).ok());
  auto mapped = MapBinary(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(mapped->carried_checksum().has_value());
  EXPECT_EQ(GraphChecksum(*mapped), RecomputedChecksum(*mapped));
  EXPECT_EQ(GraphChecksum(*mapped), RecomputedChecksum(*built));

  // A resident graph carries nothing and is hashed.
  EXPECT_FALSE(built->carried_checksum().has_value());
  EXPECT_EQ(GraphChecksum(*built), RecomputedChecksum(*built));

  const DiGraph copy = *mapped;
  EXPECT_TRUE(copy.carried_checksum().has_value());
  EXPECT_EQ(GraphChecksum(copy), RecomputedChecksum(copy));
  DiGraph assigned;
  assigned = copy;
  EXPECT_EQ(GraphChecksum(assigned), RecomputedChecksum(assigned));

  DiGraph moved = std::move(*mapped);
  EXPECT_TRUE(moved.carried_checksum().has_value());
  EXPECT_EQ(GraphChecksum(moved), RecomputedChecksum(moved));
  // NOLINTBEGIN(bugprone-use-after-move)
  EXPECT_FALSE(mapped->carried_checksum().has_value());
  EXPECT_EQ(GraphChecksum(*mapped), GraphChecksum(DiGraph()));
  EXPECT_EQ(GraphChecksum(*mapped), RecomputedChecksum(*mapped));
  // NOLINTEND(bugprone-use-after-move)
  DiGraph move_assigned;
  move_assigned = std::move(moved);
  EXPECT_EQ(GraphChecksum(move_assigned), RecomputedChecksum(move_assigned));
  EXPECT_EQ(GraphChecksum(moved),  // NOLINT(bugprone-use-after-move)
            GraphChecksum(DiGraph()));

  // The transpose shares the mapping with its halves swapped: its bytes
  // hash differently, so the carried value must not leak into it.
  const DiGraph t = copy.Transpose();
  EXPECT_FALSE(t.carried_checksum().has_value());
  EXPECT_EQ(GraphChecksum(t), RecomputedChecksum(t));
  EXPECT_NE(GraphChecksum(t), GraphChecksum(copy));
  EXPECT_EQ(GraphChecksum(t.Transpose()), GraphChecksum(copy));
}

TEST(SnapshotV2Test, SwappedSameLengthSectionsAreCorruption) {
  // out_targets and in_targets trade places, each with its own section
  // checksum, so every per-section sum still holds and both spans stay
  // in range: only the chained graph checksum gives the swap away.
  using namespace sectioned_bytes;
  const std::string path = TempPath("v2_swapped.eng2");
  ASSERT_TRUE(SaveBinaryV2(SmallGraph(), path).ok());
  std::string bytes = ReadFileBytes(path);
  const uint64_t length = Get<uint64_t>(bytes, LengthAt(1));
  ASSERT_EQ(length, Get<uint64_t>(bytes, LengthAt(3)));
  const uint64_t a = Get<uint64_t>(bytes, OffsetAt(1));
  const uint64_t b = Get<uint64_t>(bytes, OffsetAt(3));
  const std::string first = bytes.substr(a, length);
  ASSERT_NE(first, bytes.substr(b, length));
  bytes.replace(a, length, bytes.substr(b, length));
  bytes.replace(b, length, first);
  const uint64_t sum = Get<uint64_t>(bytes, ChecksumAt(1));
  Put(&bytes, ChecksumAt(1), Get<uint64_t>(bytes, ChecksumAt(3)));
  Put(&bytes, ChecksumAt(3), sum);
  WriteFileBytes(path, bytes);
  const auto mapped = MapBinary(path);
  EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption);
  EXPECT_NE(mapped.status().ToString().find("graph checksum mismatch"),
            std::string::npos)
      << mapped.status().ToString();

  // Resealing the graph checksum makes the same bytes a valid snapshot
  // of a different graph: the chain was the only check that failed.
  ResealEng2(&bytes);
  WriteFileBytes(path, bytes);
  const auto resealed = MapBinary(path);
  ASSERT_TRUE(resealed.ok()) << resealed.status().ToString();
  EXPECT_NE(*resealed, SmallGraph());
}

TEST(SnapshotV2Test, RoundTripLargerRandomGraph) {
  util::Rng rng(99);
  auto g = gen::ErdosRenyi(500, 3000, &rng);
  ASSERT_TRUE(g.ok());
  const std::string path = TempPath("v2_big.eng2");
  ASSERT_TRUE(SaveBinaryV2(*g, path).ok());
  auto mapped = MapBinary(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(*mapped, *g);
}

TEST(SnapshotV2Test, EmptyGraphRoundTrip) {
  DiGraph g;
  const std::string path = TempPath("v2_empty.eng2");
  ASSERT_TRUE(SaveBinaryV2(g, path).ok());
  auto mapped = MapBinary(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  EXPECT_EQ(mapped->num_nodes(), 0u);
  EXPECT_EQ(mapped->num_edges(), 0u);
}

TEST(SnapshotV2Test, CopiesAndTransposeShareTheMapping) {
  const DiGraph g = SmallGraph();
  const std::string path = TempPath("v2_share.eng2");
  ASSERT_TRUE(SaveBinaryV2(g, path).ok());

  // The original mapped graph goes out of scope; the copy must keep the
  // mapping alive and stay fully readable.
  DiGraph copy;
  {
    auto mapped = MapBinary(path);
    ASSERT_TRUE(mapped.ok());
    copy = *mapped;
  }
  EXPECT_EQ(copy, g);
  EXPECT_TRUE(copy.borrows_storage());

  const DiGraph t = copy.Transpose();
  EXPECT_TRUE(t.borrows_storage());
  EXPECT_EQ(t.num_edges(), g.num_edges());
  EXPECT_TRUE(t.HasEdge(1, 0));  // g has 0 -> 1
  EXPECT_EQ(t.Transpose(), g);
}

TEST(SnapshotV2Test, MovedFromGraphIsEmptyAndValid) {
  const std::string path = TempPath("v2_move.eng2");
  ASSERT_TRUE(SaveBinaryV2(SmallGraph(), path).ok());
  auto mapped = MapBinary(path);
  ASSERT_TRUE(mapped.ok());
  DiGraph stolen = std::move(*mapped);
  EXPECT_EQ(stolen, SmallGraph());
  EXPECT_EQ(mapped->num_nodes(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(mapped->borrows_storage());
}

TEST(SnapshotV2Test, ZeroLengthFileIsCorruption) {
  const std::string path = TempPath("v2_zero.eng2");
  std::ofstream(path, std::ios::binary | std::ios::trunc).flush();
  EXPECT_EQ(MapBinary(path).status().code(), StatusCode::kCorruption);
}

TEST(SnapshotV2Test, MissingFileIsIoError) {
  EXPECT_EQ(MapBinary("/no/such/file.eng2").status().code(),
            StatusCode::kIoError);
}

TEST(SnapshotV2Test, BadMagicIsCorruption) {
  const std::string path = TempPath("v2_magic.eng2");
  ASSERT_TRUE(SaveBinaryV2(SmallGraph(), path).ok());
  FlipByte(path, 0);
  EXPECT_EQ(MapBinary(path).status().code(), StatusCode::kCorruption);
}

TEST(SnapshotV2Test, VersionSkewIsNotSupported) {
  const std::string path = TempPath("v2_version.eng2");
  ASSERT_TRUE(SaveBinaryV2(SmallGraph(), path).ok());
  FlipByte(path, 4);  // u32 version field follows the magic
  EXPECT_EQ(MapBinary(path).status().code(), StatusCode::kNotSupported);
}

// Version 2 had version 3's payload bytes under FNV-1a checksums. There
// is no reader for it: a v2 header is refused before any section is
// hashed, whatever its checksums say.
TEST(SnapshotV2Test, Version2SnapshotIsNotSupported) {
  using namespace sectioned_bytes;
  const std::string path = TempPath("v2_old_version.eng2");
  ASSERT_TRUE(SaveBinaryV2(SmallGraph(), path).ok());
  std::string bytes = ReadFileBytes(path);
  ASSERT_EQ(Get<uint32_t>(bytes, kVersionAt), 3u);
  Put<uint32_t>(&bytes, kVersionAt, 2);
  WriteFileBytes(path, bytes);
  const auto mapped = MapBinary(path);
  EXPECT_EQ(mapped.status().code(), StatusCode::kNotSupported);
  EXPECT_NE(mapped.status().ToString().find("version 2"), std::string::npos)
      << mapped.status().ToString();
}

TEST(SnapshotV2Test, Eng1FileIsCorruptionNotCrash) {
  // A file in the retired ENG1 format, written by hand: the 36-byte
  // header (magic | u32 version | u32 reserved | u64 n | u64 m |
  // u64 checksum) and the four CSR arrays verbatim.
  const DiGraph g = SmallGraph();
  std::string bytes = "ENG1";
  const uint32_t version = 1, reserved = 0;
  const uint64_t n = g.num_nodes(), m = g.num_edges();
  const uint64_t checksum = GraphChecksum(g);
  bytes.append(reinterpret_cast<const char*>(&version), 4);
  bytes.append(reinterpret_cast<const char*>(&reserved), 4);
  bytes.append(reinterpret_cast<const char*>(&n), 8);
  bytes.append(reinterpret_cast<const char*>(&m), 8);
  bytes.append(reinterpret_cast<const char*>(&checksum), 8);
  ASSERT_EQ(bytes.size(), 36u);
  const auto append = [&bytes](auto span) {
    bytes.append(reinterpret_cast<const char*>(span.data()),
                 span.size_bytes());
  };
  append(g.out_offsets());
  append(g.out_targets());
  append(g.in_offsets());
  append(g.in_targets());

  // Both snapshot extensions go straight to MapBinary, which rejects the
  // magic cleanly.
  for (const char* name : {"v2_eng1.eng", "v2_eng1.eng2"}) {
    const std::string path = TempPath(name);
    sectioned_bytes::WriteFileBytes(path, bytes);
    EXPECT_EQ(MapBinary(path).status().code(), StatusCode::kCorruption);
    EXPECT_EQ(core::LoadAnyGraph(path).status().code(),
              StatusCode::kCorruption)
        << name;
  }
}

TEST(SnapshotV2Test, EdgeCountWhoseByteLengthWrapsIsCorruption) {
  // n = 1, m = 2^62: m * sizeof(NodeId) wraps to 0, so zero-length target
  // sections would match the "expected" lengths. Offsets run 0 -> m, the
  // checksums are valid, and the whole file is 320 bytes — the counts
  // alone must sink it.
  using namespace sectioned_bytes;
  const uint64_t m = uint64_t{1} << 62;
  std::string bytes(320, '\0');
  std::memcpy(bytes.data(), "ENG2", 4);
  Put<uint32_t>(&bytes, kVersionAt, 3);
  Put<uint64_t>(&bytes, kNumNodesAt, 1);
  Put<uint64_t>(&bytes, kNumEdgesAt, m);
  Put<uint32_t>(&bytes, kSectionCountAt, 4);
  const uint64_t offsets[kEng2Sections] = {192, 256, 256, 320};
  const uint64_t lengths[kEng2Sections] = {16, 0, 16, 0};
  for (uint32_t i = 0; i < kEng2Sections; ++i) {
    Put<uint32_t>(&bytes, EntryAt(i), i);
    Put(&bytes, OffsetAt(i), offsets[i]);
    Put(&bytes, LengthAt(i), lengths[i]);
  }
  for (uint64_t at : {offsets[0], offsets[2]}) {  // {0, m} per direction
    Put<uint64_t>(&bytes, at, 0);
    Put<uint64_t>(&bytes, at + 8, m);
  }
  ResealEng2(&bytes);
  const std::string path = TempPath("v2_wrapped_edges.eng2");
  WriteFileBytes(path, bytes);
  const auto mapped = MapBinary(path);
  EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption)
      << (mapped.ok() ? "mapped with num_edges " +
                            std::to_string(mapped->num_edges())
                      : mapped.status().ToString());
}

TEST(SnapshotV2Test, NodeCountShorterThanOffsetSectionsIsCorruption) {
  // Node 4 is isolated, so dropping it from the header's n leaves spans
  // of n + 1 offsets that are still a valid CSR of a 4-node graph. With
  // the graph checksum recomputed over those shorter spans, only the
  // section lengths (one offset longer than n + 1) give the file away.
  using namespace sectioned_bytes;
  GraphBuilder b(5);
  ASSERT_TRUE(b.AddEdges({{0, 1}, {1, 2}, {2, 0}, {0, 3}}).ok());
  const auto g = b.Build();
  ASSERT_TRUE(g.ok());
  const std::string path = TempPath("v2_short_n.eng2");
  ASSERT_TRUE(SaveBinaryV2(*g, path).ok());
  std::string bytes = ReadFileBytes(path);
  const uint64_t n = Get<uint64_t>(bytes, kNumNodesAt) - 1;
  Put<uint64_t>(&bytes, kNumNodesAt, n);
  std::vector<uint64_t> digests;
  for (size_t i = 0; i < kEng2Sections; ++i) {
    const uint64_t length = i % 2 == 0 ? (n + 1) * sizeof(EdgeIdx)
                                       : Get<uint64_t>(bytes, LengthAt(i));
    digests.push_back(Xxh64(bytes, Get<uint64_t>(bytes, OffsetAt(i)), length));
  }
  Put<uint64_t>(&bytes, kGraphChecksumAt, ChainDigests(digests));
  ASSERT_TRUE(ResealSections(&bytes, kEng2Sections));
  WriteFileBytes(path, bytes);
  const auto mapped = MapBinary(path);
  EXPECT_EQ(mapped.status().code(), StatusCode::kCorruption)
      << (mapped.ok() ? "mapped with num_nodes " +
                            std::to_string(mapped->num_nodes())
                      : mapped.status().ToString());
}

TEST(SnapshotV2Test, OverwritingTheMappedSnapshotKeepsTheGraph) {
  // Writing a graph back to the file it is mapped from, through both
  // writers (the streamed one at a budget that forces spills): each must
  // succeed without disturbing the mapping it reads from, and the file
  // must map back to the same graph. A writer that truncated the mapped
  // file in place would fault (SIGBUS) on the next read of the mapping.
  util::Rng rng(7);
  auto built = gen::ErdosRenyi(3000, 60000, &rng);
  ASSERT_TRUE(built.ok());
  const std::string path = TempPath("v2_overwrite_mapped.eng2");
  ASSERT_TRUE(SaveBinaryV2(*built, path).ok());
  for (const bool streamed : {false, true}) {
    auto mapped = MapBinary(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    if (streamed) {
      StreamWriteOptions opts;
      opts.sort_budget_bytes = 64 << 10;
      auto stats = SaveStreamedV2(*mapped, path, opts);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      EXPECT_GT(stats->forward_spill_runs + stats->reverse_spill_runs, 0u);
    } else {
      const Status s = SaveBinaryV2(*mapped, path);
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    EXPECT_EQ(*mapped, *built) << "streamed " << streamed;
    auto remapped = MapBinary(path);
    ASSERT_TRUE(remapped.ok()) << remapped.status().ToString();
    EXPECT_EQ(*remapped, *built) << "streamed " << streamed;
  }
}

TEST(SnapshotV2Test, TruncationAnywhereIsCorruption) {
  const DiGraph g = SmallGraph();
  const std::string path = TempPath("v2_trunc.eng2");
  ASSERT_TRUE(SaveBinaryV2(g, path).ok());
  size_t full_size = 0;
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    full_size = static_cast<size_t>(in.tellg());
  }
  // Mid-header, mid-table, and mid-payload cuts.
  for (size_t keep : {size_t{3}, size_t{63}, size_t{100}, full_size - 1}) {
    ASSERT_TRUE(SaveBinaryV2(g, path).ok());
    Truncate(path, keep);
    EXPECT_EQ(MapBinary(path).status().code(), StatusCode::kCorruption)
        << "kept " << keep << " of " << full_size;
  }
}

TEST(SnapshotV2Test, PayloadBitFlipIsCorruption) {
  const DiGraph g = SmallGraph();
  const std::string path = TempPath("v2_flip.eng2");
  ASSERT_TRUE(SaveBinaryV2(g, path).ok());
  // First byte of the first section (header 64 + table 4*32 = 192).
  FlipByte(path, 192);
  EXPECT_EQ(MapBinary(path).status().code(), StatusCode::kCorruption);
}

TEST(SnapshotV2Test, SectionTableBitFlipIsCorruption) {
  const DiGraph g = SmallGraph();
  const std::string path = TempPath("v2_table.eng2");
  ASSERT_TRUE(SaveBinaryV2(g, path).ok());
  FlipByte(path, 64 + 8);  // first section entry's offset field
  EXPECT_EQ(MapBinary(path).status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace graph
}  // namespace elitenet
