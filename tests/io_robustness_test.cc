// Robustness: malformed and adversarial inputs to every file-reading
// path must produce a clean Status (IoError/Corruption/NotSupported),
// never a crash or an out-of-range read. Seeded, bounded pseudo-fuzz of
// the ENG2 decoder (MapBinary) — random bytes, byte flips, and field
// extremes behind recomputed checksums — plus pathological edge lists.

#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "eng2_bytes.h"
#include "graph/builder.h"
#include "graph/io.h"
#include "util/rng.h"

namespace elitenet {
namespace graph {
namespace {

using namespace eng2_bytes;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

bool IsCleanRejection(StatusCode code) {
  return code == StatusCode::kCorruption || code == StatusCode::kNotSupported;
}

// The only outcomes MapBinary may give damaged input: a clean rejection,
// or — when the damage hit bytes it never reads — the original graph.
void ExpectCleanOutcome(const Result<DiGraph>& result, const DiGraph& original,
                        const std::string& what) {
  if (result.ok()) {
    EXPECT_EQ(*result, original) << "undetected corruption: " << what;
  } else {
    EXPECT_TRUE(IsCleanRejection(result.status().code()))
        << what << ": " << result.status().ToString();
  }
}

DiGraph SmallGraph() {
  GraphBuilder b(5);
  EXPECT_TRUE(b.AddEdges({{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}).ok());
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

std::string SnapshotBytes(const DiGraph& g) {
  const std::string path = TempPath("fuzz_base.eng2");
  EXPECT_TRUE(SaveBinaryV2(g, path).ok());
  return ReadFileBytes(path);
}

TEST(IoRobustnessTest, RandomBytesAsSnapshot) {
  util::Rng rng(42);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t len = 1 + rng.UniformU64(512);
    std::string bytes;
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.UniformU64(256)));
    }
    const std::string path = TempPath("fuzz_snapshot.eng2");
    WriteFileBytes(path, bytes);
    const auto result = MapBinary(path);
    ASSERT_FALSE(result.ok()) << "trial " << trial;
    EXPECT_TRUE(IsCleanRejection(result.status().code()))
        << "trial " << trial << ": " << result.status().ToString();
  }
}

TEST(IoRobustnessTest, RandomBytesWithValidMagic) {
  // Valid magic + garbage body: deeper validation layers must catch it.
  util::Rng rng(43);
  for (int trial = 0; trial < 30; ++trial) {
    std::string bytes = "ENG2";
    const size_t len = rng.UniformU64(512);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.UniformU64(256)));
    }
    const std::string path = TempPath("fuzz_magic.eng2");
    WriteFileBytes(path, bytes);
    const auto result = MapBinary(path);
    ASSERT_FALSE(result.ok()) << "trial " << trial;
    EXPECT_TRUE(IsCleanRejection(result.status().code()))
        << "trial " << trial << ": " << result.status().ToString();
  }
}

TEST(IoRobustnessTest, EveryByteFlipIsDetected) {
  // Flip each byte of a small snapshot in turn. Every byte MapBinary reads
  // — the first 36 header bytes, each section entry's id, offset, length
  // and checksum, and the section payloads — is covered by a check, so
  // its flip must be rejected. The rest (header padding, the entries'
  // reserved words, alignment padding) must decode to the same graph.
  const DiGraph g = SmallGraph();
  const std::string original = SnapshotBytes(g);
  std::vector<bool> read(original.size(), false);
  for (size_t i = 0; i < 36; ++i) read[i] = true;
  for (size_t s = 0; s < kNumSections; ++s) {
    for (size_t i = 0; i < 4; ++i) read[EntryAt(s) + i] = true;
    for (size_t i = 8; i < kEntryBytes; ++i) read[EntryAt(s) + i] = true;
    const uint64_t offset = Get<uint64_t>(original, OffsetAt(s));
    const uint64_t length = Get<uint64_t>(original, LengthAt(s));
    for (uint64_t i = offset; i < offset + length; ++i) read[i] = true;
  }
  const std::string path = TempPath("flip_mut.eng2");
  for (size_t i = 0; i < original.size(); ++i) {
    std::string mutated = original;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    WriteFileBytes(path, mutated);
    const auto result = MapBinary(path);
    const std::string what = "flip at byte " + std::to_string(i);
    ExpectCleanOutcome(result, g, what);
    EXPECT_EQ(result.ok(), !read[i]) << what;
  }
}

TEST(IoRobustnessTest, FieldExtremesBehindValidChecksums) {
  // Set each count, offset and length field to an extreme value, then
  // reseal the file so its section and graph checksums match again — a
  // plain overwrite would stop at the checksums, while this reaches the
  // count, bounds, length and CSR checks behind them.
  const DiGraph g = SmallGraph();
  const std::string original = SnapshotBytes(g);
  std::vector<std::pair<std::string, size_t>> fields = {
      {"num_nodes", kNumNodesAt}, {"num_edges", kNumEdgesAt}};
  for (size_t s = 0; s < kNumSections; ++s) {
    fields.emplace_back("offset[" + std::to_string(s) + "]", OffsetAt(s));
    fields.emplace_back("length[" + std::to_string(s) + "]", LengthAt(s));
  }
  constexpr uint64_t kTwo32 = uint64_t{1} << 32;
  constexpr uint64_t kTwo62 = uint64_t{1} << 62;
  const uint64_t extremes[] = {0,      1,         kTwo32 - 1, kTwo32,
                               kTwo62, kTwo62 + 1, UINT64_MAX};
  const std::string path = TempPath("extreme_mut.eng2");
  const auto check = [&](std::string mutated, const std::string& what) {
    Reseal(&mutated);
    WriteFileBytes(path, mutated);
    ExpectCleanOutcome(MapBinary(path), g, what);
  };
  for (const auto& [name, at] : fields) {
    for (uint64_t value : extremes) {
      std::string mutated = original;
      Put(&mutated, at, value);
      check(mutated, name + " = " + std::to_string(value));
    }
  }
  // Both counts at once, so neither one alone gives the header away.
  for (uint64_t n : extremes) {
    for (uint64_t m : extremes) {
      std::string mutated = original;
      Put(&mutated, kNumNodesAt, n);
      Put(&mutated, kNumEdgesAt, m);
      check(mutated, "n = " + std::to_string(n) + ", m = " +
                         std::to_string(m));
    }
  }
}

TEST(IoRobustnessTest, HugeClaimedCountsRejectedWithoutAllocation) {
  // A bare header and table claiming 2^62 nodes and edges: must fail
  // fast, not size anything by the claimed counts.
  std::string bytes(kTableEnd, '\0');
  std::memcpy(bytes.data(), "ENG2", 4);
  Put<uint32_t>(&bytes, 4, 2);
  Put<uint64_t>(&bytes, kNumNodesAt, uint64_t{1} << 62);
  Put<uint64_t>(&bytes, kNumEdgesAt, uint64_t{1} << 62);
  Put<uint32_t>(&bytes, kSectionCountAt, kNumSections);
  const std::string path = TempPath("huge_header.eng2");
  WriteFileBytes(path, bytes);
  EXPECT_EQ(MapBinary(path).status().code(), StatusCode::kCorruption);
}

TEST(IoRobustnessTest, EdgeListWithPathologicalLines) {
  const std::string path = TempPath("fuzz_edges.txt");
  for (const char* contents :
       {"0 1\n2 18446744073709551616\n",         // id overflow
        "0 1\n1 -3\n",                           // negative
        "4294967296 0\n",                        // above uint32
        "0 1\n0x10 2\n",                         // hex not accepted
        "0 1 # trailing comment\n",              // junk after fields
        "\x01\x02\x03 binary\n"}) {              // binary noise
    std::ofstream(path) << contents;
    EXPECT_FALSE(ReadEdgeListText(path).ok()) << contents;
  }
}

TEST(IoRobustnessTest, EdgeListVeryLongLine) {
  const std::string path = TempPath("fuzz_longline.txt");
  std::ofstream(path) << std::string(100000, '7') << " 1\n";
  // Either parses as an overflow error or corruption — must not crash.
  EXPECT_FALSE(ReadEdgeListText(path).ok());
}

TEST(IoRobustnessTest, NodeCountSmallerThanIdsRejected) {
  const std::string path = TempPath("fuzz_node_count.txt");
  std::ofstream(path) << "0 9\n";
  EXPECT_FALSE(ReadEdgeListText(path, 5).ok());
}

}  // namespace
}  // namespace graph
}  // namespace elitenet
