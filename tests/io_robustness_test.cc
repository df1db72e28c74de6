// Robustness: malformed and adversarial inputs to every file-reading
// path must produce a clean Status, never a crash, an out-of-range read
// or a wrong result. Seeded, bounded pseudo-fuzz of the three decoders
// of the sectioned container (util/sectioned_file.h) — ENG2 (MapBinary),
// WIDX (LoadWarmIndexes) and PIDX (LoadPartition): random bytes, every
// byte flipped, every truncation, and field extremes behind recomputed
// checksums — plus pathological edge lists.

#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/io.h"
#include "sectioned_bytes.h"
#include "serve/engine.h"
#include "serve/partition.h"
#include "serve/warm_index_cache.h"
#include "util/rng.h"

namespace elitenet {
namespace graph {
namespace {

using namespace sectioned_bytes;

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

bool IsCleanRejection(StatusCode code) {
  return code == StatusCode::kCorruption || code == StatusCode::kNotSupported;
}

// One sectioned format under test: an intact file, and a decoder that
// re-encodes what it decoded through the format's own writer, so "decodes
// to an equal result" is "re-encodes to the original bytes".
struct Format {
  std::string name;
  std::string bytes;
  size_t sections = 0;
  // Keyed sidecars answer a stale key with FailedPrecondition, which is
  // a clean rejection for them (and never expected from ENG2).
  bool keyed = false;
  // Recomputes every checksum the decoder verifies.
  std::function<void(std::string*)> reseal;
  std::function<Result<std::string>(const std::string& path)> decode;
  // Further u64 fields (name, byte offset) for the extremes, beyond the
  // header words and the section table.
  std::vector<std::pair<std::string, size_t>> fields;
};

// Writes `mutated` and decodes it: the only outcomes allowed are a clean
// rejection or, when the damage hit bytes the decoder never reads, the
// original result. Returns whether it decoded.
bool ExpectCleanOutcome(const Format& f, const std::string& mutated,
                        const std::string& what) {
  const std::string path = TempPath("fuzz_mut." + f.name);
  WriteFileBytes(path, mutated);
  const Result<std::string> result = f.decode(path);
  if (result.ok()) {
    EXPECT_TRUE(*result == f.bytes)
        << f.name << ": undetected corruption: " << what;
    return true;
  }
  const StatusCode code = result.status().code();
  EXPECT_TRUE(IsCleanRejection(code) ||
              (f.keyed && code == StatusCode::kFailedPrecondition))
      << f.name << ": " << what << ": " << result.status().ToString();
  return false;
}

// Encodes a decoded value by saving it to a scratch path and reading the
// bytes back.
template <typename Save>
Result<std::string> Reencode(const std::string& name, Save save) {
  const std::string path = TempPath("fuzz_reencoded." + name);
  EN_RETURN_IF_ERROR(save(path));
  return ReadFileBytes(path);
}

DiGraph SmallGraph() {
  GraphBuilder b(5);
  EXPECT_TRUE(b.AddEdges({{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}).ok());
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

// A mutual pair, a cycle and a tail, so every WIDX section is non-empty.
DiGraph SidecarGraph() {
  GraphBuilder b(6);
  EXPECT_TRUE(
      b.AddEdges({{0, 1}, {1, 0}, {1, 2}, {2, 0}, {2, 3}, {3, 4}}).ok());
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(g).value();
}

Format Eng2Format() {
  Format f;
  f.name = "eng2";
  const std::string path = TempPath("fuzz_base.eng2");
  EXPECT_TRUE(SaveBinaryV2(SmallGraph(), path).ok());
  f.bytes = ReadFileBytes(path);
  f.sections = kEng2Sections;
  f.reseal = ResealEng2;
  f.decode = [](const std::string& p) -> Result<std::string> {
    EN_ASSIGN_OR_RETURN(DiGraph g, MapBinary(p));
    return Reencode("eng2", [&g](const std::string& out) {
      return SaveBinaryV2(g, out);
    });
  };
  f.fields = {{"num_nodes", kNumNodesAt}, {"num_edges", kNumEdgesAt}};
  return f;
}

Format WidxFormat() {
  const DiGraph g = SidecarGraph();
  const serve::EngineOptions opts;
  serve::WarmIndexes warm;
  EXPECT_TRUE(serve::ComputeWarmIndexes(g, opts, &warm).ok());
  const serve::WarmIndexKey key = {
      GraphChecksum(g), serve::WarmConfigHash(opts.pagerank, opts.fingerprint)};
  Format f;
  f.name = "widx";
  const std::string path = TempPath("fuzz_base.widx");
  EXPECT_TRUE(serve::SaveWarmIndexes(path, key, warm).ok());
  f.bytes = ReadFileBytes(path);
  f.sections = 12;
  f.keyed = true;
  f.reseal = [](std::string* b) { ResealSections(b, 12); };
  const NodeId n = g.num_nodes();
  f.decode = [key, n](const std::string& p) -> Result<std::string> {
    EN_ASSIGN_OR_RETURN(serve::WarmIndexes w,
                        serve::LoadWarmIndexes(p, key, n));
    return Reencode("widx", [&](const std::string& out) {
      return serve::SaveWarmIndexes(out, key, w);
    });
  };
  // The scalar block's component counts (u64 slots 0 and 1) and the
  // first two heavy-node ids (section 10, u32 each, so one u64 write sets
  // both). A heavy reach is left out, like a PageRank score: an in-range
  // wrong value behind a resealed checksum is undetectable by design.
  const auto section_at = [&f](size_t i) {
    return static_cast<size_t>(Get<uint64_t>(f.bytes, OffsetAt(i)));
  };
  f.fields = {{"wcc.num_components", section_at(0)},
              {"scc.num_components", section_at(0) + 1 * 8},
              {"heavy_ids[0..1]", section_at(10)}};
  return f;
}

Format PidxFormat() {
  const DiGraph g = SidecarGraph();
  serve::PartitionOptions opts;
  opts.num_shards = 2;
  opts.hub_count = 2;
  auto built = serve::BuildPartition(g, opts);
  EXPECT_TRUE(built.ok());
  const serve::Partition partition = std::move(built).value();
  Format f;
  f.name = "pidx";
  const std::string path = TempPath("fuzz_base.pidx");
  EXPECT_TRUE(serve::SavePartition(path, partition, opts.hub_count).ok());
  f.bytes = ReadFileBytes(path);
  f.sections = 2;
  f.keyed = true;
  f.reseal = [](std::string* b) { ResealSections(b, 2); };
  const uint64_t checksum = partition.graph_checksum;
  const NodeId n = g.num_nodes();
  f.decode = [checksum, n, opts](const std::string& p) -> Result<std::string> {
    EN_ASSIGN_OR_RETURN(serve::Partition loaded,
                        serve::LoadPartition(p, checksum, opts.num_shards,
                                             opts.hub_count, n));
    return Reencode("pidx", [&](const std::string& out) {
      return serve::SavePartition(out, loaded, opts.hub_count);
    });
  };
  return f;
}

std::vector<Format> AllFormats() {
  return {Eng2Format(), WidxFormat(), PidxFormat()};
}

// Flips each byte in turn. Every byte the decoder reads is covered by a
// check — the frame's, a section checksum, or the format's key — so its
// flip must be rejected; a flip anywhere else must decode equal.
void CheckEveryByteFlip(const Format& f) {
  const std::vector<bool> read = ReadMask(f.bytes, f.sections);
  for (size_t i = 0; i < f.bytes.size(); ++i) {
    std::string mutated = f.bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0xFF);
    const std::string what = "flip at byte " + std::to_string(i);
    EXPECT_EQ(ExpectCleanOutcome(f, mutated, what), !read[i])
        << f.name << ": " << what;
  }
}

// Sets each header word, the section count, and each entry's id, offset
// and length — plus the format's own fields — to an extreme value, then
// reseals the file so its checksums match again: a plain overwrite would
// stop at the checksums, while this reaches the checks behind them.
void CheckFieldExtremes(const Format& f) {
  constexpr uint64_t kTwo32 = uint64_t{1} << 32;
  constexpr uint64_t kTwo62 = uint64_t{1} << 62;
  const uint64_t extremes[] = {0,      1,         kTwo32 - 1, kTwo32,
                               kTwo62, kTwo62 + 1, UINT64_MAX};
  std::vector<std::pair<std::string, size_t>> u64_fields = f.fields;
  std::vector<std::pair<std::string, size_t>> u32_fields = {
      {"section_count", kSectionCountAt}};
  for (size_t w = 0; w < 3; ++w) {
    u64_fields.emplace_back("word[" + std::to_string(w) + "]", WordAt(w));
  }
  for (size_t s = 0; s < f.sections; ++s) {
    const std::string tag = "[" + std::to_string(s) + "]";
    u32_fields.emplace_back("id" + tag, EntryAt(s));
    u64_fields.emplace_back("offset" + tag, OffsetAt(s));
    u64_fields.emplace_back("length" + tag, LengthAt(s));
  }
  for (uint64_t value : extremes) {
    const std::string eq = " = " + std::to_string(value);
    for (const auto& [name, at] : u64_fields) {
      std::string mutated = f.bytes;
      Put(&mutated, at, value);
      f.reseal(&mutated);
      ExpectCleanOutcome(f, mutated, name + eq);
    }
    for (const auto& [name, at] : u32_fields) {
      std::string mutated = f.bytes;
      Put(&mutated, at, static_cast<uint32_t>(value));
      f.reseal(&mutated);
      ExpectCleanOutcome(f, mutated, name + eq);
    }
  }
}

// Every proper prefix of the file must be rejected: the last section
// ends the file, so each cut loses bytes some check covers.
void CheckEveryTruncation(const Format& f) {
  for (size_t keep = 0; keep < f.bytes.size(); ++keep) {
    EXPECT_FALSE(ExpectCleanOutcome(f, f.bytes.substr(0, keep),
                                    "kept " + std::to_string(keep)))
        << f.name << ": kept " << keep;
  }
}

// The format's own magic and version, then garbage.
void CheckRandomBodies(const Format& f, uint64_t seed) {
  util::Rng rng(seed);
  for (int trial = 0; trial < 30; ++trial) {
    std::string bytes = f.bytes.substr(0, 8);
    const size_t len = rng.UniformU64(1024);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.UniformU64(256)));
    }
    EXPECT_FALSE(
        ExpectCleanOutcome(f, bytes, "trial " + std::to_string(trial)))
        << f.name << ": trial " << trial;
  }
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
  // Valid magic (and version) + garbage body: deeper validation layers
  // must catch it, in every format.
  uint64_t seed = 43;
  for (const Format& f : AllFormats()) CheckRandomBodies(f, seed++);
}

TEST(IoRobustnessTest, EveryByteFlipIsDetected) {
  for (const Format& f : AllFormats()) CheckEveryByteFlip(f);
}

TEST(IoRobustnessTest, TruncationAnywhereIsRejected) {
  for (const Format& f : AllFormats()) CheckEveryTruncation(f);
}

TEST(IoRobustnessTest, FieldExtremesBehindValidChecksums) {
  for (const Format& f : AllFormats()) CheckFieldExtremes(f);
}

TEST(IoRobustnessTest, Eng2CountPairsBehindValidChecksums) {
  // Both ENG2 counts at once, so neither one alone gives the header away.
  const Format f = Eng2Format();
  const uint64_t extremes[] = {0,       1,           (1ull << 32) - 1,
                               1ull << 32, 1ull << 62, (1ull << 62) + 1,
                               UINT64_MAX};
  for (uint64_t n : extremes) {
    for (uint64_t m : extremes) {
      std::string mutated = f.bytes;
      Put(&mutated, kNumNodesAt, n);
      Put(&mutated, kNumEdgesAt, m);
      ResealEng2(&mutated);
      ExpectCleanOutcome(f, mutated, "n = " + std::to_string(n) + ", m = " +
                                         std::to_string(m));
    }
  }
}

TEST(IoRobustnessTest, HugeClaimedCountsRejectedWithoutAllocation) {
  // A bare header and table claiming 2^62 nodes and edges: must fail
  // fast, not size anything by the claimed counts.
  std::string bytes(TableEnd(kEng2Sections), '\0');
  std::memcpy(bytes.data(), "ENG2", 4);
  Put<uint32_t>(&bytes, kVersionAt, 3);
  Put<uint64_t>(&bytes, kNumNodesAt, uint64_t{1} << 62);
  Put<uint64_t>(&bytes, kNumEdgesAt, uint64_t{1} << 62);
  Put<uint32_t>(&bytes, kSectionCountAt, kEng2Sections);
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
