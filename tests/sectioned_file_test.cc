// Sectioned-file container tests: the writer's layout and temp-file +
// rename behaviour, the decoder's frame checks and their status classes,
// and golden digests pinning the exact bytes ENG2, WIDX and PIDX files
// are written with.

#include "util/sectioned_file.h"

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/verified_network.h"
#include "graph/io.h"
#include "sectioned_bytes.h"
#include "serve/engine.h"
#include "serve/partition.h"
#include "serve/warm_index_cache.h"

namespace elitenet {
namespace util {
namespace {

using namespace sectioned_bytes;

constexpr SectionedFormat kTest = {{'T', 'E', 'S', 'T'}, 7, 3};

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

bool Exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f != nullptr) std::fclose(f);
  return f != nullptr;
}

// Sections of 5 bytes (AddSection), 0 bytes (a bare EndSection) and 70
// bytes (two Appends), words {1, 2, 3}.
Status WriteSample(const std::string& path, char fill) {
  EN_ASSIGN_OR_RETURN(SectionedWriter out,
                      SectionedWriter::Create(path, kTest));
  const std::string first(5, fill);
  const std::string third(70, static_cast<char>(fill + 1));
  EN_RETURN_IF_ERROR(out.AddSection(first.data(), first.size()));
  EN_RETURN_IF_ERROR(out.EndSection());
  EN_RETURN_IF_ERROR(out.Append(third.data(), 30));
  EN_RETURN_IF_ERROR(out.Append(third.data() + 30, 40));
  EN_RETURN_IF_ERROR(out.EndSection());
  return out.Commit({1, 2, 3});
}

// The reference hash against the published XXH64 values.
TEST(SectionedFileTest, ReferenceXxh64MatchesPublishedValues) {
  EXPECT_EQ(sectioned_bytes::Xxh64(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(sectioned_bytes::Xxh64("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(sectioned_bytes::Xxh64("abc"), 0x44BC2CF5AD770999ULL);
  EXPECT_EQ(
      sectioned_bytes::Xxh64("Nobody inspects the spammish repetition"),
      0xFBCEA83C8A378BF1ULL);
}

TEST(SectionedFileTest, WriterLayoutAndRoundTrip) {
  const std::string path = TempPath("layout.sec");
  ASSERT_TRUE(WriteSample(path, 'a').ok());
  EXPECT_FALSE(Exists(path + ".tmp"));

  const std::string bytes = ReadFileBytes(path);
  // Header + 3 entries = 160 -> first section at 192; the empty one at
  // 256 (aligned past 197); the last at 256 too, ending the file.
  ASSERT_EQ(bytes.size(), 256u + 70u);
  EXPECT_EQ(bytes.substr(0, 4), "TEST");
  EXPECT_EQ(Get<uint32_t>(bytes, kVersionAt), 7u);
  EXPECT_EQ(Get<uint32_t>(bytes, kSectionCountAt), 3u);
  const uint64_t offsets[] = {192, 256, 256};
  const uint64_t lengths[] = {5, 0, 70};
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(Get<uint32_t>(bytes, EntryAt(i)), i);
    EXPECT_EQ(Get<uint32_t>(bytes, EntryAt(i) + 4), 0u);
    EXPECT_EQ(Get<uint64_t>(bytes, OffsetAt(i)), offsets[i]);
    EXPECT_EQ(Get<uint64_t>(bytes, LengthAt(i)), lengths[i]);
    EXPECT_EQ(Get<uint64_t>(bytes, ChecksumAt(i)),
              sectioned_bytes::Xxh64(bytes, offsets[i], lengths[i]));
  }
  // Header padding and alignment padding are zero.
  EXPECT_EQ(bytes.substr(36, 28), std::string(28, '\0'));
  EXPECT_EQ(bytes.substr(197, 59), std::string(59, '\0'));

  auto file = SectionedFile::Open(path, kTest);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->words(), (HeaderWords{1, 2, 3}));
  EXPECT_EQ(file->file_size(), bytes.size());
  ASSERT_EQ(file->section(0).size(), 5u);
  EXPECT_EQ(file->section(0)[0], 'a');
  EXPECT_EQ(file->section(1).size(), 0u);
  std::vector<uint16_t> third;
  ASSERT_TRUE(file->CopySection(2, &third).ok());
  EXPECT_EQ(third.size(), 35u);
  std::vector<uint32_t> odd;
  EXPECT_EQ(file->CopySection(0, &odd).code(), StatusCode::kCorruption);
}

TEST(SectionedFileTest, AbandonedWriterLeavesNothingBehind) {
  const std::string path = TempPath("abandoned.sec");
  std::remove(path.c_str());
  {
    auto out = SectionedWriter::Create(path, kTest);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out->AddSection("xyz", 3).ok());
    EXPECT_TRUE(Exists(path + ".tmp"));
  }
  EXPECT_FALSE(Exists(path + ".tmp"));
  EXPECT_FALSE(Exists(path));
}

TEST(SectionedFileTest, CommitReplacesAMappedFileWithoutDisturbingIt) {
  const std::string path = TempPath("replaced.sec");
  ASSERT_TRUE(WriteSample(path, 'a').ok());
  auto old_file = SectionedFile::Open(path, kTest);
  ASSERT_TRUE(old_file.ok());
  ASSERT_TRUE(WriteSample(path, 'q').ok());
  // The old mapping still reads the old bytes; the path has the new ones.
  EXPECT_EQ(old_file->section(0)[4], 'a');
  auto new_file = SectionedFile::Open(path, kTest);
  ASSERT_TRUE(new_file.ok());
  EXPECT_EQ(new_file->section(0)[4], 'q');
}

TEST(SectionedFileTest, UnwritableTargetIsIoError) {
  EXPECT_EQ(SectionedWriter::Create("/no/such/dir/x.sec", kTest)
                .status()
                .code(),
            StatusCode::kIoError);
}

TEST(SectionedFileTest, FrameDamageHasItsStatusClass) {
  const std::string path = TempPath("frame.sec");
  ASSERT_TRUE(WriteSample(path, 'a').ok());
  const std::string good = ReadFileBytes(path);
  const auto open_code = [&path](const std::string& bytes) {
    WriteFileBytes(path, bytes);
    return SectionedFile::Open(path, kTest).status().code();
  };
  EXPECT_EQ(SectionedFile::Open(TempPath("missing.sec"), kTest)
                .status()
                .code(),
            StatusCode::kIoError);
  EXPECT_EQ(open_code(""), StatusCode::kCorruption);
  EXPECT_EQ(open_code(good.substr(0, 100)), StatusCode::kCorruption);

  std::string bad = good;
  bad[0] = 'X';
  EXPECT_EQ(open_code(bad), StatusCode::kCorruption) << "magic";
  bad = good;
  Put<uint32_t>(&bad, kVersionAt, 8);
  EXPECT_EQ(open_code(bad), StatusCode::kNotSupported) << "version";
  bad = good;
  Put<uint32_t>(&bad, kSectionCountAt, 2);
  EXPECT_EQ(open_code(bad), StatusCode::kCorruption) << "section count";
  bad = good;
  Put<uint32_t>(&bad, EntryAt(1), 2);
  EXPECT_EQ(open_code(bad), StatusCode::kCorruption) << "table order";
  bad = good;
  Put<uint64_t>(&bad, OffsetAt(0), 200);
  ResealSections(&bad, 3);
  EXPECT_EQ(open_code(bad), StatusCode::kCorruption) << "alignment";
  bad = good;
  Put<uint64_t>(&bad, LengthAt(2), 71);
  ResealSections(&bad, 3);
  EXPECT_EQ(open_code(bad), StatusCode::kCorruption) << "bounds";
  bad = good;
  bad[192] ^= 1;
  EXPECT_EQ(open_code(bad), StatusCode::kCorruption) << "checksum";
  EXPECT_EQ(open_code(good), StatusCode::kOk);
}

std::string PatternBytes(size_t len) {
  std::string data(len, '\0');
  for (size_t i = 0; i < len; ++i) data[i] = static_cast<char>(i * 37 + 11);
  return data;
}

// XXH64 against its published digest of the empty input, and against
// the reference in sectioned_bytes.h on one buffer of every length 0-129:
// under, at and over one 32-byte stripe, with every tail length.
TEST(SectionedFileTest, Xxh64MatchesTheReference) {
  EXPECT_EQ(util::Xxh64(nullptr, 0), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(Xxh64Stream().Digest(), 0xEF46DB3751D8E999ULL);
  const std::string data = PatternBytes(129);
  for (size_t len = 0; len <= data.size(); ++len) {
    EXPECT_EQ(util::Xxh64(data.data(), len),
              sectioned_bytes::Xxh64(data, 0, len))
        << len;
  }
}

// A stream's digest depends on its bytes, not on how they were split:
// at every split point of every length 0-129, in one, two and three
// Updates (the carry across stripes is the part that can go wrong).
TEST(SectionedFileTest, StreamedXxh64MatchesOneShotAtEverySplit) {
  const std::string data = PatternBytes(129);
  for (size_t len = 0; len <= data.size(); ++len) {
    const uint64_t whole = util::Xxh64(data.data(), len);
    Xxh64Stream once;
    once.Update(data.data(), len);
    EXPECT_EQ(once.Digest(), whole) << len;
    for (size_t a = 0; a <= len; ++a) {
      Xxh64Stream two;
      two.Update(data.data(), a);
      two.Update(data.data() + a, len - a);
      EXPECT_EQ(two.Digest(), whole) << len << " split at " << a;
      for (size_t b = a; b <= len; ++b) {
        Xxh64Stream three;
        three.Update(data.data(), a);
        three.Update(data.data() + a, b - a);
        three.Update(data.data() + b, len - b);
        ASSERT_EQ(three.Digest(), whole)
            << len << " split at " << a << " and " << b;
      }
    }
  }
}

// The writer streams each section's digest across its Appends, and the
// reader hashes each section once; both must give the reference digests
// and their fold at every length around the stripe and cache-line sizes.
TEST(SectionedFileTest, WriterAndReaderDigestsMatchTheReference) {
  const size_t lengths[] = {0, 1, 7, 31, 32, 33, 63, 64, 65};
  constexpr uint32_t kSections = std::size(lengths);
  constexpr SectionedFormat kMany = {{'F', 'U', 'S', 'E'}, 1, kSections};
  const std::string data = PatternBytes(65);
  std::vector<uint64_t> digests;
  for (const size_t len : lengths) {
    digests.push_back(sectioned_bytes::Xxh64(data, 0, len));
  }
  const uint64_t chain = sectioned_bytes::ChainDigests(digests);
  EXPECT_EQ(util::ChainDigests(digests), chain);

  const std::string path = TempPath("digests.sec");
  {
    auto out = SectionedWriter::Create(path, kMany);
    ASSERT_TRUE(out.ok());
    for (const size_t len : lengths) {
      ASSERT_TRUE(out->Append(data.data(), len / 3).ok());
      ASSERT_TRUE(out->Append(data.data() + len / 3, len / 2 - len / 3).ok());
      ASSERT_TRUE(out->Append(data.data() + len / 2, len - len / 2).ok());
      ASSERT_TRUE(out->EndSection().ok());
    }
    EXPECT_EQ(out->chained_checksum(), chain);
    ASSERT_TRUE(out->Commit({chain, 0, 0}).ok());
  }
  const std::string bytes = ReadFileBytes(path);
  auto file = SectionedFile::Open(path, kMany);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->chained_checksum(), chain);
  EXPECT_EQ(file->words()[0], chain);
  for (uint32_t i = 0; i < kSections; ++i) {
    ASSERT_EQ(file->section(i).size(), lengths[i]);
    EXPECT_EQ(Get<uint64_t>(bytes, ChecksumAt(i)), digests[i])
        << "section " << i;
  }
}

// The chain is order-dependent: two sections' digests trading places
// change it, so a swap the per-section digests accept still shows.
TEST(SectionedFileTest, ChainDependsOnSectionOrder) {
  const uint64_t a = util::Xxh64("first", 5);
  const uint64_t b = util::Xxh64("second", 6);
  const uint64_t ab[] = {a, b};
  const uint64_t ba[] = {b, a};
  EXPECT_NE(util::ChainDigests(ab), util::ChainDigests(ba));
}

// Sections must lie after the table, in id order, without overlap: a
// resealed entry that points back into the header or table, or into an
// earlier section, would otherwise hand the format bytes that belong to
// something else. (Found by the WIDX fuzz in io_robustness_test: a
// mutual-degree section moved to offset 0 decoded the header as degrees.)
TEST(SectionedFileTest, SectionsOverlappingTheTableOrEachOtherAreCorruption) {
  const std::string path = TempPath("overlap.sec");
  ASSERT_TRUE(WriteSample(path, 'a').ok());
  const std::string good = ReadFileBytes(path);
  for (const auto& [section, offset] :
       {std::pair<size_t, uint64_t>{0, 0}, {0, 128}, {2, 192}, {1, 192}}) {
    std::string bad = good;
    Put<uint64_t>(&bad, OffsetAt(section), offset);
    ResealSections(&bad, 3);
    WriteFileBytes(path, bad);
    EXPECT_EQ(SectionedFile::Open(path, kTest).status().code(),
              StatusCode::kCorruption)
        << "section " << section << " at " << offset;
  }
}

// The bytes every format writes: the 4,000-user generator graph (seed
// 2018) as ENG2 from the in-memory and the streamed writer, its warm
// indexes as WIDX, and its 2-shard partition as PIDX. A change to any
// writer or to the container must keep them. Two digests per file:
//  * the payload digest covers each section's length and bytes, not the
//    header or table. It was recorded from the FNV-1a container (ENG2 v2,
//    WIDX v5, PIDX v1) and still holds for the XXH64 one (ENG2 v3, WIDX
//    v6, PIDX v2): the hash change moved no payload byte. WIDX's was
//    re-recorded for v7, whose scalar block dropped the degree and
//    reciprocity slots; its other eleven sections kept their bytes.
//  * the whole-file digest covers every byte, so it also pins the version,
//    the section digests and the checksum header words. It was
//    re-recorded for the XXH64 container and for WIDX v7; before that for
//    WIDX v4 (new heavy-node reach sections) and v5 (hub-label sections
//    dropped).
TEST(SectionedFileTest, FormatsMatchGoldenDigests) {
  gen::VerifiedNetworkConfig cfg;
  cfg.num_users = 4000;
  auto net = gen::GenerateVerifiedNetwork(cfg);
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  const graph::DiGraph& g = net->graph;
  const auto digest = [](const std::string& path) {
    return sectioned_bytes::Xxh64(ReadFileBytes(path));
  };
  // Each section's u64 length and payload in id order, hashed together:
  // the bytes a format means, less the header, table and padding.
  const auto payload = [](const std::string& path, size_t sections) {
    const std::string bytes = ReadFileBytes(path);
    std::string payloads;
    for (size_t i = 0; i < sections; ++i) {
      const uint64_t length = Get<uint64_t>(bytes, LengthAt(i));
      payloads.append(bytes, LengthAt(i), 8);
      payloads.append(bytes, Get<uint64_t>(bytes, OffsetAt(i)), length);
    }
    return sectioned_bytes::Xxh64(payloads);
  };

  const std::string eng2 = TempPath("golden.eng2");
  ASSERT_TRUE(graph::SaveBinaryV2(g, eng2).ok());
  EXPECT_EQ(digest(eng2), 0x504c37cdf260e287ULL);
  EXPECT_EQ(payload(eng2, 4), 0xfba417885572aae5ULL);
  const std::string streamed = TempPath("golden_streamed.eng2");
  graph::StreamWriteOptions stream_opts;
  stream_opts.sort_budget_bytes = 1 << 20;
  ASSERT_TRUE(graph::SaveStreamedV2(g, streamed, stream_opts).ok());
  EXPECT_EQ(digest(streamed), 0x504c37cdf260e287ULL);
  EXPECT_EQ(payload(streamed, 4), 0xfba417885572aae5ULL);

  const serve::EngineOptions opts;
  serve::WarmIndexes warm;
  ASSERT_TRUE(serve::ComputeWarmIndexes(g, opts, &warm).ok());
  const serve::WarmIndexKey key = {
      graph::GraphChecksum(g),
      serve::WarmConfigHash(opts.pagerank, opts.fingerprint)};
  const std::string widx = TempPath("golden.widx");
  ASSERT_TRUE(serve::SaveWarmIndexes(widx, key, warm).ok());
  EXPECT_EQ(digest(widx), 0x1642b15193295324ULL);
  EXPECT_EQ(payload(widx, 12), 0x5cfed19f253a9373ULL);

  serve::PartitionOptions part_opts;
  part_opts.num_shards = 2;
  auto partition = serve::BuildPartition(g, part_opts);
  ASSERT_TRUE(partition.ok());
  const std::string pidx = TempPath("golden.pidx");
  ASSERT_TRUE(
      serve::SavePartition(pidx, *partition, part_opts.hub_count).ok());
  EXPECT_EQ(digest(pidx), 0x91340e08b0dfd286ULL);
  EXPECT_EQ(payload(pidx, 2), 0x0bb30f269622a4cfULL);
}

}  // namespace
}  // namespace util
}  // namespace elitenet
