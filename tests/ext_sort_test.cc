// External-sorter tests: the sorted stream must equal std::sort of the
// same records, byte-for-byte, at every memory budget (no spill, many
// tiny spills, one big run) and under concurrent producers — the
// determinism contract the out-of-core snapshot writer builds on. Plus
// the edge and failure paths: empty input, exact-capacity runs, use
// before Finish, Add after Finish, and a spill file truncated between
// Finish and the merge (must surface as Corruption, not wrong output).

#include "util/ext_sort.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/parallel.h"
#include "util/rng.h"

namespace elitenet {
namespace util {
namespace {

ExtSortOptions TestOptions(const char* prefix, uint64_t budget) {
  ExtSortOptions o;
  o.budget_bytes = budget;
  o.temp_dir = testing::TempDir();
  o.temp_prefix = prefix;
  return o;
}

std::vector<uint64_t> RandomRecords(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> records(count);
  // Narrow key space so duplicate records occur — the merge must keep
  // every copy (multiset, not set semantics).
  for (uint64_t& r : records) r = rng.UniformU64(count / 2 + 1);
  return records;
}

std::vector<uint64_t> Drain(ExtSorter::Stream* stream) {
  std::vector<uint64_t> out;
  uint64_t record = 0;
  while (stream->Next(&record)) out.push_back(record);
  EXPECT_TRUE(stream->status().ok()) << stream->status().ToString();
  return out;
}

TEST(ExtSortTest, MatchesStdSortUnbounded) {
  auto records = RandomRecords(10000, 1);
  ExtSorter sorter(TestOptions("unbounded", 0));
  ASSERT_TRUE(sorter.AddBatch(records).ok());
  ASSERT_TRUE(sorter.Finish().ok());
  EXPECT_EQ(sorter.spill_run_count(), 0u);
  EXPECT_EQ(sorter.total_records(), records.size());

  std::sort(records.begin(), records.end());
  auto stream = sorter.Scan();
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(Drain(&*stream), records);
}

TEST(ExtSortTest, ByteIdenticalAcrossBudgets) {
  const auto records = RandomRecords(50000, 2);
  std::vector<uint64_t> expected = records;
  std::sort(expected.begin(), expected.end());

  // Tiny (8k-record floor -> many runs), medium (a few runs), unbounded.
  const uint64_t budgets[] = {1, 100 << 10, 0};
  for (const uint64_t budget : budgets) {
    ExtSorter sorter(TestOptions("budget", budget));
    for (size_t i = 0; i < records.size();) {
      const size_t chunk = std::min<size_t>(records.size() - i, 1000);
      ASSERT_TRUE(
          sorter.AddBatch(std::span(records.data() + i, chunk)).ok());
      i += chunk;
    }
    ASSERT_TRUE(sorter.Finish().ok());
    if (budget == 1) {
      EXPECT_GT(sorter.spill_run_count(), 3u);
    }
    if (budget == 0) {
      EXPECT_EQ(sorter.spill_run_count(), 0u);
    }
    auto stream = sorter.Scan();
    ASSERT_TRUE(stream.ok());
    EXPECT_EQ(Drain(&*stream), expected) << "budget=" << budget;
  }
}

TEST(ExtSortTest, ByteIdenticalAcrossThreadCounts) {
  const auto records = RandomRecords(60000, 3);
  std::vector<uint64_t> expected = records;
  std::sort(expected.begin(), expected.end());

  for (const int threads : {1, 2, 4, 8}) {
    SetThreadCount(threads);
    ExtSorter sorter(TestOptions("threads", 64 << 10));
    // Concurrent producers, arbitrary interleaving: ParallelFor chunks
    // feed AddBatch from worker threads.
    ParallelFor(0, records.size(), 1024, [&](size_t lo, size_t hi) {
      ASSERT_TRUE(
          sorter.AddBatch(std::span(records.data() + lo, hi - lo)).ok());
    });
    ASSERT_TRUE(sorter.Finish().ok());
    auto stream = sorter.Scan();
    ASSERT_TRUE(stream.ok());
    EXPECT_EQ(Drain(&*stream), expected) << "threads=" << threads;
  }
  SetThreadCount(0);
}

TEST(ExtSortTest, EmptyInput) {
  ExtSorter sorter(TestOptions("empty", 1 << 20));
  ASSERT_TRUE(sorter.Finish().ok());
  EXPECT_EQ(sorter.total_records(), 0u);
  auto stream = sorter.Scan();
  ASSERT_TRUE(stream.ok());
  uint64_t record = 0;
  EXPECT_FALSE(stream->Next(&record));
  EXPECT_TRUE(stream->status().ok());
}

TEST(ExtSortTest, SingleSpilledRunPlusEmptyTail) {
  // Exactly one full run: the buffer spills at capacity and Finish()
  // finds an empty tail. The floor is 8k records (64 KiB budget).
  const size_t run_records = 8 * 1024;
  std::vector<uint64_t> records(run_records);
  for (size_t i = 0; i < run_records; ++i) records[i] = run_records - i;
  ExtSorter sorter(TestOptions("onerun", 64 << 10));
  ASSERT_TRUE(sorter.AddBatch(records).ok());
  ASSERT_TRUE(sorter.Finish().ok());
  EXPECT_EQ(sorter.spill_run_count(), 1u);
  std::sort(records.begin(), records.end());
  auto stream = sorter.Scan();
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(Drain(&*stream), records);
}

TEST(ExtSortTest, RepeatedScansYieldSameStream) {
  const auto records = RandomRecords(30000, 4);
  ExtSorter sorter(TestOptions("rescan", 64 << 10));
  ASSERT_TRUE(sorter.AddBatch(records).ok());
  ASSERT_TRUE(sorter.Finish().ok());
  auto first = sorter.Scan();
  ASSERT_TRUE(first.ok());
  const auto pass1 = Drain(&*first);
  auto second = sorter.Scan();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(Drain(&*second), pass1);
}

TEST(ExtSortTest, ScanBeforeFinishFails) {
  ExtSorter sorter(TestOptions("nofinish", 1 << 20));
  ASSERT_TRUE(sorter.Add(7).ok());
  auto stream = sorter.Scan();
  EXPECT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ExtSortTest, AddAfterFinishFails) {
  ExtSorter sorter(TestOptions("sealed", 1 << 20));
  ASSERT_TRUE(sorter.Finish().ok());
  const Status s = sorter.Add(1);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(sorter.Finish().ok());  // idempotent
}

TEST(ExtSortTest, TruncatedSpillFileSurfacesCorruption) {
  // Runs must span several merge read blocks (128k records each) so the
  // truncation is hit *mid-merge* — after the stream has already yielded
  // records — not at Scan() open. 4 MiB budget = 512k-record runs.
  const auto records = RandomRecords(1200 * 1024, 5);
  ExtSorter sorter(TestOptions("trunc", 4 << 20));
  ASSERT_TRUE(sorter.AddBatch(records).ok());
  ASSERT_TRUE(sorter.Finish().ok());
  ASSERT_GT(sorter.spill_run_count(), 1u);

  // Chop the second spill run in half between Finish and the merge —
  // mid-merge the reader hits EOF where records should be.
  const std::string& victim = sorter.spill_paths()[1];
  {
    std::FILE* f = std::fopen(victim.c_str(), "r+");
    ASSERT_NE(f, nullptr);
#if defined(_WIN32)
    GTEST_SKIP() << "no ftruncate";
#else
    ASSERT_EQ(std::fseek(f, 0, SEEK_END), 0);
    const long size = std::ftell(f);
    ASSERT_EQ(::ftruncate(fileno(f), size / 2), 0);
#endif
    std::fclose(f);
  }

  auto stream = sorter.Scan();
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  uint64_t record = 0;
  uint64_t yielded = 0;
  while (stream->Next(&record)) ++yielded;
  EXPECT_GT(yielded, 0u);  // the merge was underway when the hole hit
  EXPECT_EQ(stream->status().code(), StatusCode::kCorruption);
  EXPECT_NE(stream->status().ToString().find("truncated"),
            std::string::npos);
}

TEST(ExtSortTest, PackEdgeOrdersBySrcThenDst) {
  EXPECT_LT(PackEdge(1, 9), PackEdge(2, 0));
  EXPECT_LT(PackEdge(3, 4), PackEdge(3, 5));
  EXPECT_EQ(PackedSrc(PackEdge(123, 456)), 123u);
  EXPECT_EQ(PackedDst(PackEdge(123, 456)), 456u);
  EXPECT_EQ(PackEdgeReversed(7, 9), PackEdge(9, 7));
}

}  // namespace
}  // namespace util
}  // namespace elitenet
