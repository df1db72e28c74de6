#include "util/lru_cache.h"

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/deadline.h"

namespace elitenet {
namespace util {
namespace {

using Cache = ShardedLruCache<std::string, std::string>;

TEST(LruCacheTest, GetReturnsWhatPutStored) {
  Cache cache(/*capacity=*/8, /*shards=*/2);
  cache.Put("a", "1");
  cache.Put("b", "2");
  std::string v;
  ASSERT_TRUE(cache.Get("a", &v));
  EXPECT_EQ(v, "1");
  ASSERT_TRUE(cache.Get("b", &v));
  EXPECT_EQ(v, "2");
  EXPECT_FALSE(cache.Get("missing", &v));
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, PutRefreshesExistingKey) {
  Cache cache(4, 1);
  cache.Put("k", "old");
  cache.Put("k", "new");
  std::string v;
  ASSERT_TRUE(cache.Get("k", &v));
  EXPECT_EQ(v, "new");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  // Single shard so the LRU order is global and assertable.
  Cache cache(/*capacity=*/3, /*shards=*/1);
  cache.Put("a", "1");
  cache.Put("b", "2");
  cache.Put("c", "3");
  std::string v;
  ASSERT_TRUE(cache.Get("a", &v));  // "a" becomes most recent
  cache.Put("d", "4");              // evicts "b", the LRU
  EXPECT_FALSE(cache.Get("b", &v));
  EXPECT_TRUE(cache.Get("a", &v));
  EXPECT_TRUE(cache.Get("c", &v));
  EXPECT_TRUE(cache.Get("d", &v));
  EXPECT_EQ(cache.size(), 3u);
}

TEST(LruCacheTest, CapacityHoldsAcrossShards) {
  Cache cache(/*capacity=*/64, /*shards=*/8);
  for (int i = 0; i < 1000; ++i) {
    cache.Put("key" + std::to_string(i), std::to_string(i));
  }
  // Per-shard capacity is ceil(64/8) = 8, so total residency is bounded
  // by shards * per-shard capacity.
  EXPECT_LE(cache.size(), 64u);
  EXPECT_GT(cache.size(), 0u);
}

TEST(LruCacheTest, ShardCountClampedToCapacity) {
  Cache cache(/*capacity=*/2, /*shards=*/16);
  EXPECT_LE(cache.num_shards(), 2u);
  cache.Put("a", "1");
  cache.Put("b", "2");
  std::string v;
  EXPECT_TRUE(cache.Get("a", &v));
  EXPECT_TRUE(cache.Get("b", &v));
}

TEST(LruCacheTest, ClearDropsEntriesKeepsTallies) {
  Cache cache(8, 2);
  cache.Put("a", "1");
  std::string v;
  ASSERT_TRUE(cache.Get("a", &v));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Get("a", &v));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

// Concurrency hammer: correctness is checked by TSan (this test carries
// the "tsan" ctest label); here we only assert values are never torn.
TEST(LruCacheTest, ConcurrentMixedWorkloadIsSafe) {
  Cache cache(/*capacity=*/128, /*shards=*/8);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 4000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        std::string key = "k";
        key += std::to_string((t * 7 + i) % 200);
        if (i % 3 == 0) {
          cache.Put(key, "v" + key);
        } else {
          std::string v;
          if (cache.Get(key, &v)) {
            EXPECT_EQ(v, "v" + key);
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_LE(cache.size(), 128u);
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<uint64_t>(kThreads) * ((kOpsPerThread * 2) / 3));
}

TEST(DeadlineTest, DefaultAndInfiniteNeverExpire) {
  Deadline d;
  EXPECT_TRUE(d.infinite());
  EXPECT_FALSE(d.Expired());
  EXPECT_FALSE(Deadline::Infinite().Expired());
}

TEST(DeadlineTest, ZeroBudgetExpiresImmediately) {
  Deadline d = Deadline::After(0);
  EXPECT_FALSE(d.infinite());
  EXPECT_TRUE(d.Expired());
  EXPECT_EQ(d.RemainingMicros(), 0u);
}

TEST(DeadlineTest, GenerousBudgetHasTimeRemaining) {
  Deadline d = Deadline::After(60ULL * 1000 * 1000);  // one minute
  EXPECT_FALSE(d.Expired());
  EXPECT_GT(d.RemainingMicros(), 0u);
}

}  // namespace
}  // namespace util
}  // namespace elitenet
