// Unit tests of the deterministic parallel primitives: pool lifecycle,
// exception propagation, nested-loop collapse, grain/chunk edge cases,
// and the reduce fold order.

#include "util/parallel.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace elitenet {
namespace util {
namespace {

// Restores the global thread count on scope exit so tests are independent.
class ThreadCountGuard {
 public:
  ThreadCountGuard() = default;
  ~ThreadCountGuard() { SetThreadCount(0); }
};

TEST(ThreadCountTest, AlwaysPositive) {
  ThreadCountGuard guard;
  EXPECT_GE(ThreadCount(), 1);
  SetThreadCount(3);
  EXPECT_EQ(ThreadCount(), 3);
  SetThreadCount(0);  // back to auto
  EXPECT_GE(ThreadCount(), 1);
}

TEST(ThreadCountTest, AutoFollowsAffinityMask) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  // ELITENET_THREADS outranks the mask; lift it for the test's duration.
  const char* env = std::getenv("ELITENET_THREADS");
  const bool had_env = env != nullptr;
  const std::string saved_env = had_env ? env : "";
  unsetenv("ELITENET_THREADS");
  SetThreadCount(0);
  const int pinned = ThreadCount();
  EXPECT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  if (had_env) setenv("ELITENET_THREADS", saved_env.c_str(), 1);
  SetThreadCount(0);
  EXPECT_EQ(pinned, 1);
}

TEST(ParseThreadCountTest, AcceptsPlainIntegers) {
  EXPECT_EQ(ParseThreadCount("1", -1), 1);
  EXPECT_EQ(ParseThreadCount("8", -1), 8);
  EXPECT_EQ(ParseThreadCount("  16", -1), 16);  // strtol skips whitespace
  EXPECT_EQ(ParseThreadCount("1024", -1), kMaxThreads);
}

TEST(ParseThreadCountTest, RejectsNonNumeric) {
  EXPECT_EQ(ParseThreadCount(nullptr, 7), 7);
  EXPECT_EQ(ParseThreadCount("", 7), 7);
  EXPECT_EQ(ParseThreadCount("abc", 7), 7);
  EXPECT_EQ(ParseThreadCount("8x", 7), 7);    // trailing junk
  EXPECT_EQ(ParseThreadCount("3.5", 7), 7);   // not an integer
  EXPECT_EQ(ParseThreadCount("4 ", 7), 7);    // trailing space
}

TEST(ParseThreadCountTest, RejectsOutOfRange) {
  EXPECT_EQ(ParseThreadCount("0", 7), 7);
  EXPECT_EQ(ParseThreadCount("-3", 7), 7);
  EXPECT_EQ(ParseThreadCount("1025", 7), 7);  // above kMaxThreads
  EXPECT_EQ(ParseThreadCount("99999999999999999999", 7), 7);  // overflows long
}

TEST(EffectiveGrainTest, HonorsExplicitGrain) {
  EXPECT_EQ(EffectiveGrain(1000, 10), 10u);
  EXPECT_EQ(EffectiveGrain(5, 100), 100u);
}

TEST(EffectiveGrainTest, AutoGrainTargetsFixedChunkCount) {
  // grain == 0 splits into at most 64 chunks regardless of thread count —
  // this is what keeps chunk boundaries thread-count-independent.
  const size_t grain = EffectiveGrain(6400, 0);
  EXPECT_EQ(grain, 100u);
  EXPECT_GE(EffectiveGrain(10, 0), 1u);
  EXPECT_GE(EffectiveGrain(1, 0), 1u);
}

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.Run(100, [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  int sum = 0;  // no synchronization needed: everything runs on this thread
  pool.Run(10, [&](size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPoolTest, ShutdownJoinsCleanly) {
  // Construct, use, and destroy several pools back to back; the destructor
  // must join all workers without hanging or leaking batches.
  for (int round = 0; round < 3; ++round) {
    ThreadPool pool(3);
    std::atomic<int> count{0};
    pool.Run(17, [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 17);
  }
}

TEST(ThreadPoolTest, PoolIsReusableAcrossBatches) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    pool.Run(50, [&](size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 50);
  }
}

TEST(ThreadPoolTest, LowestIndexExceptionWins) {
  ThreadPool pool(4);
  try {
    pool.Run(64, [](size_t i) {
      if (i % 2 == 1) throw std::runtime_error(std::to_string(i));
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    // Any odd index may throw first in wall-clock time, but Run reports
    // the lowest one so failures are reproducible.
    EXPECT_STREQ(e.what(), "1");
  }
  // The pool must remain usable after a throwing batch.
  std::atomic<int> count{0};
  pool.Run(8, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ParallelForTest, CoversRangeWithoutOverlap) {
  ThreadCountGuard guard;
  SetThreadCount(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(0, 1000, 7, [&](size_t lo, size_t hi) {
    EXPECT_LT(lo, hi);
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyRangeNeverInvokesBody) {
  ThreadCountGuard guard;
  SetThreadCount(4);
  bool called = false;
  ParallelFor(5, 5, 1, [&](size_t, size_t) { called = true; });
  ParallelFor(7, 3, 1, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, GrainLargerThanRangeIsOneChunk) {
  ThreadCountGuard guard;
  SetThreadCount(4);
  int calls = 0;  // single chunk => runs serially on this thread
  ParallelFor(0, 10, 1000, [&](size_t lo, size_t hi) {
    ++calls;
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 10u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, NonZeroBeginOffsetsChunks) {
  ThreadCountGuard guard;
  SetThreadCount(2);
  std::vector<std::atomic<int>> hits(100);
  ParallelFor(40, 100, 9, [&](size_t lo, size_t hi) {
    EXPECT_GE(lo, 40u);
    EXPECT_LE(hi, 100u);
    for (size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < 40; ++i) EXPECT_EQ(hits[i].load(), 0);
  for (size_t i = 40; i < 100; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelForTest, NestedCallsCollapseToSerial) {
  ThreadCountGuard guard;
  SetThreadCount(4);
  std::atomic<int> inner_total{0};
  ParallelFor(0, 8, 1, [&](size_t, size_t) {
    EXPECT_TRUE(InParallelRegion());
    // The nested loop must complete inline rather than deadlocking on the
    // shared pool.
    int local = 0;
    ParallelFor(0, 10, 1, [&](size_t lo, size_t hi) {
      local += static_cast<int>(hi - lo);
    });
    EXPECT_EQ(local, 10);
    inner_total.fetch_add(local);
  });
  EXPECT_EQ(inner_total.load(), 80);
  EXPECT_FALSE(InParallelRegion());
}

TEST(ParallelForTest, ExceptionPropagatesFromLowestChunk) {
  ThreadCountGuard guard;
  SetThreadCount(4);
  try {
    ParallelFor(0, 100, 10, [](size_t lo, size_t) {
      if (lo >= 30) throw std::runtime_error(std::to_string(lo));
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "30");
  }
}

TEST(ParallelReduceTest, SumMatchesSerial) {
  ThreadCountGuard guard;
  std::vector<double> values(10007);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = 1.0 / static_cast<double>(i + 1);
  }
  double serial = 0.0;
  // The serial reference must fold chunk partials the same way the
  // parallel version does; plain left-to-right accumulation differs in
  // the last ulp. Reduce with one thread IS that reference.
  SetThreadCount(1);
  serial = ParallelReduce(
      0, values.size(), 0, 0.0,
      [&](size_t lo, size_t hi) {
        double s = 0.0;
        for (size_t i = lo; i < hi; ++i) s += values[i];
        return s;
      },
      [](double a, double b) { return a + b; });
  SetThreadCount(4);
  const double parallel = ParallelReduce(
      0, values.size(), 0, 0.0,
      [&](size_t lo, size_t hi) {
        double s = 0.0;
        for (size_t i = lo; i < hi; ++i) s += values[i];
        return s;
      },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(serial, parallel);  // bit-identical, not just approximately
}

TEST(ParallelReduceTest, EmptyRangeReturnsInit) {
  ThreadCountGuard guard;
  const int result = ParallelReduce(
      3, 3, 1, 42, [](size_t, size_t) { return 7; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(result, 42);
}

TEST(ParallelReduceTest, FoldOrderIsChunkOrder) {
  ThreadCountGuard guard;
  SetThreadCount(4);
  // Concatenating chunk labels is order-sensitive; the result must list
  // chunks left to right regardless of execution interleaving.
  const std::string order = ParallelReduce(
      0, 40, 10, std::string(),
      [](size_t lo, size_t) { return std::to_string(lo / 10); },
      [](std::string a, std::string b) { return a + b; });
  EXPECT_EQ(order, "0123");
}

}  // namespace
}  // namespace util
}  // namespace elitenet
