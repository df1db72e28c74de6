// QoS plane tests: wire-form parsing of "!<class>", deterministic
// priority dispatch, and admission-control shed behaviour.

#include <algorithm>
#include <atomic>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "serve/qos.h"
#include "serve/request.h"
#include "serve/scheduler.h"
#include "util/deadline.h"
#include "util/rng.h"
#include "worker_gate.h"

namespace elitenet {
namespace serve {
namespace {

// ---------------------------------------------------------------------------
// Wire form.

TEST(QosParseTest, ClassTokenRoundTrips) {
  for (const char* line : {"ego 5 !batch", "topk 20 !analytics",
                           "dist 1 2 !interactive", "neighbors 3 out 8 !batch",
                           "fingerprint !analytics"}) {
    auto r = ParseRequest(line);
    ASSERT_TRUE(r.ok()) << line << ": " << r.status().ToString();
    auto again = ParseRequest(CanonicalEncoding(*r));
    ASSERT_TRUE(again.ok()) << CanonicalEncoding(*r);
    EXPECT_EQ(*again, *r) << line;
  }
}

TEST(QosParseTest, DefaultClassIsInteractive) {
  auto r = ParseRequest("ego 5");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->qos, QosClass::kInteractive);
  // Interactive is the default, so the canonical form omits the token.
  EXPECT_EQ(CanonicalEncoding(*r).find('!'), std::string::npos);
}

TEST(QosParseTest, ClassAndVersionComposeInEitherOrder) {
  auto a = ParseRequest("ego 5 !batch @7");
  auto b = ParseRequest("ego 5 @7 !batch");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(a->qos, QosClass::kBatch);
  EXPECT_EQ(a->version, 7u);
}

TEST(QosParseTest, RejectsUnknownAndDuplicateClass) {
  EXPECT_FALSE(ParseRequest("ego 5 !bulk").ok());
  EXPECT_FALSE(ParseRequest("ego 5 !batch !batch").ok());
  EXPECT_FALSE(ParseRequest("ego 5 !batch !analytics").ok());
}

TEST(QosParseTest, ClassAbsentFromCacheKey) {
  auto a = ParseRequest("topk 9 !batch");
  auto b = ParseRequest("topk 9");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(CacheKey(*a), CacheKey(*b));
}

TEST(QosClassTest, IndexAndNameAreInverse) {
  for (size_t i = 0; i < kNumQosClasses; ++i) {
    const QosClass c = QosClassAt(i);
    EXPECT_EQ(QosClassIndex(c), i);
    QosClass parsed = QosClassAt((i + 1) % kNumQosClasses);
    ASSERT_TRUE(ParseQosClass(QosClassName(c), &parsed));
    EXPECT_EQ(parsed, c);
  }
}

// ---------------------------------------------------------------------------
// Executor: a one-worker pool with the worker parked on a gate task,
// so the submission pattern (and the dispatch order we then observe) is
// fully deterministic — no scheduling luck.

TEST(QosExecutorTest, DispatchesByClassPriorityThenSeq) {
  QosExecutor exec(1, QosOptions{});
  WorkerGate gate;
  exec.SubmitExempt([&gate] { gate.Arrive(); });
  gate.AwaitArrival();  // worker parked; queue is now under our control

  std::mutex order_mutex;
  std::vector<int> order;
  auto record = [&](int id) {
    return [&order_mutex, &order, id] {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(id);
    };
  };
  const util::Deadline inf = util::Deadline::Infinite();
  // Submission order deliberately inverts priority order.
  ASSERT_TRUE(exec.Submit(QosClass::kBatch, inf, record(0)));
  ASSERT_TRUE(exec.Submit(QosClass::kBatch, inf, record(1)));
  ASSERT_TRUE(exec.Submit(QosClass::kAnalytics, inf, record(2)));
  ASSERT_TRUE(exec.Submit(QosClass::kInteractive, inf, record(3)));
  ASSERT_TRUE(exec.Submit(QosClass::kInteractive, inf, record(4)));
  ASSERT_TRUE(exec.Submit(QosClass::kAnalytics, inf, record(5)));

  std::promise<void> drained;
  exec.Submit(QosClass::kBatch, inf, [&drained] { drained.set_value(); });
  gate.Release();
  drained.get_future().wait();

  // interactive (3,4) before analytics (2,5) before batch (0,1); within a
  // class, equal (infinite) deadlines fall back to admission order.
  EXPECT_EQ(order, (std::vector<int>{3, 4, 2, 5, 0, 1}));
}

TEST(QosExecutorTest, EarlierDeadlineDispatchesFirstWithinClass) {
  QosExecutor exec(1, QosOptions{});
  WorkerGate gate;
  exec.SubmitExempt([&gate] { gate.Arrive(); });
  gate.AwaitArrival();

  std::mutex order_mutex;
  std::vector<int> order;
  auto record = [&](int id) {
    return [&order_mutex, &order, id] {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(id);
    };
  };
  // Same class; the later-submitted request has the tighter deadline.
  ASSERT_TRUE(exec.Submit(QosClass::kBatch, util::Deadline::After(60000000),
                          record(0)));
  ASSERT_TRUE(
      exec.Submit(QosClass::kBatch, util::Deadline::After(1000), record(1)));
  ASSERT_TRUE(exec.Submit(QosClass::kBatch, util::Deadline::Infinite(),
                          record(2)));

  std::promise<void> drained;
  exec.Submit(QosClass::kBatch, util::Deadline::Infinite(),
              [&drained] { drained.set_value(); });
  gate.Release();
  drained.get_future().wait();

  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));  // EDF; infinite last
}

// The dispatch order is a pure function of the submissions: a seeded
// mix of classes and shared deadlines, some finite and some infinite,
// runs in exactly the order a sort by (class priority, deadline,
// submission order) gives.
TEST(QosExecutorTest, SeededSubmissionsRunInSortedOrder) {
  QosExecutor exec(1, QosOptions{});
  WorkerGate gate;
  exec.SubmitExempt([&gate] { gate.Arrive(); });
  gate.AwaitArrival();

  // Ranks 0-3 are finite deadlines, ascending; rank 4 is infinite.
  std::vector<util::Deadline> deadlines;
  for (uint64_t j = 0; j < 4; ++j) {
    deadlines.push_back(util::Deadline::After((60 + j) * 1000000));
  }
  deadlines.push_back(util::Deadline::Infinite());

  std::mutex order_mutex;
  std::vector<int> order;
  struct Submitted {
    uint64_t cls;
    uint64_t rank;
    int id;
  };
  std::vector<Submitted> submitted;
  util::Rng rng(30);
  for (int id = 0; id < 200; ++id) {
    const Submitted s{rng.UniformU64(kNumQosClasses),
                      rng.UniformU64(deadlines.size()), id};
    submitted.push_back(s);
    ASSERT_TRUE(exec.Submit(QosClassAt(s.cls), deadlines[s.rank],
                            [&order_mutex, &order, id] {
                              std::lock_guard<std::mutex> lock(order_mutex);
                              order.push_back(id);
                            }));
  }

  // Batch, infinite, latest seq: the sentinel dispatches last.
  std::promise<void> drained;
  exec.Submit(QosClass::kBatch, util::Deadline::Infinite(),
              [&drained] { drained.set_value(); });
  gate.Release();
  drained.get_future().wait();

  std::sort(submitted.begin(), submitted.end(),
            [](const Submitted& a, const Submitted& b) {
              return std::tie(a.cls, a.rank, a.id) <
                     std::tie(b.cls, b.rank, b.id);
            });
  std::vector<int> expected;
  for (const Submitted& s : submitted) expected.push_back(s.id);
  std::lock_guard<std::mutex> lock(order_mutex);
  EXPECT_EQ(order, expected);
}

TEST(QosExecutorTest, ShedsAtClassCapAndCountsIt) {
  QosOptions opts;
  opts.batch_cap = 2;
  QosExecutor exec(1, opts);
  WorkerGate gate;
  exec.SubmitExempt([&gate] { gate.Arrive(); });
  gate.AwaitArrival();

  const util::Deadline inf = util::Deadline::Infinite();
  std::atomic<int> ran{0};
  auto bump = [&ran] { ran.fetch_add(1); };
  EXPECT_TRUE(exec.Submit(QosClass::kBatch, inf, bump));
  EXPECT_TRUE(exec.Submit(QosClass::kBatch, inf, bump));
  // Backlog at cap: the third batch submit sheds...
  EXPECT_FALSE(exec.Submit(QosClass::kBatch, inf, bump));
  // ...while other classes (and exempt work) are unaffected.
  EXPECT_TRUE(exec.Submit(QosClass::kInteractive, inf, bump));
  EXPECT_TRUE(exec.Submit(QosClass::kAnalytics, inf, bump));
  exec.SubmitExempt(bump);

  const QosClassStats batch = exec.class_stats(QosClass::kBatch);
  EXPECT_EQ(batch.submitted, 2u);
  EXPECT_EQ(batch.shed, 1u);
  EXPECT_EQ(batch.queue_depth, 2u);
  EXPECT_EQ(batch.cap, 2u);
  EXPECT_EQ(exec.TotalShed(), 1u);

  // The drain sentinel needs headroom in the batch queue, so release the
  // gate first and re-submit until admitted. Batch is the lowest class
  // and the sentinel has the latest seq, so it dispatches after every
  // admitted task above.
  gate.Release();
  std::promise<void> drained;
  while (!exec.Submit(QosClass::kBatch, inf,
                      [&drained] { drained.set_value(); })) {
    std::this_thread::yield();
  }
  drained.get_future().wait();
  EXPECT_EQ(ran.load(), 5);  // the shed task never ran

  const QosClassStats after = exec.class_stats(QosClass::kBatch);
  EXPECT_EQ(after.queue_depth, 0u);
  EXPECT_EQ(after.executed, 3u);  // 2 admitted + drain sentinel
}

TEST(QosExecutorTest, ExemptBypassesCapsAtInteractivePriority) {
  QosOptions opts;
  opts.interactive_cap = 1;
  opts.batch_cap = 1;
  opts.analytics_cap = 1;
  QosExecutor exec(1, opts);
  WorkerGate gate;
  exec.SubmitExempt([&gate] { gate.Arrive(); });
  gate.AwaitArrival();

  const util::Deadline inf = util::Deadline::Infinite();
  std::mutex order_mutex;
  std::vector<int> order;
  auto record = [&](int id) {
    return [&order_mutex, &order, id] {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(id);
    };
  };
  ASSERT_TRUE(exec.Submit(QosClass::kBatch, inf, record(0)));
  EXPECT_FALSE(exec.Submit(QosClass::kBatch, inf, record(1)));
  // Exempt submissions never shed, regardless of every cap being full.
  exec.SubmitExempt(record(2));
  gate.Release();
  // Drain: a batch sentinel dispatches last (lowest class, latest seq).
  std::promise<void> drained;
  while (!exec.Submit(QosClass::kBatch, inf,
                      [&drained] { drained.set_value(); })) {
    std::this_thread::yield();
  }
  drained.get_future().wait();
  // The exempt task dispatched at interactive priority, ahead of the
  // batch job admitted before it.
  std::lock_guard<std::mutex> lock(order_mutex);
  EXPECT_EQ(order, (std::vector<int>{2, 0}));
}

TEST(QosExecutorTest, DrainsQueuedTasksAtShutdown) {
  std::atomic<int> ran{0};
  {
    QosExecutor exec(2, QosOptions{});
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(exec.Submit(QosClass::kAnalytics,
                              util::Deadline::Infinite(),
                              [&ran] { ran.fetch_add(1); }));
    }
    // Destructor joins after the queue is empty: every admitted task runs.
  }
  EXPECT_EQ(ran.load(), 64);
}

}  // namespace
}  // namespace serve
}  // namespace elitenet
