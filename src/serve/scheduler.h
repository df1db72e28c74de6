// Deadline-aware QoS executor — the priority scheduler that replaced the
// query engine's FIFO queue.
//
// Three mechanisms, in the order a request meets them:
//
//   1. *Admission control.* Each class has a queue cap (QosOptions).
//      Submit() rejects — "sheds" — a request whose class backlog is at
//      its cap and returns false without enqueueing; the caller renders
//      the "overloaded" error. Interactive defaults to uncapped (never
//      shed); batch has the smallest cap, so it is the first class to
//      shed when the server saturates. Internal work (barriers that
//      park a worker) uses SubmitExempt and bypasses the caps.
//
//   2. *Priority dispatch.* Workers drain one shared heap ordered by the
//      strict total order (class priority, deadline, admission seq):
//      interactive before analytics before batch; within a class,
//      earliest deadline first (EDF, infinite deadlines last); within
//      equal deadlines, admission order. The seq tie-break makes the
//      order total, so the dispatch sequence is a pure function of the
//      submission sequence — uniform traffic with no deadlines degrades
//      to exact FIFO, which is what keeps the engine's replay-
//      determinism contract intact.
//
//   3. *Stats.* Per-class submitted/executed/shed tallies and live queue
//      depth, surfaced through the engine's #stats admin verb and the
//      overload bench.
//
// Determinism note: the scheduler orders *execution start*, never result
// bytes — a response is a pure function of (graph, request) regardless
// of which class or deadline carried it.

#ifndef ELITENET_SERVE_SCHEDULER_H_
#define ELITENET_SERVE_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/qos.h"
#include "util/deadline.h"

namespace elitenet {
namespace serve {

/// Admission-control configuration: per-class queue caps, 0 = unlimited.
/// Defaults encode the shed order the serving SLO wants — interactive
/// never sheds, batch sheds first (smallest cap), analytics holds out
/// longer.
struct QosOptions {
  size_t interactive_cap = 0;
  size_t batch_cap = 1024;
  size_t analytics_cap = 4096;

  size_t cap(QosClass c) const {
    switch (c) {
      case QosClass::kBatch:
        return batch_cap;
      case QosClass::kAnalytics:
        return analytics_cap;
      default:
        return interactive_cap;
    }
  }
};

/// Monotonic per-class tallies plus the live backlog.
struct QosClassStats {
  uint64_t submitted = 0;  ///< Admitted into the queue (excludes shed).
  uint64_t executed = 0;
  uint64_t shed = 0;
  uint64_t queue_depth = 0;  ///< Currently queued (not yet dispatched).
  uint64_t cap = 0;          ///< Configured admission cap (0 = none).
};

/// Worker pool draining one (class, deadline, seq)-ordered heap.
class QosExecutor {
 public:
  /// Starts `threads` workers (minimum 1).
  QosExecutor(int threads, const QosOptions& options);

  /// Drains nothing further: wakes every worker, joins them. Tasks still
  /// queued at shutdown are executed first (drain semantics — a promise
  /// queued behind a shutdown must still be fulfilled).
  ~QosExecutor();

  QosExecutor(const QosExecutor&) = delete;
  QosExecutor& operator=(const QosExecutor&) = delete;

  /// Admission-controlled enqueue. Returns false — and runs nothing —
  /// when `cls`'s backlog is at its cap; the caller owns the shed
  /// response. The deadline orders dispatch within the class.
  bool Submit(QosClass cls, const util::Deadline& deadline,
              std::function<void()> fn);

  /// Cap-exempt enqueue at interactive priority: engine plumbing that
  /// must never shed.
  void SubmitExempt(std::function<void()> fn);

  int threads() const { return static_cast<int>(workers_.size()); }

  /// Tallies for one class (cap included) — snapshot under the queue
  /// lock, so depth and counters are mutually consistent.
  QosClassStats class_stats(QosClass cls) const;

  /// Total sheds across all classes.
  uint64_t TotalShed() const;

 private:
  struct Task {
    /// QosClassIndex — lower dispatches first; also indexes the tallies.
    size_t class_index = 0;
    util::Deadline deadline;
    uint64_t seq = 0;  ///< Admission order; the total-order tie-break.
    std::function<void()> fn;
  };

  /// Strict total order: `a` dispatches before `b`. Any correct heap
  /// over it pops one sequence, a pure function of the pushes.
  struct TaskBefore {
    bool operator()(const Task& a, const Task& b) const {
      if (a.class_index != b.class_index) {
        return a.class_index < b.class_index;
      }
      if (a.deadline.ExpiresBefore(b.deadline)) return true;
      if (b.deadline.ExpiresBefore(a.deadline)) return false;
      return a.seq < b.seq;
    }
  };

  /// std::push_heap/pop_heap keep the greatest element in front; under
  /// "runs later" that is the task that dispatches first.
  static bool RunsLater(const Task& a, const Task& b) {
    return TaskBefore{}(b, a);
  }

  void WorkerLoop();

  const QosOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Task> queue_;  ///< A heap under RunsLater.
  uint64_t next_seq_ = 0;            ///< Guarded by mutex_.
  uint64_t depth_[kNumQosClasses] = {0, 0, 0};
  uint64_t submitted_[kNumQosClasses] = {0, 0, 0};
  uint64_t executed_[kNumQosClasses] = {0, 0, 0};
  uint64_t shed_[kNumQosClasses] = {0, 0, 0};
  bool shutdown_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace serve
}  // namespace elitenet

#endif  // ELITENET_SERVE_SCHEDULER_H_
