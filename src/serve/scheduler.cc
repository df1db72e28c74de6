#include "serve/scheduler.h"

#include <algorithm>
#include <utility>

#include "util/metrics.h"

namespace elitenet {
namespace serve {

QosExecutor::QosExecutor(int threads, const QosOptions& options)
    : options_(options) {
  const int n = threads < 1 ? 1 : threads;
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QosExecutor::~QosExecutor() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool QosExecutor::Submit(QosClass cls, const util::Deadline& deadline,
                         std::function<void()> fn) {
  const size_t idx = QosClassIndex(cls);
  Task task;
  task.class_index = idx;
  task.deadline = deadline;
  task.fn = std::move(fn);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const size_t cap = options_.cap(cls);
    if (cap > 0 && depth_[idx] >= cap) {
      ++shed_[idx];
      return false;
    }
    task.seq = next_seq_++;
    ++depth_[idx];
    ++submitted_[idx];
    ELITENET_SKETCH("serve.queue_depth", queue_.size());
    queue_.push_back(std::move(task));
    std::push_heap(queue_.begin(), queue_.end(), RunsLater);
  }
  cv_.notify_one();
  return true;
}

void QosExecutor::SubmitExempt(std::function<void()> fn) {
  const size_t idx = QosClassIndex(QosClass::kInteractive);
  Task task;
  task.class_index = idx;
  task.fn = std::move(fn);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    task.seq = next_seq_++;
    ++depth_[idx];
    ++submitted_[idx];
    queue_.push_back(std::move(task));
    std::push_heap(queue_.begin(), queue_.end(), RunsLater);
  }
  cv_.notify_one();
}

void QosExecutor::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with nothing pending
      std::pop_heap(queue_.begin(), queue_.end(), RunsLater);
      task = std::move(queue_.back());
      queue_.pop_back();
      --depth_[task.class_index];
      ++executed_[task.class_index];
      // Drain-side depth sample: together with the submission-side one,
      // the distribution sees both arrival and departure backlog views.
      ELITENET_SKETCH("serve.queue_depth", queue_.size());
    }
    task.fn();
  }
}

QosClassStats QosExecutor::class_stats(QosClass cls) const {
  const size_t idx = QosClassIndex(cls);
  QosClassStats out;
  out.cap = options_.cap(cls);
  std::lock_guard<std::mutex> lock(mutex_);
  out.submitted = submitted_[idx];
  out.executed = executed_[idx];
  out.shed = shed_[idx];
  out.queue_depth = depth_[idx];
  return out;
}

uint64_t QosExecutor::TotalShed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_[0] + shed_[1] + shed_[2];
}

}  // namespace serve
}  // namespace elitenet
