// A gate that parks an executor worker, so a test controls the queue:
// the task that calls Arrive blocks until Release (or until the gate goes
// out of scope, so a failed assertion cannot leave the worker parked),
// and AwaitArrival returns once that task is running. Tests submit
// Arrive through QosExecutor::SubmitExempt or FrontDoor::SubmitExempt,
// and the submission pattern that follows — and the dispatch order and
// sheds it produces — is then fully deterministic, with no scheduling
// luck.

#ifndef ELITENET_TESTS_WORKER_GATE_H_
#define ELITENET_TESTS_WORKER_GATE_H_

#include <condition_variable>
#include <mutex>

namespace elitenet {
namespace serve {

class WorkerGate {
 public:
  ~WorkerGate() { Release(); }

  void Arrive() {
    std::unique_lock<std::mutex> lock(mutex_);
    arrived_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }
  void AwaitArrival() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return arrived_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool arrived_ = false;
  bool released_ = false;
};

}  // namespace serve
}  // namespace elitenet

#endif  // ELITENET_TESTS_WORKER_GATE_H_
