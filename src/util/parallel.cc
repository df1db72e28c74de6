#include "util/parallel.h"

#include <sched.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "util/check.h"
#include "util/metrics.h"

namespace elitenet {
namespace util {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Per-shard tally flushed into the registry once per Run, so the hot loop
// touches no shared state beyond the task cursor. `slot` 0 is the calling
// thread; workers are 1..threads-1.
void RecordShardMetrics(int slot, uint64_t chunks, uint64_t busy_ns) {
  if (chunks == 0) return;
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter("parallel.chunks_claimed")->Add(chunks);
  reg.GetCounter("parallel.busy_ns")->Add(busy_ns);
  const std::string prefix = "parallel.thread." + std::to_string(slot);
  reg.GetCounter(prefix + ".chunks")->Add(chunks);
  reg.GetCounter(prefix + ".busy_ns")->Add(busy_ns);
}

int AutoThreadCount() {
  const int fallback = AvailableCpus();
  if (const char* env = std::getenv("ELITENET_THREADS");
      env != nullptr && *env != '\0') {
    const int parsed = ParseThreadCount(env, -1);
    if (parsed > 0) return parsed;
    // Warn once: a silent fallback would make "why is this single-
    // threaded?" undiagnosable, the failure the old atoi parsing had.
    static bool warned = [env, fallback] {
      std::fprintf(stderr,
                   "elitenet: ignoring invalid ELITENET_THREADS=\"%s\" "
                   "(want an integer in [1, %d]); using %d\n",
                   env, kMaxThreads, fallback);
      return true;
    }();
    (void)warned;
  }
  return fallback;
}

std::atomic<int> g_thread_count{0};  // 0 = not yet resolved

thread_local bool tl_in_parallel = false;

// RAII marker for pool shards and serial fallbacks.
class ParallelRegionGuard {
 public:
  ParallelRegionGuard() : prev_(tl_in_parallel) { tl_in_parallel = true; }
  ~ParallelRegionGuard() { tl_in_parallel = prev_; }

 private:
  bool prev_;
};

}  // namespace

int AvailableCpus() {
  // The mask, not hardware_concurrency: under taskset, a cpuset or a
  // one-CPU pin, a pool sized to the machine only time-slices.
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    const int count = CPU_COUNT(&allowed);
    if (count > 0) return count;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<int>(hc);
}

int ParseThreadCount(const char* text, int fallback) {
  if (text == nullptr || *text == '\0') return fallback;
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text) return fallback;             // no digits at all
  if (*end != '\0') return fallback;            // trailing junk ("8x", "3.5")
  if (errno == ERANGE) return fallback;         // overflowed long
  if (value < 1 || value > kMaxThreads) return fallback;
  return static_cast<int>(value);
}

int ThreadCount() {
  int v = g_thread_count.load(std::memory_order_relaxed);
  if (v == 0) {
    v = AutoThreadCount();
    g_thread_count.store(v, std::memory_order_relaxed);
  }
  return v;
}

void SetThreadCount(int n) {
  g_thread_count.store(n <= 0 ? AutoThreadCount() : n,
                       std::memory_order_relaxed);
}

bool InParallelRegion() { return tl_in_parallel; }

size_t EffectiveGrain(size_t range, size_t grain) {
  if (grain > 0) return grain;
  // Fixed chunk-count target: boundaries must not depend on the thread
  // count or determinism across thread counts would break. 64 chunks give
  // dynamic scheduling enough slack to balance skewed chunks.
  constexpr size_t kTargetChunks = 64;
  const size_t g = (range + kTargetChunks - 1) / kTargetChunks;
  return g == 0 ? 1 : g;
}

ThreadPool::ThreadPool(int threads) : num_threads_(threads) {
  EN_CHECK(threads >= 1);
  workers_.reserve(static_cast<size_t>(threads - 1));
  for (int i = 0; i < threads - 1; ++i) {
    workers_.emplace_back([this, slot = i + 1] { WorkerLoop(slot); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::RunShard(Batch* batch, int slot) {
  ParallelRegionGuard guard;
  // Metrics observe scheduling (chunks claimed, busy time) without
  // influencing it: the clock reads happen outside the task cursor
  // protocol, and nothing below reads a metric back.
  const bool metrics = MetricsEnabled();
  uint64_t claimed = 0;
  uint64_t busy_ns = 0;
  for (;;) {
    const size_t i = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= batch->num_tasks) break;
    const uint64_t t0 = metrics ? NowNs() : 0;
    try {
      (*batch->task)(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(batch->error_mutex);
      if (batch->error == nullptr || i < batch->error_index) {
        batch->error = std::current_exception();
        batch->error_index = i;
      }
    }
    if (metrics) {
      busy_ns += NowNs() - t0;
      ++claimed;
    }
    batch->completed.fetch_add(1, std::memory_order_acq_rel);
  }
  if (metrics) RecordShardMetrics(slot, claimed, busy_ns);
}

void ThreadPool::WorkerLoop(int slot) {
  uint64_t seen_generation = 0;
  for (;;) {
    Batch* batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return shutdown_ ||
               (batch_ != nullptr && generation_ != seen_generation);
      });
      if (shutdown_) return;
      seen_generation = generation_;
      batch = batch_;
      ++active_workers_;
    }
    RunShard(batch, slot);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_workers_;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::RunSerial(size_t num_tasks,
                           const std::function<void(size_t)>& task) {
  ParallelRegionGuard guard;
  const bool metrics = MetricsEnabled();
  const uint64_t t0 = metrics ? NowNs() : 0;
  // Ascending order: the first exception is the lowest-index one, matching
  // the parallel path's contract.
  for (size_t i = 0; i < num_tasks; ++i) task(i);
  if (metrics) RecordShardMetrics(/*slot=*/0, num_tasks, NowNs() - t0);
}

void ThreadPool::Run(size_t num_tasks,
                     const std::function<void(size_t)>& task) {
  if (num_tasks == 0) return;
  if (num_threads_ == 1 || num_tasks == 1 || tl_in_parallel) {
    RunSerial(num_tasks, task);
    return;
  }

  Batch batch;
  batch.task = &task;
  batch.num_tasks = num_tasks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    batch_ = &batch;
    ++generation_;
  }
  work_cv_.notify_all();

  // The calling thread works too; with the dynamic cursor it simply claims
  // whatever the workers have not.
  RunShard(&batch, /*slot=*/0);

  {
    // Wait until every task ran AND every worker left the shard loop —
    // workers briefly touch `batch` after the last task completes, and
    // `batch` lives on this stack frame.
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return batch.completed.load(std::memory_order_acquire) == num_tasks &&
             active_workers_ == 0;
    });
    batch_ = nullptr;
  }
  if (batch.error != nullptr) std::rethrow_exception(batch.error);
}

void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& body) {
  if (begin >= end) return;
  const size_t range = end - begin;
  const size_t step = EffectiveGrain(range, grain);
  const size_t chunks = (range + step - 1) / step;

  const bool metrics = MetricsEnabled();
  if (metrics) {
    ELITENET_COUNT("parallel.for_calls", 1);
    ELITENET_COUNT("parallel.chunks", chunks);
    ELITENET_SKETCH("parallel.grain", step);
  }
  const uint64_t t0 = metrics ? NowNs() : 0;

  const auto run_chunk = [&](size_t c) {
    const size_t lo = begin + c * step;
    const size_t hi = lo + step < end ? lo + step : end;
    body(lo, hi);
  };

  const int threads = ThreadCount();
  if (threads == 1 || chunks == 1 || tl_in_parallel) {
    {
      ParallelRegionGuard guard;
      for (size_t c = 0; c < chunks; ++c) run_chunk(c);
    }
    if (metrics) {
      const uint64_t wall = NowNs() - t0;
      RecordShardMetrics(/*slot=*/0, chunks, wall);
      ELITENET_COUNT("parallel.run_ns", wall);
    }
    return;
  }

  // Process-global pool, rebuilt when the configured thread count changes.
  // Guarded by a mutex: concurrent top-level ParallelFor calls from
  // different user threads serialize on pool access rather than racing.
  static std::mutex* pool_mutex = new std::mutex;
  static std::unique_ptr<ThreadPool>* pool = new std::unique_ptr<ThreadPool>;
  std::lock_guard<std::mutex> lock(*pool_mutex);
  if (*pool == nullptr || (*pool)->num_threads() != threads) {
    pool->reset();  // join the old pool before spawning the new one
    *pool = std::make_unique<ThreadPool>(threads);
  }
  (*pool)->Run(chunks, run_chunk);
  if (metrics) ELITENET_COUNT("parallel.run_ns", NowNs() - t0);
}

}  // namespace util
}  // namespace elitenet
