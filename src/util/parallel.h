// Deterministic parallel execution primitives.
//
// The contract every caller relies on: *results are bit-identical for any
// thread count, including 1*. Two rules make that possible:
//
//   1. Work is partitioned into chunks whose boundaries depend only on the
//      input range and grain — never on the number of threads (auto grain
//      targets a fixed chunk count, not a per-thread split). Chunks are
//      claimed dynamically (an atomic cursor), so scheduling is free to
//      vary, but what each chunk computes is fixed.
//   2. Reductions combine per-chunk partials sequentially in chunk order
//      (ParallelReduce), so floating-point summation order is fixed.
//
// Randomized kernels keep determinism by giving each chunk (or each item)
// its own RNG substream derived from a base seed and the chunk index — see
// util::SubstreamSeed in util/rng.h.
//
// The global thread count defaults to the number of CPUs in the calling
// thread's affinity mask (std::thread::hardware_concurrency where that is
// unavailable), can be overridden by the ELITENET_THREADS environment
// variable, and is adjustable at runtime via SetThreadCount (bench flag:
// --threads=).

#ifndef ELITENET_UTIL_PARALLEL_H_
#define ELITENET_UTIL_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace elitenet {
namespace util {

/// Effective global thread count (always >= 1).
int ThreadCount();

/// CPUs the calling thread may run on: the size of its affinity mask, or
/// std::thread::hardware_concurrency where the mask is unavailable
/// (always >= 1). The automatic thread count.
int AvailableCpus();

/// Upper bound accepted for thread-count overrides; larger requests are
/// rejected as misconfiguration (no machine this library targets has more
/// hardware threads, and a pool that size would only thrash).
inline constexpr int kMaxThreads = 1024;

/// Parses a thread-count override (the ELITENET_THREADS format): an
/// optionally whitespace-prefixed base-10 integer in [1, kMaxThreads].
/// Anything else — empty, non-numeric, trailing junk ("8x", "3.5"), zero,
/// negative, or out of range (including values that overflow long) —
/// returns `fallback`, so a typo degrades to the automatic default
/// instead of silently misbehaving.
int ParseThreadCount(const char* text, int fallback);

/// Sets the global thread count used by ParallelFor/ParallelReduce.
/// n <= 0 restores the automatic default (ELITENET_THREADS env var if set,
/// else the CPU count of the calling thread's affinity mask). Do not call
/// concurrently with running parallel loops.
void SetThreadCount(int n);

/// True while the calling thread is executing inside a pool task; nested
/// ParallelFor calls detect this and collapse to serial execution.
bool InParallelRegion();

/// The chunk width ParallelFor/ParallelReduce use for a range of `range`
/// indices. grain > 0 is honored as-is; grain == 0 selects an automatic
/// width targeting a fixed chunk count (64), so chunk boundaries never
/// depend on the thread count.
size_t EffectiveGrain(size_t range, size_t grain);

/// A fixed-size pool of worker threads executing indexed task batches.
/// The pool behind ParallelFor is a process-global singleton; standalone
/// instances exist for tests and special-purpose schedulers.
class ThreadPool {
 public:
  /// Spawns `threads - 1` workers (the calling thread participates in
  /// Run, so `threads == 1` spawns none). Requires threads >= 1.
  explicit ThreadPool(int threads);

  /// Joins all workers. Must not be called while a Run is in flight.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Invokes task(i) for every i in [0, num_tasks), distributing indices
  /// across the pool plus the calling thread; blocks until all complete.
  /// If tasks throw, the exception from the *lowest* throwing index is
  /// rethrown (a deterministic choice); the rest are discarded.
  ///
  /// Calls from inside a pool task run inline on the calling thread, so
  /// nested parallelism degrades to serial instead of deadlocking.
  void Run(size_t num_tasks, const std::function<void(size_t)>& task);

 private:
  struct Batch {
    const std::function<void(size_t)>* task = nullptr;
    size_t num_tasks = 0;
    std::atomic<size_t> next{0};
    std::atomic<size_t> completed{0};
    std::mutex error_mutex;
    size_t error_index = 0;
    std::exception_ptr error;
  };

  // `slot` identifies the participating thread for scheduler metrics:
  // 0 is the thread that called Run, workers are 1..threads-1.
  void WorkerLoop(int slot);
  static void RunShard(Batch* batch, int slot);
  void RunSerial(size_t num_tasks, const std::function<void(size_t)>& task);

  int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  Batch* batch_ = nullptr;   // non-null while a Run is in flight
  uint64_t generation_ = 0;  // bumped per Run so workers join each batch once
  size_t active_workers_ = 0;
  bool shutdown_ = false;
};

/// Chunked parallel loop over [begin, end). `body(chunk_begin, chunk_end)`
/// is invoked once per chunk; chunks are EffectiveGrain(end - begin, grain)
/// indices wide (the last chunk may be short). Exceptions propagate (lowest
/// chunk wins). Runs serially — over identical chunk boundaries — when
/// ThreadCount() == 1, when there is a single chunk, or when called from
/// inside another parallel region.
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& body);

/// Deterministic map-reduce: `map(chunk_begin, chunk_end) -> T` runs per
/// chunk in parallel, then partials are folded left-to-right in chunk
/// order with `reduce(acc, partial) -> T`, starting from `init`. The fold
/// order is fixed, so floating-point results are bit-identical for any
/// thread count.
template <typename T, typename MapFn, typename ReduceFn>
T ParallelReduce(size_t begin, size_t end, size_t grain, T init, MapFn map,
                 ReduceFn reduce) {
  if (begin >= end) return init;
  const size_t range = end - begin;
  const size_t step = EffectiveGrain(range, grain);
  const size_t chunks = (range + step - 1) / step;
  std::vector<T> partial(chunks);
  ParallelFor(begin, end, step, [&](size_t lo, size_t hi) {
    partial[(lo - begin) / step] = map(lo, hi);
  });
  T acc = std::move(init);
  for (size_t c = 0; c < chunks; ++c) {
    acc = reduce(std::move(acc), std::move(partial[c]));
  }
  return acc;
}

}  // namespace util
}  // namespace elitenet

#endif  // ELITENET_UTIL_PARALLEL_H_
