// Named counters, gauges, and quantile sketches for the study pipeline
// and the parallel scheduler.
//
//   ELITENET_COUNT("edges_emitted", n);      // monotonic add
//   ELITENET_GAUGE_SET("pagerank.iters", k); // last-write-wins value
//   ELITENET_SKETCH("parallel.grain", g);    // log-linear quantiles
//
// Metrics are off by default. Enable programmatically
// (SetMetricsEnabled), through StudyConfig::metrics_path, or process-wide
// with ELITENET_METRICS=<path>, which also writes the JSON snapshot at
// process exit. Each macro call site caches its metric pointer in a
// function-local static, so the enabled path is one relaxed atomic load,
// one branch, and one relaxed atomic add; the disabled path is just the
// load and branch (measured well under 1% on hot kernels —
// bench_observability).
//
// Instruments record, they never decide: no metric value may feed back
// into computation, so the bit-identical determinism contract of
// util/parallel.h holds with metrics on or off (enforced by
// tests/parallel_determinism_test.cc). Scheduler metrics (chunks claimed
// per thread, busy time) are intentionally *about* nondeterministic
// scheduling; value-derived metrics (edge counts, replicate counts) are
// deterministic and tested as such.

#ifndef ELITENET_UTIL_METRICS_H_
#define ELITENET_UTIL_METRICS_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace elitenet {
namespace util {

/// True when metric recording is on. One relaxed atomic load; the first
/// call also resolves the ELITENET_METRICS environment variable.
bool MetricsEnabled();

/// Turns metric recording on or off process-wide. Recorded values persist
/// across toggles; see MetricsRegistry::ResetValues.
void SetMetricsEnabled(bool enabled);

/// Gives `path` one writer: when it is the file ELITENET_METRICS names,
/// the registry's exit dump to it is cancelled, because the caller
/// writes that file itself (with the registry inside).
void ClaimMetricsExitDump(const std::string& path);

/// Monotonically increasing counter. Lock-free.
class Counter {
 public:
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins integer value. Lock-free.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Mergeable log-linear quantile sketch for non-negative integer samples
/// (latencies in microseconds, queue waits, byte sizes).
///
/// Layout: values below 2^(kSubBucketBits+1) get exact unit-width buckets;
/// every octave above is split into 2^kSubBucketBits linear sub-buckets,
/// so a bucket's width is at most value / 2^kSubBucketBits. Quantile()
/// answers with the bucket midpoint, bounding the relative error by
/// 2^-(kSubBucketBits+1) (= 1/64 ≈ 1.6% at the default 5 sub-bucket
/// bits) — tight enough for p50/p95/p99 dashboards at O(1) memory,
/// unlike an unbounded sample vector. Merge adds another sketch's
/// buckets, so per-shard sketches aggregate exactly (bucket counts are
/// integers — merged-then-queried equals observed-centrally-then-
/// queried).
///
/// The bucket array is the ONLY state: Observe is a single relaxed
/// fetch_add (this sketch sits on the serving hot path, where every
/// extra atomic RMW is measurable — bench_observability's serving mode
/// holds the whole telemetry plane under 1% of QPS), and count/sum/max
/// are derived from the buckets at read time. count() is exact once
/// writers quiesce; SumEstimate()/MaxEstimate() carry the same <= 1/64
/// relative error as Quantile().
class QuantileSketch {
 public:
  static constexpr int kSubBucketBits = 5;
  static constexpr uint64_t kSubBuckets = uint64_t{1} << kSubBucketBits;
  /// Exact region [0, 2*kSubBuckets) plus kSubBuckets buckets for each of
  /// the (64 - kSubBucketBits - 1) remaining octaves of uint64 range.
  static constexpr size_t kNumBuckets =
      2 * kSubBuckets + (63 - kSubBucketBits) * kSubBuckets;

  /// Bucket holding `v`. Monotone in v; exact (unit width) below 64.
  static size_t BucketIndex(uint64_t v);
  /// Smallest value mapping to bucket `b`.
  static uint64_t BucketLowerBound(size_t b);
  /// Number of distinct values mapping to bucket `b`.
  static uint64_t BucketWidth(size_t b);

  void Observe(uint64_t v);
  /// Adds every bucket of `other` into this sketch.
  void Merge(const QuantileSketch& other);

  /// Total samples (sums the buckets; exact once writers quiesce).
  uint64_t count() const;
  /// Sum of samples estimated from bucket midpoints (<= 1/64 rel. error;
  /// exact when every sample was below 2*kSubBuckets).
  double SumEstimate() const;
  /// Upper bound of the highest non-empty bucket (>= the true max, within
  /// one bucket width of it). 0 when empty.
  uint64_t MaxEstimate() const;
  uint64_t bucket(size_t b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  /// Value at quantile q in [0, 1]: the midpoint of the bucket containing
  /// the sample of rank ceil(q * count). 0 when the sketch is empty.
  double Quantile(double q) const;

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
};

/// A point-in-time copy of every registered metric, sorted by name.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    int64_t value = 0;
  };
  struct SketchValue {
    std::string name;
    uint64_t count = 0;
    /// Midpoint-estimated sum and bucket-upper-bound max (see
    /// QuantileSketch::SumEstimate / MaxEstimate).
    uint64_t sum = 0;
    uint64_t max = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
  };

  /// Each vector is sorted ascending by name (guaranteed by Snapshot(), so
  /// ToJson() is byte-stable across runs for equal metric values — golden
  /// tests may diff it directly).
  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<SketchValue> sketches;

  /// Value of a counter by exact name; 0 when absent.
  uint64_t CounterOr0(std::string_view name) const;

  std::string ToJson() const;
  /// Prometheus text exposition format (metric names sanitized to
  /// [a-zA-Z0-9_] and prefixed "elitenet_"; sketches render as summaries
  /// with quantile labels).
  std::string ToPrometheusText() const;
  Status WriteJson(const std::string& path) const;
};

/// Process-global name -> metric table. Metric objects are created on
/// first use and never deallocated or moved, so the pointers the macros
/// cache in function-local statics stay valid for the process lifetime
/// (ResetValues zeroes values, never unregisters).
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  QuantileSketch* GetSketch(std::string_view name);

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric (registrations survive — cached
  /// macro pointers stay valid).
  void ResetValues();

 private:
  MetricsRegistry() = default;
  struct Impl;
  Impl* impl();
  const Impl* impl() const;
};

#define ELITENET_METRICS_CONCAT_INNER(a, b) a##b
#define ELITENET_METRICS_CONCAT(a, b) ELITENET_METRICS_CONCAT_INNER(a, b)

/// Adds `n` to the counter `name`. `name` must be a stable string for the
/// lifetime of the process (string literals qualify).
#define ELITENET_COUNT(name, n)                                             \
  do {                                                                      \
    if (::elitenet::util::MetricsEnabled()) {                               \
      static ::elitenet::util::Counter* ELITENET_METRICS_CONCAT(            \
          elitenet_counter_, __LINE__) =                                    \
          ::elitenet::util::MetricsRegistry::Global().GetCounter(name);     \
      ELITENET_METRICS_CONCAT(elitenet_counter_, __LINE__)                  \
          ->Add(static_cast<uint64_t>(n));                                  \
    }                                                                       \
  } while (0)

/// Sets the gauge `name` to `v`.
#define ELITENET_GAUGE_SET(name, v)                                         \
  do {                                                                      \
    if (::elitenet::util::MetricsEnabled()) {                               \
      static ::elitenet::util::Gauge* ELITENET_METRICS_CONCAT(              \
          elitenet_gauge_, __LINE__) =                                      \
          ::elitenet::util::MetricsRegistry::Global().GetGauge(name);       \
      ELITENET_METRICS_CONCAT(elitenet_gauge_, __LINE__)                    \
          ->Set(static_cast<int64_t>(v));                                   \
    }                                                                       \
  } while (0)

/// Records one sample `v` in the quantile sketch `name`.
#define ELITENET_SKETCH(name, v)                                            \
  do {                                                                      \
    if (::elitenet::util::MetricsEnabled()) {                               \
      static ::elitenet::util::QuantileSketch* ELITENET_METRICS_CONCAT(     \
          elitenet_sketch_, __LINE__) =                                     \
          ::elitenet::util::MetricsRegistry::Global().GetSketch(name);      \
      ELITENET_METRICS_CONCAT(elitenet_sketch_, __LINE__)                   \
          ->Observe(static_cast<uint64_t>(v));                              \
    }                                                                       \
  } while (0)

}  // namespace util
}  // namespace elitenet

#endif  // ELITENET_UTIL_METRICS_H_
