// Unit tests of the log-linear quantile sketch: exact unit buckets for
// small values, bucket-map monotonicity across the whole uint64 range,
// the 1/64 relative-error bound on quantiles against exact sorted
// samples, merge-equals-serial aggregation, derived count/sum/max
// estimators, and lossless counting under a concurrent writer hammer
// (the tsan label runs this file under -fsanitize=thread).

#include "util/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace elitenet {
namespace util {
namespace {

TEST(SketchTest, EmptySketchIsZero) {
  QuantileSketch s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.SumEstimate(), 0.0);
  EXPECT_EQ(s.MaxEstimate(), 0u);
  EXPECT_EQ(s.Quantile(0.5), 0.0);
}

TEST(SketchTest, SmallValuesAreExact) {
  // Below 2 * kSubBuckets every bucket has unit width, so quantiles, sum,
  // and max are exact, not estimates.
  QuantileSketch s;
  for (uint64_t v = 0; v < 2 * QuantileSketch::kSubBuckets; ++v) {
    s.Observe(v);
  }
  EXPECT_EQ(s.count(), 2 * QuantileSketch::kSubBuckets);
  EXPECT_EQ(s.MaxEstimate(), 2 * QuantileSketch::kSubBuckets - 1);
  const uint64_t n = 2 * QuantileSketch::kSubBuckets;
  EXPECT_EQ(s.SumEstimate(), static_cast<double>(n * (n - 1) / 2));
  EXPECT_EQ(s.Quantile(0.5), std::ceil(0.5 * static_cast<double>(n)) - 1);
}

TEST(SketchTest, BucketMapIsMonotoneAndConsistent) {
  // Probe value boundaries across the full range: every value maps into a
  // bucket whose [lower, lower + width) range contains it, and the bucket
  // index never decreases as values grow.
  std::vector<uint64_t> probes = {0, 1, 2, 63, 64, 65, 127, 128, 129};
  for (int shift = 8; shift < 64; ++shift) {
    const uint64_t v = uint64_t{1} << shift;
    probes.push_back(v - 1);
    probes.push_back(v);
    probes.push_back(v + 1);
    probes.push_back(v + (v >> 1));
  }
  probes.push_back(UINT64_MAX);
  std::sort(probes.begin(), probes.end());
  size_t prev_bucket = 0;
  for (size_t i = 0; i < probes.size(); ++i) {
    const uint64_t v = probes[i];
    const size_t b = QuantileSketch::BucketIndex(v);
    ASSERT_LT(b, QuantileSketch::kNumBuckets) << "value " << v;
    EXPECT_LE(QuantileSketch::BucketLowerBound(b), v) << "value " << v;
    EXPECT_LT(v - QuantileSketch::BucketLowerBound(b),
              QuantileSketch::BucketWidth(b))
        << "value " << v;
    if (i > 0) {
      EXPECT_GE(b, prev_bucket) << "value " << v;
    }
    prev_bucket = b;
  }
}

TEST(SketchTest, QuantileErrorBoundAgainstExactSamples) {
  // Log-normal-ish latency population: quantile answers must stay within
  // the advertised 1/64 relative error of the exact order statistic.
  Rng rng(7);
  std::vector<uint64_t> samples;
  QuantileSketch s;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.UniformDouble();
    const uint64_t v =
        static_cast<uint64_t>(std::exp(4.0 + 8.0 * u));  // ~55 .. ~160k
    samples.push_back(v);
    s.Observe(v);
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.01, 0.10, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999}) {
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    if (rank == 0) rank = 1;
    const double exact = static_cast<double>(samples[rank - 1]);
    const double approx = s.Quantile(q);
    EXPECT_LE(std::fabs(approx - exact), exact / 64.0 + 0.5)
        << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
  // Sum estimate carries the same relative bound.
  double exact_sum = 0.0;
  for (uint64_t v : samples) exact_sum += static_cast<double>(v);
  EXPECT_LE(std::fabs(s.SumEstimate() - exact_sum), exact_sum / 64.0);
  // Max estimate bounds the true max from above, within one bucket.
  const uint64_t true_max = samples.back();
  EXPECT_GE(s.MaxEstimate(), true_max);
  EXPECT_LE(static_cast<double>(s.MaxEstimate() - true_max),
            static_cast<double>(true_max) / 64.0 + 1.0);
}

TEST(SketchTest, MergeEqualsSerialObservation) {
  Rng rng(11);
  QuantileSketch merged, serial;
  QuantileSketch shards[4];
  for (int i = 0; i < 4000; ++i) {
    const uint64_t v = rng.UniformU64(1u << 20);
    shards[i % 4].Observe(v);
    serial.Observe(v);
  }
  for (const auto& shard : shards) merged.Merge(shard);
  ASSERT_EQ(merged.count(), serial.count());
  for (size_t b = 0; b < QuantileSketch::kNumBuckets; ++b) {
    ASSERT_EQ(merged.bucket(b), serial.bucket(b)) << "bucket " << b;
  }
  for (double q : {0.5, 0.95, 0.99}) {
    EXPECT_EQ(merged.Quantile(q), serial.Quantile(q));
  }
}

TEST(SketchTest, ConcurrentObserversLoseNothing) {
  // 8 writer threads hammering one sketch: every observation must land
  // (Observe is a single relaxed fetch_add on one bucket).
  QuantileSketch s;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&s, t] {
      Rng rng(100 + t);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        s.Observe(rng.UniformU64(1u << 16));
      }
    });
  }
  // Concurrent reader: counts and quantiles must be safe to read (values
  // racy but bounded) while writers run.
  std::thread reader([&s] {
    for (int i = 0; i < 100; ++i) {
      const uint64_t n = s.count();
      EXPECT_LE(n, kThreads * kPerThread);
      (void)s.Quantile(0.99);
    }
  });
  for (auto& w : writers) w.join();
  reader.join();
  EXPECT_EQ(s.count(), kThreads * kPerThread);
}

TEST(SketchTest, ResetClearsEverything) {
  QuantileSketch s;
  s.Observe(12345);
  s.Observe(7);
  ASSERT_EQ(s.count(), 2u);
  s.Reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.MaxEstimate(), 0u);
  EXPECT_EQ(s.Quantile(0.99), 0.0);
}

}  // namespace
}  // namespace util
}  // namespace elitenet
