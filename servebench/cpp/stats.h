// Sample summaries, host counters and the result line for the serving
// benchmark.

#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Prints "[<seconds since start>s] <what>", a progress line.
void Stamp(const char* what);

/// Nearest-rank percentile of `v` (q in [0, 1]); sorts a copy.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);
/// Mean of `v` without its lowest and highest `trim` share (rounded
/// down) of values; sorts a copy.
double TrimmedMean(std::vector<double> v, double trim);

/// Latencies in log-spaced buckets 1% wide, from 0.5 us to 1 s (values
/// outside land in the end buckets). The buckets are allocated and
/// zeroed up front, so recording never allocates and the benchmark's
/// own memory does not grow with the request rate. Counts are relaxed
/// atomics: several callers may record into one histogram at once.
class Histogram {
 public:
  Histogram();
  ~Histogram();
  Histogram(Histogram&&) noexcept;
  Histogram& operator=(Histogram&&) noexcept;

  void Add(double us);
  uint64_t count() const;
  bool empty() const { return count() == 0; }
  /// Nearest-rank percentile (q in [0, 1]), as the geometric middle of
  /// its bucket; 0 when empty.
  double Percentile(double q) const;

 private:
  struct Buckets;
  std::unique_ptr<Buckets> b_;
};

/// Cumulative steal and total jiffies from the "cpu" line of /proc/stat.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes ReadCpuTimes();
/// Share of all CPU time stolen by the host between two readings, in %.
double StealPercent(const CpuTimes& a, const CpuTimes& b);

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Ordered metric set; Add() also prints a human-readable report line
/// (with the sample count behind the number, when it has one).
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0, const std::string& note = "");
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Prints the last stdout line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{name:{"value":v,"unit":u},...}} with every digit of v.
void PrintResultLine(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics);

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
