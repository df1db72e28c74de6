#include "stats.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace servebench {

void Stamp(const char* what) {
  static const Clock::time_point start = Clock::now();
  std::printf("[%7.2fs] %s\n", SecondsSince(start), what);
  std::fflush(stdout);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(std::ceil(q * v.size()));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {
constexpr double kHistMinUs = 0.5;
constexpr double kHistGrowth = 1.01;
constexpr int kHistBuckets = 1460;  // 0.5 us * 1.01^1460 is about 1 s
}  // namespace

struct Histogram::Buckets {
  std::atomic<uint64_t> n{0};
  std::atomic<uint32_t> count[kHistBuckets] = {};
};

Histogram::Histogram() : b_(std::make_unique<Buckets>()) {}
Histogram::~Histogram() = default;
Histogram::Histogram(Histogram&&) noexcept = default;
Histogram& Histogram::operator=(Histogram&&) noexcept = default;

void Histogram::Add(double us) {
  static const double log_growth = std::log(kHistGrowth);
  int i = 0;
  if (us > kHistMinUs) {
    i = std::min(kHistBuckets - 1,
                 static_cast<int>(std::log(us / kHistMinUs) / log_growth));
  }
  b_->count[i].fetch_add(1, std::memory_order_relaxed);
  b_->n.fetch_add(1, std::memory_order_relaxed);
}

uint64_t Histogram::count() const {
  return b_->n.load(std::memory_order_relaxed);
}

double Histogram::Percentile(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  const uint64_t rank =
      std::max<uint64_t>(1, static_cast<uint64_t>(std::ceil(q * n)));
  uint64_t seen = 0;
  int i = 0;
  for (; i < kHistBuckets - 1; ++i) {
    seen += b_->count[i].load(std::memory_order_relaxed);
    if (seen >= rank) break;
  }
  return kHistMinUs * std::pow(kHistGrowth, i + 0.5);
}

double TrimmedMean(std::vector<double> v, double trim) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t cut = static_cast<size_t>(trim * v.size());
  double sum = 0.0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / (v.size() - 2 * cut);
}

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return t;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal [guest guest_nice];
  // guest time is already counted in user, so it is not added again.
  uint64_t x = 0;
  for (int i = 0; i < 8 && fields >> x; ++i) {
    t.total += x;
    if (i == 7) t.steal = x;
  }
  return t;
}

double StealPercent(const CpuTimes& a, const CpuTimes& b) {
  if (b.total <= a.total) return 0.0;
  return 100.0 * static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, uint64_t samples,
                 const std::string& note) {
  metrics_.push_back({name, value, unit});
  std::printf("  %-40s %14.6g %-6s", name.c_str(), value, unit.c_str());
  if (samples > 0) {
    std::printf(" n=%llu", static_cast<unsigned long long>(samples));
  }
  if (!note.empty()) std::printf("  (%s)", note.c_str());
  std::printf("\n");
}

void PrintResultLine(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace servebench
