#include "util/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

namespace elitenet {
namespace util {

namespace {

std::atomic<bool> g_metrics_enabled{false};
std::once_flag g_metrics_env_once;
// The ELITENET_METRICS path (null when unset) and whether another writer
// of that file took over its exit dump.
const std::string* g_exit_dump_path = nullptr;
std::atomic<bool> g_exit_dump_claimed{false};

// ELITENET_METRICS=<path>: enable metrics now and dump the JSON snapshot
// to <path> when the process exits, unless ClaimMetricsExitDump took the
// file over.
void ResolveMetricsEnv() {
  const char* env = std::getenv("ELITENET_METRICS");
  if (env == nullptr || *env == '\0') return;
  g_exit_dump_path = new std::string(env);
  g_metrics_enabled.store(true, std::memory_order_relaxed);
  std::atexit([] {
    if (g_exit_dump_claimed.load(std::memory_order_acquire)) return;
    const Status s =
        MetricsRegistry::Global().Snapshot().WriteJson(*g_exit_dump_path);
    if (!s.ok()) {
      std::fprintf(stderr, "elitenet: metrics dump failed: %s\n",
                   s.ToString().c_str());
    }
  });
}

void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      *out += '\\';
      *out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    } else {
      *out += c;
    }
  }
}

}  // namespace

bool MetricsEnabled() {
  std::call_once(g_metrics_env_once, ResolveMetricsEnv);
  return g_metrics_enabled.load(std::memory_order_relaxed);
}

void SetMetricsEnabled(bool enabled) {
  std::call_once(g_metrics_env_once, ResolveMetricsEnv);
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

void ClaimMetricsExitDump(const std::string& path) {
  std::call_once(g_metrics_env_once, ResolveMetricsEnv);
  if (g_exit_dump_path != nullptr && *g_exit_dump_path == path) {
    g_exit_dump_claimed.store(true, std::memory_order_release);
  }
}

size_t QuantileSketch::BucketIndex(uint64_t v) {
  if (v < 2 * kSubBuckets) return static_cast<size_t>(v);
  const int octave = std::bit_width(v) - 1;  // >= kSubBucketBits + 1
  const int shift = octave - kSubBucketBits;
  const uint64_t sub = (v >> shift) - kSubBuckets;  // [0, kSubBuckets)
  return static_cast<size_t>(2 * kSubBuckets +
                             static_cast<uint64_t>(shift - 1) * kSubBuckets +
                             sub);
}

uint64_t QuantileSketch::BucketLowerBound(size_t b) {
  if (b < 2 * kSubBuckets) return b;
  const uint64_t rel = b - 2 * kSubBuckets;
  const int shift = static_cast<int>(rel / kSubBuckets) + 1;
  const uint64_t sub = rel % kSubBuckets;
  return (kSubBuckets + sub) << shift;
}

uint64_t QuantileSketch::BucketWidth(size_t b) {
  if (b < 2 * kSubBuckets) return 1;
  return uint64_t{1} << ((b - 2 * kSubBuckets) / kSubBuckets + 1);
}

void QuantileSketch::Observe(uint64_t v) {
  buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
}

void QuantileSketch::Merge(const QuantileSketch& other) {
  for (size_t b = 0; b < kNumBuckets; ++b) {
    const uint64_t c = other.buckets_[b].load(std::memory_order_relaxed);
    if (c > 0) buckets_[b].fetch_add(c, std::memory_order_relaxed);
  }
}

uint64_t QuantileSketch::count() const {
  uint64_t n = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    n += buckets_[b].load(std::memory_order_relaxed);
  }
  return n;
}

double QuantileSketch::SumEstimate() const {
  double s = 0.0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    const uint64_t c = buckets_[b].load(std::memory_order_relaxed);
    if (c == 0) continue;
    const double mid = static_cast<double>(BucketLowerBound(b)) +
                       static_cast<double>(BucketWidth(b) - 1) / 2.0;
    s += static_cast<double>(c) * mid;
  }
  return s;
}

uint64_t QuantileSketch::MaxEstimate() const {
  for (size_t b = kNumBuckets; b-- > 0;) {
    if (buckets_[b].load(std::memory_order_relaxed) > 0) {
      return BucketLowerBound(b) + BucketWidth(b) - 1;
    }
  }
  return 0;
}

double QuantileSketch::Quantile(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  uint64_t rank = static_cast<uint64_t>(
      std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  uint64_t seen = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    seen += buckets_[b].load(std::memory_order_relaxed);
    if (seen >= rank) {
      return static_cast<double>(BucketLowerBound(b)) +
             static_cast<double>(BucketWidth(b) - 1) / 2.0;
    }
  }
  // Unreachable unless buckets raced with the count() pass above.
  return static_cast<double>(MaxEstimate());
}

void QuantileSketch::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

// std::map keeps iteration (and so snapshots) name-sorted, and its nodes
// never move, so handed-out metric pointers stay valid forever.
struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<QuantileSketch>, std::less<>> sketches;
};

MetricsRegistry::Impl* MetricsRegistry::impl() {
  static Impl* impl = new Impl;
  return impl;
}

const MetricsRegistry::Impl* MetricsRegistry::impl() const {
  return const_cast<MetricsRegistry*>(this)->impl();
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  Impl* m = impl();
  std::lock_guard<std::mutex> lock(m->mutex);
  auto it = m->counters.find(name);
  if (it == m->counters.end()) {
    it = m->counters
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  Impl* m = impl();
  std::lock_guard<std::mutex> lock(m->mutex);
  auto it = m->gauges.find(name);
  if (it == m->gauges.end()) {
    it = m->gauges.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  }
  return it->second.get();
}

QuantileSketch* MetricsRegistry::GetSketch(std::string_view name) {
  Impl* m = impl();
  std::lock_guard<std::mutex> lock(m->mutex);
  auto it = m->sketches.find(name);
  if (it == m->sketches.end()) {
    it = m->sketches
             .emplace(std::string(name), std::make_unique<QuantileSketch>())
             .first;
  }
  return it->second.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  const Impl* m = impl();
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(m->mutex);
  snap.counters.reserve(m->counters.size());
  for (const auto& [name, counter] : m->counters) {
    snap.counters.push_back({name, counter->value()});
  }
  snap.gauges.reserve(m->gauges.size());
  for (const auto& [name, gauge] : m->gauges) {
    snap.gauges.push_back({name, gauge->value()});
  }
  snap.sketches.reserve(m->sketches.size());
  for (const auto& [name, sketch] : m->sketches) {
    MetricsSnapshot::SketchValue s;
    s.name = name;
    s.count = sketch->count();
    s.sum = static_cast<uint64_t>(sketch->SumEstimate() + 0.5);
    s.max = sketch->MaxEstimate();
    s.p50 = sketch->Quantile(0.50);
    s.p90 = sketch->Quantile(0.90);
    s.p95 = sketch->Quantile(0.95);
    s.p99 = sketch->Quantile(0.99);
    snap.sketches.push_back(std::move(s));
  }
  // std::map already iterates name-sorted; the explicit sort pins the
  // byte-stable-JSON guarantee to the snapshot itself, independent of the
  // registry's container choice (golden tests rely on it).
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(snap.counters.begin(), snap.counters.end(), by_name);
  std::sort(snap.gauges.begin(), snap.gauges.end(), by_name);
  std::sort(snap.sketches.begin(), snap.sketches.end(), by_name);
  return snap;
}

void MetricsRegistry::ResetValues() {
  Impl* m = impl();
  std::lock_guard<std::mutex> lock(m->mutex);
  for (auto& [name, counter] : m->counters) counter->Reset();
  for (auto& [name, gauge] : m->gauges) gauge->Reset();
  for (auto& [name, sketch] : m->sketches) sketch->Reset();
}

uint64_t MetricsSnapshot::CounterOr0(std::string_view name) const {
  for (const CounterValue& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  char buf[64];
  for (size_t i = 0; i < counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    AppendEscaped(&out, counters[i].name);
    std::snprintf(buf, sizeof(buf), "\": %llu",
                  static_cast<unsigned long long>(counters[i].value));
    out += buf;
  }
  out += counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  for (size_t i = 0; i < gauges.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    AppendEscaped(&out, gauges[i].name);
    std::snprintf(buf, sizeof(buf), "\": %lld",
                  static_cast<long long>(gauges[i].value));
    out += buf;
  }
  out += gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"sketches\": {";
  for (size_t i = 0; i < sketches.size(); ++i) {
    const SketchValue& s = sketches[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    AppendEscaped(&out, s.name);
    std::snprintf(buf, sizeof(buf),
                  "\": {\"count\": %llu, \"sum\": %llu, \"max\": %llu",
                  static_cast<unsigned long long>(s.count),
                  static_cast<unsigned long long>(s.sum),
                  static_cast<unsigned long long>(s.max));
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  ", \"p50\": %.1f, \"p90\": %.1f, \"p95\": %.1f, "
                  "\"p99\": %.1f}",
                  s.p50, s.p90, s.p95, s.p99);
    out += buf;
  }
  out += sketches.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; map everything else to '_'.
std::string PromName(const std::string& name) {
  std::string out = "elitenet_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  char buf[160];
  for (const CounterValue& c : counters) {
    const std::string n = PromName(c.name);
    out += "# TYPE " + n + " counter\n";
    std::snprintf(buf, sizeof(buf), "%s %llu\n", n.c_str(),
                  static_cast<unsigned long long>(c.value));
    out += buf;
  }
  for (const GaugeValue& g : gauges) {
    const std::string n = PromName(g.name);
    out += "# TYPE " + n + " gauge\n";
    std::snprintf(buf, sizeof(buf), "%s %lld\n", n.c_str(),
                  static_cast<long long>(g.value));
    out += buf;
  }
  for (const SketchValue& s : sketches) {
    const std::string n = PromName(s.name);
    out += "# TYPE " + n + " summary\n";
    // One sample per snprintf: four quantile lines of a long name would
    // overflow `buf` and cut the family's last line in half.
    const std::pair<const char*, double> quantiles[] = {
        {"0.5", s.p50}, {"0.9", s.p90}, {"0.95", s.p95}, {"0.99", s.p99}};
    for (const auto& [q, v] : quantiles) {
      std::snprintf(buf, sizeof(buf), "%s{quantile=\"%s\"} %.1f\n",
                    n.c_str(), q, v);
      out += buf;
    }
    std::snprintf(buf, sizeof(buf), "%s_count %llu\n", n.c_str(),
                  static_cast<unsigned long long>(s.count));
    out += buf;
    std::snprintf(buf, sizeof(buf), "%s_sum %llu\n", n.c_str(),
                  static_cast<unsigned long long>(s.sum));
    out += buf;
  }
  return out;
}

Status MetricsSnapshot::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open metrics output: " + path);
  }
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::IoError("short write to metrics output: " + path);
  }
  return Status::OK();
}

}  // namespace util
}  // namespace elitenet
