#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace servebench {
namespace {

std::atomic<bool> g_tracing{false};
std::atomic<uint64_t> g_next_id{1};

struct Registry {
  std::mutex mu;
  std::vector<std::shared_ptr<std::vector<SpanRecord>>> buffers;
};

Registry& GetRegistry() {
  static Registry* r = new Registry();
  return *r;
}

// The calling thread's buffer, registered on first use. The registry
// holds a second reference so spans outlive the thread that made them.
std::vector<SpanRecord>& ThreadBuffer() {
  thread_local std::shared_ptr<std::vector<SpanRecord>> buf = [] {
    auto b = std::make_shared<std::vector<SpanRecord>>();
    b->reserve(1 << 14);
    Registry& r = GetRegistry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

thread_local uint64_t t_current_span = 0;
thread_local uint64_t t_current_request = 0;

int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

int64_t NowNs() { return ToNs(Clock::now()); }

}  // namespace

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool TracingEnabled() { return g_tracing.load(std::memory_order_relaxed); }

uint64_t NewRequestId() {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

Span::Span(const char* name, uint64_t request) {
  if (!TracingEnabled()) return;
  active_ = true;
  rec_.name = name;
  rec_.id = NewRequestId();
  rec_.parent = t_current_span;
  rec_.request = request != 0 ? request : t_current_request;
  saved_parent_ = t_current_span;
  saved_request_ = t_current_request;
  t_current_span = rec_.id;
  t_current_request = rec_.request;
  rec_.start_ns = NowNs();
}

Span::~Span() {
  if (!active_) return;
  rec_.end_ns = NowNs();
  t_current_span = saved_parent_;
  t_current_request = saved_request_;
  ThreadBuffer().push_back(rec_);
}

void RecordSpan(const char* name, Clock::time_point start,
                Clock::time_point end, uint64_t request) {
  if (!TracingEnabled()) return;
  SpanRecord rec;
  rec.name = name;
  rec.start_ns = ToNs(start);
  rec.end_ns = ToNs(end);
  rec.id = NewRequestId();
  rec.parent = t_current_span;
  rec.request = request;
  ThreadBuffer().push_back(rec);
}

std::vector<SpanRecord> CollectSpans() {
  Registry& r = GetRegistry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::vector<SpanRecord> all;
  for (const auto& b : r.buffers) all.insert(all.end(), b->begin(), b->end());
  return all;
}

void PrintSpanSummary(const std::vector<SpanRecord>& spans) {
  // Children of each span, to subtract the covered part of its interval.
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  struct Row {
    uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    uint64_t requests = 0;
  };
  std::map<std::string, Row> rows;
  for (const SpanRecord& s : spans) {
    Row& row = rows[s.name];
    const double total = (s.end_ns - s.start_ns) / 1e9;
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Children run on the parent's thread, so they nest and never
      // overlap one another: their durations add up to the covered part.
      for (const SpanRecord* c : it->second) {
        covered += (std::min(c->end_ns, s.end_ns) -
                    std::max(c->start_ns, s.start_ns)) /
                   1e9;
      }
    }
    ++row.count;
    row.total_s += total;
    row.self_s += std::max(0.0, total - covered);
    if (s.request != 0 && s.parent == 0) ++row.requests;
  }
  std::printf("  %-34s %10s %12s %12s %10s\n", "span", "count", "total_s",
              "self_s", "requests");
  for (const auto& [name, row] : rows) {
    std::printf("  %-34s %10llu %12.6f %12.6f %10llu\n", name.c_str(),
                static_cast<unsigned long long>(row.count), row.total_s,
                row.self_s, static_cast<unsigned long long>(row.requests));
  }
}

}  // namespace servebench
