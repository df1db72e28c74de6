#include "util/trace.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace elitenet {
namespace util {

namespace {

std::atomic<bool> g_tracing_enabled{false};
std::once_flag g_trace_env_once;

// ELITENET_TRACE=<path>: enable tracing now and dump the Chrome JSON to
// <path> when the process exits. Resolved once, on the first
// TracingEnabled() call.
void ResolveTraceEnv() {
  const char* env = std::getenv("ELITENET_TRACE");
  if (env == nullptr || *env == '\0') return;
  static std::string* path = new std::string(env);
  g_tracing_enabled.store(true, std::memory_order_relaxed);
  std::atexit([] {
    const Status s = TraceRecorder::Global().WriteChromeJson(*path);
    if (!s.ok()) {
      std::fprintf(stderr, "elitenet: trace dump failed: %s\n",
                   s.ToString().c_str());
    }
  });
}

// Per-thread span bookkeeping: a small sequential id (Chrome traces key
// rows by tid) and the stack of open span indices for parent links.
struct ThreadTraceState {
  uint32_t id;
  std::vector<int64_t> open_spans;
};

ThreadTraceState& LocalThreadState() {
  static std::atomic<uint32_t> next_id{0};
  thread_local ThreadTraceState state{
      next_id.fetch_add(1, std::memory_order_relaxed), {}};
  return state;
}

// JSON string escaping for span names (quotes, backslashes, control chars).
void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

// The innermost SpanCapture installed on this thread (nullptr = none).
thread_local SpanCapture* g_active_capture = nullptr;
}  // namespace

SpanCapture::SpanCapture(size_t max_spans)
    : epoch_(std::chrono::steady_clock::now()),
      max_spans_(max_spans),
      prev_(g_active_capture) {
  spans_.reserve(max_spans < 64 ? max_spans : 64);
  g_active_capture = this;
}

SpanCapture::~SpanCapture() { g_active_capture = prev_; }

SpanCapture* SpanCapture::Active() { return g_active_capture; }

int32_t SpanCapture::Begin(const char* name) {
  if (spans_.size() >= max_spans_) {
    truncated_ = true;
    return -1;
  }
  CapturedSpan span;
  span.name = name;
  span.start_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  if (!open_.empty()) {
    span.parent = open_.back();
    span.depth = static_cast<int32_t>(open_.size());
  }
  const int32_t index = static_cast<int32_t>(spans_.size());
  spans_.push_back(span);
  open_.push_back(index);
  return index;
}

void SpanCapture::End(int32_t index) {
  if (index < 0 || static_cast<size_t>(index) >= spans_.size()) return;
  if (!open_.empty() && open_.back() == index) open_.pop_back();
  const uint64_t end_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
  CapturedSpan& span = spans_[static_cast<size_t>(index)];
  span.duration_ns = end_ns > span.start_ns ? end_ns - span.start_ns : 0;
}

std::vector<CapturedSpan> SpanCapture::Take() {
  std::vector<CapturedSpan> out = std::move(spans_);
  spans_.clear();
  open_.clear();
  return out;
}

bool TracingEnabled() {
  std::call_once(g_trace_env_once, ResolveTraceEnv);
  return g_tracing_enabled.load(std::memory_order_relaxed);
}

void SetTracingEnabled(bool enabled) {
  std::call_once(g_trace_env_once, ResolveTraceEnv);
  g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* recorder = new TraceRecorder;
  return *recorder;
}

TraceRecorder::TraceRecorder() : epoch_(std::chrono::steady_clock::now()) {}

int64_t TraceRecorder::BeginSpan(const char* name) {
  const auto now = std::chrono::steady_clock::now();
  ThreadTraceState& ts = LocalThreadState();

  TraceEvent event;
  event.name = name;
  event.thread_id = ts.id;
  if (!ts.open_spans.empty()) {
    event.parent = static_cast<int32_t>(ts.open_spans.back());
    event.depth = static_cast<int32_t>(ts.open_spans.size());
  }

  int64_t index;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    event.start_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_)
            .count());
    index = static_cast<int64_t>(events_.size());
    events_.push_back(std::move(event));
  }
  ts.open_spans.push_back(index);
  return index;
}

void TraceRecorder::EndSpan(int64_t index) {
  const auto now = std::chrono::steady_clock::now();
  ThreadTraceState& ts = LocalThreadState();
  // Spans close in LIFO order per thread (RAII guarantees it); tolerate a
  // recorder Clear() having dropped the entry in between.
  if (!ts.open_spans.empty() && ts.open_spans.back() == index) {
    ts.open_spans.pop_back();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (index < 0 || static_cast<size_t>(index) >= events_.size()) return;
  const uint64_t end_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - epoch_)
          .count());
  TraceEvent& event = events_[static_cast<size_t>(index)];
  event.duration_ns =
      end_ns > event.start_ns ? end_ns - event.start_ns : 0;
}

std::vector<TraceEvent> TraceRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

size_t TraceRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void TraceRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  epoch_ = std::chrono::steady_clock::now();
}

std::string TraceRecorder::ToChromeJson() const {
  const std::vector<TraceEvent> events = snapshot();
  std::string out;
  out.reserve(events.size() * 96 + 128);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[128];
  for (size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"";
    AppendEscaped(&out, e.name);
    out += "\",\"cat\":\"elitenet\",\"ph\":\"X\",\"pid\":0";
    std::snprintf(buf, sizeof(buf), ",\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f}",
                  e.thread_id, static_cast<double>(e.start_ns) / 1e3,
                  static_cast<double>(e.duration_ns) / 1e3);
    out += buf;
  }
  out += "]}\n";
  return out;
}

Status TraceRecorder::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open trace output: " + path);
  }
  const std::string json = ToChromeJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return Status::IoError("short write to trace output: " + path);
  }
  return Status::OK();
}

}  // namespace util
}  // namespace elitenet
