// Hierarchical span tracing for the study pipeline and parallel kernels.
//
// ELITENET_SPAN("wiring") opens an RAII scope that records name, start,
// duration, nesting (parent span on the same thread), and a small
// sequential thread id into the process-global TraceRecorder. Recorded
// runs export as Chrome trace-event JSON (load the file in
// chrome://tracing or https://ui.perfetto.dev) or as an indented text
// tree for terminals.
//
// Tracing is off by default. Enable it programmatically
// (SetTracingEnabled), through StudyConfig::trace_path, or process-wide
// with the ELITENET_TRACE=<path> environment variable, which also
// arranges for the trace to be written to <path> at process exit. When
// disabled, ELITENET_SPAN costs one relaxed atomic load and a branch —
// measured well under 1% on the hot kernels (bench_observability).
//
// Instrumentation never feeds back into results: spans read clocks and
// append to a buffer, nothing else. The determinism contract of
// util/parallel.h (bit-identical results for any thread count) holds with
// tracing on or off, enforced by tests/parallel_determinism_test.cc.

#ifndef ELITENET_UTIL_TRACE_H_
#define ELITENET_UTIL_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace elitenet {
namespace util {

/// True when span recording is on. One relaxed atomic load; the first call
/// also resolves the ELITENET_TRACE environment variable.
bool TracingEnabled();

/// Turns span recording on or off process-wide. Does not clear anything
/// already recorded.
void SetTracingEnabled(bool enabled);

/// One completed (or still-open, duration 0) span.
struct TraceEvent {
  std::string name;
  uint64_t start_ns = 0;     ///< Relative to the recorder epoch.
  uint64_t duration_ns = 0;  ///< 0 while the span is still open.
  uint32_t thread_id = 0;    ///< Small sequential id, 0 = first thread seen.
  int32_t parent = -1;       ///< Index of the enclosing span, -1 for roots.
  int32_t depth = 0;         ///< Nesting depth on its thread (roots = 0).
};

/// Thread-safe append-only recorder behind ELITENET_SPAN. Spans reserve
/// their slot when they open (so parent links are stable) and fill in the
/// duration when they close.
class TraceRecorder {
 public:
  /// The process-global recorder every ELITENET_SPAN writes to.
  static TraceRecorder& Global();

  TraceRecorder();

  /// Opens a span; returns its event index for EndSpan.
  int64_t BeginSpan(const char* name);
  void EndSpan(int64_t index);

  /// Copies out everything recorded so far.
  std::vector<TraceEvent> snapshot() const;
  size_t size() const;

  /// Drops all recorded events and resets the time epoch. Must not be
  /// called while spans are open.
  void Clear();

  /// Chrome trace-event JSON ("X" complete events, microsecond
  /// timestamps); loadable in chrome://tracing and Perfetto.
  std::string ToChromeJson() const;

  Status WriteChromeJson(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::chrono::steady_clock::time_point epoch_;
};

/// One span as seen by a SpanCapture: name, timing relative to the
/// capture's start, and tree position within the capture.
struct CapturedSpan {
  const char* name = nullptr;  ///< The macro's string literal (static).
  uint64_t start_ns = 0;       ///< Relative to the capture's construction.
  uint64_t duration_ns = 0;    ///< 0 while still open.
  int32_t parent = -1;         ///< Index of the enclosing captured span.
  int32_t depth = 0;           ///< Nesting depth within the capture.
};

/// Thread-local span sink: while a SpanCapture is alive on a thread,
/// every ELITENET_SPAN on that thread ALSO records into it — independent
/// of the global TracingEnabled() switch. This is how the serving layer
/// captures one request's span tree into its flight-recorder record
/// without turning on (and paying for) whole-process tracing. Captures
/// nest: constructing a second capture shadows the first until it is
/// destroyed. The cost to non-captured threads is one thread-local load
/// and branch per span (measured with the disabled-instrumentation
/// overhead in bench_observability).
class SpanCapture {
 public:
  explicit SpanCapture(size_t max_spans = 256);
  ~SpanCapture();

  SpanCapture(const SpanCapture&) = delete;
  SpanCapture& operator=(const SpanCapture&) = delete;

  /// Moves the captured spans out (the capture keeps recording into a
  /// now-empty buffer; normally called once, after the workload).
  std::vector<CapturedSpan> Take();
  /// True when max_spans was hit and later spans were dropped.
  bool truncated() const { return truncated_; }

  /// The capture active on this thread, or nullptr. Used by ScopedSpan.
  static SpanCapture* Active();
  /// Opens/closes a captured span; Begin returns -1 when full.
  int32_t Begin(const char* name);
  void End(int32_t index);

 private:
  std::vector<CapturedSpan> spans_;
  std::vector<int32_t> open_;
  std::chrono::steady_clock::time_point epoch_;
  size_t max_spans_;
  bool truncated_ = false;
  SpanCapture* prev_ = nullptr;
};

/// RAII scope recorded into TraceRecorder::Global(). Prefer the
/// ELITENET_SPAN macro, which names the local variable for you.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (TracingEnabled()) index_ = TraceRecorder::Global().BeginSpan(name);
    if (SpanCapture* c = SpanCapture::Active()) {
      capture_ = c;
      capture_index_ = c->Begin(name);
    }
  }
  ~ScopedSpan() {
    if (index_ >= 0) TraceRecorder::Global().EndSpan(index_);
    if (capture_ != nullptr) capture_->End(capture_index_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_ = -1;
  SpanCapture* capture_ = nullptr;
  int32_t capture_index_ = -1;
};

/// Wall-clock phase timer that doubles as a trace span: the span covers
/// construction (or the last Reset) to destruction (or the next Reset).
/// Seconds() works whether or not tracing is enabled, so examples and
/// benches keep their progress printing while contributing spans to the
/// trace for free.
class SpanTimer {
 public:
  /// `name == nullptr` times without recording a span.
  explicit SpanTimer(const char* name = nullptr) { Reset(name); }
  ~SpanTimer() { End(); }

  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  /// Ends the current span (if any), restarts the clock, and opens a new
  /// span named `name` (nullptr = plain timing).
  void Reset(const char* name = nullptr) {
    End();
    start_ = std::chrono::steady_clock::now();
    if (name != nullptr && TracingEnabled()) {
      index_ = TraceRecorder::Global().BeginSpan(name);
    }
  }

  /// Elapsed seconds since construction or the last Reset().
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  void End() {
    if (index_ >= 0) {
      TraceRecorder::Global().EndSpan(index_);
      index_ = -1;
    }
  }

  std::chrono::steady_clock::time_point start_;
  int64_t index_ = -1;
};

#define ELITENET_TRACE_CONCAT_INNER(a, b) a##b
#define ELITENET_TRACE_CONCAT(a, b) ELITENET_TRACE_CONCAT_INNER(a, b)

/// Opens a span for the rest of the enclosing scope.
#define ELITENET_SPAN(name)                  \
  ::elitenet::util::ScopedSpan ELITENET_TRACE_CONCAT(elitenet_span_, \
                                                     __LINE__)(name)

}  // namespace util
}  // namespace elitenet

#endif  // ELITENET_UTIL_TRACE_H_
