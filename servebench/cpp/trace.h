// In-memory span recorder for the traced run.
//
// The benchmark wraps each call it makes into a layer of the program in a
// Span: name, start, end, the span that was open on the same thread when
// it began (its parent), and a request id shared by every span of one
// request. Spans go to per-thread buffers and stay in memory until the
// run ends; nothing is written while the run measures. With tracing off
// (the default) a Span costs one relaxed load.

#ifndef SERVEBENCH_TRACE_H_
#define SERVEBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace servebench {

struct SpanRecord {
  const char* name = nullptr;  ///< String literal; compared by value.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root.
  uint64_t request = 0;
};

/// Turns recording on or off for spans opened afterwards.
void SetTracing(bool on);
bool TracingEnabled();

/// Fresh request id (never 0).
uint64_t NewRequestId();

class Span {
 public:
  /// `request` 0 inherits the enclosing span's request id.
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord rec_;
  uint64_t saved_parent_ = 0;
  uint64_t saved_request_ = 0;
};

/// Records a finished span whose start and end the caller stamped (for
/// requests that are in flight together on one thread). Its parent is
/// the calling thread's open span.
void RecordSpan(const char* name, Clock::time_point start,
                Clock::time_point end, uint64_t request);

/// Every span recorded so far, all threads (call after workers joined).
std::vector<SpanRecord> CollectSpans();

/// Per-name count, total and self time (duration minus the part of its
/// interval covered by direct children), printed as a table.
void PrintSpanSummary(const std::vector<SpanRecord>& spans);

}  // namespace servebench

#endif  // SERVEBENCH_TRACE_H_
