// Request QoS classes for the serving layer.
//
// Every request carries exactly one class, parsed from a trailing
// "!<class>" token on the wire ("topk 50 !batch"); the class never
// changes what a successful response contains — it changes *when* the
// request runs (deadline-aware priority scheduling, serve/scheduler.h)
// and *whether* it is admitted under load (per-class queue caps;
// oversubscribed classes shed with an "overloaded" error JSON).
//
// The enum is dense and declared in dispatch order, so a class's value
// is both its priority (lower runs first) and its slot in per-class
// arrays:
//
//   * interactive — per-user lookups on the latency SLO (the default;
//                   never shed, always dispatched first).
//   * analytics   — research scans that tolerate queueing but should
//                   finish (middle priority, generous queue cap).
//   * batch       — bulk/offline traffic; lowest priority and the first
//                   class shed when queues back up.

#ifndef ELITENET_SERVE_QOS_H_
#define ELITENET_SERVE_QOS_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace elitenet {
namespace serve {

enum class QosClass : uint8_t { kInteractive, kAnalytics, kBatch };

/// Number of classes (array sizing for per-class stats).
inline constexpr size_t kNumQosClasses = 3;

/// Slot in per-class arrays; also the dispatch priority.
constexpr size_t QosClassIndex(QosClass c) { return static_cast<size_t>(c); }

/// Inverse of QosClassIndex (`index < kNumQosClasses`).
constexpr QosClass QosClassAt(size_t index) {
  return static_cast<QosClass>(index);
}

/// Wire names, in QosClassIndex order.
inline constexpr const char* kQosClassNames[kNumQosClasses] = {
    "interactive", "analytics", "batch"};

/// Wire name ("interactive" / "analytics" / "batch").
constexpr const char* QosClassName(QosClass c) {
  return kQosClassNames[QosClassIndex(c)];
}

/// Parses a wire name; false (and `*out` untouched) for anything else.
constexpr bool ParseQosClass(std::string_view name, QosClass* out) {
  for (size_t i = 0; i < kNumQosClasses; ++i) {
    if (name == kQosClassNames[i]) {
      *out = QosClassAt(i);
      return true;
    }
  }
  return false;
}

}  // namespace serve
}  // namespace elitenet

#endif  // ELITENET_SERVE_QOS_H_
