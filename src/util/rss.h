// Process resident-set-size introspection (Linux /proc/self/status).
//
// The out-of-core pipeline (util/ext_sort.h, graph/io.h streaming writer)
// exists to keep peak RSS bounded while the data set is unbounded, so the
// scale benches need to *measure* residency, not estimate it. Three
// queries:
//
//   * CurrentRssBytes — VmRSS, what is resident right now;
//   * PeakRssBytes    — VmHWM, the high-water mark since process start
//                       (or since the last ResetPeakRss);
//   * ResetPeakRss    — writes "5" to /proc/self/clear_refs, resetting
//                       VmHWM so per-phase peaks can be attributed in
//                       one process (servebench's set-ups). The benches
//                       run each phase in a forked child instead
//                       (bench::RunInChild) and write nothing there.
//
// All three are best-effort: on kernels or sandboxes where the proc files
// are unavailable the getters return 0 and the reset returns false, and
// callers are expected to degrade to "unmeasured" rather than fail.

#ifndef ELITENET_UTIL_RSS_H_
#define ELITENET_UTIL_RSS_H_

#include <cstdint>

namespace elitenet {
namespace util {

/// VmRSS in bytes; 0 when unreadable.
uint64_t CurrentRssBytes();

/// VmHWM (peak RSS) in bytes; 0 when unreadable.
uint64_t PeakRssBytes();

/// Resets the peak-RSS watermark to the current RSS. Returns true on
/// success; false where /proc/self/clear_refs is not writable.
bool ResetPeakRss();

}  // namespace util
}  // namespace elitenet

#endif  // ELITENET_UTIL_RSS_H_
