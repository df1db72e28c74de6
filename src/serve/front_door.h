// FrontDoor — the one admission plane in front of every serving backend
// (the static and live QueryEngine, the ShardedRouter). Every request
// passes it exactly once: QoS admission (Submit only; a shed request
// resolves at once with the "overloaded" error), a sequence number
// claimed at submission so trace ids follow submission order, the
// sampling decision, the inflight gauge and per-type root span, backend
// admission, the result cache (only complete, non-degraded, non-error
// responses are inserted, so a hit is byte-identical to a recompute),
// compute on a miss, the latency sketch and the flight-recorder record.
//
// The backend hook is four narrow steps: Admit (a live engine resolves
// its MVCC snapshot — at submission for queued requests, so queueing
// never moves the version a request observes; static backends reject
// "@v" pins), CacheKeyFor, Compute (the miss path) and AddStats (facts
// for #stats). A later backend, such as live or remote shards, plugs in
// here without another copy of the plane.

#ifndef ELITENET_SERVE_FRONT_DOOR_H_
#define ELITENET_SERVE_FRONT_DOOR_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <string_view>

#include "analysis/centrality.h"
#include "core/fingerprint.h"
#include "serve/compute.h"
#include "serve/delta_overlay.h"
#include "serve/request.h"
#include "serve/scheduler.h"
#include "serve/telemetry.h"
#include "util/deadline.h"
#include "util/lru_cache.h"
#include "util/status.h"

namespace elitenet {
namespace serve {

struct EngineOptions {
  /// Executor worker threads (Submit). Execute() always runs on the
  /// calling thread regardless.
  int threads = 1;
  /// Per-class admission caps for the QoS executor (serve/scheduler.h).
  QosOptions qos;
  /// Result-cache entries across all cache shards; 0 disables caching.
  size_t cache_capacity = 4096;
  analysis::PageRankOptions pagerank;
  core::FingerprintOptions fingerprint;
  /// No effect: dist always runs the bounded bidirectional search and no
  /// warm index depends on it. Kept so existing callers that set it
  /// still compile.
  bool distance_oracle = true;
  /// When non-empty, Create() tries to restore the warm indexes from this
  /// `.widx` sidecar (keyed by graph checksum + index config) before
  /// computing them, and writes the sidecar back after a fresh build. A
  /// stale or corrupt sidecar degrades to a rebuild, never an error.
  std::string warm_index_path;
  /// Live telemetry plane (trace ids, flight recorder, latency sketches,
  /// SLO counters). Telemetry observes but never decides, so response
  /// bytes are identical with it enabled, disabled, or sampled.
  TelemetryOptions telemetry;
  /// When non-empty, a background exporter thread writes a JSON snapshot
  /// here (and Prometheus text to `metrics_path + ".prom"`) every
  /// metrics_interval_ms; also turns on util metrics recording.
  std::string metrics_path;
  int metrics_interval_ms = 1000;
};

class FrontDoor {
 public:
  virtual ~FrontDoor();

  FrontDoor(const FrontDoor&) = delete;
  FrontDoor& operator=(const FrontDoor&) = delete;

  /// Synchronously answers `r` on the calling thread. Thread-safe. The
  /// shed caps apply only to Submit.
  QueryResponse Execute(const Request& r);

  /// Synchronous execution under an externally owned deadline.
  QueryResponse Execute(const Request& r, const util::Deadline& deadline);

  /// Parses one protocol line and answers it; parse failures become
  /// well-formed error responses (never a crash or empty line).
  QueryResponse ExecuteLine(std::string_view line);

  /// Answers a protocol line refused before parsing (ServeLines' line
  /// bound) with the error `status`. It counts as a malformed line, like
  /// an unparseable one, but the line is not echoed back.
  QueryResponse RejectLine(const Status& status);

  /// Enqueues `r` for the worker pool, subject to QoS admission control:
  /// a request whose class backlog is at its cap is shed — the future
  /// resolves immediately with the "overloaded" error response and the
  /// request never executes. The deadline starts counting at submission,
  /// so time spent queued burns budget — the behaviour a latency SLO
  /// wants.
  std::future<QueryResponse> Submit(const Request& r);

  /// Runs `fn` on an executor worker, cap-exempt at interactive priority
  /// (QosExecutor::SubmitExempt): plumbing that must never shed, such as
  /// a barrier that parks a worker so admission can be driven step by
  /// step. Only between start-up and shutdown.
  void SubmitExempt(std::function<void()> fn);

  /// Executor worker threads (0 before the backend has started).
  int threads() const;

  /// Result-cache tallies since startup, kept by the cache itself (#stats
  /// "cache" and the exporter's elitenet_serve_cache_{hits,misses}_total).
  uint64_t cache_hits() const;
  uint64_t cache_misses() const;

  /// Drops every result-cache entry (tallies are preserved). Lets
  /// benchmarks replay cold-cache traffic against one long-lived backend
  /// instead of rebuilding it per run.
  void ClearResultCache();

  /// Flips the telemetry plane's live master switch (responses are
  /// byte-identical either way). An A/B overhead measurement toggles
  /// this on one backend so both arms share the same heap layout.
  void SetTelemetryEnabled(bool on) { telemetry_.set_enabled(on); }

  /// The telemetry plane (always present; inert when
  /// options.telemetry.enabled is false).
  const Telemetry& telemetry() const { return telemetry_; }

  /// Seconds spent building (or restoring) warm indexes at startup.
  double warmup_seconds() const { return warmup_seconds_; }

  /// True when the warm indexes were restored from the `.widx` sidecar
  /// instead of computed (diagnostic; the served bytes are identical).
  bool warm_index_from_cache() const { return warm_from_cache_; }

  /// Admission-plane facts plus the backend's (AddStats), for the
  /// admin/stats renderers and the exporter.
  EngineStatsContext StatsContext() const;

  /// Answers one parsed admin command as a single JSON line.
  std::string AdminResponse(const AdminCommand& cmd) const;

 protected:
  explicit FrontDoor(const EngineOptions& options);

  /// Starts the executor (and the exporter when options.metrics_path is
  /// set). A backend calls it once its state is ready to compute.
  void Open();

  /// Stops the exporter (its final snapshot still reads backend stats),
  /// then drains queued jobs and joins the workers. Every backend calls
  /// it first thing in its destructor, while the state Compute reads is
  /// still alive. Idempotent.
  void Close();

  // --- The backend hook ----------------------------------------------

  /// Step 1: the snapshot `r` answers at. The default suits static
  /// backends: the empty snapshot, and FailedPrecondition for a "@v" pin
  /// (a static graph has no version history to pin into).
  virtual Result<LiveSnapshot> Admit(const Request& r) const;

  /// Step 2: the result-cache key of `r` admitted at `snap` (default:
  /// CacheKey(r)).
  virtual std::string CacheKeyFor(const Request& r,
                                  const LiveSnapshot& snap) const;

  /// Step 3: computes `r` at `snap` — the miss path, never cached here.
  virtual QueryResponse Compute(const Request& r,
                                const util::Deadline& deadline,
                                const LiveSnapshot& snap) = 0;

  /// Step 4: fills the backend's facts (graph identity, live overlay,
  /// shards) into `ctx`.
  virtual void AddStats(EngineStatsContext* ctx) const = 0;

  const EngineOptions options_;
  // Set by the backend's warmup.
  double warmup_seconds_ = 0.0;
  bool warm_from_cache_ = false;
  WarmStageSeconds warm_stages_ = {};

 private:
  struct Job;

  /// Everything after QoS admission, for one request. `seq` is the
  /// telemetry sequence claimed at submission (0 = claim now);
  /// `admitted` is the admission made at submission (null = admit now).
  QueryResponse Run(const Request& r, const util::Deadline& deadline,
                    uint64_t seq, uint64_t queue_wait_us, bool queued,
                    const Result<LiveSnapshot>* admitted);

  Telemetry telemetry_;
  std::unique_ptr<util::ShardedLruCache<std::string, std::string>> cache_;
  std::atomic<int64_t> inflight_{0};
  std::unique_ptr<QosExecutor> executor_;
  std::unique_ptr<TelemetryExporter> exporter_;
};

}  // namespace serve
}  // namespace elitenet

#endif  // ELITENET_SERVE_FRONT_DOOR_H_
