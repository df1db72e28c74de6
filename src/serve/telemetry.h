// Live telemetry plane for the serving layer: per-request trace ids, a
// flight recorder of recent request records, streaming latency sketches,
// SLO counters, line-protocol admin introspection, and a background
// exporter.
//
// Design constraints, in order:
//
//   1. *Determinism.* Telemetry observes, it never decides. Trace ids are
//      a pure function of the request sequence number (splitmix64), and
//      sampling is a pure function of the trace id — so a replayed
//      request stream is sampled identically, and response bytes are
//      byte-identical with telemetry on, off, or sampled, at any worker
//      count (asserted by bench_observability's serving mode).
//   2. *Hot-path cost.* Recording one request is: a handful of relaxed
//      atomic adds (SLO counters + sketches), one fetch_add to claim a
//      ring slot, and one uncontended per-slot mutex around a small
//      struct copy. No allocation unless the request was sampled (span
//      vector) — the canonical request string is rendered lazily, at
//      admin time. Budget: <1% of serving throughput at default
//      sampling (bench_observability asserts it).
//   3. *Introspection without the fast path.* Admin commands (#stats,
//      #healthz, #recent, #slow, #trace) read the rings and sketches
//      under per-slot locks only; they never touch the query queue.

#ifndef ELITENET_SERVE_TELEMETRY_H_
#define ELITENET_SERVE_TELEMETRY_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/delta_overlay.h"
#include "serve/request.h"
#include "serve/scheduler.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/trace.h"

namespace elitenet {
namespace serve {

/// Number of RequestType values (per-type counter/sketch array size).
inline constexpr size_t kNumRequestTypes = 5;

/// Trace id for the request with sequence number `seq` (1-based).
/// splitmix64: bijective, so distinct requests get distinct ids, and
/// deterministic, so a replayed stream traces identically.
uint64_t TraceIdFor(uint64_t seq);

/// 16 lowercase hex digits, zero-padded — the wire form of a trace id.
std::string TraceIdHex(uint64_t trace_id);

/// Parses a trace id as emitted by TraceIdHex (also accepts shorter hex
/// and an optional 0x prefix). Returns false on empty/invalid input.
bool ParseTraceId(std::string_view s, uint64_t* out);

/// Largest ring a FlightRecorder accepts, in records: 2^20 slots take
/// about 176 MiB on x86-64 before any span vectors. Front-ends reject
/// larger --flight-recorder / ELITENET_FLIGHT_RECORDER values.
inline constexpr size_t kMaxRecorderCapacity = size_t{1} << 20;

/// Slow-query ring capacity, in records (a power of two).
inline constexpr size_t kSlowRingCapacity = 64;

struct TelemetryOptions {
  /// Master switch: when false, requests skip recording entirely (the
  /// engine still answers identically — asserted by tests).
  bool enabled = true;
  /// Capture the full span tree for 1 in N requests (by trace id);
  /// 0 disables span capture, 1 captures every request.
  uint32_t sample_every = 64;
  /// Flight-recorder ring capacity (rounded up to a power of two; at
  /// most kMaxRecorderCapacity).
  size_t recorder_capacity = 256;
  /// A request at or over this latency is pinned into the slow ring
  /// (deadline misses are always pinned). 0 pins everything.
  uint64_t slow_us = 50000;
};

/// Everything remembered about one completed request.
struct RequestRecord {
  uint64_t trace_id = 0;
  uint64_t seq = 0;
  Request request;
  bool ok = true;
  bool degraded = false;
  bool cache_hit = false;
  bool sampled = false;
  bool queued = false;  ///< Went through Submit (vs synchronous Execute).
  bool deadline_missed = false;
  uint64_t latency_us = 0;
  uint64_t queue_wait_us = 0;  ///< Submit-to-drain delay (queued only).
  /// Deadline budget left at completion; UINT64_MAX = no deadline.
  uint64_t deadline_slack_us = UINT64_MAX;
  /// Span tree (sampled requests only; empty otherwise).
  std::vector<util::CapturedSpan> spans;
  bool spans_truncated = false;
};

/// Fixed-capacity overwrite-oldest ring of RequestRecords. Writers claim
/// a slot with one atomic fetch_add (no global lock, so concurrent
/// workers never serialize against each other) and copy the record under
/// that slot's own mutex; readers lock slots one at a time. Total pushes
/// ever is kept alongside, so "dropped = total - capacity" is exact.
class FlightRecorder {
 public:
  /// Capacity is rounded up to a power of two, minimum 1; capacities
  /// above kMaxRecorderCapacity are a fatal EN_CHECK.
  explicit FlightRecorder(size_t capacity);

  void Push(RequestRecord record);

  /// Up to `n` most recent records, newest first.
  std::vector<RequestRecord> Recent(size_t n) const;

  /// Finds the newest resident record with this trace id.
  bool FindTrace(uint64_t trace_id, RequestRecord* out) const;

  size_t capacity() const { return capacity_; }
  /// Records ever pushed (monotonic; resident = min(total, capacity)).
  uint64_t total() const { return head_.load(std::memory_order_relaxed); }

 private:
  struct Slot {
    mutable std::mutex mutex;
    uint64_t ticket = 0;  ///< 1 + push index; 0 = never written.
    RequestRecord record;
  };

  size_t capacity_;
  size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> head_{0};
};

/// Monotonic per-request-type SLO tallies (plain struct of values — the
/// atomic originals live inside Telemetry).
struct SloCounters {
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t degraded = 0;
  uint64_t deadline_miss = 0;
  uint64_t cache_hits = 0;
};

/// The serving telemetry plane: sequence numbers, sampling decisions,
/// SLO counters, per-type latency sketches, and the two rings. One
/// instance per FrontDoor; all methods are thread-safe.
class Telemetry {
 public:
  explicit Telemetry(const TelemetryOptions& options);

  const TelemetryOptions& options() const { return options_; }

  /// Live master switch, initialized from options().enabled. Runtime
  /// toggling lets an A/B measurement (bench_observability) compare
  /// on/off on one engine — same heap layout, so the delta is the code
  /// path, not allocator luck.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Next request sequence number (1-based, monotonic).
  uint64_t NextSeq() { return next_seq_.fetch_add(1, std::memory_order_relaxed); }

  /// Deterministic 1-in-sample_every decision by trace id.
  bool Sampled(uint64_t trace_id) const {
    return options_.sample_every > 0 &&
           trace_id % options_.sample_every == 0;
  }

  /// Folds one completed request into counters, sketches, and rings.
  void Record(RequestRecord record);

  const FlightRecorder& recent() const { return recent_; }
  const FlightRecorder& slow() const { return slow_; }

  /// Counters for one request type / summed over all types.
  SloCounters type_counters(RequestType type) const;
  SloCounters totals() const;

  /// Protocol lines that failed to parse. They get an error response but
  /// no record: a malformed line has no request type to file it under.
  void RecordMalformedLine() {
    malformed_lines_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t malformed_lines() const {
    return malformed_lines_.load(std::memory_order_relaxed);
  }

  /// Deadline misses for one QoS class (folded from each record's
  /// request.qos). Per-class request and shed tallies are the
  /// scheduler's (QosExecutor::class_stats).
  uint64_t class_deadline_miss(QosClass cls) const {
    return class_deadline_miss_[QosClassIndex(cls)].load(
        std::memory_order_relaxed);
  }

  /// Latency sketch for one request type; queue-wait sketch overall.
  const util::QuantileSketch& latency_sketch(RequestType type) const {
    return latency_[static_cast<size_t>(type)];
  }
  const util::QuantileSketch& queue_wait_sketch() const { return queue_wait_; }

 private:
  struct AtomicSlo {
    std::atomic<uint64_t> requests{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> degraded{0};
    std::atomic<uint64_t> deadline_miss{0};
    std::atomic<uint64_t> cache_hits{0};
  };

  TelemetryOptions options_;
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> next_seq_{1};
  AtomicSlo per_type_[kNumRequestTypes];
  std::atomic<uint64_t> malformed_lines_{0};
  std::atomic<uint64_t> class_deadline_miss_[kNumQosClasses] = {};
  util::QuantileSketch latency_[kNumRequestTypes];
  util::QuantileSketch queue_wait_;
  FlightRecorder recent_;
  FlightRecorder slow_;
};

// ---------------------------------------------------------------------------
// Admin introspection (the '#'-prefixed line-protocol commands).

struct AdminCommand {
  enum class Kind : uint8_t {
    kStats,
    kHealthz,
    kRecent,
    kSlow,
    kTrace,
    kVersion,  ///< #version — graph version / epoch / compaction facts.
    kOverlay,  ///< #overlay — live overlay row/tombstone counters.
  };
  Kind kind = Kind::kStats;
  size_t n = 16;          ///< #recent / #slow record count.
  uint64_t trace_id = 0;  ///< #trace argument.
};

/// Parses a '#'-prefixed admin line. Returns NotFound for lines that are
/// not admin commands (plain comments — callers skip them silently, which
/// keeps old request files with '#' comments working) and InvalidArgument
/// for a recognized admin verb with bad arguments (callers answer with an
/// error line).
Result<AdminCommand> ParseAdminLine(std::string_view line);

/// The stages of the warm-index build (serve::ComputeWarmIndexes), in
/// build order. Each runs under the trace span WarmStageSpan(stage),
/// "serve.warm.<name>".
enum WarmStage : size_t {
  kWarmDegree,
  kWarmMutual,
  kWarmHeavyReach,
  kWarmComponents,
  kWarmPageRank,
  kWarmFingerprint,
  kNumWarmStages,
};
const char* WarmStageSpan(WarmStage stage);

/// Seconds of each warm-build stage, indexed by WarmStage.
using WarmStageSeconds = std::array<double, kNumWarmStages>;

/// Engine-side facts the renderers need but Telemetry does not own.
struct EngineStatsContext {
  uint64_t nodes = 0;
  uint64_t edges = 0;
  int workers = 1;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double warmup_seconds = 0.0;
  bool warm_from_cache = false;
  /// Per-stage seconds of the warm build; RenderStatsJson reports them
  /// only when the indexes were built, not restored from the sidecar.
  WarmStageSeconds warm_stages = {};
  int64_t inflight = 0;
  /// Live-engine facts (engine.cc fills them from LiveGraph::Stats).
  /// When false the #version/#overlay verbs still answer — with
  /// live:false and the static graph identity — and RenderStatsJson
  /// omits its "live" block.
  bool live = false;
  OverlayStats overlay;
  /// QoS scheduler facts: when `qos` is true, RenderStatsJson emits a
  /// "classes" section from `classes` (scheduler tallies merged with the
  /// per-class deadline-miss counters) and RenderHealthzJson derives its
  /// degraded flag from the shed counts.
  bool qos = false;
  QosClassStats classes[kNumQosClasses] = {};
  uint64_t class_deadline_miss[kNumQosClasses] = {};
  /// Sharded-router facts: one entry per shard (empty on a plain
  /// engine). RenderStatsJson emits a "shards" array when non-empty.
  struct ShardEntry {
    int id = 0;
    uint64_t nodes = 0;  ///< Nodes homed on the shard.
  };
  std::vector<ShardEntry> shards;
  /// Hub rows replicated on every shard (router only; 0 otherwise).
  uint64_t hub_replicas = 0;
};

/// All renderers emit exactly one line of JSON (no trailing newline) —
/// the admin channel shares the one-JSON-object-per-line wire contract
/// with query responses.
std::string RenderStatsJson(const Telemetry& t, const EngineStatsContext& ctx);
std::string RenderHealthzJson(const Telemetry& t,
                              const EngineStatsContext& ctx);
/// #version: graph version, epoch, base version, compaction recency.
std::string RenderVersionJson(const EngineStatsContext& ctx);
/// #overlay: overlay rows/entries/tombstones, high-water marks, churn
/// tallies, current reciprocity.
std::string RenderOverlayJson(const EngineStatsContext& ctx);
std::string RenderRecentJson(const Telemetry& t, size_t n);
std::string RenderSlowJson(const Telemetry& t, size_t n);
std::string RenderTraceJson(const Telemetry& t, uint64_t trace_id);

/// One RequestRecord as a JSON object (shared by #recent/#slow/#trace).
std::string RenderRecordJson(const RequestRecord& record);

/// Human-readable multi-line summary for clean-shutdown printing.
std::string RenderSummaryText(const Telemetry& t);

// ---------------------------------------------------------------------------
// Background exporter.

/// Periodically writes a combined JSON snapshot (engine stats + SLO
/// burn rates + the util::MetricsRegistry snapshot) to `path` and a
/// Prometheus text-format snapshot to `path + ".prom"`. Writes are
/// atomic (temp file + rename) so scrapers never see a torn file. The
/// exporter is the one writer of `path`: it takes over an ELITENET_METRICS
/// exit dump to the same file. The exporter thread touches only
/// telemetry state — never the query path.
class TelemetryExporter {
 public:
  /// `stats_fn` supplies the engine-side context per snapshot; it must
  /// stay valid until Stop()/destruction.
  TelemetryExporter(const Telemetry* telemetry, std::string path,
                    int interval_ms,
                    std::function<EngineStatsContext()> stats_fn);
  ~TelemetryExporter();

  TelemetryExporter(const TelemetryExporter&) = delete;
  TelemetryExporter& operator=(const TelemetryExporter&) = delete;

  /// Stops the thread after one final write. Idempotent.
  void Stop();

  /// Snapshots written so far (testing/diagnostics).
  uint64_t writes() const { return writes_.load(std::memory_order_relaxed); }

 private:
  void Loop();
  void WriteOnce(double interval_seconds);

  const Telemetry* telemetry_;
  std::string path_;
  int interval_ms_;
  std::function<EngineStatsContext()> stats_fn_;
  std::atomic<uint64_t> writes_{0};
  /// Totals at the previous snapshot, for burn-rate deltas.
  SloCounters last_totals_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace serve
}  // namespace elitenet

#endif  // ELITENET_SERVE_TELEMETRY_H_
