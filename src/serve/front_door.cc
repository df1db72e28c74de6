#include "serve/front_door.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "util/metrics.h"
#include "util/string_utils.h"
#include "util/trace.h"

namespace elitenet {
namespace serve {

namespace {

// Result-cache shard count: enough lock stripes for the worker counts a
// serving process runs with; no caller ever needed another value.
constexpr size_t kCacheShards = 8;

const char* SpanNameFor(RequestType type) {
  switch (type) {
    case RequestType::kEgoSummary:
      return "serve.ego";
    case RequestType::kTopKRank:
      return "serve.topk";
    case RequestType::kDistance:
      return "serve.dist";
    case RequestType::kNeighbors:
      return "serve.neighbors";
    case RequestType::kFingerprint:
      return "serve.fingerprint";
  }
  return "serve.unknown";
}

// The admission-control shed response:
// {"type":"error","code":"overloaded",...}. Never cached.
QueryResponse MakeOverloadedResponse(const Request& r) {
  QueryResponse resp;
  resp.ok = false;
  resp.json = ErrorJson(
      "overloaded",
      std::string(QosClassName(r.qos)) +
          " queue at capacity; request shed by admission control",
      CanonicalEncoding(r));
  return resp;
}

// The well-formed error response for an unparseable protocol line.
QueryResponse LineParseErrorResponse(std::string_view line,
                                     const Status& status) {
  QueryResponse resp;
  resp.ok = false;
  resp.json = ErrorJson(StatusCodeToString(status.code()), status.message(),
                        util::StripAsciiWhitespace(line));
  return resp;
}

util::Deadline DeadlineOf(const Request& r) {
  return r.deadline_us > 0 ? util::Deadline::After(r.deadline_us)
                           : util::Deadline::Infinite();
}

}  // namespace

/// One queued request. Held by shared_ptr because std::function is
/// copyable and std::promise is not.
struct FrontDoor::Job {
  Request req;
  util::Deadline deadline;
  std::promise<QueryResponse> promise;
  uint64_t seq = 0;
  std::chrono::steady_clock::time_point submitted;
  std::optional<Result<LiveSnapshot>> admitted;
};

FrontDoor::FrontDoor(const EngineOptions& options)
    : options_(options), telemetry_(options.telemetry) {
  if (options_.cache_capacity > 0) {
    cache_ = std::make_unique<util::ShardedLruCache<std::string, std::string>>(
        options_.cache_capacity, kCacheShards);
  }
}

FrontDoor::~FrontDoor() { Close(); }

void FrontDoor::Open() {
  executor_ =
      std::make_unique<QosExecutor>(std::max(1, options_.threads), options_.qos);
  if (!options_.metrics_path.empty()) {
    // Exposition implies recording: flip the util metrics switch so the
    // registry counters and sketches the snapshots embed (kernel work,
    // queue depths, warm-index cache) are live.
    util::SetMetricsEnabled(true);
    exporter_ = std::make_unique<TelemetryExporter>(
        &telemetry_, options_.metrics_path, options_.metrics_interval_ms,
        [this] { return StatsContext(); });
  }
}

void FrontDoor::Close() {
  exporter_.reset();
  // Drains queued jobs (their promises must be fulfilled) and joins the
  // workers.
  executor_.reset();
}

QueryResponse FrontDoor::Execute(const Request& r) {
  return Run(r, DeadlineOf(r), 0, 0, false, nullptr);
}

QueryResponse FrontDoor::Execute(const Request& r,
                                 const util::Deadline& deadline) {
  return Run(r, deadline, 0, 0, false, nullptr);
}

QueryResponse FrontDoor::ExecuteLine(std::string_view line) {
  auto parsed = ParseRequest(line);
  if (!parsed.ok()) {
    if (telemetry_.enabled()) telemetry_.RecordMalformedLine();
    return LineParseErrorResponse(line, parsed.status());
  }
  return Execute(*parsed);
}

QueryResponse FrontDoor::RejectLine(const Status& status) {
  if (telemetry_.enabled()) telemetry_.RecordMalformedLine();
  QueryResponse resp;
  resp.ok = false;
  resp.json = ErrorJson(StatusCodeToString(status.code()), status.message());
  return resp;
}

std::future<QueryResponse> FrontDoor::Submit(const Request& r) {
  auto job = std::make_shared<Job>();
  job->req = r;
  job->deadline = DeadlineOf(r);
  // Sequence numbers are claimed at submission (not execution) so a
  // replayed request stream maps to the same trace ids no matter how the
  // workers interleave.
  if (telemetry_.enabled()) job->seq = telemetry_.NextSeq();
  // Admission-time capture: the version a queued request answers at is
  // fixed here, before any queueing delay — so a request admitted at
  // version V answers at V no matter how long it waits or how many
  // mutations land meanwhile.
  job->admitted.emplace(Admit(r));
  job->submitted = std::chrono::steady_clock::now();
  std::future<QueryResponse> fut = job->promise.get_future();
  const bool admitted =
      executor_->Submit(r.qos, job->deadline, [this, job] {
        const uint64_t wait_us = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - job->submitted)
                .count());
        job->promise.set_value(Run(job->req, job->deadline, job->seq, wait_us,
                                   /*queued=*/true, &*job->admitted));
      });
  if (!admitted) {
    // Shed at admission: the class backlog is at its cap. The request
    // never executes (the scheduler tallied the shed); the caller gets
    // the overloaded error immediately instead of a timeout.
    job->promise.set_value(MakeOverloadedResponse(r));
  }
  return fut;
}

void FrontDoor::SubmitExempt(std::function<void()> fn) {
  executor_->SubmitExempt(std::move(fn));
}

Result<LiveSnapshot> FrontDoor::Admit(const Request& r) const {
  if (r.version != 0) {
    return Status::FailedPrecondition(
        "version pins require a live engine (static graph has no version "
        "history)");
  }
  return LiveSnapshot();
}

std::string FrontDoor::CacheKeyFor(const Request& r,
                                   const LiveSnapshot&) const {
  return CacheKey(r);
}

QueryResponse FrontDoor::Run(const Request& r, const util::Deadline& deadline,
                             uint64_t seq, uint64_t queue_wait_us, bool queued,
                             const Result<LiveSnapshot>* admitted) {
  Telemetry* tel = telemetry_.enabled() ? &telemetry_ : nullptr;
  uint64_t trace_id = 0;
  bool sampled = false;
  if (tel != nullptr) {
    if (seq == 0) seq = tel->NextSeq();
    trace_id = TraceIdFor(seq);
    sampled = tel->Sampled(trace_id);
  }
  // Sampled requests capture their span tree via the thread-local sink;
  // unsampled ones pay only the null-pointer check inside each span.
  std::optional<util::SpanCapture> capture;
  if (sampled) capture.emplace();

  inflight_.fetch_add(1, std::memory_order_relaxed);
  // Only the telemetry record reads the latency, so only it pays the
  // clock.
  std::chrono::steady_clock::time_point start;
  if (tel != nullptr) start = std::chrono::steady_clock::now();

  QueryResponse resp;
  {
    util::ScopedSpan span(SpanNameFor(r.type));
    std::optional<Result<LiveSnapshot>> admitted_now;
    if (admitted == nullptr) admitted = &admitted_now.emplace(Admit(r));
    if (!admitted->ok()) {
      resp = ErrorResponse(r, admitted->status());
    } else {
      const LiveSnapshot& snap = **admitted;
      std::string key;
      bool from_cache = false;
      if (cache_ != nullptr) {
        key = CacheKeyFor(r, snap);
        std::string cached;
        if (cache_->Get(key, &cached)) {
          resp.json = std::move(cached);
          resp.cache_hit = true;
          from_cache = true;
        }
      }
      if (!from_cache) {
        resp = Compute(r, deadline, snap);
        if (resp.ok && !resp.degraded && cache_ != nullptr) {
          cache_->Put(key, resp.json);
        }
      }
    }
  }  // root span closes here so a sampled capture sees its duration

  inflight_.fetch_sub(1, std::memory_order_relaxed);
  if (tel != nullptr) {
    RequestRecord record;
    record.trace_id = trace_id;
    record.seq = seq;
    record.request = r;
    record.ok = resp.ok;
    record.degraded = resp.degraded;
    record.cache_hit = resp.cache_hit;
    record.sampled = sampled;
    record.queued = queued;
    record.queue_wait_us = queue_wait_us;
    record.latency_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
    record.deadline_slack_us = deadline.RemainingMicros();
    record.deadline_missed =
        !deadline.infinite() && record.deadline_slack_us == 0;
    if (capture.has_value()) {
      record.spans = capture->Take();
      record.spans_truncated = capture->truncated();
    }
    tel->Record(std::move(record));
  }
  return resp;
}

int FrontDoor::threads() const {
  return executor_ != nullptr ? executor_->threads() : 0;
}

uint64_t FrontDoor::cache_hits() const {
  return cache_ != nullptr ? cache_->hits() : 0;
}

uint64_t FrontDoor::cache_misses() const {
  return cache_ != nullptr ? cache_->misses() : 0;
}

void FrontDoor::ClearResultCache() {
  if (cache_ != nullptr) cache_->Clear();
}

EngineStatsContext FrontDoor::StatsContext() const {
  EngineStatsContext ctx;
  ctx.workers = threads();
  ctx.cache_hits = cache_hits();
  ctx.cache_misses = cache_misses();
  ctx.warmup_seconds = warmup_seconds_;
  ctx.warm_from_cache = warm_from_cache_;
  ctx.warm_stages = warm_stages_;
  ctx.inflight = inflight_.load(std::memory_order_relaxed);
  if (executor_ != nullptr) {
    ctx.qos = true;
    for (size_t i = 0; i < kNumQosClasses; ++i) {
      const QosClass cls = QosClassAt(i);
      ctx.classes[i] = executor_->class_stats(cls);
      ctx.class_deadline_miss[i] = telemetry_.class_deadline_miss(cls);
    }
  }
  AddStats(&ctx);
  return ctx;
}

std::string FrontDoor::AdminResponse(const AdminCommand& cmd) const {
  switch (cmd.kind) {
    case AdminCommand::Kind::kStats:
      return RenderStatsJson(telemetry_, StatsContext());
    case AdminCommand::Kind::kHealthz:
      return RenderHealthzJson(telemetry_, StatsContext());
    case AdminCommand::Kind::kRecent:
      return RenderRecentJson(telemetry_, cmd.n);
    case AdminCommand::Kind::kSlow:
      return RenderSlowJson(telemetry_, cmd.n);
    case AdminCommand::Kind::kTrace:
      return RenderTraceJson(telemetry_, cmd.trace_id);
    case AdminCommand::Kind::kVersion:
      return RenderVersionJson(StatsContext());
    case AdminCommand::Kind::kOverlay:
      return RenderOverlayJson(StatsContext());
  }
  return "{\"type\":\"error\",\"code\":\"internal\",\"message\":\"unhandled "
         "admin command\"}";
}

}  // namespace serve
}  // namespace elitenet
