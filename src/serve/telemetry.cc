#include "serve/telemetry.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "util/check.h"
#include "util/string_utils.h"

namespace elitenet {
namespace serve {

namespace {

void AppendU64(std::string* out, uint64_t v) { *out += std::to_string(v); }

void AppendBool(std::string* out, bool v) { *out += v ? "true" : "false"; }

// "#<verb><what>", built by appends: GCC 12 at -O3 misreads
// `"#" + std::string(verb)` as an overlapping copy (-Wrestrict).
std::string VerbMessage(std::string_view verb, std::string_view what) {
  std::string msg = "#";
  msg.append(verb).append(what);
  return msg;
}

// Ring size: `v` rounded up to a power of two, minimum 1. The cap keeps
// the doubling loop finite and the slot array allocatable.
size_t RingCapacity(size_t v) {
  EN_CHECK(v <= kMaxRecorderCapacity);
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

uint64_t TraceIdFor(uint64_t seq) {
  // splitmix64 finalizer: bijective on uint64, so ids never collide and
  // low bits are well mixed (the sampling modulus uses them).
  uint64_t z = seq + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string TraceIdHex(uint64_t trace_id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, trace_id);
  return buf;
}

bool ParseTraceId(std::string_view s, uint64_t* out) {
  if (s.size() >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
    s.remove_prefix(2);
  }
  if (s.empty() || s.size() > 16) return false;
  uint64_t v = 0;
  for (char c : s) {
    int digit;
    if (c >= '0' && c <= '9') {
      digit = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      digit = c - 'a' + 10;
    } else if (c >= 'A' && c <= 'F') {
      digit = c - 'A' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<uint64_t>(digit);
  }
  *out = v;
  return true;
}

// ---------------------------------------------------------------------------
// FlightRecorder

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(RingCapacity(capacity)),
      mask_(capacity_ - 1),
      slots_(new Slot[capacity_]) {}

void FlightRecorder::Push(RequestRecord record) {
  const uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[static_cast<size_t>(ticket) & mask_];
  std::lock_guard<std::mutex> lock(slot.mutex);
  // A slower writer can hold a ticket for an already-lapped slot; never
  // let it overwrite a newer record.
  if (slot.ticket > ticket + 1) return;
  slot.ticket = ticket + 1;
  slot.record = std::move(record);
}

std::vector<RequestRecord> FlightRecorder::Recent(size_t n) const {
  std::vector<std::pair<uint64_t, RequestRecord>> found;
  found.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.ticket > 0) found.emplace_back(slot.ticket, slot.record);
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (found.size() > n) found.resize(n);
  std::vector<RequestRecord> out;
  out.reserve(found.size());
  for (auto& f : found) out.push_back(std::move(f.second));
  return out;
}

bool FlightRecorder::FindTrace(uint64_t trace_id, RequestRecord* out) const {
  uint64_t best_ticket = 0;
  for (size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.ticket > best_ticket && slot.record.trace_id == trace_id) {
      best_ticket = slot.ticket;
      *out = slot.record;
    }
  }
  return best_ticket > 0;
}

// ---------------------------------------------------------------------------
// Telemetry

Telemetry::Telemetry(const TelemetryOptions& options)
    : options_(options),
      enabled_(options.enabled),
      recent_(options.recorder_capacity),
      slow_(kSlowRingCapacity) {}

void Telemetry::Record(RequestRecord record) {
  const size_t type = static_cast<size_t>(record.request.type);
  if (type >= kNumRequestTypes) return;
  AtomicSlo& slo = per_type_[type];
  slo.requests.fetch_add(1, std::memory_order_relaxed);
  if (!record.ok) slo.errors.fetch_add(1, std::memory_order_relaxed);
  if (record.degraded) slo.degraded.fetch_add(1, std::memory_order_relaxed);
  if (record.deadline_missed) {
    slo.deadline_miss.fetch_add(1, std::memory_order_relaxed);
    class_deadline_miss_[QosClassIndex(record.request.qos)].fetch_add(
        1, std::memory_order_relaxed);
  }
  if (record.cache_hit) slo.cache_hits.fetch_add(1, std::memory_order_relaxed);
  latency_[type].Observe(record.latency_us);
  if (record.queued) queue_wait_.Observe(record.queue_wait_us);

  const bool slow = record.latency_us >= options_.slow_us ||
                    record.deadline_missed;
  if (slow) slow_.Push(record);  // copy: the record also goes to recent_
  recent_.Push(std::move(record));
}

SloCounters Telemetry::type_counters(RequestType type) const {
  const AtomicSlo& slo = per_type_[static_cast<size_t>(type)];
  SloCounters out;
  out.requests = slo.requests.load(std::memory_order_relaxed);
  out.errors = slo.errors.load(std::memory_order_relaxed);
  out.degraded = slo.degraded.load(std::memory_order_relaxed);
  out.deadline_miss = slo.deadline_miss.load(std::memory_order_relaxed);
  out.cache_hits = slo.cache_hits.load(std::memory_order_relaxed);
  return out;
}

SloCounters Telemetry::totals() const {
  SloCounters out;
  for (size_t i = 0; i < kNumRequestTypes; ++i) {
    const SloCounters c = type_counters(static_cast<RequestType>(i));
    out.requests += c.requests;
    out.errors += c.errors;
    out.degraded += c.degraded;
    out.deadline_miss += c.deadline_miss;
    out.cache_hits += c.cache_hits;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Admin parsing

Result<AdminCommand> ParseAdminLine(std::string_view line) {
  std::string_view s = util::StripAsciiWhitespace(line);
  if (s.empty() || s.front() != '#') {
    return Status::NotFound("not an admin line");
  }
  s.remove_prefix(1);
  s = util::StripAsciiWhitespace(s);

  // Split into verb + rest on first whitespace run.
  size_t sp = s.find_first_of(" \t");
  const std::string_view verb = s.substr(0, sp);
  std::string_view rest =
      sp == std::string_view::npos ? std::string_view{} : s.substr(sp);
  rest = util::StripAsciiWhitespace(rest);

  AdminCommand cmd;
  if (verb == "stats" || verb == "healthz" || verb == "version" ||
      verb == "overlay") {
    cmd.kind = verb == "stats"     ? AdminCommand::Kind::kStats
               : verb == "healthz" ? AdminCommand::Kind::kHealthz
               : verb == "version" ? AdminCommand::Kind::kVersion
                                   : AdminCommand::Kind::kOverlay;
    if (!rest.empty()) {
      return Status::InvalidArgument(VerbMessage(verb, " takes no arguments"));
    }
    return cmd;
  }
  if (verb == "recent" || verb == "slow") {
    cmd.kind = verb == "recent" ? AdminCommand::Kind::kRecent
                                : AdminCommand::Kind::kSlow;
    if (!rest.empty()) {
      if (rest.find_first_not_of("0123456789") != std::string_view::npos) {
        std::string msg =
            VerbMessage(verb, " count must be a non-negative integer, got \"");
        msg.append(rest).append("\"");
        return Status::InvalidArgument(msg);
      }
      errno = 0;
      const unsigned long long n = std::strtoull(std::string(rest).c_str(),
                                                 nullptr, 10);
      if (errno != 0) {
        return Status::InvalidArgument(
            VerbMessage(verb, " count out of range"));
      }
      cmd.n = static_cast<size_t>(n);
    }
    return cmd;
  }
  if (verb == "trace") {
    cmd.kind = AdminCommand::Kind::kTrace;
    if (rest.empty() || !ParseTraceId(rest, &cmd.trace_id)) {
      std::string msg = "#trace needs a 16-hex-digit trace id, got \"";
      msg.append(rest).append("\"");
      return Status::InvalidArgument(msg);
    }
    return cmd;
  }
  // Anything else after '#' is a comment, exactly as before this command
  // channel existed.
  std::string msg = "not an admin verb: ";
  msg.append(verb);
  return Status::NotFound(msg);
}

// ---------------------------------------------------------------------------
// Rendering

namespace {

void AppendSloJson(std::string* j, const SloCounters& c) {
  *j += "{\"requests\":";
  AppendU64(j, c.requests);
  *j += ",\"errors\":";
  AppendU64(j, c.errors);
  *j += ",\"degraded\":";
  AppendU64(j, c.degraded);
  *j += ",\"deadline_miss\":";
  AppendU64(j, c.deadline_miss);
  *j += ",\"cache_hits\":";
  AppendU64(j, c.cache_hits);
  *j += '}';
}

void AppendSketchJson(std::string* j, const util::QuantileSketch& s) {
  char buf[64];
  *j += "{\"count\":";
  AppendU64(j, s.count());
  *j += ",\"max_us\":";
  AppendU64(j, s.MaxEstimate());
  std::snprintf(buf, sizeof(buf),
                ",\"p50_us\":%.1f,\"p95_us\":%.1f,\"p99_us\":%.1f}",
                s.Quantile(0.5), s.Quantile(0.95), s.Quantile(0.99));
  *j += buf;
}

}  // namespace

std::string RenderRecordJson(const RequestRecord& r) {
  std::string j = "{\"trace_id\":\"";
  j += TraceIdHex(r.trace_id);
  j += "\",\"seq\":";
  AppendU64(&j, r.seq);
  j += ",\"request\":\"";
  j += JsonEscape(CanonicalEncoding(r.request));
  j += "\",\"type\":\"";
  j += RequestTypeName(r.request.type);
  j += "\",\"ok\":";
  AppendBool(&j, r.ok);
  j += ",\"degraded\":";
  AppendBool(&j, r.degraded);
  j += ",\"cache_hit\":";
  AppendBool(&j, r.cache_hit);
  j += ",\"queued\":";
  AppendBool(&j, r.queued);
  j += ",\"latency_us\":";
  AppendU64(&j, r.latency_us);
  if (r.queued) {
    j += ",\"queue_wait_us\":";
    AppendU64(&j, r.queue_wait_us);
  }
  j += ",\"deadline_slack_us\":";
  if (r.deadline_slack_us == UINT64_MAX) {
    j += "null";
  } else {
    AppendU64(&j, r.deadline_slack_us);
  }
  j += ",\"deadline_missed\":";
  AppendBool(&j, r.deadline_missed);
  j += ",\"sampled\":";
  AppendBool(&j, r.sampled);
  if (r.sampled) {
    j += ",\"spans\":[";
    for (size_t i = 0; i < r.spans.size(); ++i) {
      const util::CapturedSpan& s = r.spans[i];
      if (i > 0) j += ',';
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"start_us\":%.1f,\"dur_us\":%.1f,"
                    "\"depth\":%d}",
                    s.name == nullptr ? "?" : s.name,
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.duration_ns) / 1e3,
                    static_cast<int>(s.depth));
      j += buf;
    }
    j += "],\"spans_truncated\":";
    AppendBool(&j, r.spans_truncated);
  }
  j += '}';
  return j;
}

namespace {

constexpr const char* kWarmStageSpans[kNumWarmStages] = {
    "serve.warm.degree",     "serve.warm.mutual",   "serve.warm.heavy_reach",
    "serve.warm.components", "serve.warm.pagerank", "serve.warm.fingerprint",
};
constexpr size_t kWarmSpanPrefix = sizeof("serve.warm.") - 1;

}  // namespace

const char* WarmStageSpan(WarmStage stage) { return kWarmStageSpans[stage]; }

std::string RenderStatsJson(const Telemetry& t, const EngineStatsContext& ctx) {
  std::string j = "{\"type\":\"stats\",\"graph\":{\"nodes\":";
  AppendU64(&j, ctx.nodes);
  j += ",\"edges\":";
  AppendU64(&j, ctx.edges);
  j += "},\"workers\":";
  AppendU64(&j, static_cast<uint64_t>(ctx.workers));
  j += ",\"inflight\":";
  j += std::to_string(ctx.inflight);
  j += ",\"warmup_seconds\":";
  j += JsonDouble(ctx.warmup_seconds);
  j += ",\"warm_from_cache\":";
  AppendBool(&j, ctx.warm_from_cache);
  if (!ctx.warm_from_cache) {
    j += ",\"warm_stage_seconds\":{";
    for (size_t i = 0; i < kNumWarmStages; ++i) {
      if (i > 0) j += ',';
      j += '"';
      j += kWarmStageSpans[i] + kWarmSpanPrefix;
      j += "\":";
      j += JsonDouble(ctx.warm_stages[i]);
    }
    j += '}';
  }
  j += ",\"cache\":{\"hits\":";
  AppendU64(&j, ctx.cache_hits);
  j += ",\"misses\":";
  AppendU64(&j, ctx.cache_misses);
  j += "},\"totals\":";
  AppendSloJson(&j, t.totals());
  j += ",\"malformed_lines\":";
  AppendU64(&j, t.malformed_lines());
  j += ",\"per_type\":{";
  for (size_t i = 0; i < kNumRequestTypes; ++i) {
    const RequestType type = static_cast<RequestType>(i);
    if (i > 0) j += ',';
    j += '"';
    j += RequestTypeName(type);
    j += "\":{\"slo\":";
    AppendSloJson(&j, t.type_counters(type));
    j += ",\"latency\":";
    AppendSketchJson(&j, t.latency_sketch(type));
    j += '}';
  }
  j += '}';
  if (ctx.qos) {
    // QoS plane: scheduler tallies (queue depth, admission caps, sheds)
    // merged with the telemetry-side per-class deadline misses.
    j += ",\"classes\":{";
    for (size_t i = 0; i < kNumQosClasses; ++i) {
      const QosClassStats& c = ctx.classes[i];
      if (i > 0) j += ',';
      j += '"';
      j += QosClassName(QosClassAt(i));
      j += "\":{\"queue_depth\":";
      AppendU64(&j, c.queue_depth);
      j += ",\"cap\":";
      AppendU64(&j, c.cap);
      j += ",\"submitted\":";
      AppendU64(&j, c.submitted);
      j += ",\"executed\":";
      AppendU64(&j, c.executed);
      j += ",\"shed\":";
      AppendU64(&j, c.shed);
      j += ",\"deadline_miss\":";
      AppendU64(&j, ctx.class_deadline_miss[i]);
      j += '}';
    }
    j += '}';
  }
  if (!ctx.shards.empty()) {
    j += ",\"shards\":[";
    for (size_t i = 0; i < ctx.shards.size(); ++i) {
      const EngineStatsContext::ShardEntry& s = ctx.shards[i];
      if (i > 0) j += ',';
      j += "{\"id\":";
      AppendU64(&j, static_cast<uint64_t>(s.id));
      j += ",\"nodes\":";
      AppendU64(&j, s.nodes);
      j += '}';
    }
    j += "],\"hub_replicas\":";
    AppendU64(&j, ctx.hub_replicas);
  }
  if (ctx.live) {
    // The exporter embeds this snapshot, so the mutation plane rides in
    // every scrape without a second admin round-trip.
    j += ",\"live\":{\"version\":";
    AppendU64(&j, ctx.overlay.applied);
    j += ",\"base_version\":";
    AppendU64(&j, ctx.overlay.base_version);
    j += ",\"epoch\":";
    AppendU64(&j, ctx.overlay.epoch_seq);
    j += ",\"overlay_rows\":";
    AppendU64(&j, ctx.overlay.overlay_rows_fwd + ctx.overlay.overlay_rows_rev);
    j += ",\"overlay_entries\":";
    AppendU64(&j, ctx.overlay.overlay_entries);
    j += ",\"tombstones\":";
    AppendU64(&j, ctx.overlay.tombstones);
    j += ",\"compactions\":";
    AppendU64(&j, ctx.overlay.compactions);
    j += ",\"seconds_since_compaction\":";
    j += JsonDouble(ctx.overlay.seconds_since_compaction);
    j += '}';
  }
  j += ",\"queue_wait\":";
  AppendSketchJson(&j, t.queue_wait_sketch());
  j += ",\"recorder\":{\"capacity\":";
  AppendU64(&j, t.recent().capacity());
  j += ",\"total\":";
  AppendU64(&j, t.recent().total());
  j += ",\"slow_capacity\":";
  AppendU64(&j, t.slow().capacity());
  j += ",\"slow_total\":";
  AppendU64(&j, t.slow().total());
  j += "},\"sampling\":{\"every\":";
  AppendU64(&j, t.options().sample_every);
  j += ",\"slow_us\":";
  AppendU64(&j, t.options().slow_us);
  j += "}}";
  return j;
}

std::string RenderHealthzJson(const Telemetry& t,
                              const EngineStatsContext& ctx) {
  const SloCounters totals = t.totals();
  std::string j = "{\"type\":\"healthz\",\"ok\":true,\"workers\":";
  AppendU64(&j, static_cast<uint64_t>(ctx.workers));
  j += ",\"inflight\":";
  j += std::to_string(ctx.inflight);
  j += ",\"requests\":";
  AppendU64(&j, totals.requests);
  j += ",\"errors\":";
  AppendU64(&j, totals.errors);
  j += ",\"degraded\":";
  AppendU64(&j, totals.degraded);
  j += ",\"deadline_miss\":";
  AppendU64(&j, totals.deadline_miss);
  if (ctx.qos) {
    // Degraded = any class has shed since start (latching by design: an
    // operator polling #healthz learns the server *has* saturated, then
    // reads #stats for the live backlog). Interactive capacity intact is
    // the SLO the shed order protects, so the shedding classes are named.
    bool degraded = false;
    j += ",\"shedding\":[";
    bool first = true;
    for (size_t i = 0; i < kNumQosClasses; ++i) {
      if (ctx.classes[i].shed == 0) continue;
      degraded = true;
      if (!first) j += ',';
      first = false;
      j += '"';
      j += QosClassName(QosClassAt(i));
      j += '"';
    }
    j += "],\"qos_degraded\":";
    AppendBool(&j, degraded);
  }
  j += '}';
  return j;
}

std::string RenderVersionJson(const EngineStatsContext& ctx) {
  std::string j = "{\"type\":\"version\",\"live\":";
  AppendBool(&j, ctx.live);
  j += ",\"version\":";
  AppendU64(&j, ctx.overlay.applied);
  j += ",\"base_version\":";
  AppendU64(&j, ctx.overlay.base_version);
  j += ",\"epoch\":";
  AppendU64(&j, ctx.overlay.epoch_seq);
  j += ",\"nodes\":";
  AppendU64(&j, ctx.nodes);
  j += ",\"edges\":";
  AppendU64(&j, ctx.edges);
  j += ",\"base_edges\":";
  AppendU64(&j, ctx.live ? ctx.overlay.base_edges : ctx.edges);
  j += ",\"compactions\":";
  AppendU64(&j, ctx.overlay.compactions);
  j += ",\"seconds_since_compaction\":";
  j += JsonDouble(ctx.overlay.seconds_since_compaction);
  j += ",\"recovered\":";
  AppendU64(&j, ctx.overlay.recovered);
  j += '}';
  return j;
}

std::string RenderOverlayJson(const EngineStatsContext& ctx) {
  const OverlayStats& o = ctx.overlay;
  std::string j = "{\"type\":\"overlay\",\"live\":";
  AppendBool(&j, ctx.live);
  j += ",\"applied\":";
  AppendU64(&j, o.applied);
  j += ",\"follows\":";
  AppendU64(&j, o.follows);
  j += ",\"unfollows\":";
  AppendU64(&j, o.unfollows);
  j += ",\"noops\":";
  AppendU64(&j, o.noops);
  j += ",\"edges\":";
  AppendU64(&j, ctx.live ? o.live_edges : ctx.edges);
  j += ",\"reciprocity\":";
  j += JsonDouble(o.live_edges > 0 ? static_cast<double>(o.reciprocated_edges) /
                                         static_cast<double>(o.live_edges)
                                   : 0.0);
  j += ",\"rows_fwd\":";
  AppendU64(&j, o.overlay_rows_fwd);
  j += ",\"rows_rev\":";
  AppendU64(&j, o.overlay_rows_rev);
  j += ",\"entries\":";
  AppendU64(&j, o.overlay_entries);
  j += ",\"tombstones\":";
  AppendU64(&j, o.tombstones);
  j += ",\"overlay_adds\":";
  AppendU64(&j, o.overlay_adds);
  j += ",\"retired_rows\":";
  AppendU64(&j, o.retired_rows);
  j += ",\"hw_rows\":";
  AppendU64(&j, o.hw_rows);
  j += ",\"hw_entries\":";
  AppendU64(&j, o.hw_entries);
  j += ",\"seconds_since_compaction\":";
  j += JsonDouble(o.seconds_since_compaction);
  j += '}';
  return j;
}

namespace {

std::string RenderRecordListJson(const char* type, uint64_t total,
                                 const std::vector<RequestRecord>& records) {
  std::string j = "{\"type\":\"";
  j += type;
  j += "\",\"total\":";
  AppendU64(&j, total);
  j += ",\"returned\":";
  AppendU64(&j, records.size());
  j += ",\"records\":[";
  for (size_t i = 0; i < records.size(); ++i) {
    if (i > 0) j += ',';
    j += RenderRecordJson(records[i]);
  }
  j += "]}";
  return j;
}

}  // namespace

std::string RenderRecentJson(const Telemetry& t, size_t n) {
  return RenderRecordListJson("recent", t.recent().total(),
                              t.recent().Recent(n));
}

std::string RenderSlowJson(const Telemetry& t, size_t n) {
  return RenderRecordListJson("slow", t.slow().total(), t.slow().Recent(n));
}

std::string RenderTraceJson(const Telemetry& t, uint64_t trace_id) {
  RequestRecord record;
  bool found = t.recent().FindTrace(trace_id, &record);
  if (!found) found = t.slow().FindTrace(trace_id, &record);
  std::string j = "{\"type\":\"trace\",\"trace_id\":\"";
  j += TraceIdHex(trace_id);
  j += "\",\"found\":";
  AppendBool(&j, found);
  if (found) {
    j += ",\"record\":";
    j += RenderRecordJson(record);
  }
  j += '}';
  return j;
}

std::string RenderSummaryText(const Telemetry& t) {
  std::string out = "serve telemetry summary:\n";
  char buf[256];
  const SloCounters totals = t.totals();
  std::snprintf(buf, sizeof(buf),
                "  requests=%llu errors=%llu degraded=%llu deadline_miss=%llu"
                " cache_hits=%llu malformed_lines=%llu\n",
                static_cast<unsigned long long>(totals.requests),
                static_cast<unsigned long long>(totals.errors),
                static_cast<unsigned long long>(totals.degraded),
                static_cast<unsigned long long>(totals.deadline_miss),
                static_cast<unsigned long long>(totals.cache_hits),
                static_cast<unsigned long long>(t.malformed_lines()));
  out += buf;
  for (size_t i = 0; i < kNumRequestTypes; ++i) {
    const RequestType type = static_cast<RequestType>(i);
    const util::QuantileSketch& s = t.latency_sketch(type);
    if (s.count() == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "  %-12s n=%llu p50=%.0fus p95=%.0fus p99=%.0fus "
                  "max=%lluus\n",
                  RequestTypeName(type),
                  static_cast<unsigned long long>(s.count()), s.Quantile(0.5),
                  s.Quantile(0.95), s.Quantile(0.99),
                  static_cast<unsigned long long>(s.MaxEstimate()));
    out += buf;
  }
  if (t.queue_wait_sketch().count() > 0) {
    const util::QuantileSketch& q = t.queue_wait_sketch();
    std::snprintf(buf, sizeof(buf),
                  "  queue_wait   n=%llu p50=%.0fus p95=%.0fus p99=%.0fus\n",
                  static_cast<unsigned long long>(q.count()), q.Quantile(0.5),
                  q.Quantile(0.95), q.Quantile(0.99));
    out += buf;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Exporter

namespace {

// Atomic whole-file replace: write to a sibling temp path, then rename.
// Scrapers tailing `path` never observe a torn snapshot.
Status WriteFileAtomic(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open metrics output: " + tmp);
  }
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (written != body.size()) {
    std::remove(tmp.c_str());
    return Status::IoError("short write to metrics output: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename metrics output into place: " + path);
  }
  return Status::OK();
}

// The registry's families, then the serving plane's. Every per-request
// number lives here once, under one family name.
std::string RenderPrometheusText(const Telemetry& t,
                                 const EngineStatsContext& ctx) {
  std::string out = util::MetricsRegistry::Global().Snapshot()
                        .ToPrometheusText();
  char buf[160];
  auto counter = [&](const char* name, uint64_t v) {
    std::snprintf(buf, sizeof(buf),
                  "# TYPE %s counter\n%s %llu\n", name, name,
                  static_cast<unsigned long long>(v));
    out += buf;
  };
  // One summary's samples: quantiles plus _count. `labels` is empty or
  // one `key="value"` pair.
  auto summary = [&](const char* name, std::string labels,
                     const util::QuantileSketch& s) {
    const std::string prefix = labels.empty() ? labels : labels + ',';
    for (double q : {0.5, 0.95, 0.99}) {
      std::snprintf(buf, sizeof(buf), "%s{%squantile=\"%g\"} %.1f\n", name,
                    prefix.c_str(), q, s.Quantile(q));
      out += buf;
    }
    if (!labels.empty()) labels = '{' + labels + '}';
    std::snprintf(buf, sizeof(buf), "%s_count%s %llu\n", name, labels.c_str(),
                  static_cast<unsigned long long>(s.count()));
    out += buf;
  };
  const SloCounters totals = t.totals();
  counter("elitenet_serve_slo_requests_total", totals.requests);
  counter("elitenet_serve_slo_errors_total", totals.errors);
  counter("elitenet_serve_slo_degraded_total", totals.degraded);
  counter("elitenet_serve_slo_deadline_miss_total", totals.deadline_miss);
  counter("elitenet_serve_malformed_lines_total", t.malformed_lines());
  counter("elitenet_serve_cache_hits_total", ctx.cache_hits);
  counter("elitenet_serve_cache_misses_total", ctx.cache_misses);
  std::snprintf(buf, sizeof(buf),
                "# TYPE elitenet_serve_inflight gauge\n"
                "elitenet_serve_inflight %lld\n",
                static_cast<long long>(ctx.inflight));
  out += buf;
  if (ctx.qos) {
    out += "# TYPE elitenet_serve_qos_shed_total counter\n";
    for (size_t i = 0; i < kNumQosClasses; ++i) {
      std::snprintf(buf, sizeof(buf),
                    "elitenet_serve_qos_shed_total{class=\"%s\"} %llu\n",
                    QosClassName(QosClassAt(i)),
                    static_cast<unsigned long long>(ctx.classes[i].shed));
      out += buf;
    }
  }
  out += "# TYPE elitenet_serve_latency_us summary\n";
  for (size_t i = 0; i < kNumRequestTypes; ++i) {
    const RequestType type = static_cast<RequestType>(i);
    summary("elitenet_serve_latency_us",
            std::string("rtype=\"") + RequestTypeName(type) + '"',
            t.latency_sketch(type));
  }
  out += "# TYPE elitenet_serve_queue_wait_us summary\n";
  summary("elitenet_serve_queue_wait_us", "", t.queue_wait_sketch());
  return out;
}

}  // namespace

TelemetryExporter::TelemetryExporter(
    const Telemetry* telemetry, std::string path, int interval_ms,
    std::function<EngineStatsContext()> stats_fn)
    : telemetry_(telemetry),
      path_(std::move(path)),
      interval_ms_(std::max(1, interval_ms)),
      stats_fn_(std::move(stats_fn)),
      thread_([this] { Loop(); }) {
  // Every snapshot embeds the registry under "metrics", so an
  // ELITENET_METRICS exit dump to the same file would only overwrite the
  // final snapshot with less.
  util::ClaimMetricsExitDump(path_);
}

TelemetryExporter::~TelemetryExporter() { Stop(); }

void TelemetryExporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Final snapshot so a clean shutdown always leaves the latest counters
  // on disk.
  WriteOnce(static_cast<double>(interval_ms_) / 1e3);
}

void TelemetryExporter::Loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                     [this] { return stop_; })) {
      break;
    }
    lock.unlock();
    WriteOnce(static_cast<double>(interval_ms_) / 1e3);
    lock.lock();
  }
}

void TelemetryExporter::WriteOnce(double interval_seconds) {
  const EngineStatsContext ctx = stats_fn_ ? stats_fn_() : EngineStatsContext{};
  const SloCounters totals = telemetry_->totals();
  // Burn rates over the snapshot interval: the per-second consumption of
  // each SLO budget, the signal an admission controller acts on.
  const double dt = interval_seconds > 0 ? interval_seconds : 1.0;
  auto rate = [&](uint64_t now, uint64_t then) {
    return static_cast<double>(now - then) / dt;
  };
  std::string j = "{\n\"stats\": ";
  j += RenderStatsJson(*telemetry_, ctx);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                ",\n\"burn_rates\": {\"interval_s\": %g, \"requests_per_s\": "
                "%.2f, \"errors_per_s\": %.2f, \"degraded_per_s\": %.2f, "
                "\"deadline_miss_per_s\": %.2f}",
                dt, rate(totals.requests, last_totals_.requests),
                rate(totals.errors, last_totals_.errors),
                rate(totals.degraded, last_totals_.degraded),
                rate(totals.deadline_miss, last_totals_.deadline_miss));
  j += buf;
  last_totals_ = totals;
  j += ",\n\"metrics\": ";
  j += util::MetricsRegistry::Global().Snapshot().ToJson();
  j += "}\n";
  if (WriteFileAtomic(path_, j).ok() &&
      WriteFileAtomic(path_ + ".prom",
                      RenderPrometheusText(*telemetry_, ctx))
          .ok()) {
    writes_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace serve
}  // namespace elitenet
