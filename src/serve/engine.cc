#include "serve/engine.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <utility>

#include "analysis/components.h"
#include "analysis/reciprocity.h"
#include "graph/io.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace elitenet {
namespace serve {

using graph::DiGraph;

namespace {

// One warm-build stage: its trace span and, when the caller asked for
// them, its seconds.
class WarmStageScope {
 public:
  WarmStageScope(WarmStage stage, WarmStageSeconds* stages)
      : span_(WarmStageSpan(stage)), stage_(stage), stages_(stages) {}
  ~WarmStageScope() {
    if (stages_ != nullptr) (*stages_)[stage_] = timer_.Seconds();
  }

 private:
  util::ScopedSpan span_;
  util::SpanTimer timer_;
  WarmStage stage_;
  WarmStageSeconds* stages_;
};

}  // namespace

// The full warm-index build as a pure function of (graph, options) — the
// Create() path runs it over the loaded base, a live engine's compactor
// runs the very same code over each freshly compacted base, and the
// sharded router runs it once over the global graph, so every consumer
// serves exactly the same warm bytes.
Status ComputeWarmIndexes(const DiGraph& g, const EngineOptions& options,
                          WarmIndexes* warm, WarmStageSeconds* stages) {
  // Only the fingerprint reads the reciprocity rate; it is not kept.
  double reciprocity = 0.0;
  {
    WarmStageScope stage(kWarmMutual, stages);
    warm->mutual_degree = analysis::MutualDegrees(g);
    reciprocity = analysis::ReciprocityFromMutualDegrees(g.num_edges(),
                                                         warm->mutual_degree)
                      .rate;
  }
  {
    WarmStageScope stage(kWarmHeavyReach, stages);
    ComputeHeavyReach(g, &warm->heavy_ids, &warm->heavy_reach);
  }
  {
    WarmStageScope stage(kWarmComponents, stages);
    warm->wcc = analysis::WeaklyConnectedComponents(g);
    warm->scc = analysis::StronglyConnectedComponents(g);
  }
  {
    WarmStageScope stage(kWarmPageRank, stages);
    auto pr = analysis::PageRank(g, options.pagerank);
    if (!pr.ok()) return pr.status();
    warm->pagerank = std::move(pr->scores);
    warm->rank_order = analysis::TopKByScore(warm->pagerank, g.num_nodes());
    warm->rank_of.assign(g.num_nodes(), 0);
    for (size_t i = 0; i < warm->rank_order.size(); ++i) {
      warm->rank_of[warm->rank_order[i]] = static_cast<uint32_t>(i + 1);
    }
  }
  {
    WarmStageScope stage(kWarmFingerprint, stages);
    // The SCC labelling and reciprocity were built above; the fingerprint
    // reuses them.
    auto fp = core::ComputeFingerprint(g, warm->scc, reciprocity,
                                       options.fingerprint);
    if (fp.ok()) {
      warm->fingerprint = *fp;
      warm->fingerprint_similarity =
          core::FingerprintSimilarity(*fp, core::PaperFingerprint());
      warm->fingerprint_ok = true;
    } else {
      warm->fingerprint_error = fp.status().ToString();
    }
  }
  return Status::OK();
}

namespace {

// The sidecar identity of a graph, by checksum, warmed under `options`.
WarmIndexKey WarmKeyFor(uint64_t graph_checksum, const EngineOptions& options) {
  WarmIndexKey key;
  key.graph_checksum = graph_checksum;
  key.config_hash = WarmConfigHash(options.pagerank, options.fingerprint);
  return key;
}

}  // namespace

Result<WarmIndexes> LoadOrBuildWarmIndexes(const DiGraph& g,
                                           const EngineOptions& options,
                                           uint64_t graph_checksum,
                                           bool* from_cache,
                                           WarmStageSeconds* stages) {
  *from_cache = false;
  const WarmIndexKey key = WarmKeyFor(graph_checksum, options);
  if (!options.warm_index_path.empty()) {
    ELITENET_SPAN("serve.warm.widx_load");
    auto restored = LoadWarmIndexes(options.warm_index_path, key,
                                    g.num_nodes());
    if (restored.ok()) {
      ELITENET_COUNT("serve.widx.hit", 1);
      *from_cache = true;
      return std::move(*restored);
    }
    ELITENET_COUNT("serve.widx.miss", 1);
  }
  WarmIndexes warm;
  EN_RETURN_IF_ERROR(ComputeWarmIndexes(g, options, &warm, stages));
  if (!options.warm_index_path.empty()) {
    // Best-effort: a read-only filesystem must not fail engine startup.
    ELITENET_SPAN("serve.warm.widx_write");
    if (SaveWarmIndexes(options.warm_index_path, key, warm).ok()) {
      ELITENET_COUNT("serve.widx.write", 1);
    }
  }
  return warm;
}

QueryEngine::QueryEngine(DiGraph g, const EngineOptions& options)
    : FrontDoor(options), unit_(std::move(g)) {}

QueryEngine::~QueryEngine() {
  // Stop the compactor first: it calls back into CompactNow, which needs
  // live_ and the telemetry counters intact.
  if (compactor_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(compactor_mutex_);
      compactor_stop_ = true;
    }
    compactor_cv_.notify_all();
    compactor_.join();
  }
  Close();
}

Result<std::unique_ptr<QueryEngine>> QueryEngine::Warmed(
    DiGraph g, const EngineOptions& options) {
  if (g.num_nodes() == 0) {
    return Status::InvalidArgument("cannot serve an empty graph");
  }
  std::unique_ptr<QueryEngine> engine(new QueryEngine(std::move(g), options));
  util::SpanTimer timer("serve.warmup");
  // Only a sidecar key reads the checksum (carried by a mapped graph,
  // hashed for a resident one).
  const uint64_t checksum = options.warm_index_path.empty()
                                ? 0
                                : graph::GraphChecksum(engine->graph());
  auto warm = LoadOrBuildWarmIndexes(engine->graph(), options, checksum,
                                     &engine->warm_from_cache_,
                                     &engine->warm_stages_);
  if (!warm.ok()) return warm.status();
  engine->warm_ = std::move(*warm);
  engine->warmup_seconds_ = timer.Seconds();
  return engine;
}

Result<std::unique_ptr<QueryEngine>> QueryEngine::Create(
    DiGraph g, const EngineOptions& options) {
  auto engine = Warmed(std::move(g), options);
  if (engine.ok()) (*engine)->Open();
  return engine;
}

Result<std::unique_ptr<QueryEngine>> QueryEngine::CreateLive(
    DiGraph g, const LiveEngineOptions& live, const EngineOptions& options) {
  auto warmed = Warmed(std::move(g), options);
  if (!warmed.ok()) return warmed.status();
  std::unique_ptr<QueryEngine> engine = std::move(*warmed);
  // The warm bundle moves into the epoch payload: requests reach it
  // through their admission snapshot, so a compaction can publish a fresh
  // bundle together with its base while in-flight requests keep reading
  // the one their epoch owns.
  auto payload = std::make_shared<const WarmIndexes>(std::move(engine->warm_));
  engine->warm_ = WarmIndexes();
  LiveGraphOptions lopt;
  lopt.log_path = live.log_path;
  lopt.sync_log = live.sync_log;
  // DiGraph copies share storage, so the overlay's base is the same CSR
  // the engine's graph() exposes — no second copy of the graph.
  auto lg = LiveGraph::Create(engine->graph(), lopt,
                              std::shared_ptr<const void>(payload));
  if (!lg.ok()) return lg.status();
  engine->live_ = std::move(*lg);
  engine->live_options_ = live;
  engine->Open();
  if (live.compact_after > 0 && !live.compact_path.empty()) {
    QueryEngine* raw = engine.get();
    engine->compactor_ = std::thread([raw] { raw->CompactorLoop(); });
  }
  return engine;
}

Result<LiveSnapshot> QueryEngine::Admit(const Request& r) const {
  if (live_ == nullptr) return FrontDoor::Admit(r);
  if (r.version == 0) return live_->Snapshot();
  return live_->SnapshotAt(r.version);
}

// Live result-cache key: the epoch disambiguates bases (the same version
// number can name different logical states across compaction lineages of
// different WALs), the resolved version makes unpinned requests cacheable
// — two unpinned requests admitted at the same version share an entry.
std::string QueryEngine::CacheKeyFor(const Request& r,
                                     const LiveSnapshot& snap) const {
  if (live_ == nullptr) return CacheKey(r);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "e%" PRIu64 "@%" PRIu64 " ",
                snap.epoch_seq(), snap.version());
  return buf + CacheKey(r);
}

QueryResponse QueryEngine::Compute(const Request& r,
                                   const util::Deadline& deadline,
                                   const LiveSnapshot& snap) {
  if (live_ == nullptr) return unit_.Compute(r, deadline, warm_, nullptr);
  return unit_.Compute(r, deadline,
                       *static_cast<const WarmIndexes*>(snap.warm_payload()),
                       &snap);
}

Result<ApplyOutcome> QueryEngine::Apply(const Mutation& m) {
  if (live_ == nullptr) {
    return Status::FailedPrecondition(
        "mutations require a live engine (CreateLive)");
  }
  auto out = live_->Apply(m);
  if (out.ok() && compactor_.joinable() &&
      out->version - live_->base_version() >= live_options_.compact_after) {
    compactor_cv_.notify_one();
  }
  return out;
}

Result<CompactionStats> QueryEngine::CompactNow() {
  if (live_ == nullptr) {
    return Status::FailedPrecondition(
        "compaction requires a live engine (CreateLive)");
  }
  if (live_options_.compact_path.empty()) {
    return Status::FailedPrecondition(
        "no compact_path configured in LiveEngineOptions");
  }
  const std::string path = live_options_.compact_path;
  return live_->Compact(
      path,
      [this, &path](const DiGraph& g) -> Result<std::shared_ptr<const void>> {
        WarmIndexes w;
        EN_RETURN_IF_ERROR(ComputeWarmIndexes(g, options_, &w));
        // Best-effort sidecar next to the snapshot: a restart from the
        // compacted file warm-starts instead of recomputing. `g` is the
        // mapped new base, so its checksum is the one MapBinary verified.
        (void)SaveWarmIndexes(path + ".widx",
                              WarmKeyFor(graph::GraphChecksum(g), options_),
                              w);
        return std::shared_ptr<const void>(
            std::make_shared<const WarmIndexes>(std::move(w)));
      });
}

void QueryEngine::CompactorLoop() {
  std::unique_lock<std::mutex> lock(compactor_mutex_);
  for (;;) {
    compactor_cv_.wait(lock, [this] {
      return compactor_stop_ ||
             live_->applied_version() - live_->base_version() >=
                 live_options_.compact_after;
    });
    if (compactor_stop_) return;
    lock.unlock();
    auto done = CompactNow();
    lock.lock();
    if (!done.ok()) {
      ELITENET_COUNT("serve.compact.errors", 1);
      // The trigger condition is still true; back off instead of spinning
      // against a persistently failing disk.
      compactor_cv_.wait_for(lock, std::chrono::milliseconds(200),
                             [this] { return compactor_stop_; });
    }
  }
}

OverlayStats QueryEngine::overlay_stats() const {
  return live_ != nullptr ? live_->Stats() : OverlayStats();
}

uint64_t QueryEngine::applied_version() const {
  return live_ != nullptr ? live_->applied_version() : 0;
}

LiveSnapshot QueryEngine::live_snapshot() const {
  return live_ != nullptr ? live_->Snapshot() : LiveSnapshot();
}

void QueryEngine::AddStats(EngineStatsContext* ctx) const {
  ctx->nodes = graph().num_nodes();
  ctx->edges = graph().num_edges();
  if (live_ != nullptr) {
    ctx->live = true;
    ctx->overlay = live_->Stats();
    ctx->edges = ctx->overlay.live_edges;
  }
}

}  // namespace serve
}  // namespace elitenet
