// QueryEngine — a long-lived in-memory serving layer over one loaded
// graph, in the SNAP tradition of amortizing load/index cost across many
// analyses: pay for the expensive whole-graph computations once at
// startup ("warm indexes"), then answer per-user queries at interactive
// latency from those indexes.
//
// Warm indexes built by Create():
//   * PageRank scores, the full descending rank order, and each node's
//     1-based rank position,
//   * WCC and SCC labelings (component id + size per node),
//   * per-node mutual-edge counts (reciprocity flags), from one sorted
//     merge of each node's out- and in-row,
//   * the exact reach_2hop of the nodes with the costliest ego walks
//     (ComputeHeavyReach in serve/compute.h),
//   * the graph fingerprint and its similarity to the paper's signature.
//
// The engine is a FrontDoor backend (serve/front_door.h): the front door
// owns the QoS executor, the result cache, per-request deadlines and
// telemetry; the engine supplies admission (the live MVCC snapshot),
// the cache key, and compute through its ComputeUnit
// (serve/compute.h). Distance queries run the bounded bidirectional
// search (graph/bounded_distance.h), polling the deadline per level and
// degrading to the best lower bound found with degraded=true.
//
// Determinism: every non-degraded response is a pure function of the
// graph and the request — no timings, thread ids, or cache state leak
// into the bytes — so replaying a request stream produces byte-identical
// responses at any worker-thread count (asserted by bench_serving and
// serve_engine_test).

#ifndef ELITENET_SERVE_ENGINE_H_
#define ELITENET_SERVE_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "graph/digraph.h"
#include "serve/compute.h"
#include "serve/delta_overlay.h"
#include "serve/front_door.h"
#include "serve/mutation_log.h"
#include "serve/request.h"
#include "serve/telemetry.h"
#include "serve/warm_index_cache.h"
#include "util/deadline.h"
#include "util/status.h"

namespace elitenet {
namespace serve {

/// Configuration for a live (mutable) engine — see CreateLive.
struct LiveEngineOptions {
  /// Write-ahead log for applied mutations; replayed at CreateLive when
  /// the file exists. Empty disables journaling.
  std::string log_path;
  /// fsync the WAL after every append.
  bool sync_log = false;
  /// Where compaction writes the fresh ENG2 snapshot (a ".widx" warm
  /// sidecar rides next to it). Required for CompactNow / auto
  /// compaction.
  std::string compact_path;
  /// Auto-compaction trigger: the background compactor folds the overlay
  /// once this many versions sit above the epoch base. 0 = manual
  /// CompactNow() only (no compactor thread).
  uint64_t compact_after = 0;
};

/// The unsharded backend: one graph, one warm bundle, one compute unit
/// behind the front door (Execute, ExecuteLine, Submit, the cache, the
/// admin verbs and telemetry are all FrontDoor's).
class QueryEngine : public FrontDoor {
 public:
  /// Builds every warm index (the expensive part — O(iterations * m) for
  /// PageRank, O(n + m) per component labeling) and starts the executor.
  /// Fails on an empty graph or a PageRank that cannot run; a failed
  /// fingerprint (e.g. degenerate degree tail) is tolerated and surfaces
  /// as an error response to fingerprint queries only.
  static Result<std::unique_ptr<QueryEngine>> Create(
      graph::DiGraph g, const EngineOptions& options = {});

  /// Like Create, but the graph accepts live follow/unfollow mutations
  /// through Apply(): the loaded graph becomes the immutable base of a
  /// LiveGraph delta overlay, every request captures an MVCC snapshot at
  /// admission, and responses carry `"version"` (the snapshot's graph
  /// version) and `"as_of"` (the base version the expensive warm indexes
  /// were computed at — the staleness bound for PageRank/component/rank
  /// fields). Cheap facts (degrees, neighbor lists, mutual counts, 2-hop
  /// reach) are exact at the snapshot version, and so is dist, whose
  /// bidirectional search walks the snapshot's merged rows.
  static Result<std::unique_ptr<QueryEngine>> CreateLive(
      graph::DiGraph g, const LiveEngineOptions& live,
      const EngineOptions& options = {});

  /// Stops the background compactor (live engines), then the front door.
  ~QueryEngine() override;

  const graph::DiGraph& graph() const { return unit_.graph(); }

  /// True for engines built by CreateLive.
  bool is_live() const { return live_ != nullptr; }

  /// Applies one follow/unfollow on a live engine (total order; safe from
  /// any thread — the overlay serializes writers). FailedPrecondition on
  /// static engines. May wake the background compactor.
  Result<ApplyOutcome> Apply(const Mutation& m);

  /// Folds the overlay into a fresh ENG2 at live.compact_path (plus a
  /// ".widx" warm sidecar) and swaps it in as the new base epoch.
  /// FailedPrecondition on static engines or when no compact_path was
  /// configured.
  Result<CompactionStats> CompactNow();

  /// Current overlay counters (zero-valued on static engines).
  OverlayStats overlay_stats() const;

  /// Last applied graph version (0 on static engines).
  uint64_t applied_version() const;

  /// Captures the current MVCC snapshot (tests/benches; invalid() on
  /// static engines).
  LiveSnapshot live_snapshot() const;

  /// The warm-index bundle (immutable after Create). Static engines only:
  /// a live engine hangs its bundle off the current epoch (so compaction
  /// can swap base and indexes atomically) and this returns an empty one.
  const WarmIndexes& warm_indexes() const { return warm_; }

 protected:
  Result<LiveSnapshot> Admit(const Request& r) const override;
  std::string CacheKeyFor(const Request& r,
                          const LiveSnapshot& snap) const override;
  QueryResponse Compute(const Request& r, const util::Deadline& deadline,
                        const LiveSnapshot& snap) override;
  void AddStats(EngineStatsContext* ctx) const override;

 private:
  QueryEngine(graph::DiGraph g, const EngineOptions& options);

  /// Constructs the engine and warms it (load-or-build: consult the
  /// sidecar when configured, else compute every index and best-effort
  /// persist it for the next cold start). The front door is not open yet.
  static Result<std::unique_ptr<QueryEngine>> Warmed(
      graph::DiGraph g, const EngineOptions& options);
  void CompactorLoop();

  ComputeUnit unit_;

  // Warm indexes (immutable after Warmup; read concurrently). Restored
  // from the sidecar or computed — either way the same bytes, which is
  // what keeps responses identical across load paths.
  WarmIndexes warm_;

  // Live-mutation plane (CreateLive only; null on static engines).
  std::unique_ptr<LiveGraph> live_;
  LiveEngineOptions live_options_;
  std::mutex compactor_mutex_;
  std::condition_variable compactor_cv_;
  bool compactor_stop_ = false;  ///< Guarded by compactor_mutex_.
  std::thread compactor_;
};

/// The full warm-index build as a pure function of (graph, options): the
/// engine's Create() path, the live compactor, and the router's one-time
/// global warmup all run this same code. `stages`, when set, receives
/// each stage's seconds.
Status ComputeWarmIndexes(const graph::DiGraph& g, const EngineOptions& options,
                          WarmIndexes* warm,
                          WarmStageSeconds* stages = nullptr);

/// Sidecar-aware warmup: restore from options.warm_index_path when it is
/// set and matches (checksum + config), else compute and best-effort
/// persist. `graph_checksum` is graph::GraphChecksum(g), computed once by
/// the caller; it is read only when the path is set. `*from_cache`
/// reports which path ran; on a build, `*stages` receives each stage's
/// seconds.
Result<WarmIndexes> LoadOrBuildWarmIndexes(const graph::DiGraph& g,
                                           const EngineOptions& options,
                                           uint64_t graph_checksum,
                                           bool* from_cache,
                                           WarmStageSeconds* stages);

}  // namespace serve
}  // namespace elitenet

#endif  // ELITENET_SERVE_ENGINE_H_
