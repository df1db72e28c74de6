// LSM-style delta overlay over an immutable CSR base — the live,
// read-write layer of the serving stack.
//
// The base graph (typically an mmapped ENG2 snapshot) never changes.
// Mutations land in per-node *overlay rows*: for each node touched since
// the last compaction, a copy-on-write row of edge states, one per
// neighbor whose presence ever changed. An edge state is
//
//   { neighbor, base_present, toggles[] }
//
// where `toggles` is the ascending list of versions at which the edge
// flipped. Presence at version V is then
//
//   base_present XOR parity(#toggles <= V)
//
// which is what makes reads *multi-version*: one row answers every
// version since the epoch's base, so a snapshot is just (epoch pointer,
// version number) — no copying, no read locks, O(1) capture.
//
// Concurrency model (single-writer, many-readers, one compactor):
//   * Apply() serializes writers behind a mutex, assigns version
//     numbers (1-based, monotonic), journals to the write-ahead log
//     (serve/mutation_log.h), and publishes each changed row by cloning
//     it and swapping a per-node std::atomic<const OverlayRow*>. Readers
//     therefore see either the old row or the new row, both internally
//     consistent — never a row mid-edit. Retired rows go to the epoch's
//     graveyard and are freed when the epoch dies.
//   * Snapshots pin the epoch by copying a shared_ptr under a mutex that
//     guards only that pointer; they never take the writer mutex. Readers
//     never wait on Apply() or on a compaction's merge, only on the
//     pointer copy or swap itself.
//   * Compact() streams the merged (base + overlay @ current version)
//     edge set through graph::WriteStreamedV2 into a fresh ENG2 file,
//     maps it back, and atomically swaps in a new epoch. Mutations that
//     arrive during the merge are recorded and re-applied (at their
//     original versions) to the new epoch before the swap, so no version
//     is lost. The old epoch is *sealed* at the swap: snapshots already
//     holding it keep reading it for versions <= sealed_version, and the
//     mapping + rows are reclaimed when the last such snapshot drains
//     (epoch-based reclamation via shared_ptr).
//
// Determinism: WriteStreamedV2's output is a pure function of the edge
// multiset, so the compacted file is byte-identical to a cold rebuild
// (SaveBinaryV2 over the same logical edge set) — asserted by
// delta_overlay_test and bench_mutations. Replaying the WAL onto the
// same base reproduces the exact version numbering (no-ops consume a
// version and are journaled too).

#ifndef ELITENET_SERVE_DELTA_OVERLAY_H_
#define ELITENET_SERVE_DELTA_OVERLAY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "graph/io.h"
#include "serve/mutation_log.h"
#include "util/status.h"

namespace elitenet {
namespace serve {

/// Presence history of one (node, neighbor) pair inside an overlay row.
struct OverlayEdgeState {
  graph::NodeId neighbor = 0;
  /// Present in the epoch's base CSR (the state at version base_version).
  bool base_present = false;
  /// Versions at which presence flipped, strictly ascending.
  std::vector<uint64_t> toggles;

  bool PresentAt(uint64_t version) const {
    size_t flips = 0;
    for (uint64_t t : toggles) {
      if (t > version) break;
      ++flips;
    }
    return base_present != ((flips & 1) != 0);
  }

  /// Presence at the newest version (writer-side helper).
  bool PresentHead() const {
    return base_present != ((toggles.size() & 1) != 0);
  }
};

/// All overlay state for one node in one direction. Immutable once
/// published; the writer replaces the whole row copy-on-write.
struct OverlayRow {
  /// Sorted ascending by neighbor; merged against the base CSR row.
  std::vector<OverlayEdgeState> entries;
  /// Smallest toggle version in the row — versions below it read the row
  /// as if it did not exist (the node was untouched then).
  uint64_t min_version = 0;

  const OverlayEdgeState* Find(graph::NodeId neighbor) const;
};

/// Point-in-time counters for the #overlay admin verb, compaction
/// triggers, and bench reporting. All "current" values describe the head
/// version; high-water marks are monotonic since process start.
struct OverlayStats {
  uint64_t applied = 0;    ///< versions assigned (follows+unfollows+noops)
  uint64_t follows = 0;    ///< effective follows (state changed)
  uint64_t unfollows = 0;  ///< effective unfollows (state changed)
  uint64_t noops = 0;      ///< accepted mutations that changed nothing
  uint64_t recovered = 0;  ///< mutations replayed from the WAL at startup

  uint64_t live_edges = 0;          ///< edges at the head version
  uint64_t reciprocated_edges = 0;  ///< edges whose reverse also exists
  uint64_t overlay_rows_fwd = 0;    ///< forward rows in the live epoch
  uint64_t overlay_rows_rev = 0;    ///< reverse rows in the live epoch
  uint64_t overlay_entries = 0;     ///< edge states across both directions
  uint64_t tombstones = 0;  ///< base edges currently deleted (fwd side)
  uint64_t overlay_adds = 0;  ///< non-base edges currently present (fwd)
  uint64_t retired_rows = 0;  ///< superseded rows awaiting epoch death

  uint64_t hw_rows = 0;     ///< high-water mark of fwd+rev rows
  uint64_t hw_entries = 0;  ///< high-water mark of overlay_entries

  uint64_t epoch_seq = 0;      ///< 0 = the epoch Create() built
  uint64_t base_version = 0;   ///< versions folded into the epoch's base
  uint64_t base_edges = 0;     ///< edge count of the epoch's base CSR
  uint64_t compactions = 0;    ///< completed compactions
  /// Seconds since the last compaction finished; negative = never.
  double seconds_since_compaction = -1.0;
};

/// What one Apply() did.
struct ApplyOutcome {
  uint64_t version = 0;  ///< the version this mutation was assigned
  bool changed = false;  ///< false: idempotent no-op (still versioned)
};

/// What one compaction did.
struct CompactionStats {
  uint64_t folded_version = 0;  ///< base_version of the new epoch
  uint64_t num_edges = 0;       ///< edges in the compacted snapshot
  uint64_t graph_checksum = 0;  ///< graph::GraphChecksum of the new base
  uint64_t tail_replayed = 0;   ///< mutations applied mid-merge, re-applied
  double seconds = 0.0;
};

class LiveGraph;

/// A consistent read view: one epoch at one version. Cheap to copy
/// (shared_ptr + integer); holding it pins the epoch's base mapping and
/// overlay rows. All methods are lock-free reads, safe concurrently with
/// Apply() and Compact().
class LiveSnapshot {
 public:
  LiveSnapshot() = default;

  bool valid() const { return epoch_ != nullptr; }
  uint64_t version() const { return version_; }
  /// Mutations already folded into this epoch's base CSR.
  uint64_t base_version() const;
  uint64_t epoch_seq() const;
  graph::NodeId num_nodes() const;
  /// The epoch's immutable base (version == base_version of this epoch).
  const graph::DiGraph& base() const;
  /// The warm payload the epoch was published with (may be null).
  const void* warm_payload() const;

  /// True when `u` has overlay history visible at this version, in either
  /// direction — the "touched since last compaction" predicate the
  /// distance oracle's staleness contract keys on.
  bool Touched(graph::NodeId u) const;

  uint32_t OutDegree(graph::NodeId u) const;
  uint32_t InDegree(graph::NodeId u) const;
  bool HasEdge(graph::NodeId u, graph::NodeId v) const;

  /// Merged neighbor lists at this version, ascending — the same order a
  /// compacted CSR row would have.
  void CollectOut(graph::NodeId u, std::vector<graph::NodeId>* out) const;
  void CollectIn(graph::NodeId u, std::vector<graph::NodeId>* out) const;

  /// Streaming merge without materializing: calls fn(neighbor) in
  /// ascending order.
  template <typename Fn>
  void ForEachOut(graph::NodeId u, Fn&& fn) const;
  template <typename Fn>
  void ForEachIn(graph::NodeId u, Fn&& fn) const;

 private:
  friend class LiveGraph;

  struct Epoch;
  LiveSnapshot(std::shared_ptr<const Epoch> epoch, uint64_t version)
      : epoch_(std::move(epoch)), version_(version) {}

  std::shared_ptr<const Epoch> epoch_;
  uint64_t version_ = 0;
};

struct LiveGraphOptions {
  /// Write-ahead log path. Empty disables journaling (traces replayed
  /// through Apply are then the only history). When the file already
  /// exists its records are replayed onto the base at Create() —
  /// crash/restart recovery — and new mutations append after them.
  std::string log_path;
  /// fsync the WAL after every append (crash-durable, syscall-bound).
  bool sync_log = false;
  /// Sorter budget/temp dir for the compaction writer.
  graph::StreamWriteOptions compact_stream;
};

/// The mutable graph: immutable base + overlay + WAL + compactor.
/// Thread-safe as documented per method; one instance per served graph.
class LiveGraph {
 public:
  /// Builds the initial epoch over `base` (epoch 0, base_version 0) and
  /// replays the WAL if options.log_path names an existing log.
  /// `warm_payload` is an opaque per-epoch attachment (the engine hangs
  /// its warm indexes there so base and indexes swap atomically).
  static Result<std::unique_ptr<LiveGraph>> Create(
      graph::DiGraph base, const LiveGraphOptions& options = {},
      std::shared_ptr<const void> warm_payload = nullptr);

  ~LiveGraph();

  LiveGraph(const LiveGraph&) = delete;
  LiveGraph& operator=(const LiveGraph&) = delete;

  /// Applies one mutation: validates ids, assigns the next version,
  /// journals, updates overlay rows + incremental counters. Thread-safe
  /// (internally serialized). InvalidArgument for out-of-range ids or
  /// self-follows — rejected mutations consume no version and are not
  /// journaled.
  Result<ApplyOutcome> Apply(const Mutation& m);

  /// Current-version snapshot. Thread-safe, O(1); never waits on Apply.
  LiveSnapshot Snapshot() const;

  /// Snapshot pinned at `version`. FailedPrecondition when the version
  /// predates the live epoch's base (compacted away) or has not been
  /// applied yet.
  Result<LiveSnapshot> SnapshotAt(uint64_t version) const;

  /// Merges base + overlay at the current version into a fresh ENG2
  /// snapshot at `path` (written to a temp file, renamed into place),
  /// maps it back, optionally builds a warm payload for it, and swaps in
  /// the new epoch. Mutations applied while the merge runs are recorded
  /// and re-applied to the new epoch at their original versions, so
  /// Apply() stays available throughout (blocked only for the brief
  /// swap). Serialized against itself; safe concurrently with Apply()
  /// and snapshots.
  using WarmBuilder =
      std::function<Result<std::shared_ptr<const void>>(const graph::DiGraph&)>;
  Result<CompactionStats> Compact(const std::string& path,
                                  const WarmBuilder& warm_builder = nullptr);

  uint64_t applied_version() const {
    return applied_.load(std::memory_order_acquire);
  }
  /// Versions folded into the live epoch's base (the auto-compaction
  /// trigger reads applied_version() - base_version()).
  uint64_t base_version() const;
  graph::NodeId num_nodes() const { return num_nodes_; }
  /// Edges at the head version (incrementally maintained).
  uint64_t current_edges() const {
    return live_edges_.load(std::memory_order_relaxed);
  }
  /// Edge reciprocity at the head version: reciprocated / edges.
  double current_reciprocity() const;
  /// Mutations replayed from the WAL at Create().
  uint64_t recovered() const { return recovered_; }

  /// Per-node degrees / reciprocated-out-edge counts at the head version
  /// (incrementally maintained, relaxed reads — admin/stats accuracy, not
  /// snapshot consistency).
  uint32_t head_out_degree(graph::NodeId u) const {
    return out_degree_[u].load(std::memory_order_relaxed);
  }
  uint32_t head_in_degree(graph::NodeId u) const {
    return in_degree_[u].load(std::memory_order_relaxed);
  }
  uint32_t head_mutual_degree(graph::NodeId u) const {
    return mutual_degree_[u].load(std::memory_order_relaxed);
  }

  OverlayStats Stats() const;

 private:
  using Epoch = LiveSnapshot::Epoch;

  LiveGraph() = default;

  /// Apply with journaling optional — WAL replay at Create() re-applies
  /// recovered records without re-appending them.
  Result<ApplyOutcome> ApplyInternal(const Mutation& m, bool journal);

  /// Writer-side core shared by Apply and the compaction tail drain:
  /// flips presence in `epoch`'s rows at `version`. Returns whether state
  /// changed. Caller holds apply_mutex_.
  bool ApplyToEpoch(Epoch* epoch, uint64_t version, const Mutation& m);

  /// Copy-on-write publication of one toggled (node -> neighbor) entry.
  static void ToggleRow(Epoch* epoch, std::atomic<const OverlayRow*>& slot,
                        std::atomic<uint64_t>& row_count,
                        graph::NodeId neighbor, bool base_present,
                        uint64_t version);

  /// Head-state presence in `epoch` (writer-side, under apply_mutex_).
  bool HeadHasEdge(const Epoch& epoch, graph::NodeId u,
                   graph::NodeId v) const;

  std::shared_ptr<const Epoch> LoadEpoch() const;
  /// Makes `epoch` the live epoch; the previous one is released after the
  /// pointer lock is dropped.
  void PublishEpoch(std::shared_ptr<const Epoch> epoch);

  graph::NodeId num_nodes_ = 0;
  LiveGraphOptions options_;
  uint64_t recovered_ = 0;

  /// The live epoch. Swapped by Compact under apply_mutex_; copied by
  /// snapshot capture. epoch_mutex_ guards only this pointer. (Not
  /// std::atomic<std::shared_ptr>: libstdc++ 12's load releases its
  /// internal lock bit with a relaxed store, so its read of the pointer
  /// races with the next store's write, as ThreadSanitizer reports.)
  mutable std::mutex epoch_mutex_;
  std::shared_ptr<const Epoch> epoch_;
  /// The same epoch, mutable — the single writer's view. Accessed only
  /// under apply_mutex_ (readers go through epoch_).
  std::shared_ptr<Epoch> writer_epoch_;
  /// Versions assigned so far; version V is readable once applied_ >= V.
  std::atomic<uint64_t> applied_{0};

  /// Serializes Apply(), the WAL, and the epoch swap.
  mutable std::mutex apply_mutex_;
  std::unique_ptr<MutationLogWriter> wal_;

  /// Compaction tail recording (guarded by apply_mutex_).
  struct TailRecord {
    uint64_t version;
    Mutation mutation;
  };
  bool recording_tail_ = false;
  std::vector<TailRecord> tail_;
  /// Serializes whole compactions against each other.
  std::mutex compact_mutex_;

  // ---- incrementally maintained head-version counters ----
  std::unique_ptr<std::atomic<uint32_t>[]> out_degree_;
  std::unique_ptr<std::atomic<uint32_t>[]> in_degree_;
  std::unique_ptr<std::atomic<uint32_t>[]> mutual_degree_;
  std::atomic<uint64_t> live_edges_{0};
  std::atomic<uint64_t> reciprocated_{0};
  std::atomic<uint64_t> follows_{0};
  std::atomic<uint64_t> unfollows_{0};
  std::atomic<uint64_t> noops_{0};
  std::atomic<uint64_t> tombstones_{0};
  std::atomic<uint64_t> overlay_adds_{0};
  std::atomic<uint64_t> hw_rows_{0};
  std::atomic<uint64_t> hw_entries_{0};
  std::atomic<uint64_t> compactions_{0};
  /// steady_clock time of the last completed compaction, as nanoseconds
  /// since epoch start; 0 = never.
  std::atomic<int64_t> last_compaction_ns_{0};
};

// ---------------------------------------------------------------------------
// Inline read path. The merge walks the base CSR row and the overlay row
// in lockstep; both are ascending, so the union is emitted in ascending
// order — identical to the row a compacted CSR would hold.

struct LiveSnapshot::Epoch {
  graph::DiGraph base;
  uint64_t base_version = 0;
  uint64_t epoch_seq = 0;
  /// Highest version this epoch can serve; UINT64_MAX while live. Set
  /// (under the writer mutex) when a newer epoch replaces this one.
  std::atomic<uint64_t> sealed_version{UINT64_MAX};
  /// Per-node published rows; null = node untouched in this epoch.
  /// Written only by the single writer; read lock-free.
  std::unique_ptr<std::atomic<const OverlayRow*>[]> fwd;
  std::unique_ptr<std::atomic<const OverlayRow*>[]> rev;
  /// Superseded row versions, freed when the epoch dies. Guarded by the
  /// LiveGraph writer mutex; readers never look here.
  std::vector<std::unique_ptr<const OverlayRow>> graveyard;
  /// Opaque engine attachment (warm indexes for this base).
  std::shared_ptr<const void> warm_payload;
  /// Rows/entries tallies for this epoch (writer-maintained, read by
  /// Stats without the writer mutex — hence atomic).
  std::atomic<uint64_t> rows_fwd{0};
  std::atomic<uint64_t> rows_rev{0};
  std::atomic<uint64_t> entries{0};
  std::atomic<uint64_t> retired{0};

  explicit Epoch(graph::DiGraph b)
      : base(std::move(b)),
        fwd(new std::atomic<const OverlayRow*>[base.num_nodes()]()),
        rev(new std::atomic<const OverlayRow*>[base.num_nodes()]()) {}

  ~Epoch() {
    const graph::NodeId n = base.num_nodes();
    for (graph::NodeId u = 0; u < n; ++u) {
      delete fwd[u].load(std::memory_order_relaxed);
      delete rev[u].load(std::memory_order_relaxed);
    }
  }
};

namespace overlay_internal {

template <typename Fn>
void MergeRow(std::span<const graph::NodeId> base_row, const OverlayRow* row,
              uint64_t version, Fn&& fn) {
  if (row == nullptr || row->min_version > version) {
    for (graph::NodeId v : base_row) fn(v);
    return;
  }
  const std::vector<OverlayEdgeState>& es = row->entries;
  size_t i = 0, j = 0;
  while (i < base_row.size() || j < es.size()) {
    if (j >= es.size() ||
        (i < base_row.size() && base_row[i] < es[j].neighbor)) {
      fn(base_row[i]);
      ++i;
    } else if (i >= base_row.size() || es[j].neighbor < base_row[i]) {
      // Overlay-only neighbor (base_present == false).
      if (es[j].PresentAt(version)) fn(es[j].neighbor);
      ++j;
    } else {
      // Base neighbor with overlay history.
      if (es[j].PresentAt(version)) fn(base_row[i]);
      ++i;
      ++j;
    }
  }
}

inline uint32_t MergedDegree(uint32_t base_degree, const OverlayRow* row,
                             uint64_t version) {
  if (row == nullptr || row->min_version > version) return base_degree;
  int64_t d = base_degree;
  for (const OverlayEdgeState& e : row->entries) {
    d += static_cast<int64_t>(e.PresentAt(version)) -
         static_cast<int64_t>(e.base_present);
  }
  return static_cast<uint32_t>(d);
}

}  // namespace overlay_internal

template <typename Fn>
void LiveSnapshot::ForEachOut(graph::NodeId u, Fn&& fn) const {
  overlay_internal::MergeRow(
      epoch_->base.OutNeighbors(u),
      epoch_->fwd[u].load(std::memory_order_acquire), version_,
      std::forward<Fn>(fn));
}

template <typename Fn>
void LiveSnapshot::ForEachIn(graph::NodeId u, Fn&& fn) const {
  overlay_internal::MergeRow(
      epoch_->base.InNeighbors(u),
      epoch_->rev[u].load(std::memory_order_acquire), version_,
      std::forward<Fn>(fn));
}

}  // namespace serve
}  // namespace elitenet

#endif  // ELITENET_SERVE_DELTA_OVERLAY_H_
