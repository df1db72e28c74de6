#include "serve/delta_overlay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "analysis/reciprocity.h"
#include "graph/io.h"
#include "util/ext_sort.h"
#include "util/metrics.h"
#include "util/string_utils.h"
#include "util/trace.h"

namespace elitenet {
namespace serve {

using graph::DiGraph;
using graph::NodeId;

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const OverlayEdgeState* OverlayRow::Find(NodeId neighbor) const {
  auto it = std::lower_bound(
      entries.begin(), entries.end(), neighbor,
      [](const OverlayEdgeState& e, NodeId v) { return e.neighbor < v; });
  if (it == entries.end() || it->neighbor != neighbor) return nullptr;
  return &*it;
}

// ---------------------------------------------------------------------------
// LiveSnapshot

uint64_t LiveSnapshot::base_version() const { return epoch_->base_version; }

uint64_t LiveSnapshot::epoch_seq() const { return epoch_->epoch_seq; }

NodeId LiveSnapshot::num_nodes() const { return epoch_->base.num_nodes(); }

const DiGraph& LiveSnapshot::base() const { return epoch_->base; }

const void* LiveSnapshot::warm_payload() const {
  return epoch_->warm_payload.get();
}

bool LiveSnapshot::Touched(NodeId u) const {
  const OverlayRow* f = epoch_->fwd[u].load(std::memory_order_acquire);
  if (f != nullptr && f->min_version <= version_) return true;
  const OverlayRow* r = epoch_->rev[u].load(std::memory_order_acquire);
  return r != nullptr && r->min_version <= version_;
}

uint32_t LiveSnapshot::OutDegree(NodeId u) const {
  return overlay_internal::MergedDegree(
      epoch_->base.OutDegree(u),
      epoch_->fwd[u].load(std::memory_order_acquire), version_);
}

uint32_t LiveSnapshot::InDegree(NodeId u) const {
  return overlay_internal::MergedDegree(
      epoch_->base.InDegree(u),
      epoch_->rev[u].load(std::memory_order_acquire), version_);
}

bool LiveSnapshot::HasEdge(NodeId u, NodeId v) const {
  const OverlayRow* row = epoch_->fwd[u].load(std::memory_order_acquire);
  if (row != nullptr && row->min_version <= version_) {
    if (const OverlayEdgeState* e = row->Find(v)) return e->PresentAt(version_);
  }
  return epoch_->base.HasEdge(u, v);
}

void LiveSnapshot::CollectOut(NodeId u, std::vector<NodeId>* out) const {
  out->clear();
  ForEachOut(u, [out](NodeId v) { out->push_back(v); });
}

void LiveSnapshot::CollectIn(NodeId u, std::vector<NodeId>* out) const {
  out->clear();
  ForEachIn(u, [out](NodeId v) { out->push_back(v); });
}

// ---------------------------------------------------------------------------
// LiveGraph

LiveGraph::~LiveGraph() = default;

Result<std::unique_ptr<LiveGraph>> LiveGraph::Create(
    DiGraph base, const LiveGraphOptions& options,
    std::shared_ptr<const void> warm_payload) {
  if (base.num_nodes() == 0) {
    return Status::InvalidArgument("cannot overlay an empty graph");
  }
  std::unique_ptr<LiveGraph> lg(new LiveGraph());
  lg->num_nodes_ = base.num_nodes();
  lg->options_ = options;

  lg->live_edges_.store(base.num_edges(), std::memory_order_relaxed);
  lg->reciprocated_.store(analysis::ComputeReciprocity(base).reciprocated_edges,
                          std::memory_order_relaxed);

  auto epoch = std::make_shared<Epoch>(std::move(base));
  epoch->warm_payload = std::move(warm_payload);
  lg->writer_epoch_ = epoch;
  lg->PublishEpoch(epoch);

  if (!options.log_path.empty()) {
    // Recovery: an existing WAL is the authoritative mutation history for
    // this base — replay it (without re-journaling), then append after it.
    std::vector<Mutation> recovered;
    if (std::FILE* probe = std::fopen(options.log_path.c_str(), "rb")) {
      std::fclose(probe);
      auto read = ReadMutationLog(options.log_path);
      if (!read.ok()) return read.status();
      recovered = std::move(*read);
    }
    auto wal = MutationLogWriter::Open(options.log_path, options.sync_log);
    if (!wal.ok()) return wal.status();
    lg->wal_ = std::move(*wal);
    for (const Mutation& m : recovered) {
      auto applied = lg->ApplyInternal(m, /*journal=*/false);
      if (!applied.ok()) {
        return Status::Corruption("mutation log replay failed at version " +
                                  std::to_string(lg->applied_version() + 1) +
                                  ": " + applied.status().message());
      }
    }
    lg->recovered_ = recovered.size();
  }
  return lg;
}

std::shared_ptr<const LiveGraph::Epoch> LiveGraph::LoadEpoch() const {
  std::lock_guard<std::mutex> lock(epoch_mutex_);
  return epoch_;
}

void LiveGraph::PublishEpoch(std::shared_ptr<const Epoch> epoch) {
  std::lock_guard<std::mutex> lock(epoch_mutex_);
  epoch_.swap(epoch);
}

LiveSnapshot LiveGraph::Snapshot() const {
  // Order matters: epoch first, then applied. If a compaction swaps in
  // between, `applied` may exceed what the loaded (now sealed) epoch can
  // serve — clamping to sealed_version keeps the pair consistent, because
  // every version <= sealed exists in the old epoch's rows.
  std::shared_ptr<const Epoch> e = LoadEpoch();
  const uint64_t applied = applied_.load(std::memory_order_acquire);
  const uint64_t sealed = e->sealed_version.load(std::memory_order_acquire);
  return LiveSnapshot(std::move(e), std::min(applied, sealed));
}

Result<LiveSnapshot> LiveGraph::SnapshotAt(uint64_t version) const {
  for (int retry = 0; retry < 64; ++retry) {
    std::shared_ptr<const Epoch> e = LoadEpoch();
    const uint64_t applied = applied_.load(std::memory_order_acquire);
    if (version > applied) {
      return Status::FailedPrecondition(
          "version " + std::to_string(version) + " not applied yet (head is " +
          std::to_string(applied) + ")");
    }
    if (version < e->base_version) {
      return Status::FailedPrecondition(
          "version " + std::to_string(version) +
          " predates the live epoch (compacted through " +
          std::to_string(e->base_version) + ")");
    }
    if (version <= e->sealed_version.load(std::memory_order_acquire)) {
      return LiveSnapshot(std::move(e), version);
    }
    // The epoch was sealed between the loads; the replacement serves it.
  }
  return Status::Internal("snapshot capture did not stabilize");
}

bool LiveGraph::HeadHasEdge(const Epoch& epoch, NodeId u, NodeId v) const {
  const OverlayRow* row = epoch.fwd[u].load(std::memory_order_relaxed);
  if (row != nullptr) {
    if (const OverlayEdgeState* e = row->Find(v)) return e->PresentHead();
  }
  return epoch.base.HasEdge(u, v);
}

void LiveGraph::ToggleRow(Epoch* epoch, std::atomic<const OverlayRow*>& slot,
                          std::atomic<uint64_t>& row_count, NodeId neighbor,
                          bool base_present, uint64_t version) {
  const OverlayRow* old_row = slot.load(std::memory_order_relaxed);
  auto next = std::make_unique<OverlayRow>();
  if (old_row != nullptr) {
    next->entries = old_row->entries;
    next->min_version = old_row->min_version;
  } else {
    next->min_version = version;
    row_count.fetch_add(1, std::memory_order_relaxed);
  }
  auto it = std::lower_bound(
      next->entries.begin(), next->entries.end(), neighbor,
      [](const OverlayEdgeState& e, NodeId v) { return e.neighbor < v; });
  if (it == next->entries.end() || it->neighbor != neighbor) {
    OverlayEdgeState fresh;
    fresh.neighbor = neighbor;
    fresh.base_present = base_present;
    it = next->entries.insert(it, std::move(fresh));
    epoch->entries.fetch_add(1, std::memory_order_relaxed);
  }
  it->toggles.push_back(version);
  slot.store(next.release(), std::memory_order_release);
  if (old_row != nullptr) {
    epoch->graveyard.emplace_back(old_row);
    epoch->retired.fetch_add(1, std::memory_order_relaxed);
  }
}

bool LiveGraph::ApplyToEpoch(Epoch* epoch, uint64_t version,
                             const Mutation& m) {
  const bool want = m.op == MutationOp::kFollow;
  if (HeadHasEdge(*epoch, m.src, m.dst) == want) return false;
  ToggleRow(epoch, epoch->fwd[m.src], epoch->rows_fwd, m.dst,
            epoch->base.HasEdge(m.src, m.dst), version);
  ToggleRow(epoch, epoch->rev[m.dst], epoch->rows_rev, m.src,
            epoch->base.HasEdge(m.src, m.dst), version);
  return true;
}

Result<ApplyOutcome> LiveGraph::Apply(const Mutation& m) {
  return ApplyInternal(m, /*journal=*/true);
}

Result<ApplyOutcome> LiveGraph::ApplyInternal(const Mutation& m,
                                              bool journal) {
  if (m.src >= num_nodes_ || m.dst >= num_nodes_) {
    return Status::InvalidArgument(
        "mutation node id out of range: " + std::to_string(m.src) + " -> " +
        std::to_string(m.dst) + " (graph has " + std::to_string(num_nodes_) +
        " nodes)");
  }
  if (m.src == m.dst) {
    return Status::InvalidArgument("self-follow rejected: node " +
                                   std::to_string(m.src));
  }

  std::lock_guard<std::mutex> lock(apply_mutex_);
  const uint64_t version = applied_.load(std::memory_order_relaxed) + 1;
  // WAL first: a journaled-but-not-applied record replays idempotently; an
  // applied-but-not-journaled one would be lost history.
  if (journal && wal_ != nullptr) {
    EN_RETURN_IF_ERROR(wal_->Append(m));
  }

  Epoch* epoch = writer_epoch_.get();
  const bool changed = ApplyToEpoch(epoch, version, m);
  if (changed) {
    if (recording_tail_) tail_.push_back({version, m});
    const bool follow = m.op == MutationOp::kFollow;
    const int32_t delta = follow ? 1 : -1;
    (follow ? follows_ : unfollows_).fetch_add(1, std::memory_order_relaxed);
    live_edges_.fetch_add(static_cast<uint64_t>(static_cast<int64_t>(delta)),
                          std::memory_order_relaxed);
    // The reverse edge is untouched by this mutation, so reciprocity
    // changes iff dst -> src exists at the head.
    if (HeadHasEdge(*epoch, m.dst, m.src)) {
      reciprocated_.fetch_add(static_cast<uint64_t>(2 * delta),
                              std::memory_order_relaxed);
    }
    // Current tombstone/add tallies (forward direction only, so an edge
    // counts once): a toggled base edge is a tombstone while absent, a
    // toggled non-base edge an overlay add while present.
    if (epoch->base.HasEdge(m.src, m.dst)) {
      tombstones_.fetch_add(static_cast<uint64_t>(follow ? -1 : 1),
                            std::memory_order_relaxed);
    } else {
      overlay_adds_.fetch_add(static_cast<uint64_t>(follow ? 1 : -1),
                              std::memory_order_relaxed);
    }
    const uint64_t rows = epoch->rows_fwd.load(std::memory_order_relaxed) +
                          epoch->rows_rev.load(std::memory_order_relaxed);
    if (rows > hw_rows_.load(std::memory_order_relaxed)) {
      hw_rows_.store(rows, std::memory_order_relaxed);
    }
    const uint64_t entries = epoch->entries.load(std::memory_order_relaxed);
    if (entries > hw_entries_.load(std::memory_order_relaxed)) {
      hw_entries_.store(entries, std::memory_order_relaxed);
    }
  } else {
    noops_.fetch_add(1, std::memory_order_relaxed);
  }
  // Publish: the version becomes readable only after its rows are.
  applied_.store(version, std::memory_order_release);

  ApplyOutcome out;
  out.version = version;
  out.changed = changed;
  return out;
}

uint64_t LiveGraph::base_version() const { return LoadEpoch()->base_version; }

double LiveGraph::current_reciprocity() const {
  const uint64_t edges = live_edges_.load(std::memory_order_relaxed);
  if (edges == 0) return 0.0;
  return static_cast<double>(reciprocated_.load(std::memory_order_relaxed)) /
         static_cast<double>(edges);
}

Result<CompactionStats> LiveGraph::Compact(const std::string& path,
                                           const WarmBuilder& warm_builder) {
  std::lock_guard<std::mutex> compact_lock(compact_mutex_);
  ELITENET_SPAN("serve.overlay.compact");
  util::SpanTimer timer;

  // Phase 1 — capture: fix the fold point and start recording the tail.
  std::shared_ptr<Epoch> old_epoch;
  uint64_t fold_version = 0;
  {
    std::lock_guard<std::mutex> lock(apply_mutex_);
    old_epoch = writer_epoch_;
    fold_version = applied_.load(std::memory_order_relaxed);
    recording_tail_ = true;
    tail_.clear();
  }
  auto abandon_tail = [this] {
    std::lock_guard<std::mutex> lock(apply_mutex_);
    recording_tail_ = false;
    tail_.clear();
  };

  // Phase 2 — merge base + overlay at the fold point into the streamed
  // writer. Applies continue concurrently; the snapshot filters them out.
  CompactionStats stats;
  stats.folded_version = fold_version;
  {
    ELITENET_SPAN("serve.overlay.compact.merge");
    LiveSnapshot snap(old_epoch, fold_version);
    // Spill next to the snapshot, named after it, as the generator does.
    util::ExtSortOptions sort_options;
    sort_options.temp_dir = util::DirName(path);
    sort_options.temp_prefix = util::BaseName(path) + ".fwd";
    util::ExtSorter sorter(sort_options);
    std::vector<uint64_t> batch;
    batch.reserve(4096);
    Status add_status = Status::OK();
    for (NodeId u = 0; u < num_nodes_ && add_status.ok(); ++u) {
      snap.ForEachOut(u, [&batch, u](NodeId v) {
        batch.push_back(util::PackEdge(u, v));
      });
      if (batch.size() >= 4096) {
        add_status = sorter.AddBatch(batch);
        batch.clear();
      }
    }
    if (add_status.ok() && !batch.empty()) {
      add_status = sorter.AddBatch(batch);
    }
    if (!add_status.ok()) {
      abandon_tail();
      return add_status;
    }
    // The writer goes through a temp file renamed into place, so a
    // concurrent cold start never maps a torn file.
    auto written = graph::WriteStreamedV2(&sorter, num_nodes_, path);
    if (!written.ok()) {
      abandon_tail();
      return written.status();
    }
    stats.num_edges = written->num_edges;
    stats.graph_checksum = written->graph_checksum;
  }

  // Phase 3 — map the fresh base and build its warm payload (both outside
  // the writer lock; applies and reads continue against the old epoch).
  auto mapped = graph::MapBinary(path);
  if (!mapped.ok()) {
    abandon_tail();
    return mapped.status();
  }
  std::shared_ptr<const void> payload;
  if (warm_builder != nullptr) {
    auto built = warm_builder(*mapped);
    if (!built.ok()) {
      abandon_tail();
      return built.status();
    }
    payload = std::move(*built);
  }
  auto fresh = std::make_shared<Epoch>(std::move(*mapped));
  fresh->base_version = fold_version;
  fresh->epoch_seq = old_epoch->epoch_seq + 1;
  fresh->warm_payload = std::move(payload);

  // Phase 4 — swap: drain the tail into the new epoch at the original
  // versions, seal the old epoch, publish. Writers block only here.
  {
    std::lock_guard<std::mutex> lock(apply_mutex_);
    for (const TailRecord& t : tail_) {
      // Re-applies deterministically: the new base at fold_version plus
      // the already-drained prefix is exactly the state this mutation saw
      // in the old epoch, so it flips the same way.
      ApplyToEpoch(fresh.get(), t.version, t.mutation);
      ++stats.tail_replayed;
    }
    tail_.clear();
    recording_tail_ = false;
    old_epoch->sealed_version.store(applied_.load(std::memory_order_relaxed),
                                    std::memory_order_release);
    writer_epoch_ = fresh;
    PublishEpoch(fresh);
  }
  compactions_.fetch_add(1, std::memory_order_relaxed);
  last_compaction_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  stats.seconds = timer.Seconds();
  ELITENET_COUNT("serve.overlay.compactions", 1);
  return stats;
}

OverlayStats LiveGraph::Stats() const {
  OverlayStats s;
  s.applied = applied_.load(std::memory_order_acquire);
  s.follows = follows_.load(std::memory_order_relaxed);
  s.unfollows = unfollows_.load(std::memory_order_relaxed);
  s.noops = noops_.load(std::memory_order_relaxed);
  s.recovered = recovered_;
  s.live_edges = live_edges_.load(std::memory_order_relaxed);
  s.reciprocated_edges = reciprocated_.load(std::memory_order_relaxed);
  s.tombstones = tombstones_.load(std::memory_order_relaxed);
  s.overlay_adds = overlay_adds_.load(std::memory_order_relaxed);
  s.hw_rows = hw_rows_.load(std::memory_order_relaxed);
  s.hw_entries = hw_entries_.load(std::memory_order_relaxed);
  s.compactions = compactions_.load(std::memory_order_relaxed);
  std::shared_ptr<const Epoch> e = LoadEpoch();
  s.overlay_rows_fwd = e->rows_fwd.load(std::memory_order_relaxed);
  s.overlay_rows_rev = e->rows_rev.load(std::memory_order_relaxed);
  s.overlay_entries = e->entries.load(std::memory_order_relaxed);
  s.retired_rows = e->retired.load(std::memory_order_relaxed);
  s.epoch_seq = e->epoch_seq;
  s.base_version = e->base_version;
  s.base_edges = e->base.num_edges();
  const int64_t last = last_compaction_ns_.load(std::memory_order_relaxed);
  s.seconds_since_compaction =
      last == 0 ? -1.0 : static_cast<double>(SteadyNowNs() - last) / 1e9;
  return s;
}

}  // namespace serve
}  // namespace elitenet
