#include "serve/delta_overlay.h"

#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "graph/builder.h"
#include "graph/io.h"
#include "util/rng.h"

namespace elitenet {
namespace serve {
namespace {

std::string TmpPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// Mutual pair 0<->1, cycle 0->1->2->0, tail 2->3->4, isolated 5.
graph::DiGraph TestGraph() {
  graph::GraphBuilder b(6);
  EXPECT_TRUE(b.AddEdge(0, 1).ok());
  EXPECT_TRUE(b.AddEdge(1, 0).ok());
  EXPECT_TRUE(b.AddEdge(1, 2).ok());
  EXPECT_TRUE(b.AddEdge(2, 0).ok());
  EXPECT_TRUE(b.AddEdge(2, 3).ok());
  EXPECT_TRUE(b.AddEdge(3, 4).ok());
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

std::unique_ptr<LiveGraph> MakeLive(const graph::DiGraph& g) {
  auto live = LiveGraph::Create(g);
  EXPECT_TRUE(live.ok()) << live.status().ToString();
  return std::move(*live);
}

Mutation Follow(graph::NodeId s, graph::NodeId d) {
  return {MutationOp::kFollow, s, d};
}
Mutation Unfollow(graph::NodeId s, graph::NodeId d) {
  return {MutationOp::kUnfollow, s, d};
}

std::vector<graph::NodeId> Out(const LiveSnapshot& s, graph::NodeId u) {
  std::vector<graph::NodeId> v;
  s.CollectOut(u, &v);
  return v;
}
std::vector<graph::NodeId> In(const LiveSnapshot& s, graph::NodeId u) {
  std::vector<graph::NodeId> v;
  s.CollectIn(u, &v);
  return v;
}

TEST(DeltaOverlayTest, UnfollowBaseEdge) {
  auto live = MakeLive(TestGraph());
  auto out = live->Apply(Unfollow(2, 3));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->version, 1u);
  EXPECT_TRUE(out->changed);

  const LiveSnapshot snap = live->Snapshot();
  EXPECT_FALSE(snap.HasEdge(2, 3));
  EXPECT_EQ(snap.OutDegree(2), 1u);  // only 2->0 left
  EXPECT_EQ(snap.InDegree(3), 0u);
  EXPECT_EQ(Out(snap, 2), (std::vector<graph::NodeId>{0}));
  EXPECT_EQ(In(snap, 3), std::vector<graph::NodeId>{});
  EXPECT_EQ(live->current_edges(), 5u);
  EXPECT_EQ(live->Stats().tombstones, 1u);
}

TEST(DeltaOverlayTest, UnfollowOverlayEdgeLeavesNoTombstone) {
  auto live = MakeLive(TestGraph());
  ASSERT_TRUE(live->Apply(Follow(5, 0)).ok());
  EXPECT_EQ(live->Stats().overlay_adds, 1u);
  ASSERT_TRUE(live->Apply(Unfollow(5, 0)).ok());

  const LiveSnapshot snap = live->Snapshot();
  EXPECT_FALSE(snap.HasEdge(5, 0));
  EXPECT_EQ(snap.OutDegree(5), 0u);
  EXPECT_EQ(live->current_edges(), 6u);
  const OverlayStats stats = live->Stats();
  EXPECT_EQ(stats.tombstones, 0u);  // never was a base edge
  EXPECT_EQ(stats.overlay_adds, 0u);
}

TEST(DeltaOverlayTest, ReFollowAfterTombstone) {
  auto live = MakeLive(TestGraph());
  ASSERT_TRUE(live->Apply(Unfollow(0, 1)).ok());
  EXPECT_FALSE(live->Snapshot().HasEdge(0, 1));
  ASSERT_TRUE(live->Apply(Follow(0, 1)).ok());

  const LiveSnapshot snap = live->Snapshot();
  EXPECT_TRUE(snap.HasEdge(0, 1));
  EXPECT_EQ(snap.OutDegree(0), 1u);
  EXPECT_EQ(Out(snap, 0), std::vector<graph::NodeId>{1});
  EXPECT_EQ(live->current_edges(), 6u);
  EXPECT_EQ(live->Stats().tombstones, 0u);
  // The history is still visible at the intermediate version.
  auto mid = live->SnapshotAt(1);
  ASSERT_TRUE(mid.ok());
  EXPECT_FALSE(mid->HasEdge(0, 1));
}

TEST(DeltaOverlayTest, InvalidMutationsConsumeNoVersion) {
  auto live = MakeLive(TestGraph());
  EXPECT_EQ(live->Apply(Follow(0, 0)).status().code(),
            StatusCode::kInvalidArgument);  // self-follow
  EXPECT_EQ(live->Apply(Follow(0, 6)).status().code(),
            StatusCode::kInvalidArgument);  // dst out of range
  EXPECT_EQ(live->Apply(Follow(6, 0)).status().code(),
            StatusCode::kInvalidArgument);  // src out of range
  EXPECT_EQ(live->applied_version(), 0u);
  EXPECT_EQ(live->Snapshot().version(), 0u);
}

TEST(DeltaOverlayTest, NoOpStillConsumesAVersion) {
  auto live = MakeLive(TestGraph());
  auto out = live->Apply(Follow(0, 1));  // already present in the base
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->version, 1u);
  EXPECT_FALSE(out->changed);
  EXPECT_EQ(live->applied_version(), 1u);
  EXPECT_EQ(live->Stats().noops, 1u);
  EXPECT_EQ(live->current_edges(), 6u);
}

TEST(DeltaOverlayTest, SnapshotAtBounds) {
  auto live = MakeLive(TestGraph());
  ASSERT_TRUE(live->Apply(Follow(5, 0)).ok());
  EXPECT_TRUE(live->SnapshotAt(0).ok());
  EXPECT_TRUE(live->SnapshotAt(1).ok());
  EXPECT_EQ(live->SnapshotAt(2).status().code(),
            StatusCode::kFailedPrecondition);  // not applied yet
}

TEST(DeltaOverlayTest, TouchedIsVersionFiltered) {
  auto live = MakeLive(TestGraph());
  ASSERT_TRUE(live->Apply(Follow(5, 3)).ok());  // version 1
  auto before = live->SnapshotAt(0);
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before->Touched(5));
  EXPECT_FALSE(before->Touched(3));
  const LiveSnapshot after = live->Snapshot();
  EXPECT_TRUE(after.Touched(5));   // forward row
  EXPECT_TRUE(after.Touched(3));   // reverse row
  EXPECT_FALSE(after.Touched(0));  // untouched node
}

// Every version's merged adjacency must equal a plain simulator's edge
// set at that version — randomized against the overlay's COW rows.
TEST(DeltaOverlayTest, VersionedReadsMatchReferenceSimulator) {
  const graph::DiGraph g = TestGraph();
  auto live = MakeLive(g);
  util::Rng rng(77);

  std::set<std::pair<graph::NodeId, graph::NodeId>> edges;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::NodeId v : g.OutNeighbors(u)) edges.insert({u, v});
  }
  std::vector<std::set<std::pair<graph::NodeId, graph::NodeId>>> history;
  history.push_back(edges);  // version 0

  for (int i = 0; i < 300; ++i) {
    const auto src = static_cast<graph::NodeId>(rng.UniformU64(6));
    auto dst = static_cast<graph::NodeId>(rng.UniformU64(6));
    if (src == dst) dst = (dst + 1) % 6;
    const bool follow = rng.Bernoulli(0.6);
    ASSERT_TRUE(
        live->Apply(follow ? Follow(src, dst) : Unfollow(src, dst)).ok());
    if (follow) {
      edges.insert({src, dst});
    } else {
      edges.erase({src, dst});
    }
    history.push_back(edges);

    // The head tallies Apply maintains match a recount of the reference.
    uint64_t reciprocated = 0;
    for (const auto& [a, b] : edges) reciprocated += edges.count({b, a});
    EXPECT_EQ(live->Stats().reciprocated_edges, reciprocated) << "step " << i;
    EXPECT_EQ(live->current_edges(), edges.size()) << "step " << i;
    EXPECT_DOUBLE_EQ(live->current_reciprocity(),
                     edges.empty() ? 0.0
                                   : static_cast<double>(reciprocated) /
                                         static_cast<double>(edges.size()))
        << "step " << i;
  }

  for (uint64_t v = 0; v < history.size(); v += 7) {
    auto snap = live->SnapshotAt(v);
    ASSERT_TRUE(snap.ok()) << "version " << v;
    uint64_t count = 0;
    for (graph::NodeId u = 0; u < 6; ++u) {
      std::vector<graph::NodeId> expect_out, expect_in;
      for (const auto& [a, b] : history[v]) {
        if (a == u) expect_out.push_back(b);
        if (b == u) expect_in.push_back(a);
      }
      EXPECT_EQ(Out(*snap, u), expect_out) << "v=" << v << " u=" << u;
      EXPECT_EQ(In(*snap, u), expect_in) << "v=" << v << " u=" << u;
      EXPECT_EQ(snap->OutDegree(u), expect_out.size());
      EXPECT_EQ(snap->InDegree(u), expect_in.size());
      for (graph::NodeId w = 0; w < 6; ++w) {
        EXPECT_EQ(snap->HasEdge(u, w), history[v].count({u, w}) > 0);
      }
      count += expect_out.size();
    }
    if (v == live->applied_version()) {
      EXPECT_EQ(live->current_edges(), count);
    }
  }
}

TEST(DeltaOverlayTest, WalRecoveryReplaysDeterministically) {
  const std::string wal = TmpPath("overlay_recovery.wal");
  std::remove(wal.c_str());
  const graph::DiGraph g = TestGraph();
  LiveGraphOptions opts;
  opts.log_path = wal;

  uint64_t edges_before = 0, version_before = 0;
  {
    auto live = LiveGraph::Create(g, opts);
    ASSERT_TRUE(live.ok());
    ASSERT_TRUE((*live)->Apply(Follow(5, 0)).ok());
    ASSERT_TRUE((*live)->Apply(Unfollow(2, 3)).ok());
    ASSERT_TRUE((*live)->Apply(Follow(0, 1)).ok());  // no-op, journaled too
    edges_before = (*live)->current_edges();
    version_before = (*live)->applied_version();
  }  // destructor flushes the WAL

  auto live = LiveGraph::Create(g, opts);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ((*live)->recovered(), 3u);
  EXPECT_EQ((*live)->applied_version(), version_before);
  EXPECT_EQ((*live)->current_edges(), edges_before);
  const LiveSnapshot snap = (*live)->Snapshot();
  EXPECT_TRUE(snap.HasEdge(5, 0));
  EXPECT_FALSE(snap.HasEdge(2, 3));
  // Recovery preserves version semantics, not just head state.
  auto v1 = (*live)->SnapshotAt(1);
  ASSERT_TRUE(v1.ok());
  EXPECT_TRUE(v1->HasEdge(2, 3));
}

TEST(DeltaOverlayTest, CompactionIsByteIdenticalToColdRebuild) {
  auto live = MakeLive(TestGraph());
  ASSERT_TRUE(live->Apply(Unfollow(2, 3)).ok());
  ASSERT_TRUE(live->Apply(Follow(5, 0)).ok());
  ASSERT_TRUE(live->Apply(Follow(4, 2)).ok());

  const std::string compacted = TmpPath("overlay_compacted.eng2");
  auto stats = live->Compact(compacted);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->folded_version, 3u);
  EXPECT_EQ(stats->num_edges, 7u);

  graph::GraphBuilder b(6);
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  ASSERT_TRUE(b.AddEdge(1, 0).ok());
  ASSERT_TRUE(b.AddEdge(1, 2).ok());
  ASSERT_TRUE(b.AddEdge(2, 0).ok());
  ASSERT_TRUE(b.AddEdge(3, 4).ok());
  ASSERT_TRUE(b.AddEdge(5, 0).ok());
  ASSERT_TRUE(b.AddEdge(4, 2).ok());
  auto reference = b.Build();
  ASSERT_TRUE(reference.ok());
  const std::string rebuilt = TmpPath("overlay_rebuilt.eng2");
  ASSERT_TRUE(graph::SaveBinaryV2(*reference, rebuilt).ok());

  auto slurp = [](const std::string& path) {
    std::string bytes;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    char buf[4096];
    size_t got;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
      bytes.append(buf, got);
    }
    std::fclose(f);
    return bytes;
  };
  EXPECT_EQ(slurp(compacted), slurp(rebuilt));
}

TEST(DeltaOverlayTest, SnapshotsSurviveCompaction) {
  auto live = MakeLive(TestGraph());
  ASSERT_TRUE(live->Apply(Unfollow(2, 3)).ok());
  const LiveSnapshot pre = live->Snapshot();  // pins the old epoch at v1
  ASSERT_TRUE(live->Apply(Follow(5, 0)).ok());

  const std::string path = TmpPath("overlay_swap.eng2");
  ASSERT_TRUE(live->Compact(path).ok());

  // The in-flight snapshot still reads its pre-swap state.
  EXPECT_EQ(pre.version(), 1u);
  EXPECT_FALSE(pre.HasEdge(2, 3));
  EXPECT_FALSE(pre.HasEdge(5, 0));  // v2 happened after the capture
  EXPECT_EQ(pre.base_version(), 0u);

  // New snapshots come from the compacted epoch.
  const LiveSnapshot post = live->Snapshot();
  EXPECT_EQ(post.base_version(), 2u);
  EXPECT_EQ(post.epoch_seq(), pre.epoch_seq() + 1);
  EXPECT_TRUE(post.HasEdge(5, 0));
  EXPECT_FALSE(post.Touched(5));  // folded into the new base

  // Folded versions are gone; the head version is still addressable.
  EXPECT_EQ(live->SnapshotAt(1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(live->SnapshotAt(2).ok());
}

TEST(DeltaOverlayTest, ApplyDuringCompactionIsNotLost) {
  // Mutations racing the merge land in the tail and re-apply to the new
  // epoch at their original versions.
  auto live = MakeLive(TestGraph());
  for (int round = 0; round < 4; ++round) {
    std::atomic<bool> stop{false};
    std::thread mutator([&] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto u = static_cast<graph::NodeId>(i % 6);
        const auto v = static_cast<graph::NodeId>((i + 1) % 6);
        ASSERT_TRUE(
            live->Apply((i & 1) ? Follow(u, v) : Unfollow(u, v)).ok());
        ++i;
      }
    });
    const std::string path =
        TmpPath("overlay_race_" + std::to_string(round) + ".eng2");
    auto stats = live->Compact(path);
    stop.store(true, std::memory_order_relaxed);
    mutator.join();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();

    // Every version up to applied_version() must still be readable, and
    // the head snapshot must agree with the incremental edge counter.
    const uint64_t head = live->applied_version();
    ASSERT_TRUE(live->SnapshotAt(head).ok());
    uint64_t count = 0;
    const LiveSnapshot snap = live->Snapshot();
    for (graph::NodeId u = 0; u < 6; ++u) count += snap.OutDegree(u);
    EXPECT_EQ(live->current_edges(), count);
  }
}

// tsan-labelled hammer: one writer, several snapshot readers, and a
// compactor, all concurrent. Readers assert per-snapshot invariants
// (consistent degrees vs merged rows); TSan asserts the memory model.
TEST(DeltaOverlayTest, ConcurrentReaderWriterCompactorHammer) {
  const graph::DiGraph g = TestGraph();
  auto live = MakeLive(g);
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    util::Rng rng(123);
    while (!stop.load(std::memory_order_relaxed)) {
      const auto u = static_cast<graph::NodeId>(rng.UniformU64(6));
      auto v = static_cast<graph::NodeId>(rng.UniformU64(6));
      if (u == v) v = (v + 1) % 6;
      ASSERT_TRUE(
          live->Apply(rng.Bernoulli(0.6) ? Follow(u, v) : Unfollow(u, v))
              .ok());
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      uint64_t last_version = 0;
      util::Rng rng(900 + r);
      while (!stop.load(std::memory_order_relaxed)) {
        const LiveSnapshot snap = live->Snapshot();
        // Versions move forward monotonically within one epoch lineage.
        EXPECT_GE(snap.version(), last_version);
        last_version = snap.version();
        const auto u = static_cast<graph::NodeId>(rng.UniformU64(6));
        std::vector<graph::NodeId> out;
        snap.CollectOut(u, &out);
        EXPECT_EQ(out.size(), snap.OutDegree(u));
        for (graph::NodeId v : out) EXPECT_TRUE(snap.HasEdge(u, v));
      }
    });
  }

  std::thread compactor([&] {
    for (int i = 0; i < 6; ++i) {
      auto stats =
          live->Compact(TmpPath("hammer_" + std::to_string(i) + ".eng2"));
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    }
  });

  compactor.join();
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  for (std::thread& t : readers) t.join();

  // Post-hammer head state must still balance.
  uint64_t count = 0;
  const LiveSnapshot snap = live->Snapshot();
  for (graph::NodeId u = 0; u < 6; ++u) count += snap.OutDegree(u);
  EXPECT_EQ(live->current_edges(), count);
}

}  // namespace
}  // namespace serve
}  // namespace elitenet
