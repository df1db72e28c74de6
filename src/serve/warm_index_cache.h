// Persisted warm indexes — the serving layer's answer to checkpoint
// loading. QueryEngine::Create pays O(iterations * m) to build PageRank,
// component labelings, mutual-edge counts, the heavy-node reach table
// and the fingerprint before the first query. All of it is a pure
// function of (graph bytes, index config), so it can be computed once,
// written to a `<graph>.widx` sidecar, and on the next cold start mapped
// + validated instead of recomputed.
//
// Invalidation key: the pair (GraphChecksum of the CSR arrays,
// WarmConfigHash of every option that feeds an index). A key mismatch is
// not corruption — it means "these indexes describe some other graph or
// config" — so loads fail with FailedPrecondition and the engine rebuilds
// and rewrites. Structural damage (truncation, checksum mismatch, version
// skew) also degrades to a rebuild, never a crash.
//
// File layout: "WIDX" in the sectioned container of
// util/sectioned_file.h (64-byte header, 32-byte section entries,
// 64-byte-aligned sections, per-section XXH64, temp file + rename on
// write — the ENG2 graph snapshot's container too):
//   header words:  graph_checksum | config_hash | num_nodes
//   sections:      scalars | mutual_degree | wcc_label | wcc_sizes |
//                  scc_label | scc_sizes | pagerank | rank_order |
//                  rank_of | fingerprint_error | heavy_ids | heavy_reach
//   heavy_ids (u32, strictly ascending, < n) and heavy_reach (u32, each
//   <= n - 1, same length) are the exact reach_2hop of the nodes with the
//   costliest ego walks (serve/compute.h ComputeHeavyReach); a few
//   hundred entries at 40k users.
//
// Version history: v1 had the first ten sections; v2 added four
// distance-oracle (hub label) sections, offsets plus packed u64
// (rank<<32)|dist entries per direction; v3 splits each entry section
// into a u32 rank and a u8 distance section (5 bytes per label entry
// instead of 8); v4 adds the two heavy-node reach sections; v5 drops the
// six hub-label sections, since dist always runs the bidirectional
// search and no longer reads a distance oracle; v6 keeps v5's section
// bytes, with XXH64 digests and keys in place of FNV-1a. Readers reject
// other versions with NotSupported — the engine treats that exactly like
// corruption and rebuilds, so version skew in either direction degrades
// cleanly.

#ifndef ELITENET_SERVE_WARM_INDEX_CACHE_H_
#define ELITENET_SERVE_WARM_INDEX_CACHE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/centrality.h"
#include "analysis/components.h"
#include "analysis/degree.h"
#include "analysis/reciprocity.h"
#include "core/fingerprint.h"
#include "graph/digraph.h"
#include "util/status.h"

namespace elitenet {
namespace serve {

/// Every index QueryEngine builds at warmup, gathered so the whole set
/// can be persisted and restored as one unit.
struct WarmIndexes {
  analysis::DegreeStats degree_stats;
  analysis::ReciprocityStats reciprocity;
  /// Per-node count of reciprocated out-edges.
  std::vector<uint32_t> mutual_degree;
  analysis::ComponentLabeling wcc;
  analysis::ComponentLabeling scc;
  std::vector<double> pagerank;
  /// All nodes by descending PageRank, ties by id.
  std::vector<graph::NodeId> rank_order;
  /// node -> 1-based rank position.
  std::vector<uint32_t> rank_of;
  bool fingerprint_ok = false;
  core::GraphFingerprint fingerprint;
  double fingerprint_similarity = 0.0;
  std::string fingerprint_error;
  /// The nodes with the costliest ego walks, ascending, and the exact
  /// reach_2hop of each (serve/compute.h ComputeHeavyReach). Ego answers
  /// them from here instead of walking; empty is valid and means "walk
  /// every node".
  std::vector<graph::NodeId> heavy_ids;
  std::vector<uint32_t> heavy_reach;

  /// The stored reach_2hop of `u` (binary search over heavy_ids), or null
  /// when u is not in the table.
  const uint32_t* StoredReach(graph::NodeId u) const;
};

/// Identity of a warm-index set: which graph bytes and which index
/// configuration produced it.
struct WarmIndexKey {
  uint64_t graph_checksum = 0;
  uint64_t config_hash = 0;
};

/// XXH64 of every option that changes an index's value, plus an
/// internal format-generation constant — bump-on-change lives in the
/// implementation, so stale sidecars from older layouts never validate.
/// The trailing flag (EngineOptions::distance_oracle) is accepted and
/// ignored: no index depends on it any more.
uint64_t WarmConfigHash(const analysis::PageRankOptions& pagerank,
                        const core::FingerprintOptions& fingerprint,
                        bool = false);

/// Conventional sidecar path for a graph file: "<path>.widx" (trailing
/// slashes stripped first, so dataset dirs get "<dir>.widx").
std::string WarmIndexPathFor(const std::string& graph_path);

/// Writes the sidecar atomically (temp file + rename): a concurrent
/// reader sees the old bytes or the new bytes, never a torn file.
Status SaveWarmIndexes(const std::string& path, const WarmIndexKey& key,
                       const WarmIndexes& indexes);

/// Maps the sidecar, validates magic/version/key/checksums and internal
/// consistency against `expected_nodes`, and returns the restored
/// indexes. FailedPrecondition for a key that does not match (stale
/// sidecar), Corruption for structural damage — callers treat any error
/// as "rebuild".
Result<WarmIndexes> LoadWarmIndexes(const std::string& path,
                                    const WarmIndexKey& key,
                                    graph::NodeId expected_nodes);

/// One row of the sidecar inventory DescribeWarmIndexes returns.
struct WarmIndexSectionInfo {
  std::string name;
  uint64_t bytes = 0;
};

/// Returns the per-section sizes of an existing sidecar in file order
/// (the `elitenet_cli warmup` report). Checks the container frame,
/// section checksums included, but not the key — an inventory of a stale
/// sidecar is still an inventory.
Result<std::vector<WarmIndexSectionInfo>> DescribeWarmIndexes(
    const std::string& path);

}  // namespace serve
}  // namespace elitenet

#endif  // ELITENET_SERVE_WARM_INDEX_CACHE_H_
