// Graph persistence.
//
// Two formats:
//  * Text edge list — one "src dst" pair per line, '#' comments, the format
//    SNAP datasets ship in. Interoperable but slow.
//  * ENG2 zero-copy snapshot — a file in the sectioned container of
//    util/sectioned_file.h (magic, section table, per-section XXH64
//    digests, 64-byte-aligned little-endian sections) whose CSR
//    arrays are consumed *in place*: MapBinary mmaps the file read-only
//    (util/mmap_file.h) and returns a DiGraph whose spans point straight
//    into the page cache, so cold start pays validation, not
//    deserialization. Every binary graph file the tools read or write —
//    ".eng" and ".eng2" paths, dataset directories — is ENG2.

#ifndef ELITENET_GRAPH_IO_H_
#define ELITENET_GRAPH_IO_H_

#include <string>

#include "graph/digraph.h"
#include "util/ext_sort.h"
#include "util/status.h"

namespace elitenet {
namespace graph {

/// Writes "u v" lines. Deterministic (ascending (u, v)) so output diffs.
Status WriteEdgeListText(const DiGraph& g, const std::string& path);

/// Reads a text edge list. Node count is max id + 1 unless `num_nodes`
/// is positive, in which case ids must stay below it (trailing isolated
/// nodes are representable that way).
Result<DiGraph> ReadEdgeListText(const std::string& path,
                                 NodeId num_nodes = 0);

/// The XXH64 digests of the four CSR arrays folded in order
/// (util::ChainDigests) — the identity of a graph's exact byte content,
/// equal to the container's chain over an ENG2's sections. Stored in the
/// ENG2 header and used
/// as the invalidation key for persisted warm indexes
/// (serve/warm_index_cache.h) and partitions (serve/partition.h).
/// O(1) for a graph that carries its checksum (DiGraph::carried_checksum:
/// a MapBinary graph and its copies, which carry the value MapBinary
/// verified); every other graph is hashed, O(n + m).
uint64_t GraphChecksum(const DiGraph& g);

/// ENG2 sectioned snapshot, in the container of util/sectioned_file.h
/// (64-byte header, 32-byte section entries, 64-byte-aligned sections,
/// per-section XXH64). ENG2 version 3 fills it with:
///   header words:  num_nodes | num_edges | graph_checksum
///   sections 0..3: out_offsets | out_targets | in_offsets | in_targets
/// Alignment means a page-aligned mapping yields correctly aligned
/// u64/u32 array pointers. Written to `path + ".tmp"` and renamed into
/// place, so `path` may be the very file `g` is mapped from. Version 2
/// had the same payload bytes under FNV-1a checksums; MapBinary refuses
/// it (NotSupported).
Status SaveBinaryV2(const DiGraph& g, const std::string& path);

/// Maps an ENG2 snapshot read-only and returns a borrowed-storage DiGraph
/// over the mapping (kept alive for the graph's lifetime and every copy).
/// The container checks the frame (magic, version, section table,
/// alignment, bounds, per-section checksums); MapBinary then checks the
/// node/edge counts against the file size before any length arithmetic,
/// the section lengths the counts imply, the header graph checksum, and
/// the CSR structural invariants before returning;
/// any mismatch is a clean Corruption/NotSupported with no partial graph.
/// A file in the retired ENG1 format fails the magic check (Corruption).
/// The CSR bytes are hashed once: the container's verify pass computes
/// each section's XXH64 and folds the digests into the graph checksum,
/// and the returned graph carries that checksum, so GraphChecksum on it
/// (and on its copies) hashes nothing.
Result<DiGraph> MapBinary(const std::string& path);

/// Tuning for the out-of-core ENG2 writer.
struct StreamWriteOptions {
  /// Memory budget for the internal reverse-edge external sorter (the
  /// forward sorter is the caller's and carries its own budget). 0 means
  /// unbounded (sorts in RAM, no spill).
  uint64_t sort_budget_bytes = 256ull << 20;
  /// Spill directory for the reverse sorter. Empty derives the directory
  /// of the output path, so temp files land next to the snapshot.
  std::string temp_dir;
};

/// What a streamed write did — sizes for logging, spill counts for
/// out-of-core telemetry, and the checksum that keys warm indexes.
struct StreamWriteStats {
  uint64_t num_nodes = 0;
  uint64_t num_edges = 0;          ///< unique edges written
  uint64_t input_records = 0;      ///< records the forward sorter held
  uint64_t dropped_duplicates = 0;
  uint64_t dropped_self_loops = 0;
  uint64_t graph_checksum = 0;     ///< matches GraphChecksum of a load
  size_t forward_spill_runs = 0;
  size_t reverse_spill_runs = 0;
};

/// Writes an ENG2 snapshot from a sorted edge stream without ever
/// materializing the graph: `forward` holds edges packed with
/// util::PackEdge (src-major order). Two merge passes build the out-CSR
/// sections (counting pass -> offsets, placement pass -> targets); the
/// counting pass simultaneously feeds a (dst, src)-keyed reverse sorter
/// whose two passes build the in-CSR sections the same way. Peak memory
/// is one (n+1)-entry offsets array plus the sorters' merge windows —
/// never O(m). Duplicate edges coalesce and self-loops drop, matching
/// GraphBuilder, so the resulting file is byte-identical to
/// SaveBinaryV2(builder.Build()) over the same edge multiset, at any
/// memory budget. Writes through a temp file renamed into place, like
/// SaveBinaryV2. Finishes `forward` if the caller has not.
Result<StreamWriteStats> WriteStreamedV2(util::ExtSorter* forward,
                                         NodeId num_nodes,
                                         const std::string& path,
                                         const StreamWriteOptions& options = {});

/// Convenience: streams an in-memory DiGraph through the external-sort
/// writer (both sorters under `sort_budget_bytes`). Exercises the
/// out-of-core path from the CLI; byte-identical to SaveBinaryV2.
Result<StreamWriteStats> SaveStreamedV2(const DiGraph& g,
                                        const std::string& path,
                                        const StreamWriteOptions& options = {});

}  // namespace graph
}  // namespace elitenet

#endif  // ELITENET_GRAPH_IO_H_
