#include "graph/io.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "util/sectioned_file.h"
#include "util/string_utils.h"

namespace elitenet {
namespace graph {

namespace {

// ENG2 in the sectioned container (util/sectioned_file.h): header words
// {num_nodes, num_edges, graph_checksum}, sections out_offsets,
// out_targets, in_offsets, in_targets. v3 has v2's payload bytes with
// XXH64 section digests and graph checksum in place of FNV-1a; a v2 file
// is NotSupported.
constexpr util::SectionedFormat kEng2 = {{'E', 'N', 'G', '2'}, 3, 4};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

/// The CSR invariants MapBinary must establish before handing the mapping
/// to DiGraph: offsets monotone from 0 to m on both sides, all targets
/// in [0, n).
Status ValidateCsr(std::span<const EdgeIdx> out_offsets,
                   std::span<const NodeId> out_targets,
                   std::span<const EdgeIdx> in_offsets,
                   std::span<const NodeId> in_targets, uint64_t n,
                   uint64_t m) {
  if (out_offsets.front() != 0 || in_offsets.front() != 0 ||
      out_offsets.back() != m || in_offsets.back() != m) {
    return Status::Corruption("inconsistent CSR offsets");
  }
  for (size_t i = 1; i < out_offsets.size(); ++i) {
    if (out_offsets[i] < out_offsets[i - 1] ||
        in_offsets[i] < in_offsets[i - 1]) {
      return Status::Corruption("non-monotone CSR offsets");
    }
  }
  for (NodeId t : out_targets) {
    if (t >= n) return Status::Corruption("edge target out of range");
  }
  for (NodeId t : in_targets) {
    if (t >= n) return Status::Corruption("edge source out of range");
  }
  return Status::OK();
}

}  // namespace

// The XXH64 digests of the four CSR arrays, folded in section order, of
// resident and of mapped arrays alike. The container's chained_checksum()
// is the same fold over an ENG2's section digests, which a mapped graph
// carries.
uint64_t GraphChecksum(const DiGraph& g) {
  if (const std::optional<uint64_t> carried = g.carried_checksum()) {
    return *carried;
  }
  const auto digest = [](auto span) {
    return util::Xxh64(span.data(), span.size_bytes());
  };
  const uint64_t digests[] = {digest(g.out_offsets()),
                              digest(g.out_targets()),
                              digest(g.in_offsets()), digest(g.in_targets())};
  return util::ChainDigests(digests);
}

Status WriteEdgeListText(const DiGraph& g, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (!f) return Status::IoError("cannot open for writing: " + path);
  std::fprintf(f.get(), "# elitenet edge list: %u nodes, %" PRIu64 " edges\n",
               g.num_nodes(), g.num_edges());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) {
      if (std::fprintf(f.get(), "%u %u\n", u, v) < 0) {
        return Status::IoError("write failed: " + path);
      }
    }
  }
  return Status::OK();
}

Result<DiGraph> ReadEdgeListText(const std::string& path, NodeId num_nodes) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (!f) return Status::IoError("cannot open for reading: " + path);

  std::vector<std::pair<NodeId, NodeId>> edges;
  NodeId max_id = 0;
  bool any_edge = false;
  char line[256];
  size_t line_no = 0;
  while (std::fgets(line, sizeof(line), f.get()) != nullptr) {
    ++line_no;
    std::string_view sv = util::StripAsciiWhitespace(line);
    if (sv.empty() || sv[0] == '#') continue;
    const auto toks = util::SplitWhitespace(sv);
    if (toks.size() != 2) {
      return Status::Corruption("line " + std::to_string(line_no) +
                                ": expected 'src dst'");
    }
    uint64_t u64, v64;
    if (!util::ParseUint64(toks[0], &u64) ||
        !util::ParseUint64(toks[1], &v64) || u64 > UINT32_MAX ||
        v64 > UINT32_MAX) {
      return Status::Corruption("line " + std::to_string(line_no) +
                                ": bad node id");
    }
    const NodeId u = static_cast<NodeId>(u64);
    const NodeId v = static_cast<NodeId>(v64);
    edges.emplace_back(u, v);
    max_id = std::max({max_id, u, v});
    any_edge = true;
  }

  const NodeId n = num_nodes > 0 ? num_nodes : (any_edge ? max_id + 1 : 0);
  GraphBuilder builder(n);
  builder.Reserve(edges.size());
  EN_RETURN_IF_ERROR(builder.AddEdges(edges));
  return builder.Build();
}

Status SaveBinaryV2(const DiGraph& g, const std::string& path) {
  EN_ASSIGN_OR_RETURN(util::SectionedWriter out,
                      util::SectionedWriter::Create(path, kEng2));
  EN_RETURN_IF_ERROR(out.AddSection(g.out_offsets()));
  EN_RETURN_IF_ERROR(out.AddSection(g.out_targets()));
  EN_RETURN_IF_ERROR(out.AddSection(g.in_offsets()));
  EN_RETURN_IF_ERROR(out.AddSection(g.in_targets()));
  return out.Commit({g.num_nodes(), g.num_edges(), out.chained_checksum()});
}

Result<DiGraph> MapBinary(const std::string& path) {
  EN_ASSIGN_OR_RETURN(util::SectionedFile file,
                      util::SectionedFile::Open(path, kEng2));
  const uint64_t size = file.file_size();
  const uint64_t n = file.words()[0];
  const uint64_t m = file.words()[1];
  if (n > UINT32_MAX) return Status::Corruption("node count overflow");
  // The four sections hold 2(n+1) offsets and 2m targets. Bound both
  // counts by the file size before any length arithmetic: an m near 2^62
  // would wrap m * sizeof(NodeId) to a zero-length section that passes.
  if ((n + 1) * sizeof(EdgeIdx) > size / 2 ||
      m > size / (2 * sizeof(NodeId))) {
    return Status::Corruption("node/edge counts exceed file size: " + path);
  }
  const uint64_t expected_lengths[] = {
      (n + 1) * sizeof(EdgeIdx), m * sizeof(NodeId),
      (n + 1) * sizeof(EdgeIdx), m * sizeof(NodeId)};
  for (uint32_t i = 0; i < kEng2.section_count; ++i) {
    if (file.section(i).size() != expected_lengths[i]) {
      return Status::Corruption("section length disagrees with node/edge "
                                "counts: " + path);
    }
  }

  const std::span<const EdgeIdx> out_offsets(
      reinterpret_cast<const EdgeIdx*>(file.section(0).data()), n + 1);
  const std::span<const NodeId> out_targets(
      reinterpret_cast<const NodeId*>(file.section(1).data()), m);
  const std::span<const EdgeIdx> in_offsets(
      reinterpret_cast<const EdgeIdx*>(file.section(2).data()), n + 1);
  const std::span<const NodeId> in_targets(
      reinterpret_cast<const NodeId*>(file.section(3).data()), m);

  // Whole-graph checksum ties the four sections together (a swapped pair
  // of same-length sections would fool per-section sums alone) and must
  // match what GraphChecksum computes on any other load path — it is the
  // warm-index invalidation key. With the lengths checked above, the
  // container's fold of the section digests is GraphChecksum's fold over
  // these spans, from the pass that verified the per-section digests.
  const uint64_t checksum = file.chained_checksum();
  if (checksum != file.words()[2]) {
    return Status::Corruption("graph checksum mismatch: " + path);
  }

  EN_RETURN_IF_ERROR(ValidateCsr(out_offsets, out_targets, in_offsets,
                                 in_targets, n, m));
  return DiGraph::FromBorrowed(out_offsets, out_targets, in_offsets,
                               in_targets, file.mapping(), checksum);
}

namespace {

/// Buffered section writer: batches values and, on each flush, appends
/// them to the current container section, which streams them into the
/// section's XXH64. One instance per section, in section order,
/// reproduces exactly the digests SaveBinaryV2 computes from resident
/// arrays.
template <typename T>
class SectionWriter {
 public:
  explicit SectionWriter(util::SectionedWriter* out) : out_(out) {
    buffer_.reserve(kBufferValues);
  }

  Status Append(T value) {
    buffer_.push_back(value);
    if (buffer_.size() >= kBufferValues) return Flush();
    return Status::OK();
  }

  /// Flushes the tail and closes the section.
  Status Finish() {
    EN_RETURN_IF_ERROR(Flush());
    return out_->EndSection();
  }

 private:
  static constexpr size_t kBufferValues = 1 << 20;

  Status Flush() {
    const size_t bytes = buffer_.size() * sizeof(T);
    if (bytes == 0) return Status::OK();
    EN_RETURN_IF_ERROR(out_->Append(buffer_.data(), bytes));
    buffer_.clear();
    return Status::OK();
  }

  util::SectionedWriter* out_;
  std::vector<T> buffer_;
};

std::string DirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string(".") : path.substr(0, slash);
}

std::string BaseOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

Result<StreamWriteStats> WriteStreamedV2(util::ExtSorter* forward,
                                         NodeId num_nodes,
                                         const std::string& path,
                                         const StreamWriteOptions& options) {
  EN_RETURN_IF_ERROR(forward->Finish());

  const uint64_t n = num_nodes;
  StreamWriteStats stats;
  stats.num_nodes = n;
  stats.input_records = forward->total_records();
  stats.forward_spill_runs = forward->spill_run_count();

  util::ExtSortOptions rev_options;
  rev_options.budget_bytes = options.sort_budget_bytes;
  rev_options.temp_dir =
      options.temp_dir.empty() ? DirOf(path) : options.temp_dir;
  rev_options.temp_prefix = BaseOf(path) + ".rev";
  util::ExtSorter reverse(rev_options);

  // Pass 1 (forward, counting): per-source degrees -> out_offsets, with
  // coalescing and self-loop drops exactly as GraphBuilder does them.
  // Unique edges simultaneously feed the (dst, src)-keyed reverse sorter,
  // so the in-CSR passes below see a duplicate-free stream.
  std::vector<EdgeIdx> offsets(n + 1, 0);
  {
    EN_ASSIGN_OR_RETURN(util::ExtSorter::Stream s, forward->Scan());
    uint64_t record = 0;
    bool any = false;
    uint64_t prev = 0;
    while (s.Next(&record)) {
      const NodeId src = util::PackedSrc(record);
      const NodeId dst = util::PackedDst(record);
      if (src >= n || dst >= n) {
        return Status::InvalidArgument("edge endpoint exceeds node count");
      }
      if (src == dst) {
        ++stats.dropped_self_loops;
        continue;
      }
      if (any && record == prev) {
        ++stats.dropped_duplicates;
        continue;
      }
      any = true;
      prev = record;
      ++offsets[src + 1];
      ++stats.num_edges;
      EN_RETURN_IF_ERROR(reverse.Add(util::PackEdgeReversed(src, dst)));
    }
    EN_RETURN_IF_ERROR(s.status());
  }
  EN_RETURN_IF_ERROR(reverse.Finish());
  stats.reverse_spill_runs = reverse.spill_run_count();
  for (uint64_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];
  const uint64_t m = stats.num_edges;

  EN_ASSIGN_OR_RETURN(util::SectionedWriter out,
                      util::SectionedWriter::Create(path, kEng2));

  // Section 0: out_offsets, from the resident O(n) array.
  {
    SectionWriter<EdgeIdx> w(&out);
    for (EdgeIdx v : offsets) EN_RETURN_IF_ERROR(w.Append(v));
    EN_RETURN_IF_ERROR(w.Finish());
  }

  // Section 1: out_targets via a second forward merge. Records arrive in
  // (src, dst) order, which *is* CSR placement order — dsts stream
  // straight to disk with no cursor array.
  {
    EN_ASSIGN_OR_RETURN(util::ExtSorter::Stream s, forward->Scan());
    SectionWriter<NodeId> w(&out);
    uint64_t record = 0;
    bool any = false;
    uint64_t prev = 0;
    while (s.Next(&record)) {
      const NodeId src = util::PackedSrc(record);
      const NodeId dst = util::PackedDst(record);
      if (src == dst) continue;
      if (any && record == prev) continue;
      any = true;
      prev = record;
      EN_RETURN_IF_ERROR(w.Append(dst));
    }
    EN_RETURN_IF_ERROR(s.status());
    EN_RETURN_IF_ERROR(w.Finish());
  }

  // Section 2: in_offsets by a counting pass over the reverse stream
  // (already unique), reusing the offsets array.
  std::fill(offsets.begin(), offsets.end(), 0);
  {
    EN_ASSIGN_OR_RETURN(util::ExtSorter::Stream s, reverse.Scan());
    uint64_t record = 0;
    while (s.Next(&record)) ++offsets[util::PackedSrc(record) + 1];
    EN_RETURN_IF_ERROR(s.status());
  }
  for (uint64_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];
  {
    SectionWriter<EdgeIdx> w(&out);
    for (EdgeIdx v : offsets) EN_RETURN_IF_ERROR(w.Append(v));
    EN_RETURN_IF_ERROR(w.Finish());
  }

  // Section 3: in_targets (sources) via the second reverse merge.
  {
    EN_ASSIGN_OR_RETURN(util::ExtSorter::Stream s, reverse.Scan());
    SectionWriter<NodeId> w(&out);
    uint64_t record = 0;
    while (s.Next(&record)) {
      EN_RETURN_IF_ERROR(w.Append(util::PackedDst(record)));
    }
    EN_RETURN_IF_ERROR(s.status());
    EN_RETURN_IF_ERROR(w.Finish());
  }

  // The container back-patches the header and section table now that
  // every checksum exists.
  stats.graph_checksum = out.chained_checksum();
  EN_RETURN_IF_ERROR(out.Commit({n, m, stats.graph_checksum}));
  return stats;
}

Result<StreamWriteStats> SaveStreamedV2(const DiGraph& g,
                                        const std::string& path,
                                        const StreamWriteOptions& options) {
  util::ExtSortOptions fwd_options;
  fwd_options.budget_bytes = options.sort_budget_bytes;
  fwd_options.temp_dir =
      options.temp_dir.empty() ? DirOf(path) : options.temp_dir;
  fwd_options.temp_prefix = BaseOf(path) + ".fwd";
  util::ExtSorter forward(fwd_options);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.OutNeighbors(u)) {
      EN_RETURN_IF_ERROR(forward.Add(util::PackEdge(u, v)));
    }
  }
  return WriteStreamedV2(&forward, g.num_nodes(), path, options);
}

}  // namespace graph
}  // namespace elitenet
