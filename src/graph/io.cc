#include "graph/io.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "util/mmap_file.h"
#include "util/string_utils.h"

namespace elitenet {
namespace graph {

namespace {

constexpr char kMagicV2[4] = {'E', 'N', 'G', '2'};
constexpr uint32_t kVersionV2 = 2;
constexpr uint64_t kAlignment = 64;
constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

uint64_t Fnv1a(const void* data, size_t len, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

template <typename T>
uint64_t ChecksumSpan(std::span<const T> v, uint64_t seed) {
  return Fnv1a(v.data(), v.size() * sizeof(T), seed);
}

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

// ENG2 on-disk structures. Both are naturally aligned and padded to their
// exact on-disk size; static_asserts pin the layout the format promises.
struct SnapshotHeaderV2 {
  char magic[4];
  uint32_t version;
  uint64_t num_nodes;
  uint64_t num_edges;
  uint64_t graph_checksum;
  uint32_t section_count;
  uint8_t padding[28];
};
static_assert(sizeof(SnapshotHeaderV2) == 64, "ENG2 header is 64 bytes");

struct SectionEntryV2 {
  uint32_t id;
  uint32_t reserved;
  uint64_t offset;
  uint64_t length;
  uint64_t checksum;
};
static_assert(sizeof(SectionEntryV2) == 32, "ENG2 section entry is 32 bytes");

constexpr uint32_t kNumSections = 4;

uint64_t AlignUp(uint64_t v) { return (v + kAlignment - 1) & ~(kAlignment - 1); }

Status CheckLittleEndianHost() {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::NotSupported(
        "ENG2 snapshots are little-endian; this host is not");
  }
  return Status::OK();
}

}  // namespace

uint64_t GraphChecksum(const DiGraph& g) {
  uint64_t h = kFnvBasis;
  h = ChecksumSpan(g.out_offsets(), h);
  h = ChecksumSpan(g.out_targets(), h);
  h = ChecksumSpan(g.in_offsets(), h);
  h = ChecksumSpan(g.in_targets(), h);
  return h;
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
  EN_RETURN_IF_ERROR(CheckLittleEndianHost());
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IoError("cannot open for writing: " + path);

  const uint64_t n = g.num_nodes();
  const uint64_t m = g.num_edges();

  SnapshotHeaderV2 header = {};
  std::memcpy(header.magic, kMagicV2, 4);
  header.version = kVersionV2;
  header.num_nodes = n;
  header.num_edges = m;
  header.graph_checksum = GraphChecksum(g);
  header.section_count = kNumSections;

  struct SectionData {
    const void* data;
    uint64_t length;
  };
  const SectionData sections[kNumSections] = {
      {g.out_offsets().data(), (n + 1) * sizeof(EdgeIdx)},
      {g.out_targets().data(), m * sizeof(NodeId)},
      {g.in_offsets().data(), (n + 1) * sizeof(EdgeIdx)},
      {g.in_targets().data(), m * sizeof(NodeId)},
  };

  SectionEntryV2 table[kNumSections] = {};
  uint64_t offset =
      AlignUp(sizeof(SnapshotHeaderV2) + kNumSections * sizeof(SectionEntryV2));
  for (uint32_t i = 0; i < kNumSections; ++i) {
    table[i].id = i;
    table[i].offset = offset;
    table[i].length = sections[i].length;
    table[i].checksum =
        Fnv1a(sections[i].data, sections[i].length, kFnvBasis);
    offset = AlignUp(offset + sections[i].length);
  }

  if (std::fwrite(&header, sizeof(header), 1, f.get()) != 1 ||
      std::fwrite(table, sizeof(SectionEntryV2), kNumSections, f.get()) !=
          kNumSections) {
    return Status::IoError("header write failed: " + path);
  }
  uint64_t written = sizeof(header) + kNumSections * sizeof(SectionEntryV2);
  const char zeros[kAlignment] = {};
  for (uint32_t i = 0; i < kNumSections; ++i) {
    const uint64_t pad = table[i].offset - written;
    if (pad > 0 && std::fwrite(zeros, 1, pad, f.get()) != pad) {
      return Status::IoError("padding write failed: " + path);
    }
    if (sections[i].length > 0 &&
        std::fwrite(sections[i].data, 1, sections[i].length, f.get()) !=
            sections[i].length) {
      return Status::IoError("section write failed: " + path);
    }
    written = table[i].offset + sections[i].length;
  }
  if (std::fflush(f.get()) != 0) {
    return Status::IoError("flush failed: " + path);
  }
  return Status::OK();
}

Result<DiGraph> MapBinary(const std::string& path) {
  EN_RETURN_IF_ERROR(CheckLittleEndianHost());
  EN_ASSIGN_OR_RETURN(util::MmapFile mapped, util::MmapFile::Open(path));
  const uint8_t* base = mapped.data();
  const uint64_t size = mapped.size();

  if (size < sizeof(SnapshotHeaderV2)) {
    return Status::Corruption("truncated header: " + path);
  }
  SnapshotHeaderV2 header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kMagicV2, 4) != 0) {
    return Status::Corruption("bad magic: " + path);
  }
  if (header.version != kVersionV2) {
    return Status::NotSupported("unsupported ENG2 snapshot version " +
                                std::to_string(header.version));
  }
  const uint64_t n = header.num_nodes;
  const uint64_t m = header.num_edges;
  if (n > UINT32_MAX) return Status::Corruption("node count overflow");
  // The four sections hold 2(n+1) offsets and 2m targets. Bound both
  // counts by the file size before any length arithmetic: an m near 2^62
  // would wrap m * sizeof(NodeId) to a zero-length section that passes.
  if ((n + 1) * sizeof(EdgeIdx) > size / 2 ||
      m > size / (2 * sizeof(NodeId))) {
    return Status::Corruption("node/edge counts exceed file size: " + path);
  }
  if (header.section_count != kNumSections) {
    return Status::Corruption("unexpected section count");
  }
  const uint64_t table_end =
      sizeof(SnapshotHeaderV2) + kNumSections * sizeof(SectionEntryV2);
  if (size < table_end) {
    return Status::Corruption("truncated section table: " + path);
  }
  SectionEntryV2 table[kNumSections];
  std::memcpy(table, base + sizeof(SnapshotHeaderV2), sizeof(table));

  const uint64_t expected_lengths[kNumSections] = {
      (n + 1) * sizeof(EdgeIdx), m * sizeof(NodeId),
      (n + 1) * sizeof(EdgeIdx), m * sizeof(NodeId)};
  for (uint32_t i = 0; i < kNumSections; ++i) {
    const SectionEntryV2& s = table[i];
    if (s.id != i) return Status::Corruption("section table out of order");
    if (s.offset % kAlignment != 0) {
      return Status::Corruption("misaligned section offset");
    }
    if (s.length > size || s.offset > size - s.length) {
      return Status::Corruption("section exceeds file: " + path);
    }
    if (s.length != expected_lengths[i]) {
      return Status::Corruption("section length disagrees with node/edge "
                                "counts: " + path);
    }
    if (Fnv1a(base + s.offset, s.length, kFnvBasis) != s.checksum) {
      return Status::Corruption("section checksum mismatch: " + path);
    }
  }

  const std::span<const EdgeIdx> out_offsets(
      reinterpret_cast<const EdgeIdx*>(base + table[0].offset), n + 1);
  const std::span<const NodeId> out_targets(
      reinterpret_cast<const NodeId*>(base + table[1].offset), m);
  const std::span<const EdgeIdx> in_offsets(
      reinterpret_cast<const EdgeIdx*>(base + table[2].offset), n + 1);
  const std::span<const NodeId> in_targets(
      reinterpret_cast<const NodeId*>(base + table[3].offset), m);

  // Whole-graph checksum ties the four sections together (a swapped pair
  // of same-length sections would fool per-section sums alone) and must
  // match what GraphChecksum computes on any other load path — it is the
  // warm-index invalidation key.
  uint64_t h = kFnvBasis;
  h = ChecksumSpan(out_offsets, h);
  h = ChecksumSpan(out_targets, h);
  h = ChecksumSpan(in_offsets, h);
  h = ChecksumSpan(in_targets, h);
  if (h != header.graph_checksum) {
    return Status::Corruption("graph checksum mismatch: " + path);
  }

  EN_RETURN_IF_ERROR(ValidateCsr(out_offsets, out_targets, in_offsets,
                                 in_targets, n, m));

  auto keepalive = std::make_shared<util::MmapFile>(std::move(mapped));
  return DiGraph::FromBorrowed(out_offsets, out_targets, in_offsets,
                               in_targets, std::move(keepalive));
}

namespace {

/// Buffered section writer: batches values, folds every flushed byte into
/// both the per-section FNV and the whole-graph FNV chain, and tracks the
/// byte count. One instance per section, in section order, reproduces
/// exactly the checksums SaveBinaryV2 computes from resident arrays.
template <typename T>
class SectionWriter {
 public:
  SectionWriter(std::FILE* f, uint64_t* graph_hash)
      : file_(f), graph_hash_(graph_hash), section_hash_(kFnvBasis) {
    buffer_.reserve(kBufferValues);
  }

  Status Append(T value) {
    buffer_.push_back(value);
    if (buffer_.size() >= kBufferValues) return Flush();
    return Status::OK();
  }

  Status Flush() {
    const size_t bytes = buffer_.size() * sizeof(T);
    if (bytes == 0) return Status::OK();
    section_hash_ = Fnv1a(buffer_.data(), bytes, section_hash_);
    *graph_hash_ = Fnv1a(buffer_.data(), bytes, *graph_hash_);
    if (std::fwrite(buffer_.data(), 1, bytes, file_) != bytes) {
      return Status::IoError("section write failed");
    }
    bytes_written_ += bytes;
    buffer_.clear();
    return Status::OK();
  }

  uint64_t section_checksum() const { return section_hash_; }
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  static constexpr size_t kBufferValues = 1 << 20;

  std::FILE* file_;
  uint64_t* graph_hash_;
  uint64_t section_hash_;
  uint64_t bytes_written_ = 0;
  std::vector<T> buffer_;
};

Status WritePadding(std::FILE* f, uint64_t from, uint64_t to) {
  const char zeros[kAlignment] = {};
  while (from < to) {
    const uint64_t chunk = std::min<uint64_t>(to - from, kAlignment);
    if (std::fwrite(zeros, 1, chunk, f) != chunk) {
      return Status::IoError("padding write failed");
    }
    from += chunk;
  }
  return Status::OK();
}

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
  EN_RETURN_IF_ERROR(CheckLittleEndianHost());
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

  // Section layout is fully determined by (n, m); checksums arrive as the
  // payload streams through, and the header + table are back-patched at
  // the end.
  SectionEntryV2 table[kNumSections] = {};
  const uint64_t expected_lengths[kNumSections] = {
      (n + 1) * sizeof(EdgeIdx), m * sizeof(NodeId),
      (n + 1) * sizeof(EdgeIdx), m * sizeof(NodeId)};
  uint64_t offset =
      AlignUp(sizeof(SnapshotHeaderV2) + kNumSections * sizeof(SectionEntryV2));
  for (uint32_t i = 0; i < kNumSections; ++i) {
    table[i].id = i;
    table[i].offset = offset;
    table[i].length = expected_lengths[i];
    offset = AlignUp(offset + expected_lengths[i]);
  }

  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IoError("cannot open for writing: " + path);
  uint64_t graph_hash = kFnvBasis;
  uint64_t written = 0;

  // Section 0: out_offsets, from the resident O(n) array.
  EN_RETURN_IF_ERROR(WritePadding(f.get(), written, table[0].offset));
  {
    SectionWriter<EdgeIdx> w(f.get(), &graph_hash);
    for (EdgeIdx v : offsets) EN_RETURN_IF_ERROR(w.Append(v));
    EN_RETURN_IF_ERROR(w.Flush());
    table[0].checksum = w.section_checksum();
    written = table[0].offset + w.bytes_written();
  }

  // Section 1: out_targets via a second forward merge. Records arrive in
  // (src, dst) order, which *is* CSR placement order — dsts stream
  // straight to disk with no cursor array.
  EN_RETURN_IF_ERROR(WritePadding(f.get(), written, table[1].offset));
  {
    EN_ASSIGN_OR_RETURN(util::ExtSorter::Stream s, forward->Scan());
    SectionWriter<NodeId> w(f.get(), &graph_hash);
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
    EN_RETURN_IF_ERROR(w.Flush());
    table[1].checksum = w.section_checksum();
    written = table[1].offset + w.bytes_written();
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
  EN_RETURN_IF_ERROR(WritePadding(f.get(), written, table[2].offset));
  {
    SectionWriter<EdgeIdx> w(f.get(), &graph_hash);
    for (EdgeIdx v : offsets) EN_RETURN_IF_ERROR(w.Append(v));
    EN_RETURN_IF_ERROR(w.Flush());
    table[2].checksum = w.section_checksum();
    written = table[2].offset + w.bytes_written();
  }

  // Section 3: in_targets (sources) via the second reverse merge.
  EN_RETURN_IF_ERROR(WritePadding(f.get(), written, table[3].offset));
  {
    EN_ASSIGN_OR_RETURN(util::ExtSorter::Stream s, reverse.Scan());
    SectionWriter<NodeId> w(f.get(), &graph_hash);
    uint64_t record = 0;
    while (s.Next(&record)) {
      EN_RETURN_IF_ERROR(w.Append(util::PackedDst(record)));
    }
    EN_RETURN_IF_ERROR(s.status());
    EN_RETURN_IF_ERROR(w.Flush());
    table[3].checksum = w.section_checksum();
  }

  // Back-patch the header and section table now that the checksums exist.
  SnapshotHeaderV2 header = {};
  std::memcpy(header.magic, kMagicV2, 4);
  header.version = kVersionV2;
  header.num_nodes = n;
  header.num_edges = m;
  header.graph_checksum = graph_hash;
  header.section_count = kNumSections;
  stats.graph_checksum = graph_hash;

  if (std::fseek(f.get(), 0, SEEK_SET) != 0) {
    return Status::IoError("seek failed: " + path);
  }
  if (std::fwrite(&header, sizeof(header), 1, f.get()) != 1 ||
      std::fwrite(table, sizeof(SectionEntryV2), kNumSections, f.get()) !=
          kNumSections) {
    return Status::IoError("header write failed: " + path);
  }
  if (std::fflush(f.get()) != 0) {
    return Status::IoError("flush failed: " + path);
  }
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
