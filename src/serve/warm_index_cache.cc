#include "serve/warm_index_cache.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <utility>

#include "util/mmap_file.h"

namespace elitenet {
namespace serve {

namespace {

constexpr char kMagic[4] = {'W', 'I', 'D', 'X'};
// v3: each direction's hub labels are three sections — offsets, u32 hub
// ranks, u8 distances — where v2 had offsets and packed u64 entries.
// Older readers see version 3 and bail with NotSupported; this reader
// does the same for v1 and v2 files — both directions of skew degrade to
// a rebuild.
constexpr uint32_t kVersion = 3;
constexpr uint64_t kAlignment = 64;
constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ULL;
constexpr uint32_t kNumSections = 16;
/// Bumped whenever the scalar block layout or section set changes, so
/// sidecars written by an older layout fail the config hash instead of
/// being misread.
constexpr uint64_t kFormatGeneration = 3;

enum SectionId : uint32_t {
  kScalars = 0,
  kMutualDegree = 1,
  kWccLabel = 2,
  kWccSizes = 3,
  kSccLabel = 4,
  kSccSizes = 5,
  kPagerank = 6,
  kRankOrder = 7,
  kRankOf = 8,
  kFingerprintError = 9,
  kHubOutOffsets = 10,
  kHubOutRanks = 11,
  kHubOutDists = 12,
  kHubInOffsets = 13,
  kHubInRanks = 14,
  kHubInDists = 15,
};

constexpr const char* kSectionNames[kNumSections] = {
    "scalars",     "mutual_degree",   "wcc_label",       "wcc_sizes",
    "scc_label",   "scc_sizes",       "pagerank",        "rank_order",
    "rank_of",     "fingerprint_error", "hub_out_offsets", "hub_out_ranks",
    "hub_out_dists", "hub_in_offsets",  "hub_in_ranks",    "hub_in_dists",
};

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

struct HeaderV1 {
  char magic[4];
  uint32_t version;
  uint64_t graph_checksum;
  uint64_t config_hash;
  uint64_t num_nodes;
  uint32_t section_count;
  uint8_t padding[28];
};
static_assert(sizeof(HeaderV1) == 64, "WIDX header is 64 bytes");

struct SectionEntry {
  uint32_t id;
  uint32_t reserved;
  uint64_t offset;
  uint64_t length;
  uint64_t checksum;
};
static_assert(sizeof(SectionEntry) == 32, "WIDX section entry is 32 bytes");

uint64_t AlignUp(uint64_t v) { return (v + kAlignment - 1) & ~(kAlignment - 1); }

/// Fixed-order u64 slot encoding for the non-array state: explicit
/// append/read calls instead of memcpy'ing structs, so padding and field
/// order can never leak into the format.
class ScalarWriter {
 public:
  void U64(uint64_t v) { slots_.push_back(v); }
  void F64(double v) { slots_.push_back(std::bit_cast<uint64_t>(v)); }
  const std::vector<uint64_t>& slots() const { return slots_; }

 private:
  std::vector<uint64_t> slots_;
};

class ScalarReader {
 public:
  explicit ScalarReader(std::span<const uint64_t> slots) : slots_(slots) {}
  uint64_t U64() {
    if (next_ >= slots_.size()) {
      ok_ = false;
      return 0;
    }
    return slots_[next_++];
  }
  double F64() { return std::bit_cast<double>(U64()); }
  /// True iff every read so far had a slot and none remain unread.
  bool Exhausted() const { return ok_ && next_ == slots_.size(); }

 private:
  std::span<const uint64_t> slots_;
  size_t next_ = 0;
  bool ok_ = true;
};

std::vector<uint64_t> EncodeScalars(const WarmIndexes& w) {
  ScalarWriter s;
  s.U64(w.degree_stats.min_out_degree);
  s.U64(w.degree_stats.max_out_degree);
  s.U64(w.degree_stats.argmax_out_degree);
  s.F64(w.degree_stats.avg_out_degree);
  s.U64(w.degree_stats.min_in_degree);
  s.U64(w.degree_stats.max_in_degree);
  s.U64(w.degree_stats.argmax_in_degree);
  s.F64(w.degree_stats.avg_in_degree);
  s.U64(w.degree_stats.isolated_nodes);
  s.U64(w.degree_stats.sink_nodes);
  s.U64(w.degree_stats.source_nodes);
  s.F64(w.degree_stats.density);
  s.U64(w.reciprocity.total_edges);
  s.U64(w.reciprocity.reciprocated_edges);
  s.U64(w.reciprocity.mutual_pairs);
  s.F64(w.reciprocity.rate);
  s.U64(w.wcc.num_components);
  s.U64(w.scc.num_components);
  s.F64(w.fingerprint.density);
  s.F64(w.fingerprint.reciprocity);
  s.F64(w.fingerprint.clustering);
  s.F64(w.fingerprint.assortativity);
  s.F64(w.fingerprint.giant_scc_fraction);
  s.F64(w.fingerprint.mean_distance);
  s.F64(w.fingerprint.powerlaw_alpha);
  s.F64(w.fingerprint.attracting_fraction);
  s.U64(w.fingerprint_ok ? 1 : 0);
  s.F64(w.fingerprint_similarity);
  return s.slots();
}

Status DecodeScalars(std::span<const uint64_t> slots, WarmIndexes* w) {
  ScalarReader s(slots);
  w->degree_stats.min_out_degree = static_cast<uint32_t>(s.U64());
  w->degree_stats.max_out_degree = static_cast<uint32_t>(s.U64());
  w->degree_stats.argmax_out_degree = static_cast<graph::NodeId>(s.U64());
  w->degree_stats.avg_out_degree = s.F64();
  w->degree_stats.min_in_degree = static_cast<uint32_t>(s.U64());
  w->degree_stats.max_in_degree = static_cast<uint32_t>(s.U64());
  w->degree_stats.argmax_in_degree = static_cast<graph::NodeId>(s.U64());
  w->degree_stats.avg_in_degree = s.F64();
  w->degree_stats.isolated_nodes = s.U64();
  w->degree_stats.sink_nodes = s.U64();
  w->degree_stats.source_nodes = s.U64();
  w->degree_stats.density = s.F64();
  w->reciprocity.total_edges = s.U64();
  w->reciprocity.reciprocated_edges = s.U64();
  w->reciprocity.mutual_pairs = s.U64();
  w->reciprocity.rate = s.F64();
  w->wcc.num_components = static_cast<uint32_t>(s.U64());
  w->scc.num_components = static_cast<uint32_t>(s.U64());
  w->fingerprint.density = s.F64();
  w->fingerprint.reciprocity = s.F64();
  w->fingerprint.clustering = s.F64();
  w->fingerprint.assortativity = s.F64();
  w->fingerprint.giant_scc_fraction = s.F64();
  w->fingerprint.mean_distance = s.F64();
  w->fingerprint.powerlaw_alpha = s.F64();
  w->fingerprint.attracting_fraction = s.F64();
  w->fingerprint_ok = s.U64() != 0;
  w->fingerprint_similarity = s.F64();
  if (!s.Exhausted()) {
    return Status::Corruption("warm-index scalar block has the wrong size");
  }
  return Status::OK();
}

template <typename T>
Status CopySection(const uint8_t* base, const SectionEntry& s,
                   std::vector<T>* out) {
  if (s.length % sizeof(T) != 0) {
    return Status::Corruption("warm-index section length not a multiple of "
                              "element size");
  }
  out->resize(s.length / sizeof(T));
  if (s.length > 0) std::memcpy(out->data(), base + s.offset, s.length);
  return Status::OK();
}

}  // namespace

uint64_t WarmConfigHash(const analysis::PageRankOptions& pagerank,
                        const core::FingerprintOptions& fingerprint,
                        bool distance_oracle) {
  const uint64_t fields[] = {
      kFormatGeneration,
      std::bit_cast<uint64_t>(pagerank.damping),
      std::bit_cast<uint64_t>(pagerank.tolerance),
      static_cast<uint64_t>(pagerank.max_iterations),
      fingerprint.distance_sources,
      fingerprint.clustering_samples,
      fingerprint.seed,
      distance_oracle ? uint64_t{1} : uint64_t{0},
  };
  return Fnv1a(fields, sizeof(fields), kFnvBasis);
}

std::string WarmIndexPathFor(const std::string& graph_path) {
  std::string base = graph_path;
  while (base.size() > 1 && base.back() == '/') base.pop_back();
  return base + ".widx";
}

Status SaveWarmIndexes(const std::string& path, const WarmIndexKey& key,
                       const WarmIndexes& w) {
  const std::vector<uint64_t> scalars = EncodeScalars(w);
  const graph::HubLabelArrays& hub_out = w.hub_labels.out();
  const graph::HubLabelArrays& hub_in = w.hub_labels.in();

  struct SectionData {
    const void* data;
    uint64_t length;
  };
  const SectionData sections[kNumSections] = {
      {scalars.data(), scalars.size() * sizeof(uint64_t)},
      {w.mutual_degree.data(), w.mutual_degree.size() * sizeof(uint32_t)},
      {w.wcc.label.data(), w.wcc.label.size() * sizeof(uint32_t)},
      {w.wcc.sizes.data(), w.wcc.sizes.size() * sizeof(uint64_t)},
      {w.scc.label.data(), w.scc.label.size() * sizeof(uint32_t)},
      {w.scc.sizes.data(), w.scc.sizes.size() * sizeof(uint64_t)},
      {w.pagerank.data(), w.pagerank.size() * sizeof(double)},
      {w.rank_order.data(), w.rank_order.size() * sizeof(graph::NodeId)},
      {w.rank_of.data(), w.rank_of.size() * sizeof(uint32_t)},
      {w.fingerprint_error.data(), w.fingerprint_error.size()},
      {hub_out.offsets.data(), hub_out.offsets.size() * sizeof(graph::EdgeIdx)},
      {hub_out.ranks.data(), hub_out.ranks.size() * sizeof(uint32_t)},
      {hub_out.dists.data(), hub_out.dists.size()},
      {hub_in.offsets.data(), hub_in.offsets.size() * sizeof(graph::EdgeIdx)},
      {hub_in.ranks.data(), hub_in.ranks.size() * sizeof(uint32_t)},
      {hub_in.dists.data(), hub_in.dists.size()},
  };

  HeaderV1 header = {};
  std::memcpy(header.magic, kMagic, 4);
  header.version = kVersion;
  header.graph_checksum = key.graph_checksum;
  header.config_hash = key.config_hash;
  header.num_nodes = w.pagerank.size();
  header.section_count = kNumSections;

  SectionEntry table[kNumSections] = {};
  uint64_t offset =
      AlignUp(sizeof(HeaderV1) + kNumSections * sizeof(SectionEntry));
  for (uint32_t i = 0; i < kNumSections; ++i) {
    table[i].id = i;
    table[i].offset = offset;
    table[i].length = sections[i].length;
    table[i].checksum = Fnv1a(sections[i].data, sections[i].length, kFnvBasis);
    offset = AlignUp(offset + sections[i].length);
  }

  // Temp-file + rename: a reader racing this writer sees either the old
  // sidecar or the new one, never a torn mix.
  const std::string tmp = path + ".tmp";
  {
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (!f) return Status::IoError("cannot open for writing: " + tmp);
    if (std::fwrite(&header, sizeof(header), 1, f.get()) != 1 ||
        std::fwrite(table, sizeof(SectionEntry), kNumSections, f.get()) !=
            kNumSections) {
      return Status::IoError("header write failed: " + tmp);
    }
    uint64_t written = sizeof(header) + kNumSections * sizeof(SectionEntry);
    const char zeros[kAlignment] = {};
    for (uint32_t i = 0; i < kNumSections; ++i) {
      const uint64_t pad = table[i].offset - written;
      if (pad > 0 && std::fwrite(zeros, 1, pad, f.get()) != pad) {
        return Status::IoError("padding write failed: " + tmp);
      }
      if (sections[i].length > 0 &&
          std::fwrite(sections[i].data, 1, sections[i].length, f.get()) !=
              sections[i].length) {
        return Status::IoError("section write failed: " + tmp);
      }
      written = table[i].offset + sections[i].length;
    }
    if (std::fflush(f.get()) != 0) {
      return Status::IoError("flush failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename failed: " + path);
  }
  return Status::OK();
}

Result<WarmIndexes> LoadWarmIndexes(const std::string& path,
                                    const WarmIndexKey& key,
                                    graph::NodeId expected_nodes) {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::NotSupported(
        "warm-index sidecars are little-endian; this host is not");
  }
  EN_ASSIGN_OR_RETURN(util::MmapFile mapped, util::MmapFile::Open(path));
  const uint8_t* base = mapped.data();
  const uint64_t size = mapped.size();

  if (size < sizeof(HeaderV1)) {
    return Status::Corruption("truncated warm-index header: " + path);
  }
  HeaderV1 header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kMagic, 4) != 0) {
    return Status::Corruption("bad warm-index magic: " + path);
  }
  if (header.version != kVersion) {
    return Status::NotSupported("unsupported warm-index version " +
                                std::to_string(header.version));
  }
  if (header.graph_checksum != key.graph_checksum ||
      header.config_hash != key.config_hash) {
    return Status::FailedPrecondition(
        "stale warm-index key (graph or index config changed): " + path);
  }
  const uint64_t n = header.num_nodes;
  if (n != expected_nodes) {
    return Status::FailedPrecondition("warm-index node count mismatch: " +
                                      path);
  }
  if (header.section_count != kNumSections) {
    return Status::Corruption("unexpected warm-index section count");
  }
  const uint64_t table_end =
      sizeof(HeaderV1) + kNumSections * sizeof(SectionEntry);
  if (size < table_end) {
    return Status::Corruption("truncated warm-index section table: " + path);
  }
  SectionEntry table[kNumSections];
  std::memcpy(table, base + sizeof(HeaderV1), sizeof(table));
  for (uint32_t i = 0; i < kNumSections; ++i) {
    const SectionEntry& s = table[i];
    if (s.id != i) {
      return Status::Corruption("warm-index section table out of order");
    }
    if (s.offset % kAlignment != 0) {
      return Status::Corruption("misaligned warm-index section");
    }
    if (s.length > size || s.offset > size - s.length) {
      return Status::Corruption("warm-index section exceeds file: " + path);
    }
    if (Fnv1a(base + s.offset, s.length, kFnvBasis) != s.checksum) {
      return Status::Corruption("warm-index section checksum mismatch: " +
                                path);
    }
  }

  WarmIndexes w;
  if (table[kScalars].length % sizeof(uint64_t) != 0) {
    return Status::Corruption("warm-index scalar block misaligned");
  }
  std::vector<uint64_t> scalars(table[kScalars].length / sizeof(uint64_t));
  if (!scalars.empty()) {
    std::memcpy(scalars.data(), base + table[kScalars].offset,
                table[kScalars].length);
  }
  EN_RETURN_IF_ERROR(DecodeScalars(scalars, &w));

  EN_RETURN_IF_ERROR(CopySection(base, table[kMutualDegree],
                                 &w.mutual_degree));
  EN_RETURN_IF_ERROR(CopySection(base, table[kWccLabel], &w.wcc.label));
  EN_RETURN_IF_ERROR(CopySection(base, table[kWccSizes], &w.wcc.sizes));
  EN_RETURN_IF_ERROR(CopySection(base, table[kSccLabel], &w.scc.label));
  EN_RETURN_IF_ERROR(CopySection(base, table[kSccSizes], &w.scc.sizes));
  EN_RETURN_IF_ERROR(CopySection(base, table[kPagerank], &w.pagerank));
  EN_RETURN_IF_ERROR(CopySection(base, table[kRankOrder], &w.rank_order));
  EN_RETURN_IF_ERROR(CopySection(base, table[kRankOf], &w.rank_of));
  w.fingerprint_error.assign(
      reinterpret_cast<const char*>(base + table[kFingerprintError].offset),
      table[kFingerprintError].length);

  graph::HubLabelArrays hub_out;
  graph::HubLabelArrays hub_in;
  EN_RETURN_IF_ERROR(
      CopySection(base, table[kHubOutOffsets], &hub_out.offsets));
  EN_RETURN_IF_ERROR(CopySection(base, table[kHubOutRanks], &hub_out.ranks));
  EN_RETURN_IF_ERROR(CopySection(base, table[kHubOutDists], &hub_out.dists));
  EN_RETURN_IF_ERROR(CopySection(base, table[kHubInOffsets], &hub_in.offsets));
  EN_RETURN_IF_ERROR(CopySection(base, table[kHubInRanks], &hub_in.ranks));
  EN_RETURN_IF_ERROR(CopySection(base, table[kHubInDists], &hub_in.dists));
  w.hub_labels =
      graph::HubLabels::FromArrays(std::move(hub_out), std::move(hub_in));
  EN_RETURN_IF_ERROR(graph::ValidateHubLabels(
      w.hub_labels, static_cast<graph::NodeId>(n)));

  // Internal consistency: every per-node array must cover exactly n nodes
  // and every stored id must be in range, so query-time lookups can index
  // without bounds checks — exactly the guarantees a fresh build gives.
  if (w.mutual_degree.size() != n || w.wcc.label.size() != n ||
      w.scc.label.size() != n || w.pagerank.size() != n ||
      w.rank_order.size() != n || w.rank_of.size() != n) {
    return Status::Corruption("warm-index arrays disagree with node count");
  }
  if (w.wcc.sizes.size() != w.wcc.num_components ||
      w.scc.sizes.size() != w.scc.num_components) {
    return Status::Corruption("warm-index component sizes disagree with "
                              "component count");
  }
  for (uint32_t label : w.wcc.label) {
    if (label >= w.wcc.num_components) {
      return Status::Corruption("warm-index WCC label out of range");
    }
  }
  for (uint32_t label : w.scc.label) {
    if (label >= w.scc.num_components) {
      return Status::Corruption("warm-index SCC label out of range");
    }
  }
  for (graph::NodeId u : w.rank_order) {
    if (u >= n) return Status::Corruption("warm-index rank order out of range");
  }
  for (uint32_t r : w.rank_of) {
    if (r < 1 || r > n) {
      return Status::Corruption("warm-index rank position out of range");
    }
  }
  return w;
}

Result<std::vector<WarmIndexSectionInfo>> DescribeWarmIndexes(
    const std::string& path) {
  EN_ASSIGN_OR_RETURN(util::MmapFile mapped, util::MmapFile::Open(path));
  const uint8_t* base = mapped.data();
  const uint64_t size = mapped.size();

  if (size < sizeof(HeaderV1)) {
    return Status::Corruption("truncated warm-index header: " + path);
  }
  HeaderV1 header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kMagic, 4) != 0) {
    return Status::Corruption("bad warm-index magic: " + path);
  }
  if (header.version != kVersion) {
    return Status::NotSupported("unsupported warm-index version " +
                                std::to_string(header.version));
  }
  if (header.section_count != kNumSections ||
      size < sizeof(HeaderV1) + kNumSections * sizeof(SectionEntry)) {
    return Status::Corruption("truncated warm-index section table: " + path);
  }
  SectionEntry table[kNumSections];
  std::memcpy(table, base + sizeof(HeaderV1), sizeof(table));
  std::vector<WarmIndexSectionInfo> sections;
  sections.reserve(kNumSections);
  for (uint32_t i = 0; i < kNumSections; ++i) {
    if (table[i].id != i) {
      return Status::Corruption("warm-index section table out of order");
    }
    sections.push_back({kSectionNames[i], table[i].length});
  }
  return sections;
}

}  // namespace serve
}  // namespace elitenet
