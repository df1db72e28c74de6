#include "serve/warm_index_cache.h"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>

#include "util/sectioned_file.h"

namespace elitenet {
namespace serve {

namespace {

// WIDX in the sectioned container (util/sectioned_file.h): header words
// {graph_checksum, config_hash, num_nodes}, sections in SectionId order.
// v5 drops v4's six hub-label sections, keeping the heavy-node reach
// table (u32 ids, u32 reach) last; v6 is v5's sections under XXH64
// digests; v7's scalar block drops v6's 16 degree and reciprocity slots.
// Older readers see version 7 and bail with NotSupported; this reader
// does the same for v1–v6 files — both directions of skew degrade to a
// rebuild.
constexpr uint32_t kNumSections = 12;
constexpr util::SectionedFormat kWidx = {{'W', 'I', 'D', 'X'}, 7,
                                         kNumSections};
/// Bumped whenever the scalar block layout or section set changes, so
/// sidecars written by an older layout fail the config hash instead of
/// being misread.
constexpr uint64_t kFormatGeneration = 6;

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
  kHeavyIds = 10,
  kHeavyReach = 11,
};

constexpr const char* kSectionNames[kNumSections] = {
    "scalars",   "mutual_degree",     "wcc_label", "wcc_sizes",
    "scc_label", "scc_sizes",         "pagerank",  "rank_order",
    "rank_of",   "fingerprint_error", "heavy_ids", "heavy_reach",
};

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

template <typename V>
std::pair<const void*, size_t> Bytes(const V& v) {
  return {v.data(), v.size() * sizeof(typename V::value_type)};
}

}  // namespace

const uint32_t* WarmIndexes::StoredReach(graph::NodeId u) const {
  const auto it = std::lower_bound(heavy_ids.begin(), heavy_ids.end(), u);
  if (it == heavy_ids.end() || *it != u) return nullptr;
  return &heavy_reach[it - heavy_ids.begin()];
}

uint64_t WarmConfigHash(const analysis::PageRankOptions& pagerank,
                        const core::FingerprintOptions& fingerprint,
                        bool) {
  const uint64_t fields[] = {
      kFormatGeneration,
      std::bit_cast<uint64_t>(pagerank.damping),
      std::bit_cast<uint64_t>(pagerank.tolerance),
      static_cast<uint64_t>(pagerank.max_iterations),
      fingerprint.distance_sources,
      fingerprint.clustering_samples,
      fingerprint.seed,
  };
  return util::Xxh64(fields, sizeof(fields));
}

std::string WarmIndexPathFor(const std::string& graph_path) {
  std::string base = graph_path;
  while (base.size() > 1 && base.back() == '/') base.pop_back();
  return base + ".widx";
}

Status SaveWarmIndexes(const std::string& path, const WarmIndexKey& key,
                       const WarmIndexes& w) {
  const std::vector<uint64_t> scalars = EncodeScalars(w);
  // In SectionId order.
  const std::pair<const void*, size_t> sections[kNumSections] = {
      Bytes(scalars),         Bytes(w.mutual_degree),
      Bytes(w.wcc.label),     Bytes(w.wcc.sizes),
      Bytes(w.scc.label),     Bytes(w.scc.sizes),
      Bytes(w.pagerank),      Bytes(w.rank_order),
      Bytes(w.rank_of),       Bytes(w.fingerprint_error),
      Bytes(w.heavy_ids),     Bytes(w.heavy_reach),
  };
  EN_ASSIGN_OR_RETURN(util::SectionedWriter out,
                      util::SectionedWriter::Create(path, kWidx));
  for (const auto& [data, length] : sections) {
    EN_RETURN_IF_ERROR(out.AddSection(data, length));
  }
  return out.Commit({key.graph_checksum, key.config_hash, w.pagerank.size()});
}

Result<WarmIndexes> LoadWarmIndexes(const std::string& path,
                                    const WarmIndexKey& key,
                                    graph::NodeId expected_nodes) {
  EN_ASSIGN_OR_RETURN(util::SectionedFile file,
                      util::SectionedFile::Open(path, kWidx));
  if (file.words()[0] != key.graph_checksum ||
      file.words()[1] != key.config_hash) {
    return Status::FailedPrecondition(
        "stale warm-index key (graph or index config changed): " + path);
  }
  const uint64_t n = file.words()[2];
  if (n != expected_nodes) {
    return Status::FailedPrecondition("warm-index node count mismatch: " +
                                      path);
  }

  WarmIndexes w;
  std::vector<uint64_t> scalars;
  EN_RETURN_IF_ERROR(file.CopySection(kScalars, &scalars));
  EN_RETURN_IF_ERROR(DecodeScalars(scalars, &w));

  EN_RETURN_IF_ERROR(file.CopySection(kMutualDegree, &w.mutual_degree));
  EN_RETURN_IF_ERROR(file.CopySection(kWccLabel, &w.wcc.label));
  EN_RETURN_IF_ERROR(file.CopySection(kWccSizes, &w.wcc.sizes));
  EN_RETURN_IF_ERROR(file.CopySection(kSccLabel, &w.scc.label));
  EN_RETURN_IF_ERROR(file.CopySection(kSccSizes, &w.scc.sizes));
  EN_RETURN_IF_ERROR(file.CopySection(kPagerank, &w.pagerank));
  EN_RETURN_IF_ERROR(file.CopySection(kRankOrder, &w.rank_order));
  EN_RETURN_IF_ERROR(file.CopySection(kRankOf, &w.rank_of));
  const std::span<const uint8_t> error = file.section(kFingerprintError);
  w.fingerprint_error.assign(reinterpret_cast<const char*>(error.data()),
                             error.size());

  EN_RETURN_IF_ERROR(file.CopySection(kHeavyIds, &w.heavy_ids));
  EN_RETURN_IF_ERROR(file.CopySection(kHeavyReach, &w.heavy_reach));
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
  // The heavy-node table is searched by id and its values are served as
  // reach_2hop, so ids must be strictly ascending and in range, and no
  // reach may exceed the n - 1 other nodes.
  if (w.heavy_ids.size() != w.heavy_reach.size()) {
    return Status::Corruption("warm-index heavy ids and reach disagree");
  }
  for (size_t i = 0; i < w.heavy_ids.size(); ++i) {
    if (w.heavy_ids[i] >= n ||
        (i > 0 && w.heavy_ids[i] <= w.heavy_ids[i - 1])) {
      return Status::Corruption(
          "warm-index heavy ids out of range or not ascending");
    }
    if (w.heavy_reach[i] >= n) {
      return Status::Corruption("warm-index heavy reach exceeds n - 1");
    }
  }
  return w;
}

Result<std::vector<WarmIndexSectionInfo>> DescribeWarmIndexes(
    const std::string& path) {
  EN_ASSIGN_OR_RETURN(util::SectionedFile file,
                      util::SectionedFile::Open(path, kWidx));
  std::vector<WarmIndexSectionInfo> sections;
  sections.reserve(kNumSections);
  for (uint32_t i = 0; i < kNumSections; ++i) {
    sections.push_back({kSectionNames[i], file.section(i).size()});
  }
  return sections;
}

}  // namespace serve
}  // namespace elitenet
