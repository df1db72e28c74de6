// The sectioned-file container behind every binary file the tools write:
// ENG2 graph snapshots (graph/io.h), WIDX warm-index sidecars
// (serve/warm_index_cache.h) and PIDX partition sidecars
// (serve/partition.h). This is the only code that knows the layout:
//
//   header (64 B):  char magic[4] | u32 version | u64 word[3] |
//                   u32 section_count | 28 zero bytes
//   section table:  section_count x 32 B entries
//                   { u32 id | u32 reserved (0) | u64 offset |
//                     u64 length | u64 fnv1a_checksum }
//   sections:       in id order, each starting on a 64-byte boundary,
//                   zero padding before each; nothing after the last.
//
// All fields are little-endian. The three header words belong to the
// format (ENG2: node count, edge count, graph checksum; WIDX: graph
// checksum, config hash, node count; PIDX: graph checksum, node count,
// shard count | hub count << 32). The container checks the frame —
// magic, version, section count, table order, alignment, in-file bounds
// and per-section FNV-1a — and each format checks what the words and
// sections mean (keys, expected lengths, content).
//
// Writes go to `path + ".tmp"`, renamed over `path` on Commit: a reader
// (or a mapping of the old file, which may be the writer's own input)
// sees the old bytes or the new bytes, never a torn or truncated file.

#ifndef ELITENET_UTIL_SECTIONED_FILE_H_
#define ELITENET_UTIL_SECTIONED_FILE_H_

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/mmap_file.h"
#include "util/status.h"

namespace elitenet {
namespace util {

inline constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

/// 64-bit FNV-1a over `len` bytes, continuing from `seed`.
uint64_t Fnv1a(const void* data, size_t len, uint64_t seed = kFnvBasis);

/// Two FNV-1a chains over the same bytes in one loop: afterwards `*a` is
/// Fnv1a(data, len, old *a) and `*b` is Fnv1a(data, len, old *b). The
/// loop waits on each multiply's latency, and the two chains' multiplies
/// are independent, so it runs about as fast as one Fnv1a.
void Fnv1aPair(const void* data, size_t len, uint64_t* a, uint64_t* b);

/// Identity of one file format: what the header's first eight bytes and
/// section count must say.
struct SectionedFormat {
  std::array<char, 4> magic;
  uint32_t version;
  uint32_t section_count;
};

/// The header's three format-defined u64 words (bytes 8..31).
using HeaderWords = std::array<uint64_t, 3>;

/// One section-table entry, exactly as on disk.
struct SectionEntry {
  uint32_t id;
  uint32_t reserved;
  uint64_t offset;
  uint64_t length;
  uint64_t checksum;
};
static_assert(sizeof(SectionEntry) == 32, "section entry is 32 bytes");

/// Streams sections, in id order, into `path + ".tmp"`, checksumming the
/// bytes as it writes them (each section's FNV-1a and the chain across
/// sections, in one pass); Commit back-patches the header and section
/// table and renames the file over `path`. A writer destroyed without a
/// successful Commit removes its temp file.
class SectionedWriter {
 public:
  static Result<SectionedWriter> Create(const std::string& path,
                                        const SectionedFormat& format);

  SectionedWriter(SectionedWriter&& other) noexcept;
  SectionedWriter& operator=(SectionedWriter&&) = delete;
  ~SectionedWriter();

  /// Appends bytes to the current section, opening the next one (zero
  /// padding up to its aligned start) if none is open.
  Status Append(const void* data, size_t len);
  /// Closes the current section; with no Append since the last close it
  /// records an empty section.
  Status EndSection();
  /// One whole section: Append + EndSection.
  Status AddSection(const void* data, size_t len);
  template <typename T>
  Status AddSection(std::span<const T> values) {
    return AddSection(values.data(), values.size_bytes());
  }

  /// FNV-1a chained over every byte appended so far, across sections in
  /// id order: what SectionedFile::chained_checksum() reads back. A
  /// format that stores it in a header word passes it to Commit.
  uint64_t chained_checksum() const { return chained_; }

  /// Writes the header and section table, flushes, and renames the temp
  /// file over the target. Every section must have been written.
  Status Commit(const HeaderWords& words);

 private:
  SectionedWriter(std::string path, const SectionedFormat& format,
                  std::FILE* file);
  Status OpenSection();
  Status Fail(const std::string& what);

  std::string path_;
  std::string tmp_;
  SectionedFormat format_;
  std::FILE* file_;
  std::vector<SectionEntry> table_;  ///< closed sections
  SectionEntry current_ = {};
  bool open_ = false;
  uint64_t written_ = 0;  ///< bytes in the file so far
  uint64_t chained_ = kFnvBasis;
};

/// A mapped, frame-checked sectioned file. Section spans point into the
/// mapping, which lives as long as any copy of this object or of
/// mapping().
class SectionedFile {
 public:
  /// Maps `path` and checks the frame against `format`: magic
  /// (Corruption), version (NotSupported), section count, table order
  /// (ids 0..count-1, each section after the table and after its
  /// predecessor), 64-byte alignment, in-file bounds and every section's
  /// checksum (Corruption). A missing file is an IoError. Each section
  /// byte is hashed once, for its own checksum and the chain together.
  static Result<SectionedFile> Open(const std::string& path,
                                    const SectionedFormat& format);

  const HeaderWords& words() const { return words_; }
  /// FNV-1a chained over all sections' bytes in id order, computed in the
  /// same pass that verified the per-section checksums. The container
  /// stores no copy of it; a format that keeps one in a header word
  /// compares the two.
  uint64_t chained_checksum() const { return chained_; }
  std::span<const uint8_t> section(uint32_t id) const { return sections_[id]; }
  uint64_t file_size() const { return mapping_->size(); }

  /// Section `id` copied into `out` as T elements; Corruption when its
  /// length is not a multiple of sizeof(T).
  template <typename T>
  Status CopySection(uint32_t id, std::vector<T>* out) const {
    const std::span<const uint8_t> s = sections_[id];
    if (s.size() % sizeof(T) != 0) return LengthNotMultiple(id);
    out->resize(s.size() / sizeof(T));
    if (!s.empty()) std::memcpy(out->data(), s.data(), s.size());
    return Status::OK();
  }

  /// Shares ownership of the mapping, for callers that keep section
  /// views beyond this object's lifetime.
  std::shared_ptr<const MmapFile> mapping() const { return mapping_; }

 private:
  Status LengthNotMultiple(uint32_t id) const;

  std::string path_;
  std::array<char, 4> magic_ = {};
  std::shared_ptr<const MmapFile> mapping_;
  HeaderWords words_ = {};
  uint64_t chained_ = kFnvBasis;
  std::vector<std::span<const uint8_t>> sections_;
};

}  // namespace util
}  // namespace elitenet

#endif  // ELITENET_UTIL_SECTIONED_FILE_H_
