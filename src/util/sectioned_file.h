// The sectioned-file container behind every binary file the tools write:
// ENG2 graph snapshots (graph/io.h), WIDX warm-index sidecars
// (serve/warm_index_cache.h) and PIDX partition sidecars
// (serve/partition.h). This is the only code that knows the layout:
//
//   header (64 B):  char magic[4] | u32 version | u64 word[3] |
//                   u32 section_count | 28 zero bytes
//   section table:  section_count x 32 B entries
//                   { u32 id | u32 reserved (0) | u64 offset |
//                     u64 length | u64 xxh64_digest }
//   sections:       in id order, each starting on a 64-byte boundary,
//                   zero padding before each; nothing after the last.
//
// A section's digest is XXH64 (seed 0) of its bytes, padding excluded.
// The whole-file checksum is ChainDigests of the section digests in id
// order, so each payload byte is hashed once for both.
//
// All fields are little-endian. The three header words belong to the
// format (ENG2: node count, edge count, graph checksum; WIDX: graph
// checksum, config hash, node count; PIDX: graph checksum, node count,
// shard count | hub count << 32). The container checks the frame —
// magic, version, section count, table order, alignment, in-file bounds
// and per-section digests — and each format checks what the words and
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

/// XXH64 (seed 0), the 64-bit xxHash of the published specification,
/// fed in any number of pieces: the digest equals Xxh64 of the pieces
/// concatenated.
/// Keeps the four lane accumulators, a carry of up to one 32-byte stripe
/// and the total length; Update hashes whole stripes in place.
class Xxh64Stream {
 public:
  Xxh64Stream();
  void Update(const void* data, size_t len);
  /// The digest of everything fed so far; the stream may go on after.
  uint64_t Digest() const;

 private:
  uint64_t total_ = 0;
  std::array<uint64_t, 4> lanes_;
  std::array<uint8_t, 32> carry_ = {};
  size_t carry_len_ = 0;
};

/// XXH64 (seed 0) of `len` bytes.
uint64_t Xxh64(const void* data, size_t len);

/// Order-dependent fold of section digests: XXH64 of the digests as
/// little-endian u64s in the given order.
uint64_t ChainDigests(std::span<const uint64_t> digests);

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

/// Streams sections, in id order, into `path + ".tmp"`, hashing each
/// section's bytes as it writes them; Commit back-patches the header and
/// section table and renames the file over `path`. A writer destroyed
/// without a successful Commit removes its temp file.
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

  /// ChainDigests of the sections closed so far, in id order: what
  /// SectionedFile::chained_checksum() reads back. A format that stores
  /// it in a header word passes it to Commit.
  uint64_t chained_checksum() const;

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
  Xxh64Stream current_hash_;
  bool open_ = false;
  uint64_t written_ = 0;  ///< bytes in the file so far
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
  /// digest (Corruption). A missing file is an IoError. Each section
  /// byte is hashed once; the chain folds the section digests.
  static Result<SectionedFile> Open(const std::string& path,
                                    const SectionedFormat& format);

  const HeaderWords& words() const { return words_; }
  /// ChainDigests of all sections' digests in id order, from the pass
  /// that verified them. The container stores no copy of it; a format
  /// that keeps one in a header word compares the two.
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
  uint64_t chained_ = 0;
  std::vector<std::span<const uint8_t>> sections_;
};

}  // namespace util
}  // namespace elitenet

#endif  // ELITENET_UTIL_SECTIONED_FILE_H_
