// Byte-level helpers for tests that hand-build or hand-damage files in
// the sectioned container of util/sectioned_file.h — ENG2 snapshots,
// WIDX and PIDX sidecars: read and write a whole file, get and put
// little-endian fields, mark the bytes a decoder reads, and reseal a
// damaged file by recomputing its checksums, so a mutation reaches the
// checks past the checksums instead of stopping at them. Deliberately
// independent of the container code it tests.

#ifndef ELITENET_TESTS_SECTIONED_BYTES_H_
#define ELITENET_TESTS_SECTIONED_BYTES_H_

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace elitenet {
namespace sectioned_bytes {

// Header (64 bytes): magic | u32 version | three u64 words |
// u32 section_count | padding.
constexpr size_t kHeaderBytes = 64;
constexpr size_t kVersionAt = 4;
constexpr size_t WordAt(size_t i) { return 8 + 8 * i; }
constexpr size_t kSectionCountAt = 32;
constexpr size_t kHeaderBytesRead = 36;
// Section table: 32-byte entries { u32 id | u32 reserved | u64 offset |
// u64 length | u64 checksum } right after the header.
constexpr size_t kEntryBytes = 32;
constexpr size_t EntryAt(size_t i) { return kHeaderBytes + i * kEntryBytes; }
constexpr size_t OffsetAt(size_t i) { return EntryAt(i) + 8; }
constexpr size_t LengthAt(size_t i) { return EntryAt(i) + 16; }
constexpr size_t ChecksumAt(size_t i) { return EntryAt(i) + 24; }
constexpr size_t TableEnd(size_t sections) { return EntryAt(sections); }

// ENG2's header words and section count.
constexpr size_t kNumNodesAt = WordAt(0);
constexpr size_t kNumEdgesAt = WordAt(1);
constexpr size_t kGraphChecksumAt = WordAt(2);
constexpr size_t kEng2Sections = 4;

constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

inline std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

inline void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
T Get(const std::string& bytes, size_t at) {
  T v;
  std::memcpy(&v, bytes.data() + at, sizeof(T));
  return v;
}

template <typename T>
void Put(std::string* bytes, size_t at, T v) {
  std::memcpy(bytes->data() + at, &v, sizeof(T));
}

inline uint64_t Fnv1a(const std::string& bytes, uint64_t from, uint64_t len,
                      uint64_t h = kFnvBasis) {
  for (uint64_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(bytes[from + i]);
    h *= 0x100000001B3ULL;
  }
  return h;
}

// True when section `i`'s (offset, length) lies inside the file.
inline bool SectionInside(const std::string& bytes, size_t i) {
  const uint64_t size = bytes.size();
  const uint64_t offset = Get<uint64_t>(bytes, OffsetAt(i));
  const uint64_t length = Get<uint64_t>(bytes, LengthAt(i));
  return length <= size && offset <= size - length;
}

// Recomputes the checksum of each of the first `sections` sections that
// lies inside the file. Returns whether all of them did.
inline bool ResealSections(std::string* bytes, size_t sections) {
  if (bytes->size() < TableEnd(sections)) return false;
  bool all_inside = true;
  for (size_t i = 0; i < sections; ++i) {
    if (!SectionInside(*bytes, i)) {
      all_inside = false;
      continue;
    }
    Put(bytes, ChecksumAt(i),
        Fnv1a(*bytes, Get<uint64_t>(*bytes, OffsetAt(i)),
              Get<uint64_t>(*bytes, LengthAt(i))));
  }
  return all_inside;
}

// ENG2: reseals the sections and — when all four lie inside the file —
// the graph checksum chained over them, which is what MapBinary verifies
// once the lengths match the header counts.
inline void ResealEng2(std::string* bytes) {
  if (!ResealSections(bytes, kEng2Sections)) return;
  uint64_t graph_hash = kFnvBasis;
  for (size_t i = 0; i < kEng2Sections; ++i) {
    graph_hash = Fnv1a(*bytes, Get<uint64_t>(*bytes, OffsetAt(i)),
                       Get<uint64_t>(*bytes, LengthAt(i)), graph_hash);
  }
  Put(bytes, kGraphChecksumAt, graph_hash);
}

// The bytes a decoder reads from an intact file with `sections`
// sections: the first 36 header bytes (magic, version, the three words,
// the section count), each entry's id, offset, length and checksum, and
// every section payload. The rest — header padding, the entries'
// reserved words, alignment padding — is never read.
inline std::vector<bool> ReadMask(const std::string& bytes, size_t sections) {
  std::vector<bool> read(bytes.size(), false);
  for (size_t i = 0; i < kHeaderBytesRead; ++i) read[i] = true;
  for (size_t s = 0; s < sections; ++s) {
    for (size_t i = 0; i < 4; ++i) read[EntryAt(s) + i] = true;
    for (size_t i = 8; i < kEntryBytes; ++i) read[EntryAt(s) + i] = true;
    const uint64_t offset = Get<uint64_t>(bytes, OffsetAt(s));
    const uint64_t length = Get<uint64_t>(bytes, LengthAt(s));
    for (uint64_t i = offset; i < offset + length; ++i) read[i] = true;
  }
  return read;
}

}  // namespace sectioned_bytes
}  // namespace elitenet

#endif  // ELITENET_TESTS_SECTIONED_BYTES_H_
