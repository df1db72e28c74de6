// Byte-level helpers for tests that hand-build or hand-damage ENG2
// snapshots (layout in graph/io.h): read and write a whole file, get and
// put little-endian fields, and reseal a damaged file by recomputing its
// section and graph checksums, so a mutation reaches MapBinary's checks
// past the checksums instead of stopping at them.

#ifndef ELITENET_TESTS_ENG2_BYTES_H_
#define ELITENET_TESTS_ENG2_BYTES_H_

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>

namespace elitenet {
namespace graph {
namespace eng2_bytes {

// Header fields (64 bytes).
constexpr size_t kHeaderBytes = 64;
constexpr size_t kNumNodesAt = 8;
constexpr size_t kNumEdgesAt = 16;
constexpr size_t kGraphChecksumAt = 24;
constexpr size_t kSectionCountAt = 32;
// Section table: four 32-byte entries { u32 id | u32 reserved |
// u64 offset | u64 length | u64 checksum } right after the header.
constexpr size_t kNumSections = 4;
constexpr size_t kEntryBytes = 32;
constexpr size_t kTableEnd = kHeaderBytes + kNumSections * kEntryBytes;
constexpr size_t EntryAt(size_t i) { return kHeaderBytes + i * kEntryBytes; }
constexpr size_t OffsetAt(size_t i) { return EntryAt(i) + 8; }
constexpr size_t LengthAt(size_t i) { return EntryAt(i) + 16; }
constexpr size_t ChecksumAt(size_t i) { return EntryAt(i) + 24; }

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
                      uint64_t h) {
  for (uint64_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(bytes[from + i]);
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Recomputes every section checksum whose (offset, length) lies inside
// the file, and — when all four do — the graph checksum chained over
// them, which is what MapBinary verifies once the lengths match the
// header counts.
inline void Reseal(std::string* bytes) {
  if (bytes->size() < kTableEnd) return;
  const uint64_t size = bytes->size();
  bool all_inside = true;
  uint64_t graph_hash = kFnvBasis;
  for (size_t i = 0; i < kNumSections; ++i) {
    const uint64_t offset = Get<uint64_t>(*bytes, OffsetAt(i));
    const uint64_t length = Get<uint64_t>(*bytes, LengthAt(i));
    if (length > size || offset > size - length) {
      all_inside = false;
      continue;
    }
    Put(bytes, ChecksumAt(i), Fnv1a(*bytes, offset, length, kFnvBasis));
    graph_hash = Fnv1a(*bytes, offset, length, graph_hash);
  }
  if (all_inside) Put(bytes, kGraphChecksumAt, graph_hash);
}

}  // namespace eng2_bytes
}  // namespace graph
}  // namespace elitenet

#endif  // ELITENET_TESTS_ENG2_BYTES_H_
