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

// Reference XXH64 of `len` bytes of `bytes` from `from`, written
// straight from the published specification, one call per input.
inline uint64_t Xxh64(const std::string& bytes, uint64_t from, uint64_t len,
                      uint64_t seed = 0) {
  constexpr uint64_t kP1 = 0x9E3779B185EBCA87ULL;
  constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
  constexpr uint64_t kP3 = 0x165667B19E3779F9ULL;
  constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
  constexpr uint64_t kP5 = 0x27D4EB2F165667C5ULL;
  const auto rotl = [](uint64_t x, int r) {
    return (x << r) | (x >> (64 - r));
  };
  const auto round = [&](uint64_t acc, uint64_t lane) {
    return rotl(acc + lane * kP2, 31) * kP1;
  };
  const auto load = [](const char* at, auto word) {
    std::memcpy(&word, at, sizeof(word));
    return word;
  };
  const char* p = bytes.data() + from;
  const char* const end = p + len;
  uint64_t h;
  if (len >= 32) {
    uint64_t v[4] = {seed + kP1 + kP2, seed + kP2, seed, seed - kP1};
    for (; end - p >= 32; p += 32) {
      for (int i = 0; i < 4; ++i) {
        v[i] = round(v[i], load(p + 8 * i, uint64_t{}));
      }
    }
    h = rotl(v[0], 1) + rotl(v[1], 7) + rotl(v[2], 12) + rotl(v[3], 18);
    for (int i = 0; i < 4; ++i) h = (h ^ round(0, v[i])) * kP1 + kP4;
  } else {
    h = seed + kP5;
  }
  h += len;
  for (; end - p >= 8; p += 8) {
    h = rotl(h ^ round(0, load(p, uint64_t{})), 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    h = rotl(h ^ load(p, uint32_t{}) * kP1, 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) {
    h = rotl(h ^ static_cast<unsigned char>(*p) * kP5, 11) * kP1;
  }
  h = (h ^ (h >> 33)) * kP2;
  h = (h ^ (h >> 29)) * kP3;
  return h ^ (h >> 32);
}

inline uint64_t Xxh64(const std::string& bytes) {
  return Xxh64(bytes, 0, bytes.size());
}

// The whole-file checksum: XXH64 of the section digests as little-endian
// u64s in id order.
inline uint64_t ChainDigests(const std::vector<uint64_t>& digests) {
  return Xxh64(std::string(reinterpret_cast<const char*>(digests.data()),
                           digests.size() * sizeof(uint64_t)));
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
        Xxh64(*bytes, Get<uint64_t>(*bytes, OffsetAt(i)),
              Get<uint64_t>(*bytes, LengthAt(i))));
  }
  return all_inside;
}

// ENG2: reseals the sections and — when all four lie inside the file —
// the graph checksum chained over their digests, which is what MapBinary
// verifies once the lengths match the header counts.
inline void ResealEng2(std::string* bytes) {
  if (!ResealSections(bytes, kEng2Sections)) return;
  std::vector<uint64_t> digests;
  for (size_t i = 0; i < kEng2Sections; ++i) {
    digests.push_back(Get<uint64_t>(*bytes, ChecksumAt(i)));
  }
  Put(bytes, kGraphChecksumAt, ChainDigests(digests));
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
