#include "util/sectioned_file.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/check.h"

namespace elitenet {
namespace util {

namespace {

constexpr uint64_t kAlignment = 64;

// XXH64's primes.
constexpr uint64_t kP1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kP3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kP5 = 0x27D4EB2F165667C5ULL;
constexpr size_t kStripe = 32;

struct Header {
  char magic[4];
  uint32_t version;
  uint64_t words[3];
  uint32_t section_count;
  uint8_t padding[28];
};
static_assert(sizeof(Header) == 64, "sectioned-file header is 64 bytes");

uint64_t AlignUp(uint64_t v) {
  return (v + kAlignment - 1) & ~(kAlignment - 1);
}

uint64_t TableEnd(uint32_t section_count) {
  return sizeof(Header) + uint64_t{section_count} * sizeof(SectionEntry);
}

// Host-order loads: XXH64 reads its lanes little-endian, which every
// host the file formats run on is (CheckLittleEndianHost).
template <typename T>
T Load(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint64_t Round(uint64_t acc, uint64_t lane) {
  return std::rotl(acc + lane * kP2, 31) * kP1;
}

// Folds `stripes` whole 32-byte stripes from `p` into the four lanes.
void HashStripes(std::array<uint64_t, 4>* lanes, const uint8_t* p,
                 size_t stripes) {
  uint64_t v0 = (*lanes)[0], v1 = (*lanes)[1];
  uint64_t v2 = (*lanes)[2], v3 = (*lanes)[3];
  for (; stripes > 0; --stripes, p += kStripe) {
    v0 = Round(v0, Load<uint64_t>(p));
    v1 = Round(v1, Load<uint64_t>(p + 8));
    v2 = Round(v2, Load<uint64_t>(p + 16));
    v3 = Round(v3, Load<uint64_t>(p + 24));
  }
  *lanes = {v0, v1, v2, v3};
}

Status CheckLittleEndianHost() {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::NotSupported(
        "sectioned files are little-endian; this host is not");
  }
  return Status::OK();
}

}  // namespace

Xxh64Stream::Xxh64Stream() : lanes_{kP1 + kP2, kP2, 0, 0 - kP1} {}

void Xxh64Stream::Update(const void* data, size_t len) {
  if (len == 0) return;
  const auto* p = static_cast<const uint8_t*>(data);
  total_ += len;
  if (carry_len_ > 0) {
    const size_t take = std::min(len, kStripe - carry_len_);
    std::memcpy(carry_.data() + carry_len_, p, take);
    carry_len_ += take;
    p += take;
    len -= take;
    if (carry_len_ < kStripe) return;
    HashStripes(&lanes_, carry_.data(), 1);
  }
  HashStripes(&lanes_, p, len / kStripe);
  carry_len_ = len % kStripe;
  std::memcpy(carry_.data(), p + len - carry_len_, carry_len_);
}

uint64_t Xxh64Stream::Digest() const {
  uint64_t h;
  if (total_ >= kStripe) {
    const auto& v = lanes_;
    h = std::rotl(v[0], 1) + std::rotl(v[1], 7) + std::rotl(v[2], 12) +
        std::rotl(v[3], 18);
    for (const uint64_t lane : v) h = (h ^ Round(0, lane)) * kP1 + kP4;
  } else {
    h = kP5;
  }
  h += total_;
  const uint8_t* p = carry_.data();
  const uint8_t* const end = p + carry_len_;
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ Round(0, Load<uint64_t>(p)), 27) * kP1 + kP4;
  }
  if (end - p >= 4) {
    h = std::rotl(h ^ Load<uint32_t>(p) * kP1, 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ *p * kP5, 11) * kP1;
  h = (h ^ (h >> 33)) * kP2;
  h = (h ^ (h >> 29)) * kP3;
  return h ^ (h >> 32);
}

uint64_t Xxh64(const void* data, size_t len) {
  Xxh64Stream stream;
  stream.Update(data, len);
  return stream.Digest();
}

uint64_t ChainDigests(std::span<const uint64_t> digests) {
  return Xxh64(digests.data(), digests.size_bytes());
}

Result<SectionedWriter> SectionedWriter::Create(
    const std::string& path, const SectionedFormat& format) {
  EN_RETURN_IF_ERROR(CheckLittleEndianHost());
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open for writing: " + tmp);
  SectionedWriter writer(path, format, f);
  // Header and table are back-patched by Commit; zeros hold their place.
  const std::vector<char> zeros(TableEnd(format.section_count), 0);
  if (std::fwrite(zeros.data(), 1, zeros.size(), f) != zeros.size()) {
    return writer.Fail("header write failed");
  }
  writer.written_ = zeros.size();
  return writer;
}

SectionedWriter::SectionedWriter(std::string path,
                                 const SectionedFormat& format,
                                 std::FILE* file)
    : path_(std::move(path)),
      tmp_(path_ + ".tmp"),
      format_(format),
      file_(file) {
  table_.reserve(format.section_count);
}

SectionedWriter::SectionedWriter(SectionedWriter&& other) noexcept
    : path_(std::move(other.path_)),
      tmp_(std::move(other.tmp_)),
      format_(other.format_),
      file_(std::exchange(other.file_, nullptr)),
      table_(std::move(other.table_)),
      current_(other.current_),
      current_hash_(other.current_hash_),
      open_(other.open_),
      written_(other.written_) {}

SectionedWriter::~SectionedWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);
    std::remove(tmp_.c_str());
  }
}

Status SectionedWriter::Fail(const std::string& what) {
  return Status::IoError(what + ": " + tmp_);
}

Status SectionedWriter::OpenSection() {
  if (open_) return Status::OK();
  EN_CHECK_LT(table_.size(), format_.section_count);
  const uint64_t start = AlignUp(written_);
  const char zeros[kAlignment] = {};
  const size_t pad = static_cast<size_t>(start - written_);
  if (pad > 0 && std::fwrite(zeros, 1, pad, file_) != pad) {
    return Fail("padding write failed");
  }
  written_ = start;
  current_ = {static_cast<uint32_t>(table_.size()), 0, start, 0, 0};
  current_hash_ = Xxh64Stream();
  open_ = true;
  return Status::OK();
}

Status SectionedWriter::Append(const void* data, size_t len) {
  EN_RETURN_IF_ERROR(OpenSection());
  if (len == 0) return Status::OK();
  if (std::fwrite(data, 1, len, file_) != len) {
    return Fail("section write failed");
  }
  current_hash_.Update(data, len);
  current_.length += len;
  written_ += len;
  return Status::OK();
}

Status SectionedWriter::EndSection() {
  EN_RETURN_IF_ERROR(OpenSection());
  current_.checksum = current_hash_.Digest();
  table_.push_back(current_);
  open_ = false;
  return Status::OK();
}

uint64_t SectionedWriter::chained_checksum() const {
  std::vector<uint64_t> digests;
  digests.reserve(table_.size());
  for (const SectionEntry& s : table_) digests.push_back(s.checksum);
  return ChainDigests(digests);
}

Status SectionedWriter::AddSection(const void* data, size_t len) {
  EN_RETURN_IF_ERROR(Append(data, len));
  return EndSection();
}

Status SectionedWriter::Commit(const HeaderWords& words) {
  EN_CHECK(!open_ && table_.size() == format_.section_count);
  Header header = {};
  std::memcpy(header.magic, format_.magic.data(), 4);
  header.version = format_.version;
  for (size_t i = 0; i < words.size(); ++i) header.words[i] = words[i];
  header.section_count = format_.section_count;
  if (std::fseek(file_, 0, SEEK_SET) != 0) return Fail("seek failed");
  if (std::fwrite(&header, sizeof(header), 1, file_) != 1 ||
      std::fwrite(table_.data(), sizeof(SectionEntry), table_.size(),
                  file_) != table_.size()) {
    return Fail("header write failed");
  }
  const bool flushed = std::fflush(file_) == 0;
  const bool closed = std::fclose(std::exchange(file_, nullptr)) == 0;
  if (!flushed || !closed) {
    std::remove(tmp_.c_str());
    return Status::IoError("flush failed: " + tmp_);
  }
  if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
    std::remove(tmp_.c_str());
    return Status::IoError("rename failed: " + path_);
  }
  return Status::OK();
}

Result<SectionedFile> SectionedFile::Open(const std::string& path,
                                          const SectionedFormat& format) {
  EN_RETURN_IF_ERROR(CheckLittleEndianHost());
  EN_ASSIGN_OR_RETURN(MmapFile mapped, MmapFile::Open(path));
  const uint8_t* base = mapped.data();
  const uint64_t size = mapped.size();
  const std::string kind(format.magic.data(), 4);
  const auto corrupt = [&](const std::string& what) {
    return Status::Corruption(kind + " " + what + ": " + path);
  };

  if (size < sizeof(Header)) return corrupt("truncated header");
  Header header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, format.magic.data(), 4) != 0) {
    return corrupt("bad magic");
  }
  if (header.version != format.version) {
    return Status::NotSupported("unsupported " + kind + " version " +
                                std::to_string(header.version) + ": " + path);
  }
  if (header.section_count != format.section_count) {
    return corrupt("unexpected section count");
  }
  const uint64_t table_end = TableEnd(format.section_count);
  if (size < table_end) return corrupt("truncated section table");

  SectionedFile file;
  file.sections_.reserve(format.section_count);
  uint64_t prev_end = table_end;
  std::vector<uint64_t> digests;
  digests.reserve(format.section_count);
  for (uint32_t i = 0; i < format.section_count; ++i) {
    SectionEntry s;
    std::memcpy(&s, base + sizeof(Header) + i * sizeof(SectionEntry),
                sizeof(s));
    if (s.id != i) return corrupt("section table out of order");
    if (s.offset % kAlignment != 0) return corrupt("misaligned section");
    if (s.length > size || s.offset > size - s.length) {
      return corrupt("section exceeds file");
    }
    // The writer lays sections out after the table, in id order; any
    // other placement would alias the header, the table or a sibling.
    if (s.offset < prev_end) return corrupt("sections overlap");
    const uint64_t digest = Xxh64(base + s.offset, s.length);
    if (digest != s.checksum) return corrupt("section checksum mismatch");
    digests.push_back(digest);
    file.sections_.emplace_back(base + s.offset, s.length);
    prev_end = s.offset + s.length;
  }
  file.path_ = path;
  file.magic_ = format.magic;
  file.chained_ = ChainDigests(digests);
  for (size_t i = 0; i < file.words_.size(); ++i) {
    file.words_[i] = header.words[i];
  }
  file.mapping_ = std::make_shared<const MmapFile>(std::move(mapped));
  return file;
}

Status SectionedFile::LengthNotMultiple(uint32_t id) const {
  return Status::Corruption(std::string(magic_.data(), 4) + " section " +
                            std::to_string(id) +
                            " length is not a multiple of its element "
                            "size: " + path_);
}

}  // namespace util
}  // namespace elitenet
