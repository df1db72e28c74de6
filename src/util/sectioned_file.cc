#include "util/sectioned_file.h"

#include <bit>
#include <utility>

#include "util/check.h"

namespace elitenet {
namespace util {

namespace {

constexpr uint64_t kAlignment = 64;
constexpr uint64_t kFnvPrime = 0x100000001B3ULL;

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

Status CheckLittleEndianHost() {
  if constexpr (std::endian::native != std::endian::little) {
    return Status::NotSupported(
        "sectioned files are little-endian; this host is not");
  }
  return Status::OK();
}

}  // namespace

uint64_t Fnv1a(const void* data, size_t len, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

void Fnv1aPair(const void* data, size_t len, uint64_t* a, uint64_t* b) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t ha = *a;
  uint64_t hb = *b;
  for (size_t i = 0; i < len; ++i) {
    ha = (ha ^ p[i]) * kFnvPrime;
    hb = (hb ^ p[i]) * kFnvPrime;
  }
  *a = ha;
  *b = hb;
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
      open_(other.open_),
      written_(other.written_),
      chained_(other.chained_) {}

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
  current_ = {static_cast<uint32_t>(table_.size()), 0, start, 0, kFnvBasis};
  open_ = true;
  return Status::OK();
}

Status SectionedWriter::Append(const void* data, size_t len) {
  EN_RETURN_IF_ERROR(OpenSection());
  if (len == 0) return Status::OK();
  if (std::fwrite(data, 1, len, file_) != len) {
    return Fail("section write failed");
  }
  Fnv1aPair(data, len, &current_.checksum, &chained_);
  current_.length += len;
  written_ += len;
  return Status::OK();
}

Status SectionedWriter::EndSection() {
  EN_RETURN_IF_ERROR(OpenSection());
  table_.push_back(current_);
  open_ = false;
  return Status::OK();
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
  uint64_t chained = kFnvBasis;
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
    uint64_t section_sum = kFnvBasis;
    Fnv1aPair(base + s.offset, s.length, &section_sum, &chained);
    if (section_sum != s.checksum) {
      return corrupt("section checksum mismatch");
    }
    file.sections_.emplace_back(base + s.offset, s.length);
    prev_end = s.offset + s.length;
  }
  file.path_ = path;
  file.magic_ = format.magic;
  file.chained_ = chained;
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
