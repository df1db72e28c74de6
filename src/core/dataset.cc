#include "core/dataset.h"

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <utility>

#include "graph/io.h"
#include "timeseries/calendar.h"
#include "util/metrics.h"
#include "util/string_utils.h"
#include "util/trace.h"

namespace elitenet {
namespace core {

namespace {

constexpr char kUsersMagic[8] = {'E', 'N', 'U', 'S', 'E', 'R', 'S', '1'};
// v2: the graph is an ENG2 snapshot (graph.eng2). A v1 directory, whose
// graph.eng is the retired ENG1 format, fails at the manifest check.
constexpr char kManifestHeader[] = "elitenet-dataset v2";
constexpr char kGraphFile[] = "/graph.eng2";

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

template <typename T>
Status WritePod(std::FILE* f, const T& value) {
  if (std::fwrite(&value, sizeof(T), 1, f) != 1) {
    return Status::IoError("short write");
  }
  return Status::OK();
}

template <typename T>
Status ReadPod(std::FILE* f, T* value) {
  if (std::fread(value, sizeof(T), 1, f) != 1) {
    return Status::Corruption("truncated record");
  }
  return Status::OK();
}

Status WriteUsersFile(const StudyDataset& d, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "wb"));
  if (!f) return Status::IoError("cannot open " + path);
  if (std::fwrite(kUsersMagic, 1, 8, f.get()) != 8) {
    return Status::IoError("magic write failed");
  }
  const uint64_t n = d.network.roles.size();
  EN_RETURN_IF_ERROR(WritePod(f.get(), n));
  for (uint64_t i = 0; i < n; ++i) {
    EN_RETURN_IF_ERROR(
        WritePod(f.get(), static_cast<uint8_t>(d.network.roles[i])));
    EN_RETURN_IF_ERROR(WritePod(f.get(), d.network.popularity[i]));
    const gen::UserProfile& p = d.profiles[i];
    EN_RETURN_IF_ERROR(WritePod(f.get(), p.followers));
    EN_RETURN_IF_ERROR(WritePod(f.get(), p.friends));
    EN_RETURN_IF_ERROR(WritePod(f.get(), p.listed));
    EN_RETURN_IF_ERROR(WritePod(f.get(), p.statuses));
    EN_RETURN_IF_ERROR(
        WritePod(f.get(), static_cast<uint8_t>(d.bios.roles[i])));
  }
  return Status::OK();
}

Status ReadUsersFile(const std::string& path, uint64_t expected_n,
                     StudyDataset* d) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (!f) return Status::IoError("cannot open " + path);
  char magic[8];
  if (std::fread(magic, 1, 8, f.get()) != 8 ||
      std::memcmp(magic, kUsersMagic, 8) != 0) {
    return Status::Corruption("bad users magic: " + path);
  }
  uint64_t n = 0;
  EN_RETURN_IF_ERROR(ReadPod(f.get(), &n));
  if (n != expected_n) {
    return Status::Corruption("users count disagrees with graph");
  }
  d->network.roles.resize(n);
  d->network.popularity.resize(n);
  d->profiles.resize(n);
  d->bios.roles.resize(n);
  for (uint64_t i = 0; i < n; ++i) {
    uint8_t role = 0, bio_role = 0;
    EN_RETURN_IF_ERROR(ReadPod(f.get(), &role));
    if (role > static_cast<uint8_t>(gen::UserRole::kIsolated)) {
      return Status::Corruption("invalid user role");
    }
    d->network.roles[i] = static_cast<gen::UserRole>(role);
    EN_RETURN_IF_ERROR(ReadPod(f.get(), &d->network.popularity[i]));
    gen::UserProfile& p = d->profiles[i];
    EN_RETURN_IF_ERROR(ReadPod(f.get(), &p.followers));
    EN_RETURN_IF_ERROR(ReadPod(f.get(), &p.friends));
    EN_RETURN_IF_ERROR(ReadPod(f.get(), &p.listed));
    EN_RETURN_IF_ERROR(ReadPod(f.get(), &p.statuses));
    EN_RETURN_IF_ERROR(ReadPod(f.get(), &bio_role));
    if (bio_role >= static_cast<uint8_t>(gen::BioRole::kNumRoles)) {
      return Status::Corruption("invalid bio role");
    }
    d->bios.roles[i] = static_cast<gen::BioRole>(bio_role);
  }
  return Status::OK();
}

Status WriteBios(const StudyDataset& d, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (!f) return Status::IoError("cannot open " + path);
  for (const std::string& bio : d.bios.bios) {
    // Bios are single-line by construction; enforce it defensively.
    for (char c : bio) {
      if (c == '\n') return Status::InvalidArgument("bio contains newline");
    }
    if (std::fprintf(f.get(), "%s\n", bio.c_str()) < 0) {
      return Status::IoError("bio write failed");
    }
  }
  return Status::OK();
}

Status ReadBios(const std::string& path, uint64_t expected_n,
                StudyDataset* d) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (!f) return Status::IoError("cannot open " + path);
  d->bios.bios.clear();
  d->bios.bios.reserve(expected_n);
  std::string line;
  char buf[4096];
  while (std::fgets(buf, sizeof(buf), f.get()) != nullptr) {
    line = buf;
    if (!line.empty() && line.back() == '\n') line.pop_back();
    d->bios.bios.push_back(line);
  }
  if (d->bios.bios.size() != expected_n) {
    return Status::Corruption("bio count disagrees with graph");
  }
  return Status::OK();
}

Status WriteActivity(const StudyDataset& d, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (!f) return Status::IoError("cannot open " + path);
  for (size_t i = 0; i < d.activity.daily_tweets.size(); ++i) {
    const timeseries::Date date = d.activity.DateAt(i);
    if (std::fprintf(f.get(), "%s,%.17g\n",
                     timeseries::FormatDate(date).c_str(),
                     d.activity.daily_tweets[i]) < 0) {
      return Status::IoError("activity write failed");
    }
  }
  return Status::OK();
}

Status ReadActivity(const std::string& path, StudyDataset* d) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (!f) return Status::IoError("cannot open " + path);
  d->activity.daily_tweets.clear();
  char buf[256];
  bool first = true;
  while (std::fgets(buf, sizeof(buf), f.get()) != nullptr) {
    const auto line = util::StripAsciiWhitespace(buf);
    if (line.empty()) continue;
    const auto fields = util::Split(line, ',');
    if (fields.size() != 2) return Status::Corruption("bad activity row");
    const auto ymd = util::Split(fields[0], '-');
    uint64_t y, m, day;
    double value;
    if (ymd.size() != 3 || !util::ParseUint64(ymd[0], &y) ||
        !util::ParseUint64(ymd[1], &m) || !util::ParseUint64(ymd[2], &day) ||
        !util::ParseDouble(fields[1], &value)) {
      std::string msg = "bad activity row: ";
      msg.append(line);
      return Status::Corruption(msg);
    }
    if (first) {
      d->activity.start = {static_cast<int>(y), static_cast<int>(m),
                           static_cast<int>(day)};
      if (!timeseries::IsValidDate(d->activity.start)) {
        return Status::Corruption("invalid activity start date");
      }
      first = false;
    }
    d->activity.daily_tweets.push_back(value);
  }
  if (d->activity.daily_tweets.empty()) {
    return Status::Corruption("empty activity series");
  }
  return Status::OK();
}

Status WriteManifest(const StudyDataset& d, const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "w"));
  if (!f) return Status::IoError("cannot open " + path);
  std::fprintf(f.get(), "%s\n", kManifestHeader);
  std::fprintf(f.get(), "users %u\n", d.network.graph.num_nodes());
  std::fprintf(f.get(), "edges %llu\n",
               static_cast<unsigned long long>(d.network.graph.num_edges()));
  std::fprintf(f.get(), "days %zu\n", d.activity.daily_tweets.size());
  return Status::OK();
}

Result<std::pair<uint64_t, uint64_t>> ReadManifest(const std::string& path) {
  FilePtr f(std::fopen(path.c_str(), "r"));
  if (!f) return Status::IoError("cannot open " + path);
  char buf[256];
  if (std::fgets(buf, sizeof(buf), f.get()) == nullptr ||
      util::StripAsciiWhitespace(buf) != kManifestHeader) {
    return Status::Corruption("unrecognized manifest header");
  }
  uint64_t users = 0, edges = 0;
  while (std::fgets(buf, sizeof(buf), f.get()) != nullptr) {
    const auto toks = util::SplitWhitespace(buf);
    if (toks.size() != 2) continue;
    uint64_t value = 0;
    if (!util::ParseUint64(toks[1], &value)) continue;
    if (toks[0] == "users") users = value;
    if (toks[0] == "edges") edges = value;
  }
  if (users == 0) return Status::Corruption("manifest missing user count");
  return std::make_pair(users, edges);
}

}  // namespace

Status SaveDataset(const StudyDataset& d, const std::string& dir) {
  const uint64_t n = d.network.graph.num_nodes();
  if (d.network.roles.size() != n || d.profiles.size() != n ||
      d.bios.bios.size() != n || d.bios.roles.size() != n) {
    return Status::InvalidArgument("dataset components disagree in size");
  }
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("cannot create directory " + dir);
  }
  EN_RETURN_IF_ERROR(graph::SaveBinaryV2(d.network.graph, dir + kGraphFile));
  EN_RETURN_IF_ERROR(WriteUsersFile(d, dir + "/users.bin"));
  EN_RETURN_IF_ERROR(WriteBios(d, dir + "/bios.txt"));
  EN_RETURN_IF_ERROR(WriteActivity(d, dir + "/activity.csv"));
  EN_RETURN_IF_ERROR(WriteManifest(d, dir + "/MANIFEST"));
  return Status::OK();
}

namespace {

uint64_t FileSizeOr0(const std::string& path) {
  struct ::stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

// The dispatch behind LoadAnyGraph; `format` is filled with the path
// that was taken.
Result<graph::DiGraph> LoadAnyGraphImpl(const std::string& path,
                                        std::string* format,
                                        uint64_t* bytes) {
  struct ::stat st;
  if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
    ELITENET_SPAN("serve.load.dataset_dir");
    *format = "dataset-dir";
    *bytes = FileSizeOr0(path + kGraphFile);
    EN_ASSIGN_OR_RETURN(StudyDataset d, LoadDataset(path));
    return std::move(d.network.graph);
  }
  *bytes = FileSizeOr0(path);
  if (util::EndsWith(path, ".eng") || util::EndsWith(path, ".eng2")) {
    ELITENET_SPAN("serve.load.eng2_mmap");
    *format = "eng2-mmap";
    return graph::MapBinary(path);
  }
  ELITENET_SPAN("serve.load.edge_list");
  *format = "edge-list";
  return graph::ReadEdgeListText(path);
}

}  // namespace

Result<graph::DiGraph> LoadAnyGraph(const std::string& path,
                                    GraphLoadInfo* info) {
  util::SpanTimer timer("serve.load");
  std::string format = "unknown";
  uint64_t bytes = 0;
  auto g = LoadAnyGraphImpl(path, &format, &bytes);
  const double seconds = timer.Seconds();
  ELITENET_GAUGE_SET("serve.load_bytes", bytes);
  ELITENET_GAUGE_SET("serve.load_micros",
                     static_cast<int64_t>(seconds * 1e6));
  if (info != nullptr) {
    info->format = format;
    info->bytes = bytes;
    info->seconds = seconds;
  }
  return g;
}

Result<StudyDataset> LoadDataset(const std::string& dir) {
  EN_ASSIGN_OR_RETURN(const auto manifest, ReadManifest(dir + "/MANIFEST"));
  StudyDataset d;
  EN_ASSIGN_OR_RETURN(d.network.graph, graph::MapBinary(dir + kGraphFile));
  if (d.network.graph.num_nodes() != manifest.first ||
      d.network.graph.num_edges() != manifest.second) {
    return Status::Corruption("graph disagrees with manifest");
  }
  const uint64_t n = d.network.graph.num_nodes();
  EN_RETURN_IF_ERROR(ReadUsersFile(dir + "/users.bin", n, &d));
  EN_RETURN_IF_ERROR(ReadBios(dir + "/bios.txt", n, &d));
  EN_RETURN_IF_ERROR(ReadActivity(dir + "/activity.csv", &d));
  d.network.config.num_users = static_cast<uint32_t>(n);
  return d;
}

}  // namespace core
}  // namespace elitenet
