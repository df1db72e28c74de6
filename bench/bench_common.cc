#include "bench_common.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>

#include "util/parallel.h"
#include "util/rng.h"
#include "util/rss.h"
#include "util/table.h"
#include "util/trace.h"

// Set by bench/CMakeLists.txt; builds that compile this file on their own
// (servebench/) record no commit.
#ifndef ELITENET_SOURCE_COMMIT
#define ELITENET_SOURCE_COMMIT "unknown"
#endif

namespace elitenet {
namespace bench {

namespace {
// RSS at ParseArgs time — the "before any work" baseline that
// resident_delta_bytes is measured against.
uint64_t g_baseline_rss = 0;
}  // namespace

BenchArgs ParseArgs(int argc, char** argv, std::string default_json) {
  if (g_baseline_rss == 0) g_baseline_rss = util::CurrentRssBytes();
  BenchArgs args;
  args.json_path = std::move(default_json);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale=", 8) == 0) {
      const char* value = arg + 8;
      if (std::strcmp(value, "full") == 0) {
        args.num_users = 231246;
      } else {
        args.num_users = static_cast<uint32_t>(std::atoi(value));
      }
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      args.seed = static_cast<uint64_t>(std::atoll(arg + 7));
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      args.out_dir = arg + 6;
    } else if (std::strncmp(arg, "--threads=", 10) == 0) {
      args.threads = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      args.trace_path = arg + 8;
    } else if (std::strncmp(arg, "--metrics=", 10) == 0) {
      args.metrics_path = arg + 10;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      args.json_path = arg + 7;
    }
  }
  return args;
}

core::StudyConfig MakeStudyConfig(const BenchArgs& args) {
  core::StudyConfig cfg;
  cfg.network.num_users = args.num_users;
  cfg.network.seed = args.seed;
  cfg.bootstrap_replicates = 30;
  cfg.distance_sources = 64;
  cfg.betweenness_pivots = 256;
  cfg.clustering_samples = 12000;
  cfg.eigenvalue_k = 250;
  cfg.threads = args.threads;
  cfg.trace_path = args.trace_path;
  cfg.metrics_path = args.metrics_path;
  return cfg;
}

core::VerifiedStudy MakeStudy(const BenchArgs& args) {
  core::VerifiedStudy study(MakeStudyConfig(args));
  if (args.threads > 0) util::SetThreadCount(args.threads);
  util::SpanTimer sw("bench.generate");
  const Status s = study.Generate();
  if (!s.ok()) {
    std::fprintf(stderr, "study generation failed: %s\n",
                 s.ToString().c_str());
    std::exit(1);
  }
  std::printf(
      "generated n=%s users, m=%s edges in %.1fs (seed %llu, %d threads)\n",
      util::FormatWithCommas(study.network().graph.num_nodes()).c_str(),
      util::FormatWithCommas(study.network().graph.num_edges()).c_str(),
      sw.Seconds(), static_cast<unsigned long long>(args.seed),
      util::ThreadCount());
  return study;
}

std::string CsvPath(const BenchArgs& args, const std::string& name) {
  ::mkdir(args.out_dir.c_str(), 0755);  // best-effort; Open reports errors
  return args.out_dir + "/" + name;
}

Json::Json(bool b) : text_(b ? "true" : "false") {}

Json::Json(double v) {
  if (!std::isfinite(v)) return;  // stays null
  char buf[32];
  text_.assign(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

Json::Json(const char* s) : kind_(Kind::kString), text_(s) {}

Json::Json(std::string s) : kind_(Kind::kString), text_(std::move(s)) {}

Json Json::Array() { return Json(Kind::kArray, ""); }

Json Json::Object() { return Json(Kind::kObject, ""); }

Json& Json::Add(Json v) {
  items_.push_back(std::move(v));
  return *this;
}

Json& Json::Set(std::string_view key, Json v) {
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) {
      items_[i] = std::move(v);
      return *this;
    }
  }
  keys_.emplace_back(key);
  items_.push_back(std::move(v));
  return *this;
}

std::string Json::Dump() const {
  std::string out;
  DumpTo(&out, 0);
  return out;
}

void Json::DumpTo(std::string* out, size_t indent) const {
  if (kind_ == Kind::kLiteral) {
    *out += text_;
    return;
  }
  if (kind_ == Kind::kString) {
    *out += '"' + serve::JsonEscape(text_) + '"';
    return;
  }
  const bool object = kind_ == Kind::kObject;
  const bool flat =
      std::all_of(items_.begin(), items_.end(), [](const Json& v) {
        return v.kind_ == Kind::kLiteral || v.kind_ == Kind::kString;
      });
  *out += object ? '{' : '[';
  for (size_t i = 0; i < items_.size(); ++i) {
    if (i > 0) *out += ',';
    if (flat) {
      if (i > 0) *out += ' ';
    } else {
      *out += '\n';
      out->append(indent + 2, ' ');
    }
    if (object) *out += '"' + serve::JsonEscape(keys_[i]) + "\": ";
    items_[i].DumpTo(out, indent + 2);
  }
  if (!flat) {
    *out += '\n';
    out->append(indent, ' ');
  }
  *out += object ? '}' : ']';
}

Report& Report::Set(std::string_view key, Json v) {
  fields_.Set(key, std::move(v));
  return *this;
}

std::string Report::Dump() const {
  const uint64_t current = util::CurrentRssBytes();
  Json doc = fields_;
  doc.Set("commit", ELITENET_SOURCE_COMMIT)
      .Set("hardware_concurrency", std::thread::hardware_concurrency())
      .Set("nproc", util::AvailableCpus())
      .Set("threads", util::ThreadCount())
      .Set("peak_rss_bytes", util::PeakRssBytes())
      .Set("resident_delta_bytes",
           current > g_baseline_rss ? current - g_baseline_rss : 0);
  return doc.Dump() + "\n";
}

bool Report::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  out << Dump();
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

ChildRun RunInChildBytes(void* result, size_t size,
                         const std::function<int()>& phase) {
  ChildRun run;
  std::error_code ec;
  const auto tasks = std::distance(
      std::filesystem::directory_iterator("/proc/self/task", ec),
      std::filesystem::directory_iterator());
  if (ec || tasks != 1) {
    std::fprintf(stderr, "RunInChild: the parent must be single-threaded\n");
    return run;
  }
  int fds[2];
  if (pipe(fds) != 0) return run;
  // Whatever the parent has buffered must not be printed twice.
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return run;
  }
  if (pid == 0) {
    close(fds[0]);
    const uint64_t start_rss = util::CurrentRssBytes();
    const int code = phase();
    std::string msg(sizeof(code) + sizeof(start_rss) + size, '\0');
    std::memcpy(msg.data(), &code, sizeof(code));
    std::memcpy(msg.data() + sizeof(code), &start_rss, sizeof(start_rss));
    std::memcpy(msg.data() + sizeof(code) + sizeof(start_rss), result, size);
    for (size_t off = 0; off < msg.size();) {
      const ssize_t w = write(fds[1], msg.data() + off, msg.size() - off);
      if (w <= 0) break;
      off += static_cast<size_t>(w);
    }
    std::fflush(stdout);
    std::fflush(stderr);
    // _exit: the parent's exit handlers (trace and metrics dumps) are its
    // own to run.
    _exit(code);
  }
  close(fds[1]);
  std::string msg;
  char buf[4096];
  for (;;) {
    const ssize_t r = read(fds[0], buf, sizeof(buf));
    if (r > 0) {
      msg.append(buf, static_cast<size_t>(r));
    } else if (r == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  run.peak_rss_bytes = static_cast<uint64_t>(usage.ru_maxrss) * 1024;
  int code = -1;
  if (msg.size() == sizeof(code) + sizeof(run.start_rss_bytes) + size &&
      WIFEXITED(status)) {
    std::memcpy(&code, msg.data(), sizeof(code));
    std::memcpy(&run.start_rss_bytes, msg.data() + sizeof(code),
                sizeof(run.start_rss_bytes));
    std::memcpy(result, msg.data() + sizeof(code) + sizeof(run.start_rss_bytes),
                size);
    run.exit_code = code;
  }
  return run;
}

std::string Hex64(uint64_t x) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(x));
  return buf;
}

Spread Summarize(std::vector<double> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  const double median = n % 2 == 1
                            ? samples[n / 2]
                            : (samples[n / 2 - 1] + samples[n / 2]) / 2;
  return {median, samples.front(), samples.back()};
}

double Percentile(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

uint64_t FnvMix(uint64_t h, uint64_t x) {
  h ^= x;
  return h * 0x100000001b3ULL;
}

uint64_t FnvString(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

// Draws ranks with P(r) ~ 1/(r+1)^s over [0, n) by inverse CDF on the
// precomputed cumulative weights.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s) : cumulative_(n) {
    double total = 0.0;
    for (size_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cumulative_[r] = total;
    }
  }

  size_t Sample(util::Rng* rng) const {
    const double u = rng->UniformDouble() * cumulative_.back();
    return static_cast<size_t>(
        std::lower_bound(cumulative_.begin(), cumulative_.end(), u) -
        cumulative_.begin());
  }

 private:
  std::vector<double> cumulative_;
};

}  // namespace

std::vector<serve::Request> MakeServeRequestMix(const graph::DiGraph& g,
                                                size_t count, double zipf_s,
                                                uint64_t seed) {
  // Hot set = nodes by descending total degree: zipf rank 0 is the
  // biggest hub, exactly where real per-user traffic lands.
  std::vector<graph::NodeId> by_degree(g.num_nodes());
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) by_degree[u] = u;
  std::stable_sort(by_degree.begin(), by_degree.end(),
                   [&](graph::NodeId a, graph::NodeId b) {
                     const uint64_t da = g.OutDegree(a) + g.InDegree(a);
                     const uint64_t db = g.OutDegree(b) + g.InDegree(b);
                     if (da != db) return da > db;
                     return a < b;
                   });
  ZipfSampler zipf(by_degree.size(), zipf_s);
  util::Rng rng(seed);
  const uint32_t ks[] = {10, 20, 50, 100};
  const uint32_t limits[] = {16, 32, 64};

  std::vector<serve::Request> mix;
  mix.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    serve::Request r;
    const double t = rng.UniformDouble();
    if (t < 0.35) {
      r.type = serve::RequestType::kEgoSummary;
      r.node = by_degree[zipf.Sample(&rng)];
    } else if (t < 0.60) {
      r.type = serve::RequestType::kNeighbors;
      r.node = by_degree[zipf.Sample(&rng)];
      r.direction = rng.Bernoulli(0.5) ? serve::NeighborDirection::kOut
                                       : serve::NeighborDirection::kIn;
      r.limit = limits[rng.UniformU64(3)];
    } else if (t < 0.80) {
      r.type = serve::RequestType::kTopKRank;
      r.k = ks[rng.UniformU64(4)];
    } else if (t < 0.95) {
      r.type = serve::RequestType::kDistance;
      r.node = by_degree[zipf.Sample(&rng)];
      r.target = by_degree[zipf.Sample(&rng)];
    } else {
      r.type = serve::RequestType::kFingerprint;
    }
    mix.push_back(r);
  }
  return mix;
}

double RelDev(double measured, double paper) {
  if (paper == 0.0) return std::fabs(measured);
  return std::fabs(measured - paper) / std::fabs(paper);
}

bool Compare(const std::string& metric, double paper, double measured,
             double rel_tolerance) {
  const bool ok = RelDev(measured, paper) <= rel_tolerance;
  util::PrintComparison(metric, util::FormatNumber(paper, 5),
                        util::FormatNumber(measured, 5), ok);
  return ok;
}

}  // namespace bench
}  // namespace elitenet
