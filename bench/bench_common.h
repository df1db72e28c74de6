// Shared plumbing for the figure/table reproduction benches: scale
// parsing, study construction, CSV output location, the
// paper-vs-measured comparison printer, and the one writer behind every
// BENCH_*.json (bench::Report).

#ifndef ELITENET_BENCH_BENCH_COMMON_H_
#define ELITENET_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/study.h"
#include "graph/digraph.h"
#include "serve/request.h"

namespace elitenet {
namespace bench {

struct BenchArgs {
  /// Number of users to generate. Default 40,000; `--scale=full` selects
  /// the paper's 231,246, `--scale=<n>` any custom size.
  uint32_t num_users = 40000;
  uint64_t seed = 2018;
  /// Where CSV artifacts are written (`--out=DIR`), default
  /// "bench_out".
  std::string out_dir = "bench_out";
  /// Worker threads for the parallel kernels (`--threads=N`). 0 = auto
  /// (ELITENET_THREADS env, else util::AvailableCpus). Results are
  /// bit-identical for any value.
  int threads = 0;
  /// Chrome trace-event output (`--trace=FILE`); empty = tracing off.
  std::string trace_path;
  /// Metrics snapshot output (`--metrics=FILE`); empty = metrics off.
  std::string metrics_path;
  /// Where the bench writes its report (`--json=FILE`), default the
  /// bench's own BENCH_*.json name.
  std::string json_path;
};

/// Parses --scale= / --seed= / --out= / --threads= / --trace= / --metrics=
/// / --json= flags; ignores unknown flags so binaries stay runnable under
/// generic runners. `default_json` is json_path when --json= is absent.
BenchArgs ParseArgs(int argc, char** argv, std::string default_json = "");

/// Study configuration at the requested scale with bench-grade analysis
/// settings (deeper than quickstart, still minutes not hours).
core::StudyConfig MakeStudyConfig(const BenchArgs& args);

/// Generates the study, printing timing. Aborts the process with a
/// message on failure (benches have no meaningful recovery path).
core::VerifiedStudy MakeStudy(const BenchArgs& args);

/// Ensures the output directory exists; returns out_dir + "/" + name.
std::string CsvPath(const BenchArgs& args, const std::string& name);

/// One JSON value: null, a bool, a number, a string, an array or an
/// object. Object members keep their insertion order, and Set on a key
/// already present replaces its value, so no key appears twice. Numbers
/// keep their exact value: integers in decimal, doubles as the shortest
/// text that reads back to the same double, non-finite doubles as null.
class Json {
 public:
  Json() = default;  ///< null
  Json(bool b);
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Json(T v) : text_(std::to_string(v)) {}
  Json(double v);
  Json(const char* s);
  Json(std::string s);

  static Json Array();
  static Json Object();

  /// Appends `v` to an array.
  Json& Add(Json v);
  /// Sets member `key` of an object to `v`.
  Json& Set(std::string_view key, Json v);

  /// Two-space indented text; a container holding only scalars stays on
  /// one line.
  std::string Dump() const;

 private:
  enum class Kind { kLiteral, kString, kArray, kObject };
  Json(Kind kind, std::string text) : kind_(kind), text_(std::move(text)) {}
  void DumpTo(std::string* out, size_t indent) const;

  Kind kind_ = Kind::kLiteral;
  std::string text_ = "null";      ///< literal text, or the raw string
  std::vector<std::string> keys_;  ///< object member names
  std::vector<Json> items_;        ///< array elements / object values
};

/// A bench's BENCH_*.json: the fields the bench sets, plus the
/// execution-environment fields every report carries — commit (`git
/// describe --always --dirty` of the source tree when CMake last
/// configured the build), hardware_concurrency, nproc
/// (util::AvailableCpus: the CPUs the affinity mask allows), effective
/// threads, peak_rss_bytes (process high-water mark when the report is
/// rendered) and resident_delta_bytes (RSS growth since ParseArgs) — so a
/// result read in isolation says what parallelism *and* memory footprint
/// produced it (a 1x speedup on a single-core container is expected, not
/// a regression; a bench whose residency doubles is one even when its
/// latency holds). The environment fields are added when the report is
/// rendered and replace any field of the same name.
class Report {
 public:
  Report& Set(std::string_view key, Json v);

  /// The whole document, environment fields measured now.
  std::string Dump() const;

  /// Writes Dump() to `path` and prints "wrote <path>"; on failure says
  /// so on stderr and returns false.
  bool Write(const std::string& path) const;

 private:
  Json fields_ = Json::Object();
};

/// `x` as 16 lower-case hex digits — how reports spell checksums.
std::string Hex64(uint64_t x);

/// Median (the mean of the middle two for an even count), min and max of
/// a sample; all zero for an empty one.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};
Spread Summarize(std::vector<double> samples);

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least a fraction q of the sample at or below it (q in
/// [0, 1]); 0 for an empty sample. Sort once, then read every quantile.
double Percentile(std::span<const double> sorted, double q);

/// One FNV-1a step folding `x` into hash state `h` — the order-sensitive
/// combiner the serving benches use for response checksums.
uint64_t FnvMix(uint64_t h, uint64_t x);

/// FNV-1a over a byte string.
uint64_t FnvString(const std::string& s);

/// Deterministic zipf-skewed serving workload: per-user lookups (ego,
/// neighbors) concentrated on the highest-degree hubs, rarer whole-graph
/// queries (topk, dist, fingerprint) — verification-style traffic. The
/// same (graph, count, zipf_s, seed) always yields the same mix, which
/// is what makes replay checksums comparable across engines and
/// telemetry settings.
std::vector<serve::Request> MakeServeRequestMix(const graph::DiGraph& g,
                                                size_t count, double zipf_s,
                                                uint64_t seed);

/// How a phase run by RunInChild went, besides the numbers it sent back.
struct ChildRun {
  /// The phase's return value; -1 when the child could not be started,
  /// died, or sent back less than a whole result.
  int exit_code = -1;
  /// The child's VmRSS when the phase began (what it inherited).
  uint64_t start_rss_bytes = 0;
  /// The child's peak RSS, ru_maxrss as wait4 reports it.
  uint64_t peak_rss_bytes = 0;
};

/// Runs `phase` in a forked child, so each phase's peak RSS is its own
/// (read from wait4, with no write under /proc). `phase` fills `*result`
/// in the child and returns an exit code; the child sends `*result`'s
/// bytes back over a pipe, and they are in the parent's `*result`
/// whenever the returned exit_code is not -1. The child's peak starts
/// from the RSS it inherits, so the parent should hold little. The parent
/// must still be single-threaded (no worker pool started by a
/// util::ParallelFor): fork copies only the calling thread, and a child
/// of a single-threaded parent starts its own pool. A multi-threaded
/// parent gets exit_code -1 without a fork.
template <typename T, typename Phase>
  requires std::is_trivially_copyable_v<T>
ChildRun RunInChild(T* result, Phase&& phase) {
  return RunInChildBytes(result, sizeof(T), [&] { return phase(result); });
}
ChildRun RunInChildBytes(void* result, size_t size,
                         const std::function<int()>& phase);

/// Relative deviation |measured - paper| / |paper|.
double RelDev(double measured, double paper);

/// Prints one comparison row and returns whether the shape band holds.
bool Compare(const std::string& metric, double paper, double measured,
             double rel_tolerance);

}  // namespace bench
}  // namespace elitenet

#endif  // ELITENET_BENCH_BENCH_COMMON_H_
