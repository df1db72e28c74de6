// Cold-start bench: time-to-first-query (TTFQ) across the three graph
// load paths the tools support, over the same underlying graph:
//
//   edge-list   text parse, then full warm-index build
//   eng2        zero-copy mmap snapshot, full warm-index build
//   eng2+widx   zero-copy mmap + persisted warm indexes (.widx sidecar)
//
// TTFQ = LoadAnyGraph + QueryEngine::Create + the first query answered —
// the metric a restarting server actually feels. Each path also reports
// the load/warmup split and its first run's peak RSS growth: every cold
// start runs in its own forked child (bench::RunInChild), and the growth
// is the child's ru_maxrss minus the RSS it inherited (mmapped paths only
// fault in pages the queries touch). The inputs are made in a child too,
// so the parent stays single-threaded and small. Every path runs
// kRepeats times, the paths taking turns so a drift in the host's speed
// touches all three alike; each timed figure is the median with its min
// and max.
//
// Two hard assertions make the bench a correctness harness:
//   * every run of all three paths produces byte-identical responses to
//     the same probe request stream (order-sensitive FNV over the JSON
//     bytes) — the snapshot and sidecar formats may change *where* bytes
//     come from, never *what* is served;
//   * the median eng2+widx TTFQ is at least `--min-speedup=` (default 10)
//     times faster than the median eng2 full-rebuild TTFQ.
// It also prints whole-stage rates of the eng2+widx path: the
// snapshot's bytes over its median load seconds (map, page faults, XXH64
// verify, CSR check, graph set-up) and the sidecar's bytes over its
// median warm seconds (map, XXH64 verify, decode). Neither is the rate
// of the hash alone; that is timed on its own, as the verify pass's
// MB/s: XXH64 over the whole mapped snapshot, median of the repeats.
// Either failing exits non-zero; the ctest smoke run (label "perf")
// turns that into CI coverage.
//
// Usage: bench_cold_start [--scale=N] [--seed=S] [--json=PATH]
//                         [--probes=N] [--min-speedup=X]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/dataset.h"
#include "gen/verified_network.h"
#include "graph/io.h"
#include "serve/engine.h"
#include "serve/warm_index_cache.h"
#include "util/mmap_file.h"
#include "util/rng.h"
#include "util/sectioned_file.h"
#include "util/trace.h"

namespace elitenet {
namespace bench {
namespace {

// Cold starts per path. One start swings by ~10% with the host; the
// median of five does not.
constexpr int kRepeats = 5;

// Deterministic probe stream touching every query type, spread across the
// id space so component/rank/degree lookups exercise varied nodes.
std::vector<serve::Request> MakeProbes(graph::NodeId n, size_t count,
                                       uint64_t seed) {
  util::Rng rng(seed);
  std::vector<serve::Request> probes;
  probes.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    serve::Request r;
    switch (i % 5) {
      case 0:
        r.type = serve::RequestType::kEgoSummary;
        r.node = static_cast<graph::NodeId>(rng.UniformU64(n));
        break;
      case 1:
        r.type = serve::RequestType::kTopKRank;
        r.k = 10 + static_cast<uint32_t>(rng.UniformU64(90));
        break;
      case 2:
        r.type = serve::RequestType::kDistance;
        r.node = static_cast<graph::NodeId>(rng.UniformU64(n));
        r.target = static_cast<graph::NodeId>(rng.UniformU64(n));
        break;
      case 3:
        r.type = serve::RequestType::kNeighbors;
        r.node = static_cast<graph::NodeId>(rng.UniformU64(n));
        r.direction = rng.Bernoulli(0.5) ? serve::NeighborDirection::kOut
                                         : serve::NeighborDirection::kIn;
        r.limit = 32;
        break;
      default:
        r.type = serve::RequestType::kFingerprint;
        break;
    }
    probes.push_back(r);
  }
  return probes;
}

// One cold start's figures, sent back from its child.
struct ColdStartResult {
  double load_seconds = 0.0;
  double warmup_seconds = 0.0;
  double ttfq_seconds = 0.0;
  int64_t rss_delta_kb = 0;  // filled by the parent from the child's RSS
  uint64_t checksum = 0;
  char load_format[16] = {};  // what LoadAnyGraph detected
  bool from_widx = false;
};

// One full cold start in a forked child: load `path` through the public
// dispatch, stand up the engine (optionally against a .widx sidecar),
// answer every probe. Exits the bench if the start fails.
ColdStartResult RunColdStart(const char* name, const std::string& path,
                             const std::string& widx_path,
                             const std::vector<serve::Request>& probes) {
  ColdStartResult out;
  const ChildRun run = RunInChild(&out, [&](ColdStartResult* r) {
    util::SpanTimer total;
    core::GraphLoadInfo info;
    auto g = core::LoadAnyGraph(path, &info);
    if (!g.ok()) {
      std::fprintf(stderr, "[%s] load failed: %s\n", name,
                   g.status().ToString().c_str());
      return 1;
    }
    r->load_seconds = info.seconds;
    std::snprintf(r->load_format, sizeof(r->load_format), "%s",
                  info.format.c_str());

    serve::EngineOptions opts;
    opts.warm_index_path = widx_path;
    auto engine = serve::QueryEngine::Create(std::move(*g), opts);
    if (!engine.ok()) {
      std::fprintf(stderr, "[%s] engine startup failed: %s\n", name,
                   engine.status().ToString().c_str());
      return 1;
    }
    r->warmup_seconds = (*engine)->warmup_seconds();
    r->from_widx = (*engine)->warm_index_from_cache();

    uint64_t checksum = 0xcbf29ce484222325ULL;
    bool first = true;
    for (const serve::Request& req : probes) {
      const serve::QueryResponse resp = (*engine)->Execute(req);
      if (first) {
        r->ttfq_seconds = total.Seconds();
        first = false;
      }
      checksum = FnvMix(checksum, FnvString(resp.json));
    }
    r->checksum = checksum;
    return 0;
  });
  if (run.exit_code != 0) {
    std::fprintf(stderr, "FAIL: [%s] cold start did not finish\n", name);
    std::exit(1);
  }
  // The child's peak over the RSS it inherited from this parent.
  out.rss_delta_kb = (static_cast<int64_t>(run.peak_rss_bytes) -
                      static_cast<int64_t>(run.start_rss_bytes)) /
                     1024;
  return out;
}

}  // namespace
}  // namespace bench
}  // namespace elitenet

int main(int argc, char** argv) {
  using namespace elitenet;
  const bench::BenchArgs args =
      bench::ParseArgs(argc, argv, "BENCH_cold_start.json");
  size_t num_probes = 200;
  double min_speedup = 10.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--probes=", 9) == 0) {
      num_probes = std::strtoull(argv[i] + 9, nullptr, 10);
    }
    if (std::strncmp(argv[i], "--min-speedup=", 14) == 0) {
      min_speedup = std::strtod(argv[i] + 14, nullptr);
    }
  }

  // Artifacts. The canonical graph is the *edge-list roundtrip* of the
  // generated one (text is the lossiest format: it cannot represent
  // trailing isolated nodes), so every path serves exactly the same graph.
  const std::string edges_path = bench::CsvPath(args, "cold_start.edges");
  const std::string eng2_path = bench::CsvPath(args, "cold_start.eng2");
  const std::string widx_path = serve::WarmIndexPathFor(eng2_path);
  struct Inputs {
    graph::NodeId n = 0;
    uint64_t m = 0;
  } inputs;
  const bench::ChildRun made = bench::RunInChild(&inputs, [&](Inputs* in) {
    gen::VerifiedNetworkConfig gcfg;
    gcfg.num_users = args.num_users;
    gcfg.seed = args.seed;
    auto net = gen::GenerateVerifiedNetwork(gcfg);
    if (!net.ok()) {
      std::fprintf(stderr, "generation failed: %s\n",
                   net.status().ToString().c_str());
      return 1;
    }
    if (Status s = graph::WriteEdgeListText(net->graph, edges_path); !s.ok()) {
      std::fprintf(stderr, "write failed: %s\n", s.ToString().c_str());
      return 1;
    }
    auto canonical = graph::ReadEdgeListText(edges_path);
    if (!canonical.ok()) {
      std::fprintf(stderr, "roundtrip failed: %s\n",
                   canonical.status().ToString().c_str());
      return 1;
    }
    if (Status s = graph::SaveBinaryV2(*canonical, eng2_path); !s.ok()) {
      std::fprintf(stderr, "eng2 write failed: %s\n", s.ToString().c_str());
      return 1;
    }
    in->n = canonical->num_nodes();
    in->m = canonical->num_edges();
    return 0;
  });
  if (made.exit_code != 0) return 1;
  std::remove(widx_path.c_str());  // the widx run below must write it fresh

  const graph::NodeId n = inputs.n;
  std::printf("cold-start bench: n=%u m=%llu probes=%zu repeats=%d\n", n,
              static_cast<unsigned long long>(inputs.m), num_probes,
              bench::kRepeats);

  const std::vector<serve::Request> probes =
      bench::MakeProbes(n, num_probes, args.seed ^ 0xC01D);

  // Seed the sidecar: one throwaway cold start against the eng2 snapshot
  // with the widx path configured builds the indexes and persists them.
  {
    const bench::ColdStartResult seed_run = bench::RunColdStart(
        "widx-seed", eng2_path, widx_path, {probes.front()});
    if (seed_run.from_widx) {
      std::fprintf(stderr, "FAIL: seed run unexpectedly found a sidecar\n");
      return 1;
    }
  }

  struct Path {
    const char* name;
    std::string path;
    std::string widx;
    std::vector<double> load = {}, warmup = {}, ttfq = {};  // per start
    bench::ColdStartResult first = {};  // format, RSS, checksum
    bool from_widx = true;              // every start restored the sidecar
    double ttfq_median = 0.0;
  };
  Path paths[] = {{"edge-list", edges_path, ""},
                  {"eng2", eng2_path, ""},
                  {"eng2+widx", eng2_path, widx_path}};
  bool ok = true;
  bool identical = true;
  for (int rep = 0; rep < bench::kRepeats; ++rep) {
    for (Path& p : paths) {
      const bench::ColdStartResult r =
          bench::RunColdStart(p.name, p.path, p.widx, probes);
      if (rep == 0) p.first = r;
      p.load.push_back(r.load_seconds);
      p.warmup.push_back(r.warmup_seconds);
      p.ttfq.push_back(r.ttfq_seconds);
      p.from_widx = p.from_widx && r.from_widx;
      if (r.checksum != paths[0].first.checksum) {
        std::fprintf(stderr,
                     "FAIL: %s run %d responses differ from the first "
                     "edge-list run\n",
                     p.name, rep);
        identical = false;
        ok = false;
      }
    }
  }
  if (!paths[2].from_widx) {
    std::fprintf(stderr,
                 "FAIL: an eng2+widx run did not restore the sidecar\n");
    ok = false;
  }

  std::printf("  median [min, max] of %d runs per path\n", bench::kRepeats);
  const auto spread_json = [](const bench::Spread& s) {
    return bench::Json::Object()
        .Set("median", s.median)
        .Set("min", s.min)
        .Set("max", s.max);
  };
  bench::Json path_rows = bench::Json::Array();
  for (Path& p : paths) {
    const bench::Spread load = bench::Summarize(p.load);
    const bench::Spread warmup = bench::Summarize(p.warmup);
    const bench::Spread ttfq = bench::Summarize(p.ttfq);
    p.ttfq_median = ttfq.median;
    std::printf("  %-10s load=%8.4fs warm=%8.4fs ttfq=%8.4fs [%.4f, %.4f] "
                "rss=%+7lld KB checksum=%016llx%s\n",
                p.name, load.median, warmup.median, ttfq.median, ttfq.min,
                ttfq.max, static_cast<long long>(p.first.rss_delta_kb),
                static_cast<unsigned long long>(p.first.checksum),
                p.from_widx ? " (widx hit)" : "");
    path_rows.Add(bench::Json::Object()
                      .Set("name", p.name)
                      .Set("format", std::string(p.first.load_format))
                      .Set("load_seconds", spread_json(load))
                      .Set("warmup_seconds", spread_json(warmup))
                      .Set("ttfq_seconds", spread_json(ttfq))
                      .Set("rss_delta_kb", p.first.rss_delta_kb)
                      .Set("from_widx", p.from_widx)
                      .Set("checksum", bench::Hex64(p.first.checksum)));
  }
  // Whole-stage rates of the eng2+widx path: file bytes over the median
  // load and warm-up seconds, everything those stages do included.
  const auto mb_per_s = [](uint64_t bytes, double seconds) {
    return seconds > 0.0 ? static_cast<double>(bytes) / 1e6 / seconds : 0.0;
  };
  const uint64_t eng2_bytes = std::filesystem::file_size(eng2_path);
  const uint64_t widx_bytes = std::filesystem::file_size(widx_path);
  const double eng2_load_mb_per_s =
      mb_per_s(eng2_bytes, bench::Summarize(paths[2].load).median);
  const double widx_warm_mb_per_s =
      mb_per_s(widx_bytes, bench::Summarize(paths[2].warmup).median);
  std::printf("  whole-stage rates: eng2 %.1f MB loaded at %.0f MB/s, "
              "widx %.1f MB restored at %.0f MB/s\n",
              eng2_bytes / 1e6, eng2_load_mb_per_s, widx_bytes / 1e6,
              widx_warm_mb_per_s);
  double xxh64_mb_per_s = 0.0;
  {
    Result<util::MmapFile> mapped = util::MmapFile::Open(eng2_path);
    if (!mapped.ok()) {
      std::fprintf(stderr, "FAIL: %s\n", mapped.status().ToString().c_str());
      return 1;
    }
    std::vector<double> seconds;
    uint64_t digest = 0;
    for (int rep = 0; rep < bench::kRepeats; ++rep) {
      const auto start = std::chrono::steady_clock::now();
      digest = util::Xxh64(mapped->data(), mapped->size());
      seconds.push_back(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count());
    }
    xxh64_mb_per_s =
        mb_per_s(mapped->size(), bench::Summarize(seconds).median);
    std::printf("  verify pass: XXH64 over the eng2 file at %.0f MB/s "
                "(digest %016llx)\n",
                xxh64_mb_per_s, static_cast<unsigned long long>(digest));
  }

  const double speedup = paths[2].ttfq_median > 0.0
                             ? paths[1].ttfq_median / paths[2].ttfq_median
                             : 0.0;
  std::printf("  TTFQ speedup eng2+widx over eng2 (medians): %.1fx "
              "(need >= %.1fx)\n",
              speedup, min_speedup);
  if (speedup < min_speedup) {
    std::fprintf(stderr, "FAIL: cold-start speedup %.1fx below %.1fx\n",
                 speedup, min_speedup);
    ok = false;
  }

  bench::Report report;
  report.Set("scale", args.num_users)
      .Set("seed", args.seed)
      .Set("num_nodes", n)
      .Set("probes", num_probes)
      .Set("repeats", bench::kRepeats)
      .Set("paths", std::move(path_rows))
      .Set("eng2_bytes", eng2_bytes)
      .Set("widx_bytes", widx_bytes)
      .Set("eng2_load_mb_per_s", eng2_load_mb_per_s)
      .Set("widx_warm_mb_per_s", widx_warm_mb_per_s)
      .Set("eng2_xxh64_mb_per_s", xxh64_mb_per_s)
      .Set("responses_identical", identical)
      .Set("ttfq_speedup_widx_over_eng2", speedup)
      .Set("min_speedup_required", min_speedup)
      .Set("pass", ok);
  if (!report.Write(args.json_path)) return 1;
  return ok ? 0 : 1;
}
