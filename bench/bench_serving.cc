// Closed-loop load bench for the serving layer (src/serve/).
//
// Generates the verified network, builds one QueryEngine per worker-thread
// count in {1, 2, 4, 8}, and replays the *same* deterministic zipf-skewed
// request mix against each — per-user lookups concentrated on the hubs,
// the way verification-style traffic concentrates on celebrities. The
// replay is closed-loop: at most `threads` requests are in flight, so
// latencies measure service time, not queue depth.
//
// Emits BENCH_serving.json with QPS, wall time, cache hit-rate, and
// p50/p95/p99 latency per query type at every thread count, plus a
// cache-efficacy microbench (top-k miss path vs hit path). With
// --mode=all (default) or --mode=sharded it additionally replays the
// identical mix through the sharded router (serve/router.h) over
// a shard grid {1, 2, 4} x router workers {1, 4}, and runs an overload
// scenario: a batch flood offered at >= 2x the router's measured
// capacity while a closed-loop interactive client records its p99.
// Hard assertions make it a correctness harness as well as a bench:
//   * responses are byte-identical across all thread counts (order-
//     sensitive FNV checksum over the JSON bytes, request by request);
//   * every sharded grid cell's checksum equals the unsharded baseline;
//   * under overload, batch sheds (> 0) while interactive never does;
//   * the top-k hit path is at least 5x faster than the miss path.
// Any failing exits non-zero, which is how the ctest smoke runs
// (label "perf") turn load-testing into CI coverage.
//
// Usage: bench_serving [--scale=N] [--seed=S] [--requests=R]
//                      [--zipf=EXPONENT] [--json=PATH]
//                      [--mode=all|base|sharded]

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "gen/verified_network.h"
#include "serve/engine.h"
#include "serve/router.h"
#include "serve/scheduler.h"
#include "util/rng.h"
#include "util/trace.h"

namespace elitenet {
namespace bench {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr size_t kNumThreadCounts = 4;
constexpr size_t kNumTypes = 5;  // matches serve::RequestType values

// FnvMix / FnvString / the zipf request-mix builder live in bench_common
// so the observability serving bench replays the identical workload.

struct RunResult {
  int threads = 0;
  int shards = 0;  ///< 0 = unsharded QueryEngine; N = router shard count.
  double wall_seconds = 0.0;
  double qps = 0.0;
  double warmup_seconds = 0.0;
  uint64_t checksum = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t degraded = 0;
  std::vector<double> latency_us[kNumTypes];  ///< Per request type.
};

// Replays `mix` closed-loop through a front door (engine or router):
// a window of `threads` requests in flight, reaped in submission order
// so the checksum (and every latency sample's index) is independent of
// scheduling. Shared by the engine grid and the router grid — the
// identical replay is what makes their checksums comparable.
RunResult ReplayClosedLoop(serve::FrontDoor* server,
                           const std::vector<serve::Request>& mix,
                           int threads) {
  RunResult out;
  out.threads = threads;
  out.warmup_seconds = server->warmup_seconds();

  struct InFlight {
    size_t index;
    std::chrono::steady_clock::time_point submitted;
    std::future<serve::QueryResponse> future;
  };
  std::deque<InFlight> window;
  uint64_t checksum = 0xcbf29ce484222325ULL;
  size_t next_to_hash = 0;
  std::vector<uint64_t> hashes(mix.size(), 0);

  auto reap = [&](InFlight& f) {
    const serve::QueryResponse resp = f.future.get();
    const double us =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - f.submitted)
            .count();
    out.latency_us[static_cast<size_t>(mix[f.index].type)].push_back(us);
    if (resp.degraded) ++out.degraded;
    hashes[f.index] = FnvString(resp.json);
  };

  util::SpanTimer wall("bench.serving.replay");
  for (size_t i = 0; i < mix.size(); ++i) {
    if (window.size() >= static_cast<size_t>(threads)) {
      reap(window.front());
      window.pop_front();
    }
    window.push_back(
        {i, std::chrono::steady_clock::now(), server->Submit(mix[i])});
  }
  while (!window.empty()) {
    reap(window.front());
    window.pop_front();
  }
  out.wall_seconds = wall.Seconds();
  out.qps = static_cast<double>(mix.size()) / out.wall_seconds;
  for (; next_to_hash < mix.size(); ++next_to_hash) {
    checksum = FnvMix(checksum, hashes[next_to_hash]);
  }
  out.checksum = checksum;
  out.cache_hits = server->cache_hits();
  out.cache_misses = server->cache_misses();
  return out;
}

// Every engine and router the bench builds serves the same graph, so
// they share one warm-index sidecar (`sidecar` + ".widx") and the routers
// one partition sidecar (`sidecar` + ".pidx"): the first build writes
// each, later builds restore it instead of recomputing the warm bundle,
// hub labels included. A router with another shard count rebuilds the
// partition and rewrites the file.
std::unique_ptr<serve::QueryEngine> MakeEngine(const graph::DiGraph& g,
                                               int threads,
                                               const std::string& sidecar) {
  serve::EngineOptions opts;
  opts.threads = threads;
  opts.cache_capacity = 8192;
  opts.warm_index_path = sidecar + ".widx";
  auto engine = serve::QueryEngine::Create(g, opts);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine startup failed: %s\n",
                 engine.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*engine);
}

RunResult RunClosedLoop(const graph::DiGraph& g,
                        const std::vector<serve::Request>& mix, int threads,
                        const std::string& sidecar) {
  return ReplayClosedLoop(MakeEngine(g, threads, sidecar).get(), mix,
                          threads);
}

std::unique_ptr<serve::ShardedRouter> MakeRouter(const graph::DiGraph& g,
                                                 int shards, int workers,
                                                 const std::string& sidecar,
                                                 size_t batch_cap = 1024) {
  serve::RouterOptions ropts;
  ropts.num_shards = shards;
  ropts.partition_path = sidecar + ".pidx";
  ropts.engine.threads = workers;
  ropts.engine.warm_index_path = sidecar + ".widx";
  ropts.engine.cache_capacity = 8192;
  ropts.engine.qos.batch_cap = batch_cap;
  auto router = serve::ShardedRouter::Create(g, ropts);
  if (!router.ok()) {
    std::fprintf(stderr, "router startup failed: %s\n",
                 router.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*router);
}

RunResult RunShardedClosedLoop(const graph::DiGraph& g,
                               const std::vector<serve::Request>& mix,
                               int shards, int workers,
                               const std::string& sidecar) {
  auto router = MakeRouter(g, shards, workers, sidecar);
  RunResult out = ReplayClosedLoop(router.get(), mix, workers);
  out.shards = shards;
  return out;
}

// Overload scenario: flood the router with batch-tagged traffic offered
// well above its measured capacity while one closed-loop interactive
// client keeps measuring. The QoS contract under test: batch sheds
// (admission control turns overload into fast "overloaded" errors),
// interactive never sheds, and interactive latency stays bounded by
// service time + one queue slot rather than the batch backlog.
struct OverloadResult {
  /// Closed-loop capacity of the flood's own configuration, measured
  /// before the flood on a fresh router.
  double capacity_qps = 0.0;
  double offered_qps = 0.0;   ///< Batch submission rate during the flood.
  uint64_t batch_submitted = 0;
  uint64_t batch_shed = 0;
  uint64_t interactive_requests = 0;
  uint64_t interactive_shed = 0;
  double interactive_p99_us = 0.0;           ///< Under the flood.
  double interactive_p99_baseline_us = 0.0;  ///< No flood, same client.
};

OverloadResult RunOverload(const graph::DiGraph& g,
                           const std::vector<serve::Request>& mix,
                           const std::string& sidecar) {
  constexpr int kShards = 2;
  constexpr int kWorkers = 2;
  constexpr size_t kBatchCap = 256;

  // The offered rate is compared against the capacity of exactly the
  // router under flood: same shard count, same worker count, same closed
  // loop. A capacity taken at another worker count measures a different
  // router and puts the ">= 2x capacity" check at the mercy of core count.
  OverloadResult out;
  out.capacity_qps =
      RunShardedClosedLoop(g, mix, kShards, kWorkers, sidecar).qps;

  auto router = MakeRouter(g, kShards, kWorkers, sidecar, kBatchCap);

  // Interactive-only view of the mix (ego/neighbors — the latency-
  // sensitive single-node lookups a frontend makes).
  std::vector<serve::Request> interactive;
  for (const serve::Request& r : mix) {
    if (r.type == serve::RequestType::kEgoSummary ||
        r.type == serve::RequestType::kNeighbors) {
      serve::Request q = r;
      q.qos = serve::QosClass::kInteractive;
      interactive.push_back(q);
      if (interactive.size() >= 2000) break;
    }
  }

  // Closed-loop (window 1) through Submit, so each sample pays queue
  // wait — the thing priority dispatch is supposed to bound: an
  // interactive request overtakes the entire batch backlog and waits at
  // most for the tasks already in service.
  auto interactive_p99 = [&]() {
    std::vector<double> lat;
    lat.reserve(interactive.size());
    for (const serve::Request& r : interactive) {
      util::SpanTimer t;
      const serve::QueryResponse resp = router->Submit(r).get();
      lat.push_back(t.Seconds() * 1e6);
      if (!resp.ok) {
        std::fprintf(stderr, "interactive request failed under load: %s\n",
                     resp.json.c_str());
        std::exit(1);
      }
    }
    std::sort(lat.begin(), lat.end());
    return lat[std::min(lat.size() - 1,
                        static_cast<size_t>(static_cast<double>(lat.size()) *
                                            0.99))];
  };

  out.interactive_p99_baseline_us = interactive_p99();
  router->ClearResultCache();

  // The flood: batch submissions as fast as the caller can issue them —
  // an open loop, so the offered rate is bounded only by submission cost
  // and lands far above capacity (asserted below, not assumed). Futures
  // are reaped in a bounded window to cap memory; a shed future resolves
  // immediately so the flood never blocks on its own backlog.
  std::atomic<uint64_t> flood_submitted{0};
  std::atomic<bool> flood_stop{false};
  double flood_wall = 0.0;
  std::thread flooder([&] {
    std::deque<std::future<serve::QueryResponse>> window;
    util::SpanTimer wall;
    size_t i = 0;
    while (!flood_stop.load(std::memory_order_relaxed)) {
      serve::Request r = mix[i % mix.size()];
      r.qos = serve::QosClass::kBatch;
      window.push_back(router->Submit(r));
      flood_submitted.fetch_add(1, std::memory_order_relaxed);
      if (window.size() >= 2 * kBatchCap) {
        window.pop_front();  // future dtor does not block
      }
      ++i;
    }
    while (!window.empty()) window.pop_front();
    flood_wall = wall.Seconds();
  });

  out.interactive_p99_us = interactive_p99();
  flood_stop.store(true);
  flooder.join();

  out.batch_submitted = flood_submitted.load();
  out.offered_qps = flood_wall > 0.0
                        ? static_cast<double>(out.batch_submitted) / flood_wall
                        : 0.0;
  out.interactive_requests = interactive.size();

  const serve::EngineStatsContext ctx = router->StatsContext();
  out.batch_shed =
      ctx.classes[serve::QosClassIndex(serve::QosClass::kBatch)].shed;
  out.interactive_shed =
      ctx.classes[serve::QosClassIndex(serve::QosClass::kInteractive)].shed;
  return out;
}

// Cache-efficacy microbench: top-k misses (fresh k per call) vs hits
// (same k re-asked). Median over `samples` calls each.
struct CacheEfficacy {
  double miss_p50_us = 0.0;
  double hit_p50_us = 0.0;
  double speedup = 0.0;
  uint32_t k = 0;
  size_t samples = 0;
};

CacheEfficacy MeasureTopKCache(const graph::DiGraph& g, size_t samples,
                               const std::string& sidecar) {
  const auto engine = MakeEngine(g, 1, sidecar);

  CacheEfficacy out;
  out.samples = samples;
  // Big enough that the miss path formats hundreds of rows; still below
  // any graph the bench generates.
  const uint32_t k_base = std::min<uint32_t>(200, g.num_nodes() / 2 + 1);
  out.k = k_base;

  auto timed = [&](const serve::Request& r) {
    util::SpanTimer t;
    const serve::QueryResponse resp = engine->Execute(r);
    const double us = t.Seconds() * 1e6;
    if (!resp.ok) {
      std::fprintf(stderr, "topk failed: %s\n", resp.json.c_str());
      std::exit(1);
    }
    return us;
  };

  std::vector<double> miss, hit;
  for (size_t i = 0; i < samples; ++i) {
    serve::Request r;
    r.type = serve::RequestType::kTopKRank;
    r.k = k_base + static_cast<uint32_t>(i);  // distinct key: always a miss
    miss.push_back(timed(r));
  }
  serve::Request hot;
  hot.type = serve::RequestType::kTopKRank;
  hot.k = k_base;
  (void)timed(hot);  // ensure resident
  for (size_t i = 0; i < samples; ++i) hit.push_back(timed(hot));

  out.miss_p50_us = Summarize(std::move(miss)).median;
  out.hit_p50_us = Summarize(std::move(hit)).median;
  out.speedup = out.hit_p50_us > 0.0 ? out.miss_p50_us / out.hit_p50_us : 0.0;
  return out;
}

const char* kTypeNames[kNumTypes] = {"ego", "topk", "dist", "neighbors",
                                     "fingerprint"};

}  // namespace
}  // namespace bench
}  // namespace elitenet

int main(int argc, char** argv) {
  using namespace elitenet;
  const bench::BenchArgs args =
      bench::ParseArgs(argc, argv, "BENCH_serving.json");
  std::string mode = "all";
  size_t num_requests = 12000;
  double zipf_s = 1.1;
  size_t cache_samples = 60;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--mode=", 7) == 0) mode = argv[i] + 7;
    if (std::strncmp(argv[i], "--requests=", 11) == 0) {
      num_requests = std::strtoull(argv[i] + 11, nullptr, 10);
    }
    if (std::strncmp(argv[i], "--zipf=", 7) == 0) {
      zipf_s = std::strtod(argv[i] + 7, nullptr);
    }
  }
  if (mode != "all" && mode != "base" && mode != "sharded") {
    std::fprintf(stderr, "unknown --mode=%s (all|base|sharded)\n",
                 mode.c_str());
    return 2;
  }
  const bool run_base = mode != "sharded";
  const bool run_sharded = mode != "base";

  gen::VerifiedNetworkConfig gcfg;
  gcfg.num_users = args.num_users;
  gcfg.seed = args.seed;
  auto net = gen::GenerateVerifiedNetwork(gcfg);
  if (!net.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 net.status().ToString().c_str());
    return 1;
  }
  const graph::DiGraph& g = net->graph;
  std::printf("serving bench: n=%u m=%llu requests=%zu zipf=%.2f "
              "(hardware_concurrency=%u)\n",
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()),
              num_requests, zipf_s, std::thread::hardware_concurrency());

  const std::vector<serve::Request> mix =
      bench::MakeServeRequestMix(g, num_requests, zipf_s, args.seed ^ 0x5E47E);
  const std::string& sidecar = args.json_path;

  std::vector<bench::RunResult> runs;
  uint64_t baseline_checksum = 0;
  if (run_base) {
    for (size_t t = 0; t < bench::kNumThreadCounts; ++t) {
      runs.push_back(
          bench::RunClosedLoop(g, mix, bench::kThreadCounts[t], sidecar));
      const bench::RunResult& r = runs.back();
      const double hit_rate =
          r.cache_hits + r.cache_misses > 0
              ? static_cast<double>(r.cache_hits) /
                    static_cast<double>(r.cache_hits + r.cache_misses)
              : 0.0;
      std::printf("  threads=%d  qps=%9.0f  wall=%6.3fs  hit_rate=%.3f  "
                  "checksum=%016llx\n",
                  r.threads, r.qps, r.wall_seconds, hit_rate,
                  static_cast<unsigned long long>(r.checksum));
    }
    baseline_checksum = runs[0].checksum;
  } else {
    // Sharded-only mode still needs the unsharded reference bytes.
    baseline_checksum = bench::RunClosedLoop(g, mix, 1, sidecar).checksum;
    std::printf("  unsharded baseline checksum=%016llx\n",
                static_cast<unsigned long long>(baseline_checksum));
  }

  bool checksums_identical = true;
  for (const bench::RunResult& r : runs) {
    if (r.checksum != baseline_checksum) checksums_identical = false;
  }
  if (!checksums_identical) {
    std::fprintf(stderr,
                 "FAIL: responses are not byte-identical across thread "
                 "counts\n");
  }

  // Sharded grid: same mix, same closed loop, through the router.
  std::vector<bench::RunResult> sharded_runs;
  bool sharded_identical = true;
  bench::OverloadResult overload;
  bool overload_ok = true;
  if (run_sharded) {
    for (int shards : {1, 2, 4}) {
      for (int workers : {1, 4}) {
        sharded_runs.push_back(
            bench::RunShardedClosedLoop(g, mix, shards, workers, sidecar));
        const bench::RunResult& r = sharded_runs.back();
        if (r.checksum != baseline_checksum) sharded_identical = false;
        std::printf("  shards=%d workers=%d  qps=%9.0f  wall=%6.3fs  "
                    "checksum=%016llx%s\n",
                    r.shards, r.threads, r.qps, r.wall_seconds,
                    static_cast<unsigned long long>(r.checksum),
                    r.checksum == baseline_checksum ? "" : "  MISMATCH");
      }
    }
    if (!sharded_identical) {
      std::fprintf(stderr,
                   "FAIL: sharded responses differ from the unsharded "
                   "baseline\n");
    }

    overload = bench::RunOverload(g, mix, sidecar);
    const double capacity = overload.capacity_qps;
    const double offered_ratio =
        capacity > 0.0 ? overload.offered_qps / capacity : 0.0;
    std::printf("  overload: offered %.0f qps (%.1fx capacity), batch "
                "shed %llu/%llu, interactive shed %llu, "
                "interactive p99 %.0fus (baseline %.0fus)\n",
                overload.offered_qps, offered_ratio,
                static_cast<unsigned long long>(overload.batch_shed),
                static_cast<unsigned long long>(overload.batch_submitted),
                static_cast<unsigned long long>(overload.interactive_shed),
                overload.interactive_p99_us,
                overload.interactive_p99_baseline_us);
    overload_ok = overload.batch_shed > 0 && overload.interactive_shed == 0 &&
                  offered_ratio >= 2.0;
    if (!overload_ok) {
      std::fprintf(stderr,
                   "FAIL: overload contract violated (want offered >= 2x "
                   "capacity, batch shed > 0, interactive shed == 0)\n");
    }
  }

  bench::CacheEfficacy cache;
  bool cache_fast_enough = true;
  if (run_base) {
    cache = bench::MeasureTopKCache(g, cache_samples, sidecar);
    std::printf("  topk cache: miss p50 %.1fus, hit p50 %.1fus, %.1fx\n",
                cache.miss_p50_us, cache.hit_p50_us, cache.speedup);
    cache_fast_enough = cache.speedup >= 5.0;
    if (!cache_fast_enough) {
      std::fprintf(stderr,
                   "FAIL: top-k cache hit path only %.1fx faster than the "
                   "miss path (need >= 5x)\n",
                   cache.speedup);
    }
  }

  std::remove((sidecar + ".widx").c_str());
  std::remove((sidecar + ".pidx").c_str());

  const auto run_json = [](const bench::RunResult& r) {
    const uint64_t lookups = r.cache_hits + r.cache_misses;
    bench::Json latency = bench::Json::Object();
    for (size_t t = 0; t < bench::kNumTypes; ++t) {
      std::vector<double> us = r.latency_us[t];
      std::sort(us.begin(), us.end());
      latency.Set(bench::kTypeNames[t],
                  bench::Json::Object()
                      .Set("count", us.size())
                      .Set("p50", bench::Percentile(us, 0.50))
                      .Set("p95", bench::Percentile(us, 0.95))
                      .Set("p99", bench::Percentile(us, 0.99)));
    }
    return bench::Json::Object()
        .Set("threads", r.threads)
        .Set("shards", r.shards)
        .Set("qps", r.qps)
        .Set("wall_seconds", r.wall_seconds)
        .Set("warmup_seconds", r.warmup_seconds)
        .Set("cache_hits", r.cache_hits)
        .Set("cache_misses", r.cache_misses)
        .Set("cache_hit_rate", lookups > 0
                                   ? static_cast<double>(r.cache_hits) /
                                         static_cast<double>(lookups)
                                   : 0.0)
        .Set("degraded", r.degraded)
        .Set("checksum", bench::Hex64(r.checksum))
        .Set("latency_us", std::move(latency));
  };
  bench::Json grid = bench::Json::Array();
  for (const bench::RunResult& r : runs) grid.Add(run_json(r));
  bench::Json sharded_grid = bench::Json::Array();
  for (const bench::RunResult& r : sharded_runs) sharded_grid.Add(run_json(r));

  bench::Report report;
  report.Set("scale", args.num_users)
      .Set("seed", args.seed)
      .Set("num_edges", g.num_edges())
      .Set("requests", mix.size())
      .Set("zipf_exponent", zipf_s)
      .Set("grid", std::move(grid))
      .Set("checksums_identical", checksums_identical)
      .Set("sharded_grid", std::move(sharded_grid))
      .Set("sharded_checksums_identical", sharded_identical)
      .Set("overload", bench::Json())
      .Set("topk_cache", bench::Json());
  if (run_sharded) {
    report.Set("overload",
               bench::Json::Object()
                   .Set("capacity_qps", overload.capacity_qps)
                   .Set("offered_qps", overload.offered_qps)
                   .Set("batch_submitted", overload.batch_submitted)
                   .Set("batch_shed", overload.batch_shed)
                   .Set("interactive_requests", overload.interactive_requests)
                   .Set("interactive_shed", overload.interactive_shed)
                   .Set("interactive_p99_us", overload.interactive_p99_us)
                   .Set("interactive_p99_baseline_us",
                        overload.interactive_p99_baseline_us)
                   .Set("contract_holds", overload_ok));
  }
  if (run_base) {
    report.Set("topk_cache", bench::Json::Object()
                                 .Set("k", cache.k)
                                 .Set("samples", cache.samples)
                                 .Set("miss_p50_us", cache.miss_p50_us)
                                 .Set("hit_p50_us", cache.hit_p50_us)
                                 .Set("speedup", cache.speedup)
                                 .Set("meets_5x", cache_fast_enough));
  }
  if (!report.Write(args.json_path)) return 1;

  return (checksums_identical && sharded_identical && overload_ok &&
          cache_fast_enough)
             ? 0
             : 1;
}
