// Overhead of the observability layer, in two modes.
//
// Kernel mode (the PR-2 claim): an instrumented sqrt-sum ParallelReduce
// (per-chunk span + counter, the same density parallel.cc deploys) is
// timed against a macro-free twin with instrumentation disabled, enabled
// with metrics only, and enabled with tracing too. Also measures the raw
// per-call cost of a disabled ELITENET_COUNT. Fails if the disabled
// overhead exceeds 1% or instrumentation changes the result.
//
// Serving mode (the live-telemetry claim): replays the deterministic
// zipf request mix (bench_common) through QueryEngine::Submit with the
// telemetry plane disabled, at default 1-in-64 sampling, and at
// sample-every-request, across 1/2/4/8 workers. Asserts (a) response
// checksums are byte-identical across every telemetry setting and worker
// count — telemetry observes, never decides — and (b) the per-request
// telemetry cost (tight loop over the full producer path) divided by the
// measured per-request service time is under --serve-overhead-limit
// percent (default 1%). A one-engine wall-clock A/B (flipping the live
// telemetry switch in ABBA order) rides along in the JSON as an
// end-to-end cross-check but is not gated: its noise floor on a shared
// core is wider than the 1% claim. The default serve scale (60000 nodes,
// ~5.4M edges) keeps per-request compute near the paper-network regime
// (2.3M edges) so the overhead fraction is not inflated by toy-graph
// queries.
//
// Emits BENCH_observability.json with both sections; exits nonzero if
// any assertion fails.
//
// Usage: bench_observability [--elements=N] [--repeats=R] [--json=PATH]
//                            [--skip-kernel] [--serve-scale=N]
//                            [--serve-requests=R] [--serve-repeats=K]
//                            [--serve-overhead-limit=PCT]

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "gen/verified_network.h"
#include "serve/engine.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace elitenet {
namespace bench {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The uninstrumented twin: sqrt-sum over [0, n) via ParallelReduce.
double PlainKernel(const std::vector<double>& data) {
  return util::ParallelReduce(
      0, data.size(), 0, 0.0,
      [&](size_t lo, size_t hi) {
        double s = 0.0;
        for (size_t i = lo; i < hi; ++i) s += std::sqrt(data[i]);
        return s;
      },
      [](double a, double b) { return a + b; });
}

// Identical computation with the per-chunk instrumentation the library's
// own kernels carry: one span and one counter add per chunk.
double InstrumentedKernel(const std::vector<double>& data) {
  return util::ParallelReduce(
      0, data.size(), 0, 0.0,
      [&](size_t lo, size_t hi) {
        ELITENET_SPAN("bench.observability.chunk");
        ELITENET_COUNT("bench.observability.items", hi - lo);
        double s = 0.0;
        for (size_t i = lo; i < hi; ++i) s += std::sqrt(data[i]);
        return s;
      },
      [](double a, double b) { return a + b; });
}

// ---------------------------------------------------------------------------
// Serving mode.

// How the engine's telemetry plane is configured for one grid cell.
struct TelemetryMode {
  const char* name;
  bool enabled;
  uint32_t sample_every;
};

constexpr TelemetryMode kTelemetryModes[] = {
    {"off", false, 64},
    {"sampled", true, 64},  // the production default
    {"full", true, 1},
};

constexpr int kServeThreadCounts[] = {1, 2, 4, 8};

std::unique_ptr<serve::QueryEngine> MakeServeEngine(
    const graph::DiGraph& g, const TelemetryMode& mode, int threads,
    const std::string& widx_path) {
  serve::EngineOptions opts;
  opts.threads = threads;
  opts.cache_capacity = 8192;
  opts.telemetry.enabled = mode.enabled;
  opts.telemetry.sample_every = mode.sample_every;
  // Share one warm-index sidecar across the dozen engine builds the grid
  // needs: the first build writes it, the rest restore in milliseconds.
  opts.warm_index_path = widx_path;
  auto engine = serve::QueryEngine::Create(g, opts);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine startup failed: %s\n",
                 engine.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*engine);
}

// Closed-loop replay through Submit (the production path): a window of
// `threads` requests in flight, responses hashed in submission order so
// the checksum is independent of worker scheduling.
struct ReplayResult {
  double seconds = 0.0;
  uint64_t checksum = 0;
};

ReplayResult Replay(serve::QueryEngine* engine,
                    const std::vector<serve::Request>& mix, int threads) {
  std::deque<std::pair<size_t, std::future<serve::QueryResponse>>> window;
  std::vector<uint64_t> hashes(mix.size(), 0);
  const double t0 = NowSeconds();
  for (size_t i = 0; i < mix.size(); ++i) {
    if (window.size() >= static_cast<size_t>(threads)) {
      hashes[window.front().first] =
          FnvString(window.front().second.get().json);
      window.pop_front();
    }
    window.emplace_back(i, engine->Submit(mix[i]));
  }
  while (!window.empty()) {
    hashes[window.front().first] =
        FnvString(window.front().second.get().json);
    window.pop_front();
  }
  ReplayResult out;
  out.seconds = NowSeconds() - t0;
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t x : hashes) h = FnvMix(h, x);
  out.checksum = h;
  return out;
}

struct ServingResults {
  bool checksums_identical = true;
  uint64_t checksum = 0;
  double qps_off = 0.0;
  double qps_sampled = 0.0;
  /// End-to-end wall-clock A/B delta (reported, not gated: its noise
  /// floor on a shared core is wider than the claim being tested).
  double ab_overhead_pct = 0.0;
  /// Tight-loop cost of the full telemetry producer path, per request.
  double telemetry_ns_per_request = 0.0;
  /// telemetry_ns_per_request / measured request service time — the
  /// enforced overhead bound.
  double overhead_pct = 0.0;
  bool under_limit = true;
  // One row per (mode, threads) grid cell, mode-major.
  std::vector<double> grid_qps;
};

ServingResults RunServingMode(const graph::DiGraph& g,
                              const std::vector<serve::Request>& mix,
                              int repeats, double overhead_limit_pct,
                              const std::string& widx_path) {
  ServingResults out;

  // Byte-identity grid: every telemetry mode at every worker count must
  // produce the same response bytes in submission order.
  bool first = true;
  for (const TelemetryMode& mode : kTelemetryModes) {
    for (int threads : kServeThreadCounts) {
      auto engine = MakeServeEngine(g, mode, threads, widx_path);
      const ReplayResult r = Replay(engine.get(), mix, threads);
      out.grid_qps.push_back(static_cast<double>(mix.size()) / r.seconds);
      std::printf("  telemetry=%-8s threads=%d  qps=%9.0f  "
                  "checksum=%016llx\n",
                  mode.name, threads,
                  static_cast<double>(mix.size()) / r.seconds,
                  static_cast<unsigned long long>(r.checksum));
      if (first) {
        out.checksum = r.checksum;
        first = false;
      } else if (r.checksum != out.checksum) {
        out.checksums_identical = false;
      }
    }
  }

  // Overhead: off vs default sampling at 1 worker, the result cache
  // cleared before every timed replay — the same mixed hit/miss traffic
  // a server actually sees, not an all-cache-hit loop that is really
  // just benchmarking the queue machinery. Both arms run on ONE engine,
  // flipping the telemetry plane's live switch between replays: separate
  // per-arm engines (or a fresh engine per replay) hand each arm its own
  // heap layout, and allocator/page placement luck shows up as a
  // consistent ±several-percent bias that no amount of repetition
  // removes. The verdict compares the arms' TOTAL time over many short
  // replays in ABBA order (off-on / on-off alternating): totals average
  // per-replay scheduler jitter away instead of betting on a median
  // landing well, and ABBA cancels drift that is linear over a pair.
  // Repeat 0 is a discarded warm-up lap for both arms.
  auto engine = MakeServeEngine(g, kTelemetryModes[1], 1, widx_path);
  std::vector<double> off_s, on_s;
  auto lap = [&](bool off) {
    engine->SetTelemetryEnabled(!off);
    engine->ClearResultCache();
    return Replay(engine.get(), mix, 1).seconds;
  };
  for (int r = 0; r <= repeats; ++r) {
    const bool off_first = (r % 2) == 0;
    const double first = lap(off_first);
    const double second = lap(!off_first);
    if (r == 0) continue;  // warm-up
    off_s.push_back(off_first ? first : second);
    on_s.push_back(off_first ? second : first);
  }
  double off_total = 0.0, on_total = 0.0;
  for (double s : off_s) off_total += s;
  for (double s : on_s) on_total += s;
  out.qps_off = static_cast<double>(mix.size()) * off_s.size() / off_total;
  out.qps_sampled = static_cast<double>(mix.size()) * on_s.size() / on_total;
  out.ab_overhead_pct = (on_total / off_total - 1.0) * 100.0;

  // The enforced bound composes two LOW-variance measurements instead of
  // gating on the wall-clock A/B above: on a shared single-core box the
  // A/B's noise floor is ±several percent (an off-vs-off null run swings
  // as much as the real comparison), which cannot resolve a 1% claim.
  // So: (a) the per-request telemetry cost from a tight loop over the
  // real producer path — NextSeq, TraceIdFor, the sampling decision,
  // record construction, Telemetry::Record with both rings and sketches
  // live — and (b) the per-request service time from the off arm's
  // replays. Their ratio is the overhead fraction, immune to scheduler
  // jitter. (The loop keeps telemetry state cache-hot, so it is a
  // best-case per-op cost; the A/B stays in the JSON as the
  // end-to-end cross-check.)
  {
    serve::TelemetryOptions topts;
    topts.sample_every = kTelemetryModes[1].sample_every;
    serve::Telemetry tel(topts);
    constexpr size_t kOps = 2'000'000;
    const double t0 = NowSeconds();
    for (size_t i = 0; i < kOps; ++i) {
      const uint64_t seq = tel.NextSeq();
      const uint64_t trace_id = serve::TraceIdFor(seq);
      serve::RequestRecord rec;
      rec.trace_id = trace_id;
      rec.seq = seq;
      rec.request = mix[i % mix.size()];
      rec.sampled = tel.Sampled(trace_id);
      rec.cache_hit = (i & 3) == 0;
      rec.queued = true;
      rec.latency_us = 1 + (trace_id & 1023);
      rec.queue_wait_us = trace_id & 127;
      tel.Record(std::move(rec));
    }
    out.telemetry_ns_per_request =
        (NowSeconds() - t0) * 1e9 / static_cast<double>(kOps);
  }
  const double request_ns =
      off_total / (static_cast<double>(mix.size()) * off_s.size()) * 1e9;
  out.overhead_pct = out.telemetry_ns_per_request / request_ns * 100.0;
  out.under_limit = out.overhead_pct <= overhead_limit_pct;
  return out;
}

}  // namespace
}  // namespace bench
}  // namespace elitenet

int main(int argc, char** argv) {
  using namespace elitenet;

  const bench::BenchArgs args =
      bench::ParseArgs(argc, argv, "BENCH_observability.json");
  size_t elements = size_t{1} << 22;
  int repeats = 9;
  bool run_kernel = true;
  uint32_t serve_scale = 60000;
  size_t serve_requests = 12000;
  int serve_repeats = 11;
  double serve_limit_pct = 1.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--elements=", 11) == 0) {
      elements = static_cast<size_t>(std::atoll(argv[i] + 11));
    } else if (std::strncmp(argv[i], "--repeats=", 10) == 0) {
      repeats = std::atoi(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--skip-kernel") == 0) {
      run_kernel = false;
    } else if (std::strncmp(argv[i], "--serve-scale=", 14) == 0) {
      serve_scale = static_cast<uint32_t>(std::atoi(argv[i] + 14));
    } else if (std::strncmp(argv[i], "--serve-requests=", 17) == 0) {
      serve_requests =
          static_cast<size_t>(std::atoll(argv[i] + 17));
    } else if (std::strncmp(argv[i], "--serve-repeats=", 16) == 0) {
      serve_repeats = std::atoi(argv[i] + 16);
    } else if (std::strncmp(argv[i], "--serve-overhead-limit=", 23) == 0) {
      serve_limit_pct = std::strtod(argv[i] + 23, nullptr);
    }
  }
  if (elements == 0 || repeats < 1 || serve_repeats < 1) {
    std::fprintf(stderr, "bad --elements/--repeats/--serve-repeats\n");
    return 1;
  }

  util::SetTracingEnabled(false);
  util::SetMetricsEnabled(false);

  // -------------------------------------------------------------------
  // Kernel mode.
  double plain = 0, disabled = 0, metrics_on = 0, full_on = 0;
  double disabled_pct = 0, metrics_pct = 0, full_pct = 0;
  double disabled_ns_per_call = 0;
  bool under_1pct = true, sums_match = true;
  if (run_kernel) {
    std::vector<double> data(elements);
    for (size_t i = 0; i < elements; ++i) {
      data[i] = static_cast<double>((i * 2654435761u) % 1000003u);
    }

    // Warm up (page in the data, build the pool), pin the reference sum.
    const double reference = bench::PlainKernel(data);
    double instrumented_sum = bench::InstrumentedKernel(data);
    sums_match = instrumented_sum == reference;

    // Interleave the variants so drift (thermal, scheduler) hits all
    // alike.
    std::vector<double> plain_s, disabled_s, metrics_s, full_s;
    for (int r = 0; r < repeats; ++r) {
      double t = bench::NowSeconds();
      const double p = bench::PlainKernel(data);
      plain_s.push_back(bench::NowSeconds() - t);
      sums_match = sums_match && p == reference;

      t = bench::NowSeconds();
      double x = bench::InstrumentedKernel(data);
      disabled_s.push_back(bench::NowSeconds() - t);
      sums_match = sums_match && x == reference;

      util::SetMetricsEnabled(true);
      t = bench::NowSeconds();
      x = bench::InstrumentedKernel(data);
      metrics_s.push_back(bench::NowSeconds() - t);
      sums_match = sums_match && x == reference;

      util::SetTracingEnabled(true);
      t = bench::NowSeconds();
      x = bench::InstrumentedKernel(data);
      full_s.push_back(bench::NowSeconds() - t);
      sums_match = sums_match && x == reference;
      util::SetTracingEnabled(false);
      util::SetMetricsEnabled(false);
      util::TraceRecorder::Global().Clear();
    }

    plain = bench::Summarize(plain_s).median;
    disabled = bench::Summarize(disabled_s).median;
    metrics_on = bench::Summarize(metrics_s).median;
    full_on = bench::Summarize(full_s).median;
    disabled_pct = (disabled / plain - 1.0) * 100.0;
    metrics_pct = (metrics_on / plain - 1.0) * 100.0;
    full_pct = (full_on / plain - 1.0) * 100.0;

    // Raw per-call floor of a disabled macro: the load + branch, nothing
    // else. calls >> elements so the loop body dominates the timer reads.
    constexpr size_t kCalls = size_t{1} << 24;
    const double t0 = bench::NowSeconds();
    for (size_t i = 0; i < kCalls; ++i) {
      ELITENET_COUNT("bench.observability.disabled_probe", 1);
    }
    disabled_ns_per_call =
        (bench::NowSeconds() - t0) / static_cast<double>(kCalls) * 1e9;

    under_1pct = disabled_pct < 1.0;
    std::printf("sqrt-sum over %zu elements, %d repeats (median):\n",
                elements, repeats);
    std::printf("  plain kernel              %8.4fs\n", plain);
    std::printf("  instrumented, disabled    %8.4fs  (%+.3f%%)\n", disabled,
                disabled_pct);
    std::printf("  instrumented, metrics on  %8.4fs  (%+.3f%%)\n",
                metrics_on, metrics_pct);
    std::printf("  instrumented, trace+metrics %6.4fs  (%+.3f%%)\n", full_on,
                full_pct);
    std::printf("  disabled ELITENET_COUNT   %8.3f ns/call\n",
                disabled_ns_per_call);
    std::printf("disabled overhead < 1%%: %s; sums identical: %s\n",
                under_1pct ? "yes" : "NO", sums_match ? "yes" : "NO");
  }

  // -------------------------------------------------------------------
  // Serving mode.
  bench::ServingResults serving;
  bool run_serving = serve_scale > 0 && serve_requests > 0;
  if (run_serving) {
    gen::VerifiedNetworkConfig gcfg;
    gcfg.num_users = serve_scale;
    gcfg.seed = 2018;
    auto net = gen::GenerateVerifiedNetwork(gcfg);
    if (!net.ok()) {
      std::fprintf(stderr, "generation failed: %s\n",
                   net.status().ToString().c_str());
      return 1;
    }
    const graph::DiGraph& g = net->graph;
    const std::vector<serve::Request> mix =
        bench::MakeServeRequestMix(g, serve_requests, 1.1, 2018 ^ 0x5E47E);
    std::printf("serving mode: n=%u m=%llu requests=%zu repeats=%d\n",
                g.num_nodes(),
                static_cast<unsigned long long>(g.num_edges()), mix.size(),
                serve_repeats);
    const std::string widx_path = args.json_path + ".widx";
    serving = bench::RunServingMode(g, mix, serve_repeats, serve_limit_pct,
                                    widx_path);
    std::remove(widx_path.c_str());
    std::printf("  telemetry cost at default sampling: %.0f ns/request "
                "= %.3f%% of service time (limit %.1f%% %s)\n",
                serving.telemetry_ns_per_request, serving.overhead_pct,
                serve_limit_pct, serving.under_limit ? "ok" : "FAIL");
    std::printf("  wall-clock A/B cross-check: %+.3f%% "
                "(qps %.0f sampled vs %.0f off; reported, not gated)\n",
                serving.ab_overhead_pct, serving.qps_sampled,
                serving.qps_off);
    if (!serving.checksums_identical) {
      std::fprintf(stderr,
                   "FAIL: responses differ across telemetry modes or "
                   "worker counts\n");
    }
    if (!serving.under_limit) {
      std::fprintf(stderr,
                   "FAIL: telemetry overhead %.3f%% exceeds %.1f%%\n",
                   serving.overhead_pct, serve_limit_pct);
    }
  }

  bench::Report report;
  if (run_kernel) {
    report.Set("elements", elements)
        .Set("repeats", repeats)
        .Set("plain_seconds", plain)
        .Set("disabled_seconds", disabled)
        .Set("metrics_on_seconds", metrics_on)
        .Set("trace_metrics_on_seconds", full_on)
        .Set("disabled_overhead_pct", disabled_pct)
        .Set("metrics_on_overhead_pct", metrics_pct)
        .Set("trace_metrics_on_overhead_pct", full_pct)
        .Set("disabled_count_ns_per_call", disabled_ns_per_call)
        .Set("disabled_under_1pct", under_1pct)
        .Set("sums_identical", sums_match);
  }
  if (run_serving) {
    bench::Json grid_qps = bench::Json::Object();
    size_t cell = 0;
    for (const bench::TelemetryMode& mode : bench::kTelemetryModes) {
      for (int threads : bench::kServeThreadCounts) {
        grid_qps.Set(std::string(mode.name) + "_t" + std::to_string(threads),
                     serving.grid_qps[cell++]);
      }
    }
    report.Set("serving",
               bench::Json::Object()
                   .Set("scale", serve_scale)
                   .Set("requests", serve_requests)
                   .Set("repeats", serve_repeats)
                   .Set("grid_qps", std::move(grid_qps))
                   .Set("checksum", bench::Hex64(serving.checksum))
                   .Set("checksums_identical", serving.checksums_identical)
                   .Set("qps_telemetry_off", serving.qps_off)
                   .Set("qps_default_sampling", serving.qps_sampled)
                   .Set("ab_overhead_pct", serving.ab_overhead_pct)
                   .Set("telemetry_ns_per_request",
                        serving.telemetry_ns_per_request)
                   .Set("overhead_pct", serving.overhead_pct)
                   .Set("overhead_limit_pct", serve_limit_pct)
                   .Set("under_limit", serving.under_limit));
  }
  if (!report.Write(args.json_path)) return 1;
  const bool kernel_ok = !run_kernel || (under_1pct && sums_match);
  const bool serving_ok =
      !run_serving || (serving.checksums_identical && serving.under_limit);
  return kernel_ok && serving_ok ? 0 : 2;
}
