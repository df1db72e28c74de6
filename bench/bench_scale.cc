// Out-of-core scale bench: generate -> convert -> serve at sizes whose
// edge list does not fit the memory the in-memory pipeline would need,
// with the residency *asserted*, not eyeballed. Three phases, each run
// in its own forked child (bench::RunInChild), so each has its own peak
// RSS (ru_maxrss) and nothing is written under /proc:
//
//   verify    at a CI-sized N, the streamed pipeline's snapshot is
//             byte-compared against SaveBinaryV2 of the in-memory
//             generator — the identity the out-of-core path promises;
//   generate  GenerateVerifiedNetworkToSnapshot at --scale under
//             --budget-mb, peak RSS asserted below a ceiling derived
//             from O(n) state + 2 sort budgets — far below the
//             in-memory pipeline's edge-dominated footprint;
//   serve     the snapshot is mmapped and a QueryEngine replays a zipf
//             request mix against it (mapped pages are file-backed, so
//             this phase's ceiling adds the snapshot size).
//
// The 10M-node run uses a sparser config than the paper's density
// (mean degree ~8, modest superfollower) so the *edge volume* is what
// scales; the default --scale smoke keeps the same proportions.
// Emits BENCH_scale.json.
//
//   ./build/bench/bench_scale [--scale=N] [--budget-mb=N]
//       [--rss-limit-mb=N] [--verify-scale=N] [--requests=N] [--json=PATH]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/dataset.h"
#include "gen/verified_network.h"
#include "graph/io.h"
#include "serve/engine.h"
#include "util/parallel.h"
#include "util/table.h"
#include "util/trace.h"

namespace {

using namespace elitenet;

// Sparse-at-scale network config: the paper's density is quadratic in n,
// so at 10M nodes it would mean ~150G edges. Scale runs hold mean degree
// ~16 instead (edge volume linear in n — 160M edges at 10M nodes, an
// edge list alone bigger than the whole asserted RSS ceiling) and shrink
// the superfollower to 2% of the network — still a 200k-out-degree
// outlier at 10M.
gen::VerifiedNetworkConfig ScaleConfig(uint32_t n, uint64_t seed) {
  gen::VerifiedNetworkConfig cfg;
  cfg.num_users = n;
  cfg.seed = seed;
  cfg.density = 16.0 / static_cast<double>(n);
  cfg.superfollower_fraction = 0.02;
  cfg.xmin_over_mean = 3.0;
  return cfg;
}

std::string Slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(f)),
                     std::istreambuf_iterator<char>());
}

uint64_t FileBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f.good() ? static_cast<uint64_t>(f.tellg()) : 0;
}

double Mib(uint64_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

// What each phase's child sends back.
struct VerifyResult {
  bool identical = false;
  uint64_t edges = 0;
  size_t spill_runs = 0;
};
struct GenerateResult {
  double seconds = 0.0;
  uint64_t edges = 0;
  uint64_t input_records = 0;
  size_t forward_spill_runs = 0;
  size_t reverse_spill_runs = 0;
};
struct ServeResult {
  double seconds = 0.0;
  double warmup_seconds = 0.0;
  double replay_seconds = 0.0;
  uint64_t replay_checksum = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchArgs args =
      bench::ParseArgs(argc, argv, "BENCH_scale.json");
  uint64_t budget_mb = 64;
  uint64_t rss_limit_mb = 0;  // 0 = derive from scale + budget
  uint32_t verify_scale = 6000;
  size_t requests = 2000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--budget-mb=", 12) == 0) {
      budget_mb = std::strtoull(argv[i] + 12, nullptr, 10);
    } else if (std::strncmp(argv[i], "--rss-limit-mb=", 15) == 0) {
      rss_limit_mb = std::strtoull(argv[i] + 15, nullptr, 10);
    } else if (std::strncmp(argv[i], "--verify-scale=", 15) == 0) {
      verify_scale = static_cast<uint32_t>(std::atoi(argv[i] + 15));
    } else if (std::strncmp(argv[i], "--requests=", 11) == 0) {
      requests = static_cast<size_t>(std::atoll(argv[i] + 11));
    }
  }
  if (args.threads > 0) util::SetThreadCount(args.threads);
  const std::string out_dir = args.out_dir;
  const std::string snapshot = bench::CsvPath(args, "scale_graph.eng2");
  const uint64_t budget_bytes = budget_mb << 20;

  // ---- Phase 0: byte-identity at CI size --------------------------------
  // Streamed pipeline vs in-memory generator + SaveBinaryV2, at a budget
  // tiny enough to force spill runs. This is the correctness gate that
  // makes the RSS numbers below meaningful: bounded memory is only
  // interesting if the bytes are the same ones.
  VerifyResult verify;
  verify.identical = true;
  if (verify_scale > 0) {
    const bench::ChildRun run =
        bench::RunInChild(&verify, [&](VerifyResult* v) {
          const gen::VerifiedNetworkConfig vcfg =
              ScaleConfig(verify_scale, args.seed);
          const std::string mem_path =
              bench::CsvPath(args, "scale_verify_mem.eng2");
          const std::string str_path =
              bench::CsvPath(args, "scale_verify_str.eng2");
          auto mem = gen::GenerateVerifiedNetwork(vcfg);
          if (!mem.ok()) {
            std::fprintf(stderr, "verify generate failed: %s\n",
                         mem.status().ToString().c_str());
            return 1;
          }
          if (const Status s = graph::SaveBinaryV2(mem->graph, mem_path);
              !s.ok()) {
            std::fprintf(stderr, "verify save failed: %s\n",
                         s.ToString().c_str());
            return 1;
          }
          gen::StreamedGenerateOptions vopt;
          // 16k-record runs: forces spills.
          vopt.sort_budget_bytes = 128 << 10;
          vopt.window_sources = 512;
          auto streamed =
              gen::GenerateVerifiedNetworkToSnapshot(vcfg, str_path, vopt);
          if (!streamed.ok()) {
            std::fprintf(stderr, "verify streamed failed: %s\n",
                         streamed.status().ToString().c_str());
            return 1;
          }
          v->edges = streamed->write.num_edges;
          v->spill_runs = streamed->write.forward_spill_runs;
          const std::string a = Slurp(mem_path), b = Slurp(str_path);
          v->identical = !a.empty() && a == b;
          std::remove(mem_path.c_str());
          std::remove(str_path.c_str());
          return 0;
        });
    if (run.exit_code != 0) return 1;
    std::printf("verify: n=%u m=%llu spill_runs=%zu streamed %s in-memory\n",
                verify_scale, static_cast<unsigned long long>(verify.edges),
                verify.spill_runs,
                verify.identical ? "==" : "DIFFERS FROM");
    if (!verify.identical) return 2;
  }

  // ---- Phase 1: streamed generate + convert at scale --------------------
  GenerateResult generate;
  const bench::ChildRun generate_run =
      bench::RunInChild(&generate, [&](GenerateResult* r) {
        util::SpanTimer gen_timer("bench.scale.generate");
        gen::StreamedGenerateOptions opt;
        opt.sort_budget_bytes = budget_bytes;
        auto net = gen::GenerateVerifiedNetworkToSnapshot(
            ScaleConfig(args.num_users, args.seed), snapshot, opt);
        r->seconds = gen_timer.Seconds();
        if (!net.ok()) {
          std::fprintf(stderr, "streamed generation failed: %s\n",
                       net.status().ToString().c_str());
          return 1;
        }
        r->edges = net->write.num_edges;
        r->input_records = net->write.input_records;
        r->forward_spill_runs = net->write.forward_spill_runs;
        r->reverse_spill_runs = net->write.reverse_spill_runs;
        return 0;
      });
  if (generate_run.exit_code != 0) return 1;
  const uint64_t generate_peak = generate_run.peak_rss_bytes;
  const uint64_t m = generate.edges;
  const uint64_t snapshot_bytes = FileBytes(snapshot);

  // The ceiling: O(n) generator/writer state (roles, popularity, degree
  // sequence, alias samplers, has_in_edge, the writer's offsets array —
  // ~46 B/node measured at 1M, 56 here for headroom) plus both sorters'
  // budgets plus a fixed process baseline. Notably independent of m:
  // the in-memory pipeline's footprint is instead dominated by O(m)
  // terms — base-target rows, the builder's edge array and its
  // counting-sort copy, the materialized CSR — ~28 B/edge on top of the
  // same O(n) state, and even the bare packed edge list (8 B/edge)
  // exceeds this whole ceiling at the 10M-node scale.
  const uint64_t n64 = args.num_users;
  const uint64_t ceiling_bytes =
      rss_limit_mb > 0 ? rss_limit_mb << 20
                       : 56 * n64 + 2 * budget_bytes + (160ull << 20);
  const uint64_t in_memory_estimate = 28 * m + 56 * n64 + (64ull << 20);

  std::printf(
      "generate+convert: n=%s m=%s in %.1fs; budget %llu MiB "
      "(%zu+%zu spill runs), peak RSS %.1f MiB (ceiling %.1f MiB, "
      "in-memory pipeline would need ~%.1f MiB)\n",
      util::FormatWithCommas(args.num_users).c_str(),
      util::FormatWithCommas(m).c_str(), generate.seconds,
      static_cast<unsigned long long>(budget_mb),
      generate.forward_spill_runs, generate.reverse_spill_runs,
      Mib(generate_peak), Mib(ceiling_bytes), Mib(in_memory_estimate));

  const bool rss_ok = generate_peak > 0 && generate_peak <= ceiling_bytes;
  if (generate_peak == 0) {
    std::fprintf(stderr, "warning: RSS unmeasurable on this kernel; "
                 "residency assertion skipped\n");
  } else if (!rss_ok) {
    std::fprintf(stderr, "FAIL: generate+convert peak RSS %.1f MiB exceeds "
                 "ceiling %.1f MiB\n",
                 Mib(generate_peak), Mib(ceiling_bytes));
  }

  // ---- Phase 2: serve from the mapped snapshot --------------------------
  // Warm config sized for a bounded pass: fewer PageRank sweeps.
  // Mapped CSR pages the kernels touch are file-backed but resident, so
  // this phase's ceiling legitimately includes the snapshot size.
  ServeResult serve;
  const bench::ChildRun serve_run =
      bench::RunInChild(&serve, [&](ServeResult* r) {
        util::SpanTimer serve_timer("bench.scale.serve");
        auto g = graph::MapBinary(snapshot);
        if (!g.ok()) {
          std::fprintf(stderr, "map failed: %s\n",
                       g.status().ToString().c_str());
          return 1;
        }
        serve::EngineOptions eopts;
        eopts.pagerank.max_iterations = 30;
        eopts.telemetry.enabled = false;
        auto engine = serve::QueryEngine::Create(std::move(*g), eopts);
        if (!engine.ok()) {
          std::fprintf(stderr, "engine startup failed: %s\n",
                       engine.status().ToString().c_str());
          return 1;
        }
        r->warmup_seconds = (*engine)->warmup_seconds();
        const auto mix = bench::MakeServeRequestMix(
            (*engine)->graph(), requests, 1.1, args.seed);
        util::SpanTimer replay_timer("bench.scale.replay");
        for (const serve::Request& req : mix) {
          const serve::QueryResponse resp = (*engine)->Execute(req);
          r->replay_checksum = bench::FnvMix(r->replay_checksum,
                                             bench::FnvString(resp.json));
        }
        r->replay_seconds = replay_timer.Seconds();
        engine->reset();
        r->seconds = serve_timer.Seconds();
        return 0;
      });
  if (serve_run.exit_code != 0) return 1;
  const uint64_t serve_peak = serve_run.peak_rss_bytes;
  const uint64_t serve_ceiling = ceiling_bytes + snapshot_bytes;
  const bool serve_rss_ok = serve_peak == 0 || serve_peak <= serve_ceiling;
  std::printf(
      "serve: warm %.1fs, %zu requests in %.2fs, checksum %016llx, peak "
      "RSS %.1f MiB (ceiling %.1f MiB incl. %.1f MiB mapped snapshot)\n",
      serve.warmup_seconds, requests, serve.replay_seconds,
      static_cast<unsigned long long>(serve.replay_checksum), Mib(serve_peak),
      Mib(serve_ceiling), Mib(snapshot_bytes));
  if (!serve_rss_ok) {
    std::fprintf(stderr, "FAIL: serve peak RSS %.1f MiB exceeds %.1f MiB\n",
                 Mib(serve_peak), Mib(serve_ceiling));
  }

  bench::Report report;
  report.Set("scale", args.num_users)
      .Set("seed", args.seed)
      .Set("num_edges", m)
      .Set("snapshot_bytes", snapshot_bytes)
      .Set("budget_mb", budget_mb)
      .Set("verify", bench::Json::Object()
                         .Set("scale", verify_scale)
                         .Set("num_edges", verify.edges)
                         .Set("spill_runs", verify.spill_runs)
                         .Set("byte_identical", verify.identical))
      .Set("generate",
           bench::Json::Object()
               .Set("seconds", generate.seconds)
               .Set("input_records", generate.input_records)
               .Set("forward_spill_runs", generate.forward_spill_runs)
               .Set("reverse_spill_runs", generate.reverse_spill_runs)
               .Set("peak_rss_bytes", generate_peak)
               .Set("ceiling_bytes", ceiling_bytes)
               .Set("in_memory_estimate_bytes", in_memory_estimate)
               .Set("rss_ok", rss_ok || generate_peak == 0))
      .Set("serve", bench::Json::Object()
                        .Set("seconds", serve.seconds)
                        .Set("warmup_seconds", serve.warmup_seconds)
                        .Set("requests", requests)
                        .Set("replay_seconds", serve.replay_seconds)
                        .Set("replay_checksum",
                             bench::Hex64(serve.replay_checksum))
                        .Set("peak_rss_bytes", serve_peak)
                        .Set("ceiling_bytes", serve_ceiling)
                        .Set("rss_ok", serve_rss_ok));
  if (!report.Write(args.json_path)) return 1;

  std::remove(snapshot.c_str());
  (void)out_dir;
  const bool ok =
      verify.identical && (rss_ok || generate_peak == 0) && serve_rss_ok;
  return ok ? 0 : 2;
}
