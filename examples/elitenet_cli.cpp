// elitenet_cli — run the library's analyses on YOUR graph. Reads a SNAP-
// style edge list ("src dst" per line, '#' comments) or an elitenet
// binary snapshot, and exposes the paper's measurement battery as
// subcommands. This is the adoption path for downstream users with their
// own follow/interaction graphs.
//
//   elitenet_cli stats <graph>         basic analysis (paper Section IV-A)
//   elitenet_cli powerlaw <graph>      out-degree CSN fit + Vuong tests
//   elitenet_cli distance <graph>      separation distribution (Fig. 3)
//   elitenet_cli fingerprint <graph>   signature + similarity to the paper
//   elitenet_cli rank <graph> [k]      top-k users by PageRank
//   elitenet_cli serve <graph> [N]     query server on stdin/stdout, one
//                                      JSON line per request (N workers,
//                                      or --threads=N; --cache=N entries;
//                                      --no-widx skips the .widx/.pidx
//                                      sidecars; --metrics=<path>,
//                                      --metrics-interval=<ms>,
//                                      --flight-recorder=<K>, --slow-ms=<t>,
//                                      --sample=<N>, --no-telemetry; admin
//                                      lines #stats/#healthz/#recent/#slow/
//                                      #trace <id> answer with JSON;
//                                      --shards=N serves through the
//                                      router with N degree-partitioned
//                                      shards — byte-identical
//                                      responses)
//   elitenet_cli convert <in> <out>    edge list <-> binary snapshot
//                                      (.eng2 or .eng = ENG2 zero-copy
//                                       mmap format, else text;
//                                       --budget-mb=N streams the ENG2
//                                       write through an N-MiB external
//                                       sort — same bytes, bounded RSS)
//   elitenet_cli warmup <graph>        build/refresh the <graph>.widx
//                                      warm-index sidecar serve uses;
//                                      reports the heavy-node reach
//                                      table and every section's bytes
//   elitenet_cli mutate <graph> <trace> [--out=PATH]
//                                      replay an EMUT follow/unfollow
//                                      trace through the live delta
//                                      overlay, print apply rate +
//                                      overlay high-water marks, and
//                                      compact to a fresh ENG2 snapshot
//                                      (default PATH: <graph>.mutated.eng2)
//
// <graph> is loaded through core::LoadAnyGraph: a dataset directory
// (SaveDataset layout), a ".eng"/".eng2" ENG2 snapshot (mmapped
// zero-copy), or a text edge list. `serve` and `warmup` key the sidecar
// to the graph's checksum, so a stale .widx silently rebuilds.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "analysis/centrality.h"
#include "analysis/components.h"
#include "analysis/degree.h"
#include "analysis/distance.h"
#include "analysis/reciprocity.h"
#include "core/dataset.h"
#include "core/fingerprint.h"
#include "graph/io.h"
#include "serve/compute.h"
#include "serve/delta_overlay.h"
#include "serve/router.h"
#include "serve/server.h"
#include "serve/warm_index_cache.h"
#include "stats/distributions.h"
#include "stats/powerlaw.h"
#include "stats/vuong.h"
#include "util/rng.h"
#include "util/rss.h"
#include "util/string_utils.h"
#include "util/table.h"
#include "util/trace.h"

namespace {

using namespace elitenet;

int CmdStats(const graph::DiGraph& g) {
  const auto deg = analysis::ComputeDegreeStats(g);
  const auto rec = analysis::ComputeReciprocity(g);
  const auto weak = analysis::WeaklyConnectedComponents(g);
  const auto scc = analysis::StronglyConnectedComponents(g);
  const auto att = analysis::FindAttractingComponents(g, scc);

  std::printf("nodes                 %s\n",
              util::FormatWithCommas(g.num_nodes()).c_str());
  std::printf("edges                 %s\n",
              util::FormatWithCommas(g.num_edges()).c_str());
  std::printf("density               %.6g\n", deg.density);
  std::printf("avg out-degree        %.2f\n", deg.avg_out_degree);
  std::printf("max out-degree        %u (node %u)\n", deg.max_out_degree,
              deg.argmax_out_degree);
  std::printf("max in-degree         %u (node %u)\n", deg.max_in_degree,
              deg.argmax_in_degree);
  std::printf("isolated nodes        %s\n",
              util::FormatWithCommas(deg.isolated_nodes).c_str());
  std::printf("reciprocity           %.4f\n", rec.rate);
  std::printf("weak components       %u (giant %.2f%%)\n",
              weak.num_components, 100.0 * weak.GiantFraction());
  std::printf("strong components     %u (giant %.2f%%)\n",
              scc.num_components, 100.0 * scc.GiantFraction());
  std::printf("attracting components %s (%s singletons)\n",
              util::FormatWithCommas(att.count).c_str(),
              util::FormatWithCommas(att.singletons).c_str());
  return 0;
}

int CmdPowerLaw(const graph::DiGraph& g) {
  std::vector<double> degrees;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.OutDegree(u) > 0) {
      degrees.push_back(static_cast<double>(g.OutDegree(u)));
    }
  }
  if (degrees.empty()) {
    std::fprintf(stderr, "graph has no edges\n");
    return 1;
  }
  auto fit = stats::FitDiscrete(degrees);
  if (!fit.ok()) {
    std::fprintf(stderr, "fit failed: %s\n",
                 fit.status().ToString().c_str());
    return 1;
  }
  std::printf("discrete power-law fit (Clauset-Shalizi-Newman):\n");
  std::printf("  alpha   %.4f\n", fit->alpha);
  std::printf("  xmin    %.0f\n", fit->xmin);
  std::printf("  tail n  %llu of %zu\n",
              static_cast<unsigned long long>(fit->tail_n), degrees.size());
  std::printf("  KS      %.4f\n", fit->ks_distance);

  util::Rng rng(7);
  if (auto gof = stats::BootstrapGoodness(degrees, *fit, 30, &rng);
      gof.ok()) {
    std::printf("  bootstrap p = %.3f (p > 0.1 => power law plausible)\n",
                gof->p_value);
  }

  const auto tail = stats::TailOf(degrees, fit->xmin);
  const auto pl = stats::PointwiseLogLikelihood(tail, *fit);
  auto report = [&](const char* name, const Result<stats::AltFit>& alt) {
    if (!alt.ok()) return;
    auto v = stats::VuongTest(
        pl, stats::AltPointwiseLogLikelihood(tail, *alt));
    if (!v.ok()) return;
    std::printf("  Vuong vs %-11s LR=%+9.1f stat=%+6.2f (positive "
                "favors the power law)\n",
                name, v->log_likelihood_ratio, v->statistic);
  };
  report("log-normal", stats::FitLogNormalTail(degrees, fit->xmin, true));
  report("exponential",
         stats::FitExponentialTail(degrees, fit->xmin, true));
  report("poisson", stats::FitPoissonTail(degrees, fit->xmin));
  return 0;
}

int CmdDistance(const graph::DiGraph& g) {
  util::Rng rng(11);
  const auto d = analysis::SampleDistances(g, 64, &rng);
  if (d.reachable_pairs == 0) {
    std::fprintf(stderr, "no reachable pairs\n");
    return 1;
  }
  std::printf("mean distance       %.3f\n", d.mean_distance);
  std::printf("median              %llu\n",
              static_cast<unsigned long long>(d.median_distance));
  std::printf("effective diameter  %llu (90th percentile)\n",
              static_cast<unsigned long long>(d.effective_diameter));
  std::printf("diameter >=         %u\n", d.diameter_lower_bound);
  std::printf("\n%s", d.hops.ToAsciiChart("hops").c_str());
  return 0;
}

int CmdFingerprint(const graph::DiGraph& g) {
  auto fp = core::ComputeFingerprint(g);
  if (!fp.ok()) {
    std::fprintf(stderr, "fingerprint failed: %s\n",
                 fp.status().ToString().c_str());
    return 1;
  }
  const auto paper = core::PaperFingerprint();
  std::printf("fingerprint: %s\n", fp->ToString().c_str());
  std::printf("similarity to the ICDE'19 verified-network signature: "
              "%.3f\n",
              core::FingerprintSimilarity(*fp, paper));
  return 0;
}

int CmdRank(const graph::DiGraph& g, uint32_t k) {
  auto pr = analysis::PageRank(g);
  if (!pr.ok()) {
    std::fprintf(stderr, "pagerank failed\n");
    return 1;
  }
  util::TextTable table({"rank", "node", "pagerank", "in-deg", "out-deg"});
  const auto top = analysis::TopKByScore(pr->scores, k);
  for (size_t i = 0; i < top.size(); ++i) {
    table.AddRow();
    table.AddCell(static_cast<uint64_t>(i + 1));
    table.AddCell(static_cast<uint64_t>(top[i]));
    table.AddCell(pr->scores[top[i]], 4);
    table.AddCell(static_cast<uint64_t>(g.InDegree(top[i])));
    table.AddCell(static_cast<uint64_t>(g.OutDegree(top[i])));
  }
  table.Print();
  return 0;
}

int CmdServe(graph::DiGraph g, const serve::RouterOptions& opts) {
  // Either backend is a FrontDoor; past startup, serving and the
  // shutdown summary do not care which one answers.
  std::unique_ptr<serve::FrontDoor> front;
  Status started;
  char shape[128] = "";
  if (opts.num_shards > 0) {
    // Sharded path: N shard compute units behind the QoS router, with
    // byte-identical responses (serve/router.h).
    auto router = serve::ShardedRouter::Create(std::move(g), opts);
    if (router.ok()) {
      std::snprintf(shape, sizeof(shape),
                    ", %s; %d shards, %llu hub replicas",
                    (*router)->partition_from_cache() ? "partition restored"
                                                      : "partition built",
                    (*router)->num_shards(),
                    static_cast<unsigned long long>(
                        (*router)->partition().hubs.size()));
      front = std::move(*router);
    } else {
      started = router.status();
    }
  } else {
    auto engine = serve::QueryEngine::Create(std::move(g), opts.engine);
    if (engine.ok()) {
      front = std::move(*engine);
    } else {
      started = engine.status();
    }
  }
  if (!started.ok()) {
    std::fprintf(stderr, "serve startup failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "warm in %.2fs (%s%s); %d workers; protocol: ego <n> | "
               "topk <k> | dist <s> <t> [deadline_us] | neighbors <n> "
               "out|in [limit] | fingerprint | quit\n",
               front->warmup_seconds(),
               front->warm_index_from_cache() ? "indexes restored"
                                              : "indexes built",
               shape, front->threads());
  const serve::ServeStats stats = serve::ServeLines(front.get(), stdin, stdout);
  std::fprintf(stderr,
               "served %llu requests (%llu errors, %llu degraded, "
               "%llu admin), cache %llu hits / %llu misses\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.errors),
               static_cast<unsigned long long>(stats.degraded),
               static_cast<unsigned long long>(stats.admin),
               static_cast<unsigned long long>(front->cache_hits()),
               static_cast<unsigned long long>(front->cache_misses()));
  std::fputs(serve::RenderSummaryText(front->telemetry()).c_str(), stderr);
  return 0;
}

int CmdConvert(const graph::DiGraph& g, const std::string& out,
               int64_t budget_mb) {
  const char* kind = "text edge list";
  Status s;
  if (util::EndsWith(out, ".eng") || util::EndsWith(out, ".eng2")) {
    if (budget_mb >= 0) {
      // Out-of-core path: external-sort the edges under the budget and
      // stream the snapshot (byte-identical to the in-memory writer).
      graph::StreamWriteOptions opts;
      opts.sort_budget_bytes = static_cast<uint64_t>(budget_mb) << 20;
      auto stats = graph::SaveStreamedV2(g, out, opts);
      if (!stats.ok()) {
        std::fprintf(stderr, "write failed: %s\n",
                     stats.status().ToString().c_str());
        return 1;
      }
      std::printf(
          "wrote %s (ENG2, streamed: budget %lld MiB, %zu+%zu spill "
          "runs, %llu edges, peak RSS %.1f MiB)\n",
          out.c_str(), static_cast<long long>(budget_mb),
          stats->forward_spill_runs, stats->reverse_spill_runs,
          static_cast<unsigned long long>(stats->num_edges),
          static_cast<double>(util::PeakRssBytes()) / (1 << 20));
      return 0;
    }
    kind = "ENG2 zero-copy snapshot";
    s = graph::SaveBinaryV2(g, out);
  } else {
    s = graph::WriteEdgeListText(g, out);
  }
  if (!s.ok()) {
    std::fprintf(stderr, "write failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%s)\n", out.c_str(), kind);
  return 0;
}

int CmdMutate(graph::DiGraph g, const std::string& graph_path,
              const std::string& trace_path, int argc, char** argv) {
  std::string out = graph_path + ".mutated.eng2";
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else {
      std::fprintf(stderr, "unknown mutate flag: %s\n", argv[i]);
      return 2;
    }
  }
  auto trace = serve::ReadMutationLog(trace_path);
  if (!trace.ok()) {
    std::fprintf(stderr, "cannot read trace %s: %s\n", trace_path.c_str(),
                 trace.status().ToString().c_str());
    return 1;
  }
  auto live = serve::LiveGraph::Create(std::move(g));
  if (!live.ok()) {
    std::fprintf(stderr, "live graph startup failed: %s\n",
                 live.status().ToString().c_str());
    return 1;
  }

  const auto t0 = std::chrono::steady_clock::now();
  uint64_t changed = 0;
  for (size_t i = 0; i < trace->size(); ++i) {
    auto outcome = (*live)->Apply((*trace)[i]);
    if (!outcome.ok()) {
      std::fprintf(stderr, "apply failed at record %zu: %s\n", i,
                   outcome.status().ToString().c_str());
      return 1;
    }
    if (outcome->changed) ++changed;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const serve::OverlayStats stats = (*live)->Stats();
  std::printf("applied %zu mutations in %.3fs (%.0f/s), %llu effective\n",
              trace->size(), seconds,
              seconds > 0.0 ? static_cast<double>(trace->size()) / seconds
                            : 0.0,
              static_cast<unsigned long long>(changed));
  std::printf("  follows %llu  unfollows %llu  noops %llu\n",
              static_cast<unsigned long long>(stats.follows),
              static_cast<unsigned long long>(stats.unfollows),
              static_cast<unsigned long long>(stats.noops));
  std::printf("  live edges %s (reciprocity %.4f)\n",
              util::FormatWithCommas(stats.live_edges).c_str(),
              (*live)->current_reciprocity());
  std::printf("  overlay high-water: %llu rows, %llu entries "
              "(now %llu tombstones, %llu adds)\n",
              static_cast<unsigned long long>(stats.hw_rows),
              static_cast<unsigned long long>(stats.hw_entries),
              static_cast<unsigned long long>(stats.tombstones),
              static_cast<unsigned long long>(stats.overlay_adds));

  auto cstats = (*live)->Compact(out);
  if (!cstats.ok()) {
    std::fprintf(stderr, "compaction failed: %s\n",
                 cstats.status().ToString().c_str());
    return 1;
  }
  std::printf("compacted %llu edges @ version %llu -> %s (%.3fs)\n",
              static_cast<unsigned long long>(cstats->num_edges),
              static_cast<unsigned long long>(cstats->folded_version),
              out.c_str(), cstats->seconds);
  return 0;
}

// Seconds of the last recorded span called `name`, or -1 when none ran.
double SpanSeconds(const char* name) {
  double seconds = -1.0;
  for (const util::TraceEvent& e : util::TraceRecorder::Global().snapshot()) {
    if (e.name == name) seconds = static_cast<double>(e.duration_ns) * 1e-9;
  }
  return seconds;
}

int CmdWarmup(graph::DiGraph g, const std::string& graph_path) {
  serve::EngineOptions opts;
  opts.warm_index_path = serve::WarmIndexPathFor(graph_path);
  // Spans time the heavy-node build when the sidecar is rebuilt.
  util::SetTracingEnabled(true);
  auto engine = serve::QueryEngine::Create(std::move(g), opts);
  if (!engine.ok()) {
    std::fprintf(stderr, "warmup failed: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  const bool reused = (*engine)->warm_index_from_cache();
  std::printf("%s %s in %.2fs\n", reused ? "reused existing" : "rebuilt",
              opts.warm_index_path.c_str(), (*engine)->warmup_seconds());
  const serve::WarmIndexes& warm = (*engine)->warm_indexes();
  const graph::DiGraph& graph = (*engine)->graph();
  uint64_t work = 0;
  for (graph::NodeId u : warm.heavy_ids) work += serve::EgoWork(graph, u);
  const double heavy_seconds = SpanSeconds("serve.warm.heavy_reach");
  std::printf("heavy reach: %zu nodes, ego-walk work %llu edges "
              "(%.1f per graph edge), ",
              warm.heavy_ids.size(), static_cast<unsigned long long>(work),
              graph.num_edges() > 0
                  ? static_cast<double>(work) / graph.num_edges()
                  : 0.0);
  if (heavy_seconds >= 0.0) {
    std::printf("built in %.3fs\n", heavy_seconds);
  } else {
    std::printf("restored, not rebuilt\n");
  }
  auto sections = serve::DescribeWarmIndexes(opts.warm_index_path);
  if (!sections.ok()) {
    std::fprintf(stderr, "cannot inventory sidecar: %s\n",
                 sections.status().ToString().c_str());
    return 1;
  }
  uint64_t total = 0;
  for (const serve::WarmIndexSectionInfo& s : *sections) {
    std::printf("  %-18s %12llu bytes\n", s.name.c_str(),
                static_cast<unsigned long long>(s.bytes));
    total += s.bytes;
  }
  std::printf("  %-18s %12llu bytes (%zu sections)\n", "total",
              static_cast<unsigned long long>(total), sections->size());
  return 0;
}

void Usage() {
  std::fputs(
      "usage: elitenet_cli <stats|powerlaw|distance|fingerprint|rank|"
      "serve|convert|warmup|mutate> <graph> [args]\n"
      "  graph: text edge list, .eng/.eng2 binary snapshot, or dataset "
      "dir\n"
      "  convert <in> <out> [--budget-mb=N]: out ending .eng2 or .eng\n"
      "    writes the ENG2 zero-copy mmap snapshot, anything else a text\n"
      "    edge list; --budget-mb streams the ENG2 write through an N-MiB\n"
      "    external sort (same bytes, bounded memory)\n"
      "  serve <graph> [N] [--threads=N] [--cache=N] [--no-widx]\n"
      "    [--shards=N] [--metrics=PATH] [--metrics-interval=MS]\n"
      "    [--flight-recorder=K] [--slow-ms=T] [--sample=N]\n"
      "    [--no-telemetry]: line-protocol query server\n"
      "  warmup <graph>: precompute the <graph>.widx warm-index sidecar\n"
      "  mutate <graph> <trace> [--out=PATH]: replay an EMUT\n"
      "    follow/unfollow trace through the live delta overlay and\n"
      "    compact the result to a fresh ENG2 snapshot\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) {
    Usage();
    return 2;
  }
  const std::string command = argv[1];
  // Serve flags are checked before the (possibly multi-GiB) graph loads,
  // so a typo fails in milliseconds.
  serve::RouterOptions serve_opts;
  if (command == "serve") {
    const Status s =
        serve::ParseServeArgs(argv[2], argc - 3, argv + 3, &serve_opts);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 2;
    }
  }
  // So are convert's: --budget-mb must be a MiB count whose byte size
  // fits in 64 bits.
  int64_t budget_mb = -1;  // -1 = in-memory writer
  if (command == "convert") {
    for (int i = 4; i < argc; ++i) {
      uint64_t mb = 0;
      if (std::strncmp(argv[i], "--budget-mb=", 12) != 0 ||
          !util::ParseUint64(argv[i] + 12, &mb) || mb > (UINT64_MAX >> 20)) {
        std::fprintf(stderr, "unknown convert flag or bad value: %s\n",
                     argv[i]);
        return 2;
      }
      budget_mb = static_cast<int64_t>(mb);
    }
  }
  // So is rank's k: a count that fits in 32 bits.
  uint32_t rank_k = 10;
  if (command == "rank" && argc > 3) {
    uint64_t k = 0;
    if (!util::ParseUint64(argv[3], &k) || k > UINT32_MAX) {
      std::fprintf(stderr, "bad rank k: %s\n", argv[3]);
      return 2;
    }
    rank_k = static_cast<uint32_t>(k);
  }
  core::GraphLoadInfo load_info;
  auto g = core::LoadAnyGraph(argv[2], &load_info);
  if (!g.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", argv[2],
                 g.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "loaded %u nodes, %llu edges (%s, %.3fs)\n",
               g->num_nodes(),
               static_cast<unsigned long long>(g->num_edges()),
               load_info.format.c_str(), load_info.seconds);

  if (command == "stats") return CmdStats(*g);
  if (command == "powerlaw") return CmdPowerLaw(*g);
  if (command == "distance") return CmdDistance(*g);
  if (command == "fingerprint") return CmdFingerprint(*g);
  if (command == "rank") return CmdRank(*g, rank_k);
  if (command == "serve") return CmdServe(std::move(*g), serve_opts);
  if (command == "convert") {
    if (argc < 4) {
      Usage();
      return 2;
    }
    return CmdConvert(*g, argv[3], budget_mb);
  }
  if (command == "warmup") return CmdWarmup(std::move(*g), argv[2]);
  if (command == "mutate") {
    if (argc < 4) {
      Usage();
      return 2;
    }
    return CmdMutate(std::move(*g), argv[2], argv[3], argc - 4, argv + 4);
  }
  Usage();
  return 2;
}
