// The per-layer pass of a traced run: each layer timed from outside by
// calling that layer's own public entry points on the run's inputs.
// Every layer is measured on every workload; where a workload's own
// configuration bypasses a layer (the distance oracle on cold_router and
// live_churn), the report line says what was measured instead.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <thread>

#include "analysis/centrality.h"
#include "analysis/components.h"
#include "analysis/degree.h"
#include "analysis/reciprocity.h"
#include "core/dataset.h"
#include "core/fingerprint.h"
#include "gen/verified_network.h"
#include "graph/hub_labels.h"
#include "graph/io.h"
#include "serve/delta_overlay.h"
#include "serve/mutation_log.h"
#include "serve/partition.h"
#include "serve/server.h"
#include "serve/warm_index_cache.h"
#include "trace.h"
#include "workloads.h"

namespace servebench {

namespace analysis = elitenet::analysis;
namespace core = elitenet::core;
namespace gen = elitenet::gen;
namespace graph = elitenet::graph;
namespace serve = elitenet::serve;

namespace {

/// Requests sampled by the per-request layer timings.
constexpr size_t kLayerRequests = 3000;
/// Mutations applied by the overlay and log timings.
constexpr size_t kLayerMutations = 20000;

/// Median wall seconds of `reps` calls of `fn`, each inside a span.
double TimeMedian(const char* span, int reps, const std::function<void()>& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    {
      Span sp(span);
      fn();
    }
    s.push_back(SecondsSince(t0));
  }
  return Median(s);
}

const char* kTypeNames[] = {"ego", "topk", "dist", "neighbors",
                            "fingerprint"};

void AddP50P99(Report* r, const std::string& name,
               const std::vector<double>& us, const std::string& note = "") {
  r->Add(name + ".p50", Percentile(us, 0.50), "us", us.size(), note);
  r->Add(name + ".p99", Percentile(us, 0.99), "us", us.size(), note);
}

/// Wire round trip minus the inline ExecuteLine of the same line, on one
/// ServeLines connection with one request outstanding. Both sides see
/// the line a second time, so both read the same cache state.
template <typename Front>
std::vector<double> WireMinusInline(Front* front, const Inputs& in) {
  int req[2], resp[2];
  if (::pipe(req) != 0 || ::pipe(resp) != 0) Fail("pipe failed");
  std::thread server([&] {
    std::FILE* fin = ::fdopen(req[0], "r");
    std::FILE* fout = ::fdopen(resp[1], "w");
    serve::ServeLines(front, fin, fout);
    std::fclose(fin);
    std::fclose(fout);
  });
  std::vector<double> out;
  std::string buf;
  char chunk[1 << 16];
  for (size_t i = 0; i < kLayerRequests; ++i) {
    const std::string& line = in.lines[i];
    const std::string_view bare(line.data(), line.size() - 1);
    front->ExecuteLine(bare);
    const auto t0 = Clock::now();
    if (::write(req[1], line.data(), line.size()) !=
        static_cast<ssize_t>(line.size())) {
      Fail("pipe write failed");
    }
    buf.clear();
    while (buf.find('\n') == std::string::npos) {
      const ssize_t n = ::read(resp[0], chunk, sizeof(chunk));
      if (n <= 0) Fail("server closed the connection");
      buf.append(chunk, static_cast<size_t>(n));
    }
    const auto t1 = Clock::now();
    RecordSpan("serve.server.wire", t0, t1, NewRequestId());
    const auto t2 = Clock::now();
    {
      Span s("serve.engine.execute_line");
      front->ExecuteLine(bare);
    }
    out.push_back(MicrosBetween(t0, t1) - MicrosBetween(t2, Clock::now()));
  }
  ::close(req[1]);
  server.join();
  ::close(resp[0]);
  return out;
}

/// Submit-to-ready under the workload's caller count, minus the inline
/// Execute time of the same request in the same cache state.
template <typename Front>
std::vector<double> QueueMinusInline(Front* front, const Inputs& in,
                                     int callers) {
  struct Sample {
    size_t slot;
    double us;
    bool hit;
  };
  std::vector<std::vector<Sample>> per(callers);
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      for (size_t i; (i = next.fetch_add(1)) < kLayerRequests;) {
        const auto t0 = Clock::now();
        QueryResponse r;
        {
          Span s("serve.scheduler.submit", NewRequestId());
          r = front->Submit(in.pool[i]).get();
        }
        per[c].push_back({i, MicrosBetween(t0, Clock::now()), r.cache_hit});
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<double> out;
  for (const auto& samples : per) {
    for (const Sample& s : samples) {
      if (s.hit) {
        front->Execute(in.pool[s.slot]);  // make sure it is cached
      } else {
        front->ClearResultCache();
      }
      const auto t0 = Clock::now();
      front->Execute(in.pool[s.slot]);
      out.push_back(s.us - MicrosBetween(t0, Clock::now()));
    }
  }
  return out;
}

}  // namespace

void MeasureLayers(const WorkloadSpec& spec, const Args& args,
                   const Inputs& in, QueryEngine* front_engine,
                   const RunOutcome& run, Report* L) {
  const DiGraph& g = in.graph;
  const std::string tmp = args.work_dir + "/layer";
  const std::string widx = serve::WarmIndexPathFor(in.snapshot);
  const EngineOptions opt = EngineOptionsFor(spec, widx);
  const bool routed = spec.front == Front::kRouter;

  // graph.io
  L->Add("graph.io.map_s", TimeMedian("graph.io.map", 5, [&] {
           Must(graph::MapBinary(in.snapshot), "map");
         }),
         "s", 5);
  L->Add("graph.io.stream_write_s",
         TimeMedian("graph.io.stream_write", 1, [&] {
           Must(graph::SaveStreamedV2(g, tmp + ".eng2"), "stream write");
         }),
         "s", 1);
  std::remove((tmp + ".eng2").c_str());

  // The kernels ComputeWarmIndexes runs, then the whole build.
  L->Add("analysis.degree_s", TimeMedian("analysis.degree", 3, [&] {
           analysis::ComputeDegreeStats(g);
           analysis::ComputeReciprocity(g);
         }),
         "s", 3);
  L->Add("analysis.components_s", TimeMedian("analysis.components", 3, [&] {
           analysis::WeaklyConnectedComponents(g);
           analysis::StronglyConnectedComponents(g);
         }),
         "s", 3);
  L->Add("analysis.pagerank_s", TimeMedian("analysis.pagerank", 3, [&] {
           auto pr = Must(analysis::PageRank(g, opt.pagerank), "pagerank");
           analysis::TopKByScore(pr.scores, g.num_nodes());
         }),
         "s", 3);
  L->Add("core.fingerprint_s", TimeMedian("core.fingerprint", 3, [&] {
           auto fp = core::ComputeFingerprint(g, opt.fingerprint);
           if (fp.ok()) {
             core::FingerprintSimilarity(*fp, core::PaperFingerprint());
           }
         }),
         "s", 3);
  serve::WarmIndexes warm;
  L->Add("serve.warm.total_s", TimeMedian("serve.warm.total", 1, [&] {
           warm = serve::WarmIndexes();
           if (!serve::ComputeWarmIndexes(g, opt, &warm).ok()) {
             Fail("warm build failed");
           }
         }),
         "s", 1, opt.distance_oracle ? "oracle on" : "oracle off");

  // Hub labels: on this graph when the workload builds the oracle, else
  // on hot_wire's 10k-user network.
  {
    DiGraph own;
    const DiGraph* hg = &g;
    std::string note = "this workload's graph";
    if (!opt.distance_oracle) {
      gen::VerifiedNetworkConfig cfg;
      cfg.num_users = FindWorkload("hot_wire")->users;
      cfg.seed = kGraphSeed;
      own = Must(gen::GenerateVerifiedNetwork(cfg), "generate").graph;
      hg = &own;
      note = "oracle off here: hot_wire's 10k-user graph";
    }
    graph::HubLabels labels;
    L->Add("graph.hub_labels.build_s",
           TimeMedian("graph.hub_labels.build", 1,
                      [&] { labels = graph::BuildHubLabels(*hg); }),
           "s", 1, note);
    const graph::HubLabelStats st = labels.Stats();
    L->Add("graph.hub_labels.bytes", static_cast<double>(st.bytes), "bytes",
           0, note);
    L->Add("graph.hub_labels.entries_per_node",
           static_cast<double>(st.out_entries + st.in_entries) /
               hg->num_nodes(),
           "count", 0, "out+in entries over nodes");
    if (!labels.empty()) {
      const graph::NodeId n = hg->num_nodes();
      uint64_t sink = 0;
      size_t queries = 0;
      const auto t0 = Clock::now();
      {
        Span s("graph.hub_labels.query");
        for (int rep = 0; rep < 4; ++rep) {
          for (const Request& r : in.pool) {
            if (r.type != serve::RequestType::kDistance) continue;
            sink += labels.Distance(r.node % n, r.target % n);
            ++queries;
          }
        }
      }
      L->Add("graph.hub_labels.query_us",
             MicrosBetween(t0, Clock::now()) / std::max<size_t>(1, queries),
             "us", queries, sink == 0 ? "all zero" : "mean");
    } else {
      L->Add("graph.hub_labels.query_us", 0.0, "us", 0, "over budget");
    }
  }

  // serve.warm_index_cache
  {
    serve::WarmIndexKey key;
    key.graph_checksum = graph::GraphChecksum(g);
    key.config_hash = serve::WarmConfigHash(opt.pagerank, opt.fingerprint,
                                            opt.distance_oracle);
    const std::string path = tmp + ".widx";
    L->Add("serve.warm_index_cache.save_s",
           TimeMedian("serve.warm_index_cache.save", 3, [&] {
             if (!serve::SaveWarmIndexes(path, key, warm).ok()) {
               Fail("widx save");
             }
           }),
           "s", 3);
    L->Add("serve.warm_index_cache.load_s",
           TimeMedian("serve.warm_index_cache.load", 3, [&] {
             Must(serve::LoadWarmIndexes(path, key, g.num_nodes()), "load");
           }),
           "s", 3);
    uint64_t bytes = 0;
    for (const auto& sec : Must(serve::DescribeWarmIndexes(path), "describe")) {
      bytes += sec.bytes;
    }
    L->Add("serve.warm_index_cache.bytes", static_cast<double>(bytes),
           "bytes");
    std::remove(path.c_str());
  }

  // serve.partition: two shards, the router's settings.
  {
    std::vector<uint64_t> edges;
    const double s = TimeMedian("serve.partition.build", 1, [&] {
      serve::PartitionOptions po;
      po.num_shards = 2;
      const serve::Partition p = Must(serve::BuildPartition(g, po), "part");
      for (int sh = 0; sh < 2; ++sh) {
        edges.push_back(
            Must(serve::BuildShardGraph(g, p, sh), "shard").num_edges());
      }
    });
    L->Add("serve.partition.build_s", s, "s", 1);
    const double mean = (edges[0] + edges[1]) / 2.0;
    L->Add("serve.partition.shard_edge_skew",
           std::max(edges[0], edges[1]) / mean, "ratio", 0,
           "largest shard's edges over the mean");
  }

  // serve.request codec, per call.
  {
    const size_t n = std::min<size_t>(in.lines.size(), 100000);
    std::vector<double> parse, encode;
    for (int rep = 0; rep < 3; ++rep) {
      auto t0 = Clock::now();
      size_t ok = 0;
      {
        Span s("serve.request.parse");
        for (size_t i = 0; i < n; ++i) {
          const std::string& l = in.lines[i];
          ok += serve::ParseRequest(std::string_view(l.data(), l.size() - 1))
                    .ok();
        }
      }
      parse.push_back(MicrosBetween(t0, Clock::now()) * 1e3 / n);
      if (ok != n) Fail("request parse failed");
      t0 = Clock::now();
      size_t bytes = 0;
      {
        Span s("serve.request.encode");
        for (size_t i = 0; i < n; ++i) {
          bytes += serve::CanonicalEncoding(in.pool[i]).size();
        }
      }
      encode.push_back(MicrosBetween(t0, Clock::now()) * 1e3 / n);
      if (bytes == 0) Fail("empty encoding");
    }
    L->Add("serve.request.parse_ns", Median(parse), "ns", n);
    L->Add("serve.request.encode_ns", Median(encode), "ns", n);
  }

  // Engines for the request-level layers: a static engine and a 2-shard
  // router over this graph with this workload's options, restored from
  // the sidecar the set-up wrote.
  std::unique_ptr<QueryEngine> own_static;
  QueryEngine* static_engine = front_engine;
  if (front_engine == nullptr || front_engine->is_live()) {
    own_static = Must(QueryEngine::Create(
                          Must(core::LoadAnyGraph(in.snapshot), "load"), opt),
                      "static engine");
    static_engine = own_static.get();
  }
  serve::RouterOptions ro;
  ro.num_shards = 2;
  ro.partition_path = tmp + ".pidx";
  ro.engine = opt;
  auto router = Must(serve::ShardedRouter::Create(
                         Must(core::LoadAnyGraph(in.snapshot), "load"), ro),
                     "router");
  QueryEngine* exec_engine =
      front_engine != nullptr ? front_engine : static_engine;

  // serve.server: wire round trip minus inline ExecuteLine.
  {
    std::vector<double> wire = routed
                                   ? WireMinusInline(router.get(), in)
                                   : WireMinusInline(exec_engine, in);
    AddP50P99(L, "serve.server.wire_us", wire);
  }

  // serve.engine: inline Execute per type, cold cache and hot cache.
  {
    std::vector<double> by_type[5], hit;
    for (size_t i = 0; i < kLayerRequests; ++i) {
      const Request& r = in.pool[i];
      exec_engine->ClearResultCache();
      auto t0 = Clock::now();
      {
        Span s("serve.engine.execute_cold");
        exec_engine->Execute(r);
      }
      by_type[static_cast<int>(r.type)].push_back(
          MicrosBetween(t0, Clock::now()));
      t0 = Clock::now();
      {
        Span s("serve.engine.execute_hot");
        exec_engine->Execute(r);
      }
      hit.push_back(MicrosBetween(t0, Clock::now()));
    }
    for (int t = 0; t < 5; ++t) {
      AddP50P99(L, std::string("serve.engine.exec_us.") + kTypeNames[t],
                by_type[t]);
    }
    L->Add("serve.engine.hit_us", Percentile(hit, 0.5), "us", hit.size(),
           "p50");
    char base[64];
    std::snprintf(base, sizeof(base), "of %llu lookups",
                  static_cast<unsigned long long>(run.cache_lookups));
    L->Add("serve.engine.cache_hit_ratio", run.cache_hit_ratio, "ratio", 0,
           base);
  }

  // serve.scheduler: queueing under the workload's caller count.
  {
    std::vector<double> q =
        routed
            ? QueueMinusInline(router.get(), in, spec.callers)
            : QueueMinusInline(exec_engine, in, spec.callers);
    AddP50P99(L, "serve.scheduler.queue_us", q);
  }

  // serve.router: the router against the unsharded engine, same requests.
  {
    std::vector<double> over;
    for (size_t i = 0; i < kLayerRequests; ++i) {
      const Request& r = in.pool[i];
      router->ClearResultCache();
      static_engine->ClearResultCache();
      auto t0 = Clock::now();
      {
        Span s("serve.router.execute");
        router->Execute(r);
      }
      const double via_router = MicrosBetween(t0, Clock::now());
      t0 = Clock::now();
      {
        Span s("serve.engine.execute_cold");
        static_engine->Execute(r);
      }
      over.push_back(via_router - MicrosBetween(t0, Clock::now()));
    }
    AddP50P99(L, "serve.router.overhead_us", over);
  }
  router.reset();
  own_static.reset();
  std::remove((tmp + ".pidx").c_str());

  // serve.delta_overlay and serve.mutation_log.
  {
    auto lg = Must(serve::LiveGraph::Create(g), "live graph");
    std::vector<double> apply;
    const size_t n = std::min(kLayerMutations, in.churn.size());
    for (size_t i = 0; i < n; ++i) {
      const auto t0 = Clock::now();
      {
        Span s("serve.delta_overlay.apply");
        Must(lg->Apply(in.churn[i]), "overlay apply");
      }
      apply.push_back(MicrosBetween(t0, Clock::now()));
    }
    AddP50P99(L, "serve.delta_overlay.apply_us", apply);
    L->Add("serve.delta_overlay.hw_entries",
           static_cast<double>(lg->Stats().hw_entries), "count", 0,
           "overlay high-water mark");
    lg.reset();

    const std::string log = tmp + ".emut";
    std::remove(log.c_str());
    std::vector<double> append;
    {
      auto w = Must(serve::MutationLogWriter::Open(log), "log open");
      for (size_t i = 0; i < n; ++i) {
        const auto t0 = Clock::now();
        {
          Span s("serve.mutation_log.append");
          if (!w->Append(in.churn[i]).ok()) Fail("log append");
        }
        append.push_back(MicrosBetween(t0, Clock::now()));
      }
      if (!w->Flush().ok()) Fail("log flush");
    }
    L->Add("serve.mutation_log.append_us", Percentile(append, 0.5), "us",
           append.size(), "p50");
    L->Add("serve.mutation_log.replay_s",
           TimeMedian("serve.mutation_log.read", 3, [&] {
             Must(serve::ReadMutationLog(log), "log read");
           }),
           "s", 3);
    std::remove(log.c_str());
  }
  L->Add("serve.live.compact_s", run.compact_s, "s", 1,
         spec.front == Front::kLive ? "after the run" : "side live engine");

  // Whole-run facts.
  const double overhead =
      run.qps_untraced > 0 ? (run.qps_untraced - run.qps_traced) /
                                 run.qps_untraced
                           : 0.0;
  char base[96];
  std::snprintf(base, sizeof(base), "untraced %.0f/s, traced %.0f/s",
                run.qps_untraced, run.qps_traced);
  L->Add("bench.trace_overhead", overhead, "ratio", 0, base);
  L->Add("bench.steal_pct", StealPercent(run.cpu_start, ReadCpuTimes()),
         "%", 0, "host steal over the run so far");
  L->Add("bench.writer_late_ms", Percentile(run.writes.late_ms, 0.99), "ms",
         run.writes.late_ms.size(), "p99 batch lateness");
}

}  // namespace servebench
