// Live-mutation bench: churn replay through the LSM delta overlay
// (src/serve/delta_overlay.h) and the live QueryEngine.
//
// Pipeline:
//   1. generate the verified network and a deterministic churn trace
//      (gen::GenerateMutationTrace — densifying, reciprocity-drifting);
//   2. round-trip the trace through the EMUT log format;
//   3. replay it through a WAL-journaled LiveGraph, measuring apply rate
//      and drift checkpoints (edge count + reciprocity over the trace),
//      then re-open the WAL to prove replay determinism;
//   4. compact and require the snapshot byte-identical to a cold rebuild
//      (GraphBuilder + SaveBinaryV2) from an independently simulated
//      final edge set;
//   5. replay a zipf request mix pinned at a mid-trace version against
//      live engines at 1/2/4/8 workers WHILE a mutator thread applies
//      the second half of the trace — responses must be byte-identical
//      across worker counts (order-sensitive FNV checksum);
//   6. CompactNow on the last engine and require those bytes identical
//      to the same cold rebuild.
//
// Any gate failing exits non-zero, which is what makes the ctest smoke
// run (label "perf") CI coverage for the mutation plane. Emits
// BENCH_mutations.json.
//
// Usage: bench_mutations [--scale=N] [--seed=S] [--mutations=M]
//                        [--requests=R] [--json=PATH]

#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iterator>
#include <future>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "bench_common.h"
#include "gen/churn.h"
#include "gen/verified_network.h"
#include "graph/builder.h"
#include "graph/io.h"
#include "serve/delta_overlay.h"
#include "serve/engine.h"
#include "serve/mutation_log.h"
#include "util/trace.h"

namespace elitenet {
namespace bench {
namespace {

constexpr int kWorkerCounts[] = {1, 2, 4, 8};

struct DriftPoint {
  uint64_t applied = 0;
  uint64_t edges = 0;
  double reciprocity = 0.0;
};

struct GridRun {
  int workers = 0;
  double wall_seconds = 0.0;
  double qps = 0.0;
  uint64_t checksum = 0;
  uint64_t pinned_version = 0;
};

uint64_t PackEdge(graph::NodeId u, graph::NodeId v) {
  return (static_cast<uint64_t>(u) << 32) | v;
}

// Final edge set of base + trace, simulated with plain hash sets — a
// path through none of the overlay code, so the byte-identity gate
// compares two independent derivations of the same logical graph.
Result<graph::DiGraph> SimulateFinalGraph(
    const graph::DiGraph& base, const std::vector<serve::Mutation>& trace) {
  std::unordered_set<uint64_t> removed, added;
  for (const serve::Mutation& m : trace) {
    const uint64_t key = PackEdge(m.src, m.dst);
    if (m.op == serve::MutationOp::kFollow) {
      if (base.HasEdge(m.src, m.dst)) {
        removed.erase(key);
      } else {
        added.insert(key);
      }
    } else {
      if (base.HasEdge(m.src, m.dst)) {
        removed.insert(key);
      } else {
        added.erase(key);
      }
    }
  }
  graph::GraphBuilder builder(base.num_nodes());
  builder.Reserve(base.num_edges() + added.size());
  for (graph::NodeId u = 0; u < base.num_nodes(); ++u) {
    for (graph::NodeId v : base.OutNeighbors(u)) {
      if (removed.find(PackEdge(u, v)) == removed.end()) {
        EN_RETURN_IF_ERROR(builder.AddEdge(u, v));
      }
    }
  }
  for (uint64_t key : added) {
    EN_RETURN_IF_ERROR(builder.AddEdge(static_cast<graph::NodeId>(key >> 32),
                                       static_cast<graph::NodeId>(key)));
  }
  return builder.Build();
}

Result<std::string> Slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IoError("cannot open " + path);
  std::string bytes;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.append(buf, got);
  }
  std::fclose(f);
  return bytes;
}

// Closed-loop replay of `mix` (all requests pinned at one version)
// against a live engine while `tail` mutations stream in concurrently.
GridRun RunGridPoint(const graph::DiGraph& g,
                     const std::vector<serve::Mutation>& head,
                     const std::vector<serve::Mutation>& tail,
                     const std::vector<serve::Request>& mix, int workers,
                     const std::string& compact_path,
                     serve::QueryEngine** engine_out) {
  serve::EngineOptions opts;
  opts.threads = workers;
  opts.cache_capacity = 8192;
  serve::LiveEngineOptions live;
  live.compact_path = compact_path;
  auto engine = serve::QueryEngine::CreateLive(g, live, opts);
  if (!engine.ok()) {
    std::fprintf(stderr, "live engine startup failed: %s\n",
                 engine.status().ToString().c_str());
    std::exit(1);
  }
  for (const serve::Mutation& m : head) {
    if (!(*engine)->Apply(m).ok()) {
      std::fprintf(stderr, "head apply failed\n");
      std::exit(1);
    }
  }

  GridRun out;
  out.workers = workers;
  out.pinned_version = (*engine)->applied_version();

  // The mutator races the replay on purpose: the gate is that pinned
  // snapshot reads never see it.
  std::thread mutator([&] {
    for (const serve::Mutation& m : tail) {
      if (!(*engine)->Apply(m).ok()) {
        std::fprintf(stderr, "tail apply failed\n");
        std::exit(1);
      }
    }
  });

  std::deque<std::future<serve::QueryResponse>> window;
  std::vector<uint64_t> hashes;
  hashes.reserve(mix.size());
  util::SpanTimer wall("bench.mutations.replay");
  for (const serve::Request& r : mix) {
    if (window.size() >= static_cast<size_t>(workers)) {
      hashes.push_back(FnvString(window.front().get().json));
      window.pop_front();
    }
    window.push_back((*engine)->Submit(r));
  }
  while (!window.empty()) {
    hashes.push_back(FnvString(window.front().get().json));
    window.pop_front();
  }
  out.wall_seconds = wall.Seconds();
  out.qps = static_cast<double>(mix.size()) / out.wall_seconds;
  mutator.join();

  uint64_t checksum = 0xcbf29ce484222325ULL;
  for (uint64_t h : hashes) checksum = FnvMix(checksum, h);
  out.checksum = checksum;

  if (engine_out != nullptr) {
    *engine_out = engine->release();
  }
  return out;
}

}  // namespace
}  // namespace bench
}  // namespace elitenet

int main(int argc, char** argv) {
  using namespace elitenet;
  const bench::BenchArgs args =
      bench::ParseArgs(argc, argv, "BENCH_mutations.json");
  uint32_t num_mutations = 60000;
  size_t num_requests = 3000;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--mutations=", 12) == 0) {
      num_mutations = static_cast<uint32_t>(std::atoll(argv[i] + 12));
    }
    if (std::strncmp(argv[i], "--requests=", 11) == 0) {
      num_requests = std::strtoull(argv[i] + 11, nullptr, 10);
    }
  }

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
  std::printf("mutations bench: n=%u m=%llu mutations=%u requests=%zu\n",
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()),
              num_mutations, num_requests);

  // ---- 1. churn trace --------------------------------------------------
  gen::MutationTraceConfig tcfg;
  tcfg.num_mutations = num_mutations;
  tcfg.seed = args.seed ^ 0xC4B2;
  auto trace = gen::GenerateMutationTrace(g, tcfg);
  if (!trace.ok()) {
    std::fprintf(stderr, "trace generation failed: %s\n",
                 trace.status().ToString().c_str());
    return 1;
  }
  std::vector<serve::Mutation> muts;
  muts.reserve(trace->mutations.size());
  for (const gen::EdgeMutation& em : trace->mutations) {
    muts.push_back(serve::Mutation{em.follow ? serve::MutationOp::kFollow
                                             : serve::MutationOp::kUnfollow,
                                   em.src, em.dst});
  }
  std::printf("  trace: %llu follows (%llu reciprocal) / %llu unfollows "
              "(%llu base)\n",
              static_cast<unsigned long long>(trace->follows),
              static_cast<unsigned long long>(trace->reciprocal_follows),
              static_cast<unsigned long long>(trace->unfollows),
              static_cast<unsigned long long>(trace->base_unfollows));

  // ---- 2. trace file round-trip ---------------------------------------
  const std::string trace_path = bench::CsvPath(args, "churn.emut");
  bool trace_roundtrip = false;
  if (Status s = serve::WriteMutationLog(trace_path, muts); !s.ok()) {
    std::fprintf(stderr, "trace write failed: %s\n", s.ToString().c_str());
  } else if (auto back = serve::ReadMutationLog(trace_path); !back.ok()) {
    std::fprintf(stderr, "trace read failed: %s\n",
                 back.status().ToString().c_str());
  } else {
    trace_roundtrip = *back == muts;
  }
  if (!trace_roundtrip) {
    std::fprintf(stderr, "FAIL: EMUT trace round-trip diverged\n");
  }

  // ---- 3. WAL-journaled apply + drift ----------------------------------
  const std::string wal_path = bench::CsvPath(args, "mutations.wal");
  std::remove(wal_path.c_str());
  serve::LiveGraphOptions lopt;
  lopt.log_path = wal_path;
  auto live = serve::LiveGraph::Create(g, lopt);
  if (!live.ok()) {
    std::fprintf(stderr, "live graph startup failed: %s\n",
                 live.status().ToString().c_str());
    return 1;
  }
  std::vector<bench::DriftPoint> drift;
  auto checkpoint = [&] {
    drift.push_back({(*live)->applied_version(), (*live)->current_edges(),
                     (*live)->current_reciprocity()});
  };
  checkpoint();
  const size_t quarter = muts.size() / 4;
  util::SpanTimer apply_timer("bench.mutations.apply");
  for (size_t i = 0; i < muts.size(); ++i) {
    if (!(*live)->Apply(muts[i]).ok()) {
      std::fprintf(stderr, "apply failed at %zu\n", i);
      return 1;
    }
    if (quarter > 0 && (i + 1) % quarter == 0) checkpoint();
  }
  const double apply_seconds = apply_timer.Seconds();
  if (drift.back().applied != muts.size()) checkpoint();
  const double apply_rate =
      static_cast<double>(muts.size()) / apply_seconds;
  const serve::OverlayStats ostats = (*live)->Stats();
  std::printf("  apply: %.0f mutations/s (%.3fs, WAL on); overlay "
              "high-water %llu rows / %llu entries\n",
              apply_rate, apply_seconds,
              static_cast<unsigned long long>(ostats.hw_rows),
              static_cast<unsigned long long>(ostats.hw_entries));
  const bool densified = drift.back().edges > drift.front().edges;
  const bool recip_drifted =
      drift.back().reciprocity > drift.front().reciprocity;
  if (!densified) std::fprintf(stderr, "FAIL: trace did not densify\n");
  if (!recip_drifted) {
    std::fprintf(stderr, "FAIL: reciprocity did not drift upward\n");
  }

  // ---- 4. compaction byte-identity vs cold rebuild ---------------------
  const std::string compact_path = bench::CsvPath(args, "compacted.eng2");
  const std::string rebuild_path = bench::CsvPath(args, "rebuilt.eng2");
  auto cstats = (*live)->Compact(compact_path);
  if (!cstats.ok()) {
    std::fprintf(stderr, "compaction failed: %s\n",
                 cstats.status().ToString().c_str());
    return 1;
  }
  bool compact_identical = false;
  {
    auto reference = bench::SimulateFinalGraph(g, muts);
    if (!reference.ok()) {
      std::fprintf(stderr, "reference rebuild failed: %s\n",
                   reference.status().ToString().c_str());
      return 1;
    }
    if (Status s = graph::SaveBinaryV2(*reference, rebuild_path); !s.ok()) {
      std::fprintf(stderr, "reference write failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    auto a = bench::Slurp(compact_path);
    auto b = bench::Slurp(rebuild_path);
    compact_identical = a.ok() && b.ok() && *a == *b;
    std::printf("  compaction: %llu edges in %.3fs, %s cold rebuild "
                "(%zu bytes)\n",
                static_cast<unsigned long long>(cstats->num_edges),
                cstats->seconds,
                compact_identical ? "byte-identical to" : "DIVERGES from",
                a.ok() ? a->size() : 0);
  }
  if (!compact_identical) {
    std::fprintf(stderr,
                 "FAIL: compacted snapshot != cold rebuild bytes\n");
  }

  // WAL replay determinism: destroy the live graph (flushing its WAL
  // writer), then a fresh LiveGraph over the same base + log must land
  // on the same head state. Compaction above did not touch the WAL.
  const uint64_t expect_applied = (*live)->applied_version();
  const uint64_t expect_edges = (*live)->current_edges();
  (*live).reset();
  bool wal_replay_ok = false;
  if (auto replayed = serve::LiveGraph::Create(g, lopt); replayed.ok()) {
    wal_replay_ok = (*replayed)->recovered() == muts.size() &&
                    (*replayed)->applied_version() == expect_applied &&
                    (*replayed)->current_edges() == expect_edges;
  }
  if (!wal_replay_ok) {
    std::fprintf(stderr, "FAIL: WAL replay diverged from the live state\n");
  }

  // ---- 5. concurrent QPS grid, pinned-version byte-identity ------------
  const std::vector<serve::Mutation> head(muts.begin(),
                                          muts.begin() + muts.size() / 2);
  const std::vector<serve::Mutation> tail(muts.begin() + muts.size() / 2,
                                          muts.end());
  std::vector<serve::Request> mix = bench::MakeServeRequestMix(
      g, num_requests, 1.1, args.seed ^ 0x11FE);
  for (serve::Request& r : mix) {
    r.version = head.size();  // pin every read at the mid-trace version
  }
  const std::string engine_compact_path =
      bench::CsvPath(args, "compacted_engine.eng2");
  std::vector<bench::GridRun> grid;
  serve::QueryEngine* last_engine = nullptr;
  for (size_t t = 0; t < std::size(bench::kWorkerCounts); ++t) {
    const bool last = t + 1 == std::size(bench::kWorkerCounts);
    grid.push_back(bench::RunGridPoint(g, head, tail, mix,
                                       bench::kWorkerCounts[t],
                                       engine_compact_path,
                                       last ? &last_engine : nullptr));
    const bench::GridRun& r = grid.back();
    std::printf("  workers=%d  qps=%9.0f under churn  wall=%6.3fs  "
                "checksum=%016llx (pinned @v%llu)\n",
                r.workers, r.qps, r.wall_seconds,
                static_cast<unsigned long long>(r.checksum),
                static_cast<unsigned long long>(r.pinned_version));
  }
  bool grid_identical = true;
  for (const bench::GridRun& r : grid) {
    if (r.checksum != grid[0].checksum) grid_identical = false;
  }
  if (!grid_identical) {
    std::fprintf(stderr,
                 "FAIL: pinned-version responses differ across worker "
                 "counts\n");
  }

  // ---- 6. engine-level compaction byte-identity ------------------------
  bool engine_compact_identical = false;
  if (last_engine != nullptr) {
    auto ecs = last_engine->CompactNow();
    if (!ecs.ok()) {
      std::fprintf(stderr, "engine compaction failed: %s\n",
                   ecs.status().ToString().c_str());
    } else {
      auto a = bench::Slurp(engine_compact_path);
      auto b = bench::Slurp(rebuild_path);
      engine_compact_identical = a.ok() && b.ok() && *a == *b;
    }
    delete last_engine;
  }
  if (!engine_compact_identical) {
    std::fprintf(stderr,
                 "FAIL: engine CompactNow bytes != cold rebuild\n");
  }

  // ---- JSON artifact ---------------------------------------------------
  bench::Json drift_json = bench::Json::Array();
  for (const auto& d : drift) {
    drift_json.Add(bench::Json::Object()
                       .Set("applied", d.applied)
                       .Set("edges", d.edges)
                       .Set("reciprocity", d.reciprocity));
  }
  bench::Json grid_json = bench::Json::Array();
  for (const bench::GridRun& r : grid) {
    grid_json.Add(bench::Json::Object()
                      .Set("workers", r.workers)
                      .Set("qps", r.qps)
                      .Set("wall_seconds", r.wall_seconds)
                      .Set("pinned_version", r.pinned_version)
                      .Set("checksum", bench::Hex64(r.checksum)));
  }
  bench::Report report;
  report.Set("scale", args.num_users)
      .Set("seed", args.seed)
      .Set("base_edges", g.num_edges())
      .Set("mutations", muts.size())
      .Set("requests", mix.size())
      .Set("trace", bench::Json::Object()
                        .Set("follows", trace->follows)
                        .Set("unfollows", trace->unfollows)
                        .Set("reciprocal_follows", trace->reciprocal_follows)
                        .Set("base_unfollows", trace->base_unfollows)
                        .Set("roundtrip_ok", trace_roundtrip))
      .Set("apply", bench::Json::Object()
                        .Set("rate_per_sec", apply_rate)
                        .Set("seconds", apply_seconds)
                        .Set("wal", true)
                        .Set("hw_rows", ostats.hw_rows)
                        .Set("hw_entries", ostats.hw_entries)
                        .Set("tombstones", ostats.tombstones)
                        .Set("overlay_adds", ostats.overlay_adds)
                        .Set("replay_deterministic", wal_replay_ok))
      .Set("drift", std::move(drift_json))
      .Set("densified", densified)
      .Set("reciprocity_drifted", recip_drifted)
      .Set("compaction", bench::Json::Object()
                             .Set("edges", cstats->num_edges)
                             .Set("seconds", cstats->seconds)
                             .Set("tail_replayed", cstats->tail_replayed)
                             .Set("byte_identical", compact_identical)
                             .Set("engine_byte_identical",
                                  engine_compact_identical))
      .Set("grid", std::move(grid_json))
      .Set("checksums_identical", grid_identical);
  if (!report.Write(args.json_path)) return 1;

  const bool ok = trace_roundtrip && densified && recip_drifted &&
                  wal_replay_ok && compact_identical && grid_identical &&
                  engine_compact_identical;
  if (!ok) return 1;
  std::printf("all mutation gates passed\n");
  return 0;
}
