// Traversal-kernel benchmark: classic top-down BFS vs the
// direction-optimizing kernel, on the original and the degree-relabeled
// verified network, at 1/2/4/8 worker threads — every cell of the grid
// must produce the same relabel-invariant checksum (per-source reached
// counts, distance sums, eccentricities), or the process exits non-zero.
// Also times the rewired WCC, k-core and clustering kernels against
// bench-local copies of their pre-kernel implementations (union-find,
// per-node heap vectors, per-node sorted-row intersection) with full output
// equality checks. The serving traversals are timed the same way: the ego
// walk's reach_2hop over every node and the bounded bidirectional search
// over the zipf 0.6 mix's dist pairs, each against a bench-local copy of
// its branchy pre-Mark kernel, with a warm-up pass, alternating repeats
// (median/min/max) and an output-equality exit. Two warm-build rows
// follow on one thread: the mutual-degree index by a per-edge HasEdge
// probe against analysis::MutualDegrees' sorted merge (outputs must be
// equal), and the heavy-node reach table (serve::ComputeHeavyReach):
// nodes, their total walk work, and median/min/max seconds. Emits
// BENCH_graph_kernels.json.
//
// MTEPS follows the GAP convention: sources * m / seconds / 1e6 regardless
// of edges actually probed, so the direction-optimizing kernel's
// short-circuiting shows up as higher TEPS, not a smaller numerator.
//
// Usage: bench_graph_kernels [--scale=N] [--seed=S] [--sources=K]
//                            [--json=PATH]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/clustering.h"
#include "analysis/components.h"
#include "analysis/kcore.h"
#include "analysis/reciprocity.h"
#include "bench_common.h"
#include "gen/verified_network.h"
#include "graph/bounded_distance.h"
#include "graph/frontier.h"
#include "graph/traversal.h"
#include "serve/compute.h"
#include "util/deadline.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/trace.h"

namespace elitenet {
namespace bench {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr size_t kNumThreadCounts = 4;

// Relabel-invariant summary of one BFS: counts and hop sums survive any
// node renumbering, unlike raw distance vectors.
struct SourceTally {
  uint64_t reached = 0;
  uint64_t dist_sum = 0;
  uint32_t max_dist = 0;
};

uint64_t ChecksumTallies(const std::vector<SourceTally>& tallies) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const SourceTally& t : tallies) {
    h = FnvMix(h, t.reached);
    h = FnvMix(h, t.dist_sum);
    h = FnvMix(h, t.max_dist);
  }
  return h;
}

// One timed sweep: BFS from every source with per-block arenas (the same
// parallel shape analysis::SampleDistances uses). Tallies land at the
// source's index, so the output is identical for any thread count by
// construction; the checksum's real job is comparing kernel modes and
// node orderings.
struct SweepResult {
  double seconds = 0.0;
  uint64_t edges_scanned = 0;
  uint64_t bottom_up_levels = 0;
  uint64_t checksum = 0;
};

SweepResult RunSweep(const graph::DiGraph& g,
                     const std::vector<graph::NodeId>& sources,
                     graph::BfsMode mode) {
  std::vector<SourceTally> tallies(sources.size());
  const size_t grain = util::EffectiveGrain(sources.size(), 0);
  const size_t num_blocks = (sources.size() + grain - 1) / grain;
  std::vector<uint64_t> block_edges(num_blocks, 0);
  std::vector<uint64_t> block_bottom_up(num_blocks, 0);
  util::SpanTimer sw;
  util::ParallelFor(0, sources.size(), grain, [&](size_t lo, size_t hi) {
    graph::ScratchArena arena(g.num_nodes());
    graph::BfsOptions opts;
    opts.mode = mode;
    for (size_t i = lo; i < hi; ++i) {
      const graph::BfsStats stats = graph::Bfs(g, sources[i], &arena, opts);
      block_edges[lo / grain] += stats.edges_scanned;
      block_bottom_up[lo / grain] += stats.bottom_up_levels;
      SourceTally& t = tallies[i];
      t.reached = stats.nodes_visited;
      for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
        const uint32_t d = arena.DistanceOr(v, 0);
        t.dist_sum += d;
        t.max_dist = std::max(t.max_dist, d);
      }
    }
  });
  SweepResult out;
  out.seconds = sw.Seconds();
  for (uint64_t e : block_edges) out.edges_scanned += e;
  for (uint64_t b : block_bottom_up) out.bottom_up_levels += b;
  out.checksum = ChecksumTallies(tallies);
  return out;
}

// -- Pre-kernel reference implementations, kept verbatim for honest
// -- speedup numbers and output equality checks.

class UnionFind {
 public:
  explicit UnionFind(size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), graph::NodeId{0});
  }
  graph::NodeId Find(graph::NodeId x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(graph::NodeId a, graph::NodeId b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<graph::NodeId> parent_;
  std::vector<uint64_t> size_;
};

analysis::ComponentLabeling ClassicWcc(const graph::DiGraph& g) {
  const graph::NodeId n = g.num_nodes();
  UnionFind uf(n);
  for (graph::NodeId u = 0; u < n; ++u) {
    for (graph::NodeId v : g.OutNeighbors(u)) uf.Union(u, v);
  }
  analysis::ComponentLabeling out;
  out.label.assign(n, 0);
  std::vector<uint32_t> root_to_id(n, UINT32_MAX);
  for (graph::NodeId u = 0; u < n; ++u) {
    const graph::NodeId root = uf.Find(u);
    if (root_to_id[root] == UINT32_MAX) {
      root_to_id[root] = out.num_components++;
      out.sizes.push_back(0);
    }
    out.label[u] = root_to_id[root];
    ++out.sizes[root_to_id[root]];
  }
  return out;
}

analysis::KCoreResult ClassicKCore(const graph::DiGraph& g) {
  const graph::NodeId n = g.num_nodes();
  analysis::KCoreResult out;
  out.coreness.assign(n, 0);
  if (n == 0) return out;
  std::vector<std::vector<graph::NodeId>> adj(n);
  std::vector<uint32_t> degree(n, 0);
  uint32_t max_degree = 0;
  for (graph::NodeId u = 0; u < n; ++u) {
    adj[u] = analysis::UndirectedNeighbors(g, u);
    degree[u] = static_cast<uint32_t>(adj[u].size());
    max_degree = std::max(max_degree, degree[u]);
  }
  std::vector<uint64_t> bin(max_degree + 2, 0);
  for (graph::NodeId u = 0; u < n; ++u) ++bin[degree[u]];
  uint64_t start = 0;
  for (uint32_t d = 0; d <= max_degree; ++d) {
    const uint64_t count = bin[d];
    bin[d] = start;
    start += count;
  }
  std::vector<graph::NodeId> order(n);
  std::vector<uint64_t> pos(n);
  {
    std::vector<uint64_t> cursor(bin.begin(), bin.end() - 1);
    for (graph::NodeId u = 0; u < n; ++u) {
      pos[u] = cursor[degree[u]]++;
      order[pos[u]] = u;
    }
  }
  for (uint64_t i = 0; i < n; ++i) {
    const graph::NodeId u = order[i];
    out.coreness[u] = degree[u];
    for (graph::NodeId v : adj[u]) {
      if (degree[v] > degree[u]) {
        const uint32_t dv = degree[v];
        const uint64_t pv = pos[v];
        const uint64_t pw = bin[dv];
        const graph::NodeId w = order[pw];
        if (v != w) {
          std::swap(order[pv], order[pw]);
          pos[v] = pw;
          pos[w] = pv;
        }
        ++bin[dv];
        --degree[v];
      }
    }
  }
  for (uint32_t c : out.coreness) out.max_core = std::max(out.max_core, c);
  for (uint32_t c : out.coreness) {
    if (c == out.max_core) ++out.innermost_size;
  }
  return out;
}

// Clustering before the degree-oriented kernel: every evaluated node
// intersects its undirected row with each neighbour's, rebuilt per call
// unless the exact path's all-nodes cache is given.
uint64_t SortedIntersectionSize(const std::vector<graph::NodeId>& a,
                                const std::vector<graph::NodeId>& b) {
  uint64_t count = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

struct ClassicClusteringPartial {
  double coeff_sum = 0.0;
  uint64_t nodes_evaluated = 0;
  uint64_t closed = 0;
  uint64_t open_pairs = 0;
};

analysis::ClusteringStats ClassicClusteringSweep(
    const graph::DiGraph& g, const std::vector<graph::NodeId>& nodes,
    const std::vector<std::vector<graph::NodeId>>* cache) {
  const auto row = [&](graph::NodeId u) {
    return cache != nullptr ? (*cache)[u]
                            : analysis::UndirectedNeighbors(g, u);
  };
  const ClassicClusteringPartial total = util::ParallelReduce(
      0, nodes.size(), 0, ClassicClusteringPartial{},
      [&](size_t lo, size_t hi) {
        ClassicClusteringPartial p;
        for (size_t i = lo; i < hi; ++i) {
          const std::vector<graph::NodeId> nu = row(nodes[i]);
          if (nu.size() < 2) continue;
          uint64_t linked = 0;
          for (graph::NodeId v : nu) {
            linked += SortedIntersectionSize(nu, row(v));
          }
          const double possible = static_cast<double>(nu.size()) *
                                  static_cast<double>(nu.size() - 1);
          ++p.nodes_evaluated;
          p.coeff_sum += static_cast<double>(linked) / possible;
          p.closed += linked;
          p.open_pairs += nu.size() * (nu.size() - 1);
        }
        return p;
      },
      [](ClassicClusteringPartial a, ClassicClusteringPartial b) {
        a.coeff_sum += b.coeff_sum;
        a.nodes_evaluated += b.nodes_evaluated;
        a.closed += b.closed;
        a.open_pairs += b.open_pairs;
        return a;
      });
  analysis::ClusteringStats s;
  s.nodes_evaluated = total.nodes_evaluated;
  if (s.nodes_evaluated > 0) {
    s.average_local =
        total.coeff_sum / static_cast<double>(s.nodes_evaluated);
  }
  s.triangles = total.closed / 6;
  if (total.open_pairs > 0) {
    s.transitivity = static_cast<double>(total.closed) /
                     static_cast<double>(total.open_pairs);
  }
  return s;
}

analysis::ClusteringStats ClassicClustering(const graph::DiGraph& g) {
  const graph::NodeId n = g.num_nodes();
  std::vector<std::vector<graph::NodeId>> adj(n);
  std::vector<graph::NodeId> nodes(n);
  for (graph::NodeId u = 0; u < n; ++u) {
    adj[u] = analysis::UndirectedNeighbors(g, u);
    nodes[u] = u;
  }
  return ClassicClusteringSweep(g, nodes, &adj);
}

analysis::ClusteringStats ClassicClusteringSampled(const graph::DiGraph& g,
                                                   uint32_t samples,
                                                   util::Rng* rng) {
  std::vector<graph::NodeId> eligible;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.OutDegree(u) + g.InDegree(u) >= 2) eligible.push_back(u);
  }
  if (eligible.size() <= samples) return ClassicClustering(g);
  rng->Shuffle(&eligible);
  eligible.resize(samples);
  return ClassicClusteringSweep(g, eligible, nullptr);
}

bool SameClustering(const analysis::ClusteringStats& a,
                    const analysis::ClusteringStats& b) {
  return a.average_local == b.average_local &&
         a.transitivity == b.transitivity && a.triangles == b.triangles &&
         a.nodes_evaluated == b.nodes_evaluated;
}

// The serving traversals before the branch-free mark: a per-edge
// `if (!Visited(v))` branch, distance and parent writes on every new
// node, and push_back appends.
uint64_t BranchyTwoHopReach(const graph::DiGraph& g, graph::NodeId u,
                            graph::ScratchArena* a) {
  a->BeginEpoch();
  a->Visit(u, 0, graph::kNoParent);
  uint64_t reach = 0;
  for (graph::NodeId v : g.OutNeighbors(u)) {
    if (!a->Visited(v)) {
      a->Visit(v, 1, u);
      ++reach;
    }
  }
  for (graph::NodeId v : g.OutNeighbors(u)) {
    for (graph::NodeId w : g.OutNeighbors(v)) {
      if (!a->Visited(w)) {
        a->Visit(w, 2, v);
        ++reach;
      }
    }
  }
  return reach;
}

graph::BoundedDistanceResult BranchyBoundedDistance(
    const graph::DiGraph& g, graph::NodeId source, graph::NodeId target,
    const util::Deadline& deadline, graph::ScratchArena* fwd,
    graph::ScratchArena* bwd) {
  using graph::NodeId;
  graph::BoundedDistanceResult out;
  if (source == target) {
    out.distance = 0;
    return out;
  }
  out.lower_bound = 1;
  constexpr uint32_t kUnset = UINT32_MAX;
  fwd->BeginEpoch();
  bwd->BeginEpoch();
  std::vector<NodeId>& fwd_frontier = fwd->frontier();
  std::vector<NodeId>& bwd_frontier = bwd->frontier();
  fwd_frontier.assign(1, source);
  bwd_frontier.assign(1, target);
  fwd->Visit(source, 0, graph::kNoParent);
  bwd->Visit(target, 0, graph::kNoParent);
  uint32_t fwd_depth = 0, bwd_depth = 0;
  while (!fwd_frontier.empty() && !bwd_frontier.empty()) {
    if (deadline.Expired()) {
      out.completed = false;
      return out;
    }
    const bool advance_forward = fwd_frontier.size() <= bwd_frontier.size();
    uint32_t best = kUnset;
    if (advance_forward) {
      std::vector<NodeId>& next = fwd->next();
      next.clear();
      ++fwd_depth;
      for (NodeId u : fwd_frontier) {
        ++out.expanded;
        for (NodeId v : g.OutNeighbors(u)) {
          if (fwd->Visited(v)) continue;
          fwd->Visit(v, fwd_depth, u);
          if (bwd->Visited(v)) {
            best = std::min(best, fwd_depth + bwd->Distance(v));
          }
          next.push_back(v);
        }
      }
      fwd_frontier.swap(next);
    } else {
      std::vector<NodeId>& next = bwd->next();
      next.clear();
      ++bwd_depth;
      for (NodeId u : bwd_frontier) {
        ++out.expanded;
        for (NodeId v : g.InNeighbors(u)) {
          if (bwd->Visited(v)) continue;
          bwd->Visit(v, bwd_depth, u);
          if (fwd->Visited(v)) {
            best = std::min(best, bwd_depth + fwd->Distance(v));
          }
          next.push_back(v);
        }
      }
      bwd_frontier.swap(next);
    }
    if (best != kUnset) {
      out.distance = best;
      out.lower_bound = best;
      return out;
    }
    out.lower_bound = fwd_depth + bwd_depth + 1;
  }
  out.lower_bound = kUnset;
  return out;
}

// Median, min and max seconds of `repeats` timed passes of the old and
// the new kernel, alternated after one untimed warm-up pass of each so
// host drift lands on both alike.
template <typename OldFn, typename NewFn>
std::pair<Spread, Spread> TimeOldVsNew(int repeats, OldFn&& old_pass,
                                       NewFn&& new_pass) {
  old_pass();
  new_pass();
  std::vector<double> old_s, new_s;
  for (int i = 0; i < repeats; ++i) {
    util::SpanTimer sw;
    old_pass();
    old_s.push_back(sw.Seconds());
    sw.Reset();
    new_pass();
    new_s.push_back(sw.Seconds());
  }
  return {Summarize(old_s), Summarize(new_s)};
}

struct ServingRow {
  const char* name = "";
  const char* classic_label = "branchy";
  const char* optimized_label = "mark";
  size_t items = 0;
  Spread classic, optimized;
  bool outputs_equal = false;
};

bool SameDistance(const graph::BoundedDistanceResult& a,
                  const graph::BoundedDistanceResult& b) {
  return a.distance == b.distance && a.lower_bound == b.lower_bound &&
         a.expanded == b.expanded && a.completed == b.completed;
}

// reach_2hop for every node, and the bounded search over every dist
// pair of a 65,536-request zipf 0.6 mix (the cold_router skew), on one
// thread with one pair of arenas, as a serving worker runs them.
std::vector<ServingRow> RunServingRows(const graph::DiGraph& g,
                                       uint64_t seed, int repeats) {
  constexpr size_t kMixSize = 65536;
  constexpr double kZipf = 0.6;
  const graph::NodeId n = g.num_nodes();
  graph::ScratchArena fwd(n), bwd(n);
  const graph::GraphAdj adj{&g};
  const util::Deadline never = util::Deadline::Infinite();

  ServingRow ego;
  ego.name = "ego_reach";
  ego.items = n;
  std::vector<uint64_t> old_reach(n), new_reach(n);
  const auto ego_old = [&] {
    for (graph::NodeId u = 0; u < n; ++u) {
      old_reach[u] = BranchyTwoHopReach(g, u, &fwd);
    }
  };
  const auto ego_new = [&] {
    for (graph::NodeId u = 0; u < n; ++u) {
      new_reach[u] = serve::TwoHopReach(adj, u, &fwd);
    }
  };
  std::tie(ego.classic, ego.optimized) =
      TimeOldVsNew(repeats, ego_old, ego_new);
  ego.outputs_equal = old_reach == new_reach;

  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  for (const serve::Request& r :
       MakeServeRequestMix(g, kMixSize, kZipf, seed)) {
    if (r.type == serve::RequestType::kDistance) {
      pairs.emplace_back(r.node, r.target);
    }
  }
  ServingRow dist;
  dist.name = "bounded_distance";
  dist.items = pairs.size();
  std::vector<graph::BoundedDistanceResult> old_d(pairs.size()),
      new_d(pairs.size());
  const auto dist_old = [&] {
    for (size_t i = 0; i < pairs.size(); ++i) {
      old_d[i] = BranchyBoundedDistance(g, pairs[i].first, pairs[i].second,
                                        never, &fwd, &bwd);
    }
  };
  const auto dist_new = [&] {
    for (size_t i = 0; i < pairs.size(); ++i) {
      new_d[i] = graph::BoundedBidirectionalDistance(
          adj, pairs[i].first, pairs[i].second, never, &fwd, &bwd);
    }
  };
  std::tie(dist.classic, dist.optimized) =
      TimeOldVsNew(repeats, dist_old, dist_new);
  dist.outputs_equal = std::equal(old_d.begin(), old_d.end(), new_d.begin(),
                                  new_d.end(), SameDistance);
  return {ego, dist};
}

// The warm build's mutual-degree index as it was built before the merge:
// one HasEdge binary search per edge.
std::vector<uint32_t> ProbedMutualDegrees(const graph::DiGraph& g) {
  std::vector<uint32_t> mutual(g.num_nodes(), 0);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    for (graph::NodeId v : g.OutNeighbors(u)) mutual[u] += g.HasEdge(v, u);
  }
  return mutual;
}

ServingRow RunWarmMutualRow(const graph::DiGraph& g, int repeats) {
  ServingRow row;
  row.name = "warm_mutual";
  row.classic_label = "probe";
  row.optimized_label = "merge";
  row.items = g.num_nodes();
  std::vector<uint32_t> probed, merged;
  std::tie(row.classic, row.optimized) = TimeOldVsNew(
      repeats, [&] { probed = ProbedMutualDegrees(g); },
      [&] { merged = analysis::MutualDegrees(g); });
  row.outputs_equal = probed == merged;
  return row;
}

struct HeavyReachRow {
  size_t nodes = 0;
  uint64_t work = 0;
  Spread seconds;
};

HeavyReachRow RunHeavyReachRow(const graph::DiGraph& g, int repeats) {
  std::vector<graph::NodeId> ids;
  std::vector<uint32_t> reach;
  serve::ComputeHeavyReach(g, &ids, &reach);  // warm-up
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    util::SpanTimer sw;
    serve::ComputeHeavyReach(g, &ids, &reach);
    seconds.push_back(sw.Seconds());
  }
  HeavyReachRow row;
  row.nodes = ids.size();
  for (graph::NodeId u : ids) row.work += serve::EgoWork(g, u);
  row.seconds = Summarize(seconds);
  return row;
}

}  // namespace
}  // namespace bench
}  // namespace elitenet

int main(int argc, char** argv) {
  using namespace elitenet;
  const bench::BenchArgs args =
      bench::ParseArgs(argc, argv, "BENCH_graph_kernels.json");
  uint32_t num_sources = 64;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sources=", 10) == 0) {
      num_sources = static_cast<uint32_t>(std::strtoul(argv[i] + 10, nullptr, 10));
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
  const double m = static_cast<double>(g.num_edges());
  std::printf("graph kernels at n=%u m=%llu sources=%u "
              "(hardware_concurrency=%u)\n",
              g.num_nodes(), static_cast<unsigned long long>(g.num_edges()),
              num_sources, std::thread::hardware_concurrency());

  // Degree-descending relabeling: same graph up to isomorphism, hub rows
  // first — the layout the bottom-up probes like best.
  util::SpanTimer sw;
  const graph::DegreeRelabeling relabeled = g.RelabelByDegree();
  const double relabel_seconds = sw.Seconds();

  // Sources: non-isolated nodes sampled once; the relabeled sweep starts
  // from the same nodes under their new ids, so tallies stay comparable.
  std::vector<graph::NodeId> candidates;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.OutDegree(u) + g.InDegree(u) > 0) candidates.push_back(u);
  }
  if (candidates.empty()) {
    std::fprintf(stderr, "graph has no edges; nothing to traverse\n");
    return 1;
  }
  util::Rng rng(args.seed ^ 0x7EB5);
  std::vector<graph::NodeId> sources;
  if (candidates.size() <= num_sources) {
    sources = candidates;
  } else {
    for (uint32_t p : rng.SampleWithoutReplacement(
             static_cast<uint32_t>(candidates.size()), num_sources)) {
      sources.push_back(candidates[p]);
    }
  }
  std::vector<graph::NodeId> relabeled_sources;
  for (graph::NodeId s : sources) {
    relabeled_sources.push_back(relabeled.old_to_new[s]);
  }

  // The full grid: {classic, diropt} x {1,2,4,8 threads} x {orig, relab}.
  struct Cell {
    bench::SweepResult r;
    const char* mode;
    int threads;
    const char* layout;
  };
  std::vector<Cell> cells;
  const graph::BfsMode modes[] = {graph::BfsMode::kClassic,
                                  graph::BfsMode::kDirectionOptimizing};
  const char* mode_names[] = {"classic", "diropt"};
  for (size_t mi = 0; mi < 2; ++mi) {
    for (size_t ti = 0; ti < bench::kNumThreadCounts; ++ti) {
      util::SetThreadCount(bench::kThreadCounts[ti]);
      cells.push_back({bench::RunSweep(g, sources, modes[mi]), mode_names[mi],
                       bench::kThreadCounts[ti], "original"});
      cells.push_back({bench::RunSweep(relabeled.graph, relabeled_sources,
                                       modes[mi]),
                       mode_names[mi], bench::kThreadCounts[ti], "relabeled"});
    }
  }
  util::SetThreadCount(0);

  bool checksums_identical = true;
  for (const Cell& c : cells) {
    if (c.r.checksum != cells[0].r.checksum) checksums_identical = false;
  }
  const double k = static_cast<double>(sources.size());
  for (const Cell& c : cells) {
    const double mteps = c.r.seconds > 0.0 ? k * m / c.r.seconds / 1e6 : 0.0;
    std::printf("  %-7s threads=%d %-9s %8.3fs  %8.1f MTEPS  "
                "edges_scanned=%llu%s\n",
                c.mode, c.threads, c.layout, c.r.seconds, mteps,
                static_cast<unsigned long long>(c.r.edges_scanned),
                c.r.checksum == cells[0].r.checksum ? "" : "  MISMATCH");
  }

  // Headline speedup: single-thread original-layout diropt vs classic —
  // thread count cannot flatter it, only the algorithm can.
  double classic_1t = 0.0, diropt_1t = 0.0;
  uint64_t classic_edges = 0, diropt_edges = 0, diropt_bottom_up = 0;
  for (const Cell& c : cells) {
    if (c.threads != 1 || std::strcmp(c.layout, "original") != 0) continue;
    if (std::strcmp(c.mode, "classic") == 0) {
      classic_1t = c.r.seconds;
      classic_edges = c.r.edges_scanned;
    } else {
      diropt_1t = c.r.seconds;
      diropt_edges = c.r.edges_scanned;
      diropt_bottom_up = c.r.bottom_up_levels;
    }
  }
  const double bfs_speedup = diropt_1t > 0.0 ? classic_1t / diropt_1t : 0.0;

  // WCC and k-core: rewired kernels vs their pre-kernel implementations.
  util::SetThreadCount(1);
  sw.Reset();
  const auto wcc_classic = bench::ClassicWcc(g);
  const double wcc_classic_sec = sw.Seconds();
  sw.Reset();
  const auto wcc_opt = analysis::WeaklyConnectedComponents(g);
  const double wcc_opt_sec = sw.Seconds();
  const bool wcc_equal = wcc_classic.label == wcc_opt.label &&
                         wcc_classic.sizes == wcc_opt.sizes &&
                         wcc_classic.num_components == wcc_opt.num_components;
  sw.Reset();
  const auto kcore_classic = bench::ClassicKCore(g);
  const double kcore_classic_sec = sw.Seconds();
  sw.Reset();
  const auto kcore_opt = analysis::KCoreDecomposition(g);
  const double kcore_opt_sec = sw.Seconds();
  const bool kcore_equal = kcore_classic.coreness == kcore_opt.coreness &&
                           kcore_classic.max_core == kcore_opt.max_core &&
                           kcore_classic.innermost_size ==
                               kcore_opt.innermost_size;
  // Clustering, exact and at the fingerprint's sample depth and seed.
  constexpr uint32_t kClusteringSamples = 4000;
  constexpr uint64_t kClusteringSeed = 99;
  sw.Reset();
  const auto clust_classic = bench::ClassicClustering(g);
  const double clust_classic_sec = sw.Seconds();
  sw.Reset();
  const auto clust_opt = analysis::ComputeClustering(g);
  const double clust_opt_sec = sw.Seconds();
  util::Rng classic_rng(kClusteringSeed);
  sw.Reset();
  const auto sampled_classic =
      bench::ClassicClusteringSampled(g, kClusteringSamples, &classic_rng);
  const double sampled_classic_sec = sw.Seconds();
  util::Rng opt_rng(kClusteringSeed);
  sw.Reset();
  const auto sampled_opt =
      analysis::ComputeClusteringSampled(g, kClusteringSamples, &opt_rng);
  const double sampled_opt_sec = sw.Seconds();
  const bool clust_equal = bench::SameClustering(clust_classic, clust_opt) &&
                           bench::SameClustering(sampled_classic, sampled_opt);
  util::SetThreadCount(0);
  constexpr int kServingRepeats = 5;
  std::vector<bench::ServingRow> serving =
      bench::RunServingRows(g, args.seed, kServingRepeats);
  util::SetThreadCount(1);
  serving.push_back(bench::RunWarmMutualRow(g, kServingRepeats));
  const bench::HeavyReachRow heavy =
      bench::RunHeavyReachRow(g, kServingRepeats);
  util::SetThreadCount(0);
  bool serving_equal = true;
  for (const bench::ServingRow& row : serving) {
    serving_equal = serving_equal && row.outputs_equal;
  }

  std::printf("bfs: diropt %.2fx classic (1 thread, original layout); "
              "edges scanned %llu -> %llu; bottom-up levels %llu\n",
              bfs_speedup, static_cast<unsigned long long>(classic_edges),
              static_cast<unsigned long long>(diropt_edges),
              static_cast<unsigned long long>(diropt_bottom_up));
  std::printf("wcc: union-find %.4fs -> bfs %.4fs (%.2fx), outputs %s\n",
              wcc_classic_sec, wcc_opt_sec,
              wcc_opt_sec > 0.0 ? wcc_classic_sec / wcc_opt_sec : 0.0,
              wcc_equal ? "equal" : "DIFFER");
  std::printf("kcore: heap-vectors %.4fs -> flat-csr %.4fs (%.2fx), "
              "outputs %s\n",
              kcore_classic_sec, kcore_opt_sec,
              kcore_opt_sec > 0.0 ? kcore_classic_sec / kcore_opt_sec : 0.0,
              kcore_equal ? "equal" : "DIFFER");
  std::printf("clustering: per-node rows %.4fs -> oriented %.4fs (%.2fx); "
              "%u-sample %.4fs -> %.4fs (%.2fx), outputs %s\n",
              clust_classic_sec, clust_opt_sec,
              clust_opt_sec > 0.0 ? clust_classic_sec / clust_opt_sec : 0.0,
              kClusteringSamples, sampled_classic_sec, sampled_opt_sec,
              sampled_opt_sec > 0.0 ? sampled_classic_sec / sampled_opt_sec
                                    : 0.0,
              clust_equal ? "equal" : "DIFFER");
  for (const bench::ServingRow& row : serving) {
    std::printf("%s: %s %.4fs [%.4f, %.4f] -> %s %.4fs [%.4f, %.4f] "
                "(%.2fx, median of %d over %zu items), outputs %s\n",
                row.name, row.classic_label, row.classic.median,
                row.classic.min, row.classic.max, row.optimized_label,
                row.optimized.median, row.optimized.min, row.optimized.max,
                row.optimized.median > 0.0
                    ? row.classic.median / row.optimized.median
                    : 0.0,
                kServingRepeats, row.items,
                row.outputs_equal ? "equal" : "DIFFER");
  }
  std::printf("heavy_reach: %zu nodes, work %llu (%.1f per edge), %.4fs "
              "[%.4f, %.4f] (1 thread, median of %d)\n",
              heavy.nodes, static_cast<unsigned long long>(heavy.work),
              static_cast<double>(heavy.work) / m, heavy.seconds.median,
              heavy.seconds.min, heavy.seconds.max, kServingRepeats);
  std::printf("relabel: %.4fs; checksums identical across grid: %s\n",
              relabel_seconds, checksums_identical ? "yes" : "NO");

  bench::Json grid = bench::Json::Array();
  for (const Cell& c : cells) {
    grid.Add(bench::Json::Object()
                 .Set("mode", c.mode)
                 .Set("threads", c.threads)
                 .Set("layout", c.layout)
                 .Set("seconds", c.r.seconds)
                 .Set("mteps",
                      c.r.seconds > 0.0 ? k * m / c.r.seconds / 1e6 : 0.0)
                 .Set("edges_scanned", c.r.edges_scanned)
                 .Set("bottom_up_levels", c.r.bottom_up_levels)
                 .Set("checksum", bench::Hex64(c.r.checksum)));
  }
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  bench::Report report;
  report.Set("scale", args.num_users)
      .Set("seed", args.seed)
      .Set("num_edges", g.num_edges())
      .Set("sources", sources.size())
      .Set("bfs_grid", std::move(grid))
      .Set("bfs_diropt_speedup_1t", bfs_speedup)
      .Set("wcc", bench::Json::Object()
                      .Set("classic_seconds", wcc_classic_sec)
                      .Set("optimized_seconds", wcc_opt_sec)
                      .Set("speedup", ratio(wcc_classic_sec, wcc_opt_sec))
                      .Set("outputs_equal", wcc_equal))
      .Set("kcore", bench::Json::Object()
                        .Set("classic_seconds", kcore_classic_sec)
                        .Set("optimized_seconds", kcore_opt_sec)
                        .Set("speedup", ratio(kcore_classic_sec, kcore_opt_sec))
                        .Set("outputs_equal", kcore_equal))
      .Set("clustering",
           bench::Json::Object()
               .Set("classic_seconds", clust_classic_sec)
               .Set("optimized_seconds", clust_opt_sec)
               .Set("speedup", ratio(clust_classic_sec, clust_opt_sec))
               .Set("samples", kClusteringSamples)
               .Set("sampled_classic_seconds", sampled_classic_sec)
               .Set("sampled_optimized_seconds", sampled_opt_sec)
               .Set("sampled_speedup",
                    ratio(sampled_classic_sec, sampled_opt_sec))
               .Set("outputs_equal", clust_equal));
  for (const bench::ServingRow& row : serving) {
    report.Set(row.name,
               bench::Json::Object()
                   .Set("items", row.items)
                   .Set("repeats", kServingRepeats)
                   .Set("classic", row.classic_label)
                   .Set("optimized", row.optimized_label)
                   .Set("classic_seconds", row.classic.median)
                   .Set("classic_min", row.classic.min)
                   .Set("classic_max", row.classic.max)
                   .Set("optimized_seconds", row.optimized.median)
                   .Set("optimized_min", row.optimized.min)
                   .Set("optimized_max", row.optimized.max)
                   .Set("speedup",
                        ratio(row.classic.median, row.optimized.median))
                   .Set("outputs_equal", row.outputs_equal));
  }
  report.Set("heavy_reach", bench::Json::Object()
                                .Set("nodes", heavy.nodes)
                                .Set("work", heavy.work)
                                .Set("threads", 1)
                                .Set("repeats", kServingRepeats)
                                .Set("seconds", heavy.seconds.median)
                                .Set("min", heavy.seconds.min)
                                .Set("max", heavy.seconds.max))
      .Set("relabel_seconds", relabel_seconds)
      .Set("checksums_identical", checksums_identical);
  if (!report.Write(args.json_path)) return 1;

  const bool ok = checksums_identical && wcc_equal && kcore_equal &&
                  clust_equal && serving_equal;
  return ok ? 0 : 2;
}
