// The determinism contract of the parallel kernels: every randomized or
// floating-point pipeline stage must produce bit-identical results for any
// thread count. Each test runs a kernel at 1 thread and at several worker
// counts and compares exactly (EXPECT_EQ on doubles — no tolerance).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analysis/centrality.h"
#include "analysis/clustering.h"
#include "analysis/components.h"
#include "analysis/distance.h"
#include "analysis/hits.h"
#include "analysis/kcore.h"
#include "gen/verified_network.h"
#include "graph/frontier.h"
#include "graph/hub_labels.h"
#include "graph/traversal.h"
#include "stats/powerlaw.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/trace.h"

namespace elitenet {
namespace {

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::SetThreadCount(0);
    util::SetTracingEnabled(false);
    util::SetMetricsEnabled(false);
    util::TraceRecorder::Global().Clear();
  }

  static const gen::VerifiedNetwork& Network() {
    static const gen::VerifiedNetwork* net = [] {
      util::SetThreadCount(1);
      gen::VerifiedNetworkConfig cfg;
      cfg.num_users = 4000;
      auto result = gen::GenerateVerifiedNetwork(cfg);
      EXPECT_TRUE(result.ok());
      return new gen::VerifiedNetwork(std::move(*result));
    }();
    return *net;
  }
};

constexpr int kThreadCounts[] = {2, 3, 8};

TEST_F(ParallelDeterminismTest, GenerateVerifiedNetwork) {
  const gen::VerifiedNetwork& base = Network();  // built at 1 thread
  for (int threads : kThreadCounts) {
    util::SetThreadCount(threads);
    gen::VerifiedNetworkConfig cfg;
    cfg.num_users = 4000;
    auto net = gen::GenerateVerifiedNetwork(cfg);
    ASSERT_TRUE(net.ok());
    ASSERT_EQ(net->graph.num_nodes(), base.graph.num_nodes());
    ASSERT_EQ(net->graph.num_edges(), base.graph.num_edges()) << threads;
    for (graph::NodeId u = 0; u < base.graph.num_nodes(); ++u) {
      const auto a = base.graph.OutNeighbors(u);
      const auto b = net->graph.OutNeighbors(u);
      ASSERT_EQ(std::vector<graph::NodeId>(a.begin(), a.end()),
                std::vector<graph::NodeId>(b.begin(), b.end()))
          << "node " << u << " at " << threads << " threads";
    }
    EXPECT_EQ(net->roles, base.roles);
    EXPECT_EQ(net->popularity, base.popularity);
  }
}

TEST_F(ParallelDeterminismTest, SampleDistances) {
  const graph::DiGraph& g = Network().graph;
  util::SetThreadCount(1);
  util::Rng rng1(77);
  const analysis::DistanceDistribution base =
      analysis::SampleDistances(g, 24, &rng1);
  for (int threads : kThreadCounts) {
    util::SetThreadCount(threads);
    util::Rng rng(77);
    const analysis::DistanceDistribution d =
        analysis::SampleDistances(g, 24, &rng);
    EXPECT_EQ(d.mean_distance, base.mean_distance) << threads;
    EXPECT_EQ(d.median_distance, base.median_distance);
    EXPECT_EQ(d.effective_diameter, base.effective_diameter);
    EXPECT_EQ(d.reachable_pairs, base.reachable_pairs);
    EXPECT_EQ(d.unreachable_pairs, base.unreachable_pairs);
    EXPECT_EQ(d.diameter_lower_bound, base.diameter_lower_bound);
    EXPECT_EQ(d.hops.counts(), base.hops.counts());
  }
}

TEST_F(ParallelDeterminismTest, BootstrapGoodness) {
  const graph::DiGraph& g = Network().graph;
  std::vector<double> degrees;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.OutDegree(u) > 0) degrees.push_back(g.OutDegree(u));
  }
  const auto fit = stats::FitDiscrete(degrees);
  ASSERT_TRUE(fit.ok());

  util::SetThreadCount(1);
  util::Rng rng1(99);
  const auto base = stats::BootstrapGoodness(degrees, *fit, 12, &rng1);
  ASSERT_TRUE(base.ok());
  for (int threads : kThreadCounts) {
    util::SetThreadCount(threads);
    util::Rng rng(99);
    const auto gof = stats::BootstrapGoodness(degrees, *fit, 12, &rng);
    ASSERT_TRUE(gof.ok());
    EXPECT_EQ(gof->p_value, base->p_value) << threads;
    EXPECT_EQ(gof->replicates, base->replicates);
  }
}

TEST_F(ParallelDeterminismTest, PageRank) {
  const graph::DiGraph& g = Network().graph;
  util::SetThreadCount(1);
  const auto base = analysis::PageRank(g, {});
  ASSERT_TRUE(base.ok());
  for (int threads : kThreadCounts) {
    util::SetThreadCount(threads);
    const auto pr = analysis::PageRank(g, {});
    ASSERT_TRUE(pr.ok());
    EXPECT_EQ(pr->iterations, base->iterations);
    EXPECT_EQ(pr->scores, base->scores) << threads;  // bitwise-equal vector
  }
}

TEST_F(ParallelDeterminismTest, Betweenness) {
  const graph::DiGraph& g = Network().graph;
  analysis::BetweennessOptions opts;
  opts.pivots = 96;
  opts.seed = 5;
  util::SetThreadCount(1);
  const auto base = analysis::Betweenness(g, opts);
  ASSERT_TRUE(base.ok());
  for (int threads : kThreadCounts) {
    util::SetThreadCount(threads);
    const auto bc = analysis::Betweenness(g, opts);
    ASSERT_TRUE(bc.ok());
    EXPECT_EQ(*bc, *base) << threads;
  }
}

TEST_F(ParallelDeterminismTest, Hits) {
  const graph::DiGraph& g = Network().graph;
  util::SetThreadCount(1);
  const auto base = analysis::Hits(g, {});
  ASSERT_TRUE(base.ok());
  for (int threads : kThreadCounts) {
    util::SetThreadCount(threads);
    const auto h = analysis::Hits(g, {});
    ASSERT_TRUE(h.ok());
    EXPECT_EQ(h->hub, base->hub) << threads;
    EXPECT_EQ(h->authority, base->authority);
  }
}

TEST_F(ParallelDeterminismTest, Clustering) {
  const graph::DiGraph& g = Network().graph;
  util::SetThreadCount(1);
  const analysis::ClusteringStats base = analysis::ComputeClustering(g);
  util::Rng srng1(11);
  const analysis::ClusteringStats base_sampled =
      analysis::ComputeClusteringSampled(g, 500, &srng1);
  for (int threads : kThreadCounts) {
    util::SetThreadCount(threads);
    const analysis::ClusteringStats full = analysis::ComputeClustering(g);
    EXPECT_EQ(full.average_local, base.average_local) << threads;
    EXPECT_EQ(full.transitivity, base.transitivity);
    EXPECT_EQ(full.triangles, base.triangles);
    EXPECT_EQ(full.nodes_evaluated, base.nodes_evaluated);
    util::Rng srng(11);
    const analysis::ClusteringStats sampled =
        analysis::ComputeClusteringSampled(g, 500, &srng);
    EXPECT_EQ(sampled.average_local, base_sampled.average_local) << threads;
    EXPECT_EQ(sampled.nodes_evaluated, base_sampled.nodes_evaluated);
  }
}

// The distance-oracle labels are persisted and checksummed, so the
// construction must be a pure function of the graph: bit-identical
// offset, rank and distance arrays at every thread count (the acceptance
// grid is 1/2/4/8; 3 rides along to catch non-power-of-two chunking bugs).
TEST_F(ParallelDeterminismTest, HubLabels) {
  const graph::DiGraph& g = Network().graph;
  util::SetThreadCount(1);
  const graph::HubLabels base = graph::BuildHubLabels(g);
  ASSERT_FALSE(base.empty());
  ASSERT_TRUE(graph::ValidateHubLabels(base, g.num_nodes()).ok());
  for (int threads : {2, 3, 4, 8}) {
    util::SetThreadCount(threads);
    const graph::HubLabels labels = graph::BuildHubLabels(g);
    EXPECT_EQ(labels.out().offsets, base.out().offsets) << threads;
    EXPECT_EQ(labels.out().ranks, base.out().ranks) << threads;
    EXPECT_EQ(labels.out().dists, base.out().dists) << threads;
    EXPECT_EQ(labels.in().offsets, base.in().offsets) << threads;
    EXPECT_EQ(labels.in().ranks, base.in().ranks) << threads;
    EXPECT_EQ(labels.in().dists, base.in().dists) << threads;
  }
}

// Relabel-invariant summary of one BFS (counts and hop sums survive any
// node renumbering).
struct BfsTally {
  uint64_t reached = 0;
  uint64_t dist_sum = 0;
  uint32_t max_dist = 0;
  bool operator==(const BfsTally&) const = default;
};

BfsTally TallyBfs(const graph::DiGraph& g, graph::NodeId source) {
  graph::ScratchArena arena(g.num_nodes());
  const graph::BfsStats stats = graph::Bfs(g, source, &arena);
  BfsTally t;
  t.reached = stats.nodes_visited;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const uint32_t d = arena.DistanceOr(v, 0);
    t.dist_sum += d;
    t.max_dist = std::max(t.max_dist, d);
  }
  return t;
}

// The traversal-backed kernels (multi-root WCC, flat-CSR k-core, the BFS
// kernel itself) must stay bit-identical for any thread count.
TEST_F(ParallelDeterminismTest, TraversalKernels) {
  const graph::DiGraph& g = Network().graph;
  util::SetThreadCount(1);
  const analysis::ComponentLabeling wcc_base =
      analysis::WeaklyConnectedComponents(g);
  const analysis::KCoreResult kcore_base = analysis::KCoreDecomposition(g);
  const std::vector<graph::NodeId> sources = {0, 7, g.num_nodes() / 2,
                                              g.num_nodes() - 1};
  std::vector<BfsTally> tallies_base;
  for (graph::NodeId s : sources) tallies_base.push_back(TallyBfs(g, s));

  for (int threads : kThreadCounts) {
    util::SetThreadCount(threads);
    const analysis::ComponentLabeling wcc =
        analysis::WeaklyConnectedComponents(g);
    EXPECT_EQ(wcc.label, wcc_base.label) << threads;
    EXPECT_EQ(wcc.sizes, wcc_base.sizes);
    EXPECT_EQ(wcc.num_components, wcc_base.num_components);
    const analysis::KCoreResult kcore = analysis::KCoreDecomposition(g);
    EXPECT_EQ(kcore.coreness, kcore_base.coreness) << threads;
    EXPECT_EQ(kcore.max_core, kcore_base.max_core);
    EXPECT_EQ(kcore.innermost_size, kcore_base.innermost_size);
    for (size_t i = 0; i < sources.size(); ++i) {
      EXPECT_EQ(TallyBfs(g, sources[i]), tallies_base[i])
          << "source " << sources[i] << " at " << threads << " threads";
    }
  }
}

// Degree relabeling is an isomorphism, so every integer-valued kernel
// output must carry over node for node (float scores are excluded: their
// accumulation order legitimately changes with the numbering).
TEST_F(ParallelDeterminismTest, RelabeledGraphEquivalence) {
  const graph::DiGraph& g = Network().graph;
  util::SetThreadCount(1);
  const graph::DegreeRelabeling r = g.RelabelByDegree();
  ASSERT_EQ(r.graph.num_nodes(), g.num_nodes());
  ASSERT_EQ(r.graph.num_edges(), g.num_edges());

  // Coreness maps node for node.
  const analysis::KCoreResult kc = analysis::KCoreDecomposition(g);
  const analysis::KCoreResult kc_rel = analysis::KCoreDecomposition(r.graph);
  EXPECT_EQ(kc.max_core, kc_rel.max_core);
  EXPECT_EQ(kc.innermost_size, kc_rel.innermost_size);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    ASSERT_EQ(kc_rel.coreness[r.old_to_new[u]], kc.coreness[u]) << u;
  }

  // WCC: same partition under the mapping (ids may renumber).
  const analysis::ComponentLabeling wcc = analysis::WeaklyConnectedComponents(g);
  const analysis::ComponentLabeling wcc_rel =
      analysis::WeaklyConnectedComponents(r.graph);
  ASSERT_EQ(wcc.num_components, wcc_rel.num_components);
  std::vector<uint32_t> comp_map(wcc.num_components, UINT32_MAX);
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    const uint32_t c = wcc.label[u];
    const uint32_t c_rel = wcc_rel.label[r.old_to_new[u]];
    if (comp_map[c] == UINT32_MAX) comp_map[c] = c_rel;
    ASSERT_EQ(comp_map[c], c_rel) << "node " << u;
    ASSERT_EQ(wcc.sizes[c], wcc_rel.sizes[c_rel]);
  }

  // BFS from mapped sources: identical relabel-invariant tallies.
  for (graph::NodeId s : {graph::NodeId{0}, g.num_nodes() / 2}) {
    EXPECT_EQ(TallyBfs(g, s), TallyBfs(r.graph, r.old_to_new[s]))
        << "source " << s;
  }
}

// The observability layer must observe without deciding: every kernel's
// output stays bit-identical whether tracing and metrics are on or off,
// at every thread count (satisfying the "instrumentation never feeds back
// into results" contract of util/trace.h and util/metrics.h).
TEST_F(ParallelDeterminismTest, InstrumentationDoesNotPerturbResults) {
  const graph::DiGraph& g = Network().graph;

  struct KernelOutputs {
    std::vector<double> pagerank;
    std::vector<double> betweenness;
    double mean_distance = 0.0;
    uint64_t reachable_pairs = 0;
    double bootstrap_p = 0.0;
  };
  const auto run_kernels = [&] {
    KernelOutputs out;
    const auto pr = analysis::PageRank(g, {});
    EXPECT_TRUE(pr.ok());
    if (pr.ok()) out.pagerank = pr->scores;
    analysis::BetweennessOptions opts;
    opts.pivots = 64;
    opts.seed = 5;
    const auto bc = analysis::Betweenness(g, opts);
    EXPECT_TRUE(bc.ok());
    if (bc.ok()) out.betweenness = *bc;
    util::Rng drng(42);
    const analysis::DistanceDistribution dist =
        analysis::SampleDistances(g, 16, &drng);
    out.mean_distance = dist.mean_distance;
    out.reachable_pairs = dist.reachable_pairs;
    std::vector<double> degrees;
    for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
      if (g.OutDegree(u) > 0) degrees.push_back(g.OutDegree(u));
    }
    const auto fit = stats::FitDiscrete(degrees);
    EXPECT_TRUE(fit.ok());
    if (fit.ok()) {
      util::Rng brng(43);
      const auto gof = stats::BootstrapGoodness(degrees, *fit, 6, &brng);
      EXPECT_TRUE(gof.ok());
      if (gof.ok()) out.bootstrap_p = gof->p_value;
    }
    return out;
  };

  util::SetThreadCount(1);
  util::SetTracingEnabled(false);
  util::SetMetricsEnabled(false);
  const KernelOutputs base = run_kernels();

  for (int threads : {1, 2, 4, 8}) {
    util::SetThreadCount(threads);
    for (const bool instrumented : {false, true}) {
      util::SetTracingEnabled(instrumented);
      util::SetMetricsEnabled(instrumented);
      const KernelOutputs out = run_kernels();
      EXPECT_EQ(out.pagerank, base.pagerank)
          << threads << " threads, instrumented=" << instrumented;
      EXPECT_EQ(out.betweenness, base.betweenness)
          << threads << " threads, instrumented=" << instrumented;
      EXPECT_EQ(out.mean_distance, base.mean_distance);
      EXPECT_EQ(out.reachable_pairs, base.reachable_pairs);
      EXPECT_EQ(out.bootstrap_p, base.bootstrap_p);
      if (instrumented) {
        // The run actually recorded something — the comparison above must
        // not pass vacuously because instrumentation silently no-opped.
        EXPECT_GT(util::TraceRecorder::Global().size(), 0u);
        EXPECT_GT(util::MetricsRegistry::Global().Snapshot().CounterOr0(
                      "parallel.for_calls"),
                  0u);
        util::SetTracingEnabled(false);
        util::SetMetricsEnabled(false);
        util::TraceRecorder::Global().Clear();
        util::MetricsRegistry::Global().ResetValues();
      }
    }
  }
}

}  // namespace
}  // namespace elitenet
