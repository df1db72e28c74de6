#include "gen/verified_network.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <span>
#include <unordered_set>
#include <utility>

#include "graph/builder.h"
#include "stats/powerlaw.h"
#include "util/ext_sort.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/string_utils.h"
#include "util/trace.h"

namespace elitenet {
namespace gen {

using graph::GraphBuilder;
using graph::NodeId;

uint64_t VerifiedNetwork::CountRole(UserRole role) const {
  uint64_t count = 0;
  for (UserRole r : roles) {
    if (r == role) ++count;
  }
  return count;
}

VerifiedNetworkConfig PaperScaleConfig() {
  VerifiedNetworkConfig cfg;
  cfg.num_users = 231246;
  return cfg;
}

namespace {

// Everything the wiring phases read. Built once by PrepareWiring; shared
// verbatim by the in-memory and streamed generators so their RNG draw
// sequences — and therefore their graphs — are identical.
struct WiringContext {
  VerifiedNetworkConfig config;
  uint32_t n = 0;
  uint32_t n_core = 0;
  NodeId sink_begin = 0;
  NodeId small_begin = 0;
  NodeId iso_begin = 0;
  double m_total = 0.0;

  std::vector<uint32_t> out_degree;
  std::vector<bool> is_tail;
  std::vector<uint32_t> community;
  std::vector<std::pair<NodeId, NodeId>> community_range;
  std::vector<std::optional<util::AliasSampler>> community_sampler;
  std::optional<util::AliasSampler> sampler;  // global popularity sampler
  double p_plant = 0.0;
  uint64_t stub_seed = 0;
  uint64_t closure_seed = 0;
};

/// Validation, role layout, popularity weights, degree budget, community
/// construction, and the phase seeds — the entire serial prologue of
/// generation, consuming `rng` exactly as the original single-path
/// implementation did.
Status PrepareWiring(const VerifiedNetworkConfig& config, util::Rng* rng,
                     std::vector<UserRole>* roles,
                     std::vector<double>* popularity, WiringContext* ctx) {
  const uint32_t n = config.num_users;
  if (n < 1000) {
    return Status::InvalidArgument(
        "verified network needs >= 1000 users for the fractions to make "
        "sense");
  }
  if (config.density <= 0.0 || config.density >= 0.5) {
    return Status::InvalidArgument("density out of range");
  }
  if (config.reciprocity <= 0.0 || config.reciprocity >= 1.0) {
    return Status::InvalidArgument("reciprocity out of range");
  }
  if (config.powerlaw_alpha <= 2.05) {
    return Status::InvalidArgument("alpha must exceed 2 (finite mean)");
  }

  ctx->config = config;
  ctx->n = n;

  // ---- Role layout (contiguous id ranges; see header) -------------------
  const uint32_t n_iso =
      static_cast<uint32_t>(std::lround(config.isolated_fraction * n));
  const uint32_t n_sink = std::max<uint32_t>(
      1, static_cast<uint32_t>(std::lround(config.sink_fraction * n)));
  const uint32_t n_small = static_cast<uint32_t>(
      std::lround(config.small_component_fraction * n));
  if (n_iso + n_sink + n_small >= n / 2) {
    return Status::InvalidArgument("peripheral fractions leave no core");
  }
  const uint32_t n_core = n - n_iso - n_sink - n_small;
  ctx->n_core = n_core;
  ctx->sink_begin = n_core;
  ctx->small_begin = n_core + n_sink;
  ctx->iso_begin = ctx->small_begin + n_small;

  roles->assign(n, UserRole::kCore);
  for (NodeId u = ctx->sink_begin; u < ctx->small_begin; ++u) {
    (*roles)[u] = UserRole::kSink;
  }
  for (NodeId u = ctx->small_begin; u < ctx->iso_begin; ++u) {
    (*roles)[u] = UserRole::kSmallComponent;
  }
  for (NodeId u = ctx->iso_begin; u < n; ++u) {
    (*roles)[u] = UserRole::kIsolated;
  }

  // ---- Popularity weights ----------------------------------------------
  popularity->assign(n, 0.0);
  double total_mass = 0.0, sink_mass = 0.0;
  // The Pareto branch picks up roughly where the log-normal tail mass
  // thins out (~the (1 - tail_fraction) quantile of the log-normal).
  const double pareto_x0 = std::exp(config.popularity_sigma * 1.75);
  for (NodeId u = 0; u < n_core; ++u) {
    double w;
    if (config.popularity_tail_fraction > 0.0 &&
        rng->Bernoulli(config.popularity_tail_fraction)) {
      w = rng->Pareto(config.popularity_tail_alpha, pareto_x0);
    } else {
      w = rng->LogNormal(0.0, config.popularity_sigma);
    }
    (*popularity)[u] = w;
    total_mass += w;
  }
  for (NodeId u = ctx->sink_begin; u < ctx->small_begin; ++u) {
    const double w = rng->LogNormal(0.0, config.popularity_sigma) *
                     config.sink_popularity_boost;
    (*popularity)[u] = w;
    total_mass += w;
    sink_mass += w;
  }
  (void)sink_mass;

  // ---- Degree budget -----------------------------------------------------
  // Targets: m_total = density * n * (n-1). Reciprocity is produced by
  // additive follow-back planting: when u -> v is wired and v is a
  // *body* core user, v follows back with probability p_plant. Tail
  // (power-law out-degree) users and sinks never follow back — the
  // celebrity behaviour the paper describes — which also keeps the
  // realized tail out-degrees exactly the planted zeta sample, a
  // precondition for the Vuong tests to favour the power law.
  //
  // With rho = r / (2 - r), planting multiplies the base edge count by
  // (1 + rho) and yields edge reciprocity 2 rho / (1 + rho) = r; p_plant
  // is rho corrected for the popularity mass that never reciprocates.
  const double m_total = config.density * static_cast<double>(n) *
                         (static_cast<double>(n) - 1.0);
  ctx->m_total = m_total;
  const double mean_degree_all = m_total / static_cast<double>(n);
  const double rho = config.reciprocity / (2.0 - config.reciprocity);
  // Empirical corrections, validated by the calibration tests: planted
  // follow-backs occasionally coalesce with existing edges (triadic
  // closure makes v -> u more likely to pre-exist), and the body cap /
  // rejection losses shave a few percent off the mean degree.
  const double kPlantCorrection = 0.97;
  const double kDensityCorrection = 0.99;
  const double mean_base_core = kDensityCorrection * m_total / (1.0 + rho) /
                                static_cast<double>(n_core);

  const double xmin = std::max(2.0, config.xmin_over_mean * mean_degree_all);
  const double tail_mean = xmin * (config.powerlaw_alpha - 1.0) /
                           (config.powerlaw_alpha - 2.0);
  double body_mean =
      (mean_base_core - config.tail_fraction * tail_mean) /
      (1.0 - config.tail_fraction);
  if (body_mean < 1.0) {
    return Status::InvalidArgument(
        "density too low for the configured tail (body mean < 1); lower "
        "tail_fraction or xmin_over_mean");
  }
  const double body_mu =
      std::log(body_mean) - 0.5 * config.body_sigma * config.body_sigma;
  const uint32_t degree_cap = std::max<uint32_t>(10, (2 * n_core) / 5);

  // ---- Out-degree sequence for core users --------------------------------
  ctx->out_degree.assign(n, 0);
  ctx->is_tail.assign(n, false);
  const uint64_t body_cap =
      std::max<uint64_t>(2, static_cast<uint64_t>(0.9 * xmin));
  for (NodeId u = 0; u < n_core; ++u) {
    uint64_t d;
    if (rng->Bernoulli(config.tail_fraction)) {
      // Exact zeta sampling: the tail must be *exactly* the distribution
      // the discrete MLE fits, or the Vuong tests detect the mismatch.
      d = stats::SampleZeta(config.powerlaw_alpha,
                            static_cast<uint64_t>(std::lround(xmin)), rng);
      ctx->is_tail[u] = true;
    } else {
      // Body draws are kept below xmin so the tail stays uncontaminated.
      d = static_cast<uint64_t>(
          std::lround(rng->LogNormal(body_mu, config.body_sigma)));
      for (int tries = 0; d > body_cap && tries < 20; ++tries) {
        d = static_cast<uint64_t>(
            std::lround(rng->LogNormal(body_mu, config.body_sigma)));
      }
      d = std::min<uint64_t>(d, body_cap);
    }
    ctx->out_degree[u] =
        static_cast<uint32_t>(std::clamp<uint64_t>(d, 1, degree_cap));
  }
  // Plant the '@6BillionPeople' outlier on node 0: a single account that
  // follows roughly half the network, matching the paper's max
  // out-degree of 114,815 at n = 231,246.
  if (config.superfollower_fraction > 0.0 && n_core > 10) {
    const double want = config.superfollower_fraction * static_cast<double>(n);
    ctx->out_degree[0] = static_cast<uint32_t>(std::min<double>(
        want, static_cast<double>(n_core + n_sink) - 2.0));
    ctx->is_tail[0] = true;  // exempt from follow-back noise, like the tail
  }

  // Popularity mass share of users who *do* follow back (body core).
  double body_mass = 0.0;
  for (NodeId u = 0; u < n_core; ++u) {
    if (!ctx->is_tail[u]) body_mass += (*popularity)[u];
  }
  const double q_body = body_mass / total_mass;
  ctx->p_plant =
      std::min(1.0, kPlantCorrection * rho / std::max(q_body, 1e-6));

  // ---- Communities ---------------------------------------------------------
  // Body core users are grouped into contiguous blocks; a per-community
  // alias sampler lets stubs target their own community cheaply.
  ctx->community.assign(n, UINT32_MAX);
  const double community_size =
      config.community_size_mean > 0.0
          ? config.community_size_mean
          : std::max(40.0, 1.2 * mean_degree_all);
  if (config.community_fraction > 0.0 && community_size >= 4.0) {
    NodeId begin = 0;
    while (begin < n_core) {
      const double span = community_size * rng->UniformDouble(0.5, 1.5);
      NodeId end = begin + static_cast<NodeId>(std::max(4.0, span));
      end = std::min(end, n_core);
      if (n_core - end < 4) end = n_core;  // absorb tiny remainder
      const uint32_t cid = static_cast<uint32_t>(ctx->community_range.size());
      for (NodeId u = begin; u < end; ++u) ctx->community[u] = cid;
      ctx->community_range.emplace_back(begin, end);
      std::vector<double> cw(popularity->begin() + begin,
                             popularity->begin() + end);
      ctx->community_sampler.emplace_back(std::in_place, cw);
      begin = end;
    }
  }

  // ---- Global sampler + phase seeds --------------------------------------
  // Target choice per stub: own community (popularity-weighted) with
  // probability community_fraction, else a friend-of-friend closure, else
  // global popularity-weighted sampling over core + sink nodes.
  std::vector<double> weights(popularity->begin(),
                              popularity->begin() + ctx->small_begin);
  ctx->sampler.emplace(weights);

  ctx->stub_seed = rng->Next();
  ctx->closure_seed = rng->Next();
  return Status::OK();
}

/// Phase-1 row for one source: base targets drawn from the source's own
/// RNG substream against read-only state. A pure function of (ctx, u), so
/// the streamed generator can recompute any row on demand and see exactly
/// the bytes the materialized path stored.
void ComputeBaseTargets(const WiringContext& ctx, NodeId u,
                        std::unordered_set<NodeId>* chosen,
                        std::vector<NodeId>* out) {
  util::Rng stub_rng(util::SubstreamSeed(ctx.stub_seed, u));
  chosen->clear();
  out->clear();
  const uint32_t want = ctx.out_degree[u];
  out->reserve(want);
  uint32_t guard = 0;
  const uint32_t max_tries = 20u * want + 50u;
  // Tail users (and the superfollower) fan out too widely for a
  // single community; they sample globally.
  const bool community_eligible =
      !ctx.is_tail[u] && ctx.community[u] != UINT32_MAX;
  while (chosen->size() < want && guard < max_tries) {
    ++guard;
    NodeId v;
    if (community_eligible &&
        stub_rng.Bernoulli(ctx.config.community_fraction)) {
      const uint32_t cid = ctx.community[u];
      v = ctx.community_range[cid].first +
          ctx.community_sampler[cid]->Sample(&stub_rng);
    } else {
      v = ctx.sampler->Sample(&stub_rng);
    }
    if (v == u || chosen->contains(v)) continue;
    chosen->insert(v);
    out->push_back(v);
  }
}

/// Reusable scratch for one wiring worker.
struct WireScratch {
  std::unordered_set<NodeId> chosen;
  std::vector<NodeId> final_targets;
  std::unordered_set<NodeId> row_chosen;  // ComputeBaseTargets workspace
  std::vector<NodeId> row;                // on-demand row buffer
};

/// Phase-2 for one source: triadic-closure rewrites of the base targets
/// plus follow-back / social-circle planting, emitting packed edges.
/// `row_of(w, scratch)` returns w's base-target row (empty span for
/// non-core sources); `base_u` is u's own row. Mirrors the original
/// serial formulation draw for draw.
template <typename RowOf, typename Emit>
void WireOneSource(const WiringContext& ctx,
                   const std::vector<UserRole>& roles, NodeId u,
                   std::span<const NodeId> base_u, RowOf&& row_of,
                   WireScratch& scratch, Emit&& emit) {
  util::Rng closure_rng(util::SubstreamSeed(ctx.closure_seed, u));
  std::vector<NodeId>& final_targets = scratch.final_targets;
  final_targets.assign(base_u.begin(), base_u.end());
  scratch.chosen.clear();
  scratch.chosen.insert(final_targets.begin(), final_targets.end());
  const bool community_eligible =
      !ctx.is_tail[u] && ctx.community[u] != UINT32_MAX;
  const double p_triadic =
      ctx.config.triadic_closure *
      (community_eligible ? 1.0 - ctx.config.community_fraction : 1.0);
  // Slot 0 never rewrites: the serial loop required earlier targets
  // before a friend-of-friend draw.
  for (size_t j = 1; j < final_targets.size(); ++j) {
    if (p_triadic <= 0.0 || !closure_rng.Bernoulli(p_triadic)) continue;
    const NodeId w =
        final_targets[closure_rng.UniformU64(final_targets.size())];
    const std::span<const NodeId> row_w = row_of(w, scratch);
    if (w >= ctx.small_begin || row_w.empty()) continue;
    const NodeId v = row_w[closure_rng.UniformU64(row_w.size())];
    if (v == u || scratch.chosen.contains(v)) continue;
    scratch.chosen.erase(final_targets[j]);
    scratch.chosen.insert(v);
    final_targets[j] = v;
  }
  for (const NodeId v : final_targets) {
    emit(u, v);
    // Follow-back planting: body core users reciprocate; tail users,
    // the superfollower, sinks, and peripheral nodes never do.
    if (roles[v] == UserRole::kCore && !ctx.is_tail[v] &&
        closure_rng.Bernoulli(ctx.p_plant)) {
      emit(v, u);
      // Social-circle closure: v sometimes also follows one of u's
      // other targets, closing the triangle u -> t, v -> t.
      if (final_targets.size() > 1 &&
          closure_rng.Bernoulli(ctx.config.social_circle)) {
        const NodeId t =
            final_targets[closure_rng.UniformU64(final_targets.size())];
        if (t != v && t != u) emit(v, t);
      }
    }
  }
}

/// Wires core sources [w_lo, w_hi) into per-block packed-edge buffers in
/// parallel (per-source RNG substreams keep the draws placement-free),
/// then drains the blocks serially in block order. Bounded memory: the
/// buffers live only for this window.
template <typename RowOf>
Status WireWindow(const WiringContext& ctx,
                  const std::vector<UserRole>& roles, NodeId w_lo,
                  NodeId w_hi, RowOf&& row_of,
                  const std::function<Status(std::span<const uint64_t>)>&
                      drain) {
  const size_t range = w_hi - w_lo;
  if (range == 0) return Status::OK();
  const size_t grain = util::EffectiveGrain(range, 0);
  const size_t blocks = (range + grain - 1) / grain;
  std::vector<std::vector<uint64_t>> block_edges(blocks);
  util::ParallelFor(w_lo, w_hi, grain, [&](size_t lo, size_t hi) {
    std::vector<uint64_t>& edges_out = block_edges[(lo - w_lo) / grain];
    WireScratch scratch;
    for (size_t ui = lo; ui < hi; ++ui) {
      const NodeId u = static_cast<NodeId>(ui);
      const std::span<const NodeId> base_u = row_of(u, scratch);
      // base_u may point into scratch.row; copy happens first inside
      // WireOneSource (final_targets.assign) before row_of reuses it.
      WireOneSource(ctx, roles, u, base_u, row_of, scratch,
                    [&](NodeId a, NodeId b) {
                      edges_out.push_back(util::PackEdge(a, b));
                    });
    }
  });
  for (std::vector<uint64_t>& block : block_edges) {
    ELITENET_COUNT("gen.network.edges_emitted", block.size());
    EN_RETURN_IF_ERROR(drain(block));
    block.clear();
    block.shrink_to_fit();
  }
  return Status::OK();
}

/// Small weak components (2-5 node directed cycles with one mutual pair)
/// plus the giant-SCC in-degree repair — the serial epilogue, emitting
/// through the same sink as the wiring phases. Consumes `rng` exactly as
/// the original implementation.
Status EmitPeriphery(const WiringContext& ctx, util::Rng* rng,
                     std::vector<bool>* has_in_edge,
                     const std::function<Status(NodeId, NodeId)>& emit) {
  // ---- Small components: 2-5 node directed cycles with one mutual pair --
  NodeId u = ctx.small_begin;
  while (u < ctx.iso_begin) {
    const uint32_t remaining = ctx.iso_begin - u;
    uint32_t size = static_cast<uint32_t>(2 + rng->UniformU64(4));  // 2..5
    size = std::min(size, remaining);
    if (size == 1) {
      // A lone leftover joins the previous component via a mutual pair.
      EN_RETURN_IF_ERROR(emit(u, u - 1));
      EN_RETURN_IF_ERROR(emit(u - 1, u));
      ++u;
      break;
    }
    for (uint32_t i = 0; i < size; ++i) {
      const NodeId a = u + i;
      const NodeId b = u + (i + 1) % size;
      EN_RETURN_IF_ERROR(emit(a, b));
    }
    EN_RETURN_IF_ERROR(emit(u + 1, u));  // one mutual pair
    u += size;
  }

  // ---- In-degree repair so the core collapses into one giant SCC ---------
  if (ctx.config.repair_in_degree) {
    for (NodeId v = 0; v < ctx.n_core; ++v) {
      if ((*has_in_edge)[v]) continue;
      NodeId donor;
      do {
        donor = static_cast<NodeId>(rng->UniformU64(ctx.n_core));
      } while (donor == v);
      EN_RETURN_IF_ERROR(emit(donor, v));
      (*has_in_edge)[v] = true;
    }
  }
  return Status::OK();
}

}  // namespace

Result<VerifiedNetwork> GenerateVerifiedNetwork(
    const VerifiedNetworkConfig& config) {
  ELITENET_SPAN("gen.network");
  util::Rng rng(config.seed);
  VerifiedNetwork out;
  out.config = config;
  WiringContext ctx;
  EN_RETURN_IF_ERROR(
      PrepareWiring(config, &rng, &out.roles, &out.popularity, &ctx));
  const uint32_t n = ctx.n;
  const uint32_t n_core = ctx.n_core;

  // Phase 1: materialize every source's base targets (community or global
  // popularity sampling) — the in-memory path trades O(m) residency for
  // never recomputing a row. The phase spans share one timer: Reset()
  // closes the previous phase's span and opens the next, so the trace
  // shows wiring_base / wiring_closure / assemble as siblings under
  // gen.network.
  util::SpanTimer phase_span("gen.network.wiring_base");
  std::vector<std::vector<NodeId>> base_targets(n);
  util::ParallelFor(0, n_core, 0, [&](size_t lo, size_t hi) {
    std::unordered_set<NodeId> chosen;
    for (size_t ui = lo; ui < hi; ++ui) {
      const NodeId u = static_cast<NodeId>(ui);
      ComputeBaseTargets(ctx, u, &chosen, &base_targets[u]);
    }
  });
  phase_span.Reset("gen.network.wiring_closure");

  // Phase 2: triadic-closure rewrites plus follow-back planting over one
  // window spanning the whole core (the streamed path uses many bounded
  // windows instead), reading rows straight from the materialized phase-1
  // arrays.
  GraphBuilder builder(n);
  builder.Reserve(static_cast<size_t>(ctx.m_total * 1.05));
  std::vector<bool> has_in_edge(n, false);

  auto add_edge = [&](NodeId a, NodeId b) -> Status {
    EN_RETURN_IF_ERROR(builder.AddEdge(a, b));
    has_in_edge[b] = true;
    return Status::OK();
  };

  bool assembling = false;
  const auto materialized_row =
      [&](NodeId w, WireScratch&) -> std::span<const NodeId> {
    return base_targets[w];
  };
  EN_RETURN_IF_ERROR(WireWindow(
      ctx, out.roles, 0, n_core, materialized_row,
      [&](std::span<const uint64_t> block) -> Status {
        if (!assembling) {
          // First drained block marks the phase-1/2 boundary for tracing.
          phase_span.Reset("gen.network.assemble");
          assembling = true;
        }
        for (const uint64_t record : block) {
          EN_RETURN_IF_ERROR(
              add_edge(util::PackedSrc(record), util::PackedDst(record)));
        }
        return Status::OK();
      }));
  if (!assembling) phase_span.Reset("gen.network.assemble");

  EN_RETURN_IF_ERROR(EmitPeriphery(ctx, &rng, &has_in_edge, add_edge));

  EN_ASSIGN_OR_RETURN(out.graph, builder.Build());
  ELITENET_COUNT("gen.network.edges_built", out.graph.num_edges());
  return out;
}

Result<StreamedNetwork> GenerateVerifiedNetworkToSnapshot(
    const VerifiedNetworkConfig& config, const std::string& snapshot_path,
    const StreamedGenerateOptions& options) {
  ELITENET_SPAN("gen.network_streamed");
  util::Rng rng(config.seed);
  StreamedNetwork out;
  out.config = config;
  WiringContext ctx;
  EN_RETURN_IF_ERROR(
      PrepareWiring(config, &rng, &out.roles, &out.popularity, &ctx));

  util::ExtSortOptions sort_options;
  sort_options.budget_bytes = options.sort_budget_bytes;
  sort_options.temp_dir = options.temp_dir.empty()
                              ? util::DirName(snapshot_path)
                              : options.temp_dir;
  sort_options.temp_prefix = util::BaseName(snapshot_path) + ".fwd";
  util::ExtSorter sorter(sort_options);
  std::vector<bool> has_in_edge(ctx.n, false);

  // Wiring, windowed: every window's edge blocks drain into the sorter
  // and are freed, so resident edge state is one window plus the sort
  // buffer. Rows other sources' closures reference are recomputed from
  // their substreams instead of read from a materialized phase-1 array —
  // same draws, no O(m) residency.
  util::SpanTimer phase_span("gen.network.wiring_streamed");
  const auto on_demand_row =
      [&](NodeId w, WireScratch& scratch) -> std::span<const NodeId> {
    if (w >= ctx.n_core) return {};  // sinks and periphery have no rows
    ComputeBaseTargets(ctx, w, &scratch.row_chosen, &scratch.row);
    return scratch.row;
  };
  const uint32_t window = std::max<uint32_t>(1, options.window_sources);
  for (NodeId w_lo = 0; w_lo < ctx.n_core; w_lo += window) {
    const NodeId w_hi =
        std::min<NodeId>(w_lo + window, ctx.n_core);
    EN_RETURN_IF_ERROR(WireWindow(
        ctx, out.roles, w_lo, w_hi, on_demand_row,
        [&](std::span<const uint64_t> block) -> Status {
          out.edges_emitted += block.size();
          for (const uint64_t record : block) {
            has_in_edge[util::PackedDst(record)] = true;
          }
          return sorter.AddBatch(block);
        }));
  }

  phase_span.Reset("gen.network.periphery");
  EN_RETURN_IF_ERROR(EmitPeriphery(
      ctx, &rng, &has_in_edge, [&](NodeId a, NodeId b) -> Status {
        ++out.edges_emitted;
        has_in_edge[b] = true;
        return sorter.Add(util::PackEdge(a, b));
      }));

  phase_span.Reset("gen.network.write_snapshot");
  graph::StreamWriteOptions write_options;
  write_options.sort_budget_bytes = options.sort_budget_bytes;
  write_options.temp_dir = options.temp_dir;
  EN_ASSIGN_OR_RETURN(
      out.write,
      graph::WriteStreamedV2(&sorter, ctx.n, snapshot_path, write_options));
  ELITENET_COUNT("gen.network.edges_built", out.write.num_edges);
  return out;
}

}  // namespace gen
}  // namespace elitenet
