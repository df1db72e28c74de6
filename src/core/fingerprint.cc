#include "core/fingerprint.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "analysis/assortativity.h"
#include "analysis/clustering.h"
#include "analysis/components.h"
#include "analysis/degree.h"
#include "analysis/distance.h"
#include "analysis/reciprocity.h"
#include "core/paper_reference.h"
#include "stats/powerlaw.h"
#include "util/rng.h"

namespace elitenet {
namespace core {

std::string GraphFingerprint::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "density=%.5f recip=%.3f clust=%.3f assort=%+.3f "
                "gscc=%.3f dist=%.2f alpha=%.2f attract=%.4f",
                density, reciprocity, clustering, assortativity,
                giant_scc_fraction, mean_distance, powerlaw_alpha,
                attracting_fraction);
  return buf;
}

Result<GraphFingerprint> ComputeFingerprint(
    const graph::DiGraph& g, const FingerprintOptions& options) {
  if (g.num_nodes() == 0) return Status::InvalidArgument("empty graph");
  return ComputeFingerprint(g, analysis::StronglyConnectedComponents(g),
                            analysis::ComputeReciprocity(g).rate, options);
}

Result<GraphFingerprint> ComputeFingerprint(
    const graph::DiGraph& g, const analysis::ComponentLabeling& scc,
    double reciprocity, const FingerprintOptions& options) {
  if (g.num_nodes() == 0) return Status::InvalidArgument("empty graph");
  GraphFingerprint fp;
  fp.density = g.Density();
  fp.reciprocity = reciprocity;

  util::Rng rng(options.seed);
  fp.clustering =
      analysis::ComputeClusteringSampled(g, options.clustering_samples, &rng)
          .average_local;
  fp.assortativity =
      analysis::DegreeAssortativity(g, analysis::DegreeMode::kOutIn);

  fp.giant_scc_fraction = scc.GiantFraction();
  fp.attracting_fraction =
      static_cast<double>(analysis::FindAttractingComponents(g, scc).count) /
      static_cast<double>(g.num_nodes());

  fp.mean_distance =
      analysis::SampleDistances(g, options.distance_sources, &rng)
          .mean_distance;

  std::vector<double> degrees;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.OutDegree(u) > 0) {
      degrees.push_back(static_cast<double>(g.OutDegree(u)));
    }
  }
  const auto fit = stats::FitDiscrete(degrees);
  fp.powerlaw_alpha = fit.ok() ? fit->alpha : 6.0;
  return fp;
}

GraphFingerprint PaperFingerprint() {
  GraphFingerprint fp;
  fp.density = paper::kDensity;
  fp.reciprocity = paper::kReciprocity;
  fp.clustering = paper::kAvgLocalClustering;
  fp.assortativity = paper::kDegreeAssortativity;
  fp.giant_scc_fraction = paper::kGiantSccFraction;
  fp.mean_distance = paper::kMeanDistance;
  fp.powerlaw_alpha = paper::kOutDegreeAlpha;
  fp.attracting_fraction = static_cast<double>(paper::kAttractingComponents) /
                           static_cast<double>(paper::kUsersEnglish);
  return fp;
}

namespace {

double ComponentDeviation(double a, double b) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-9});
  return std::min(1.0, std::fabs(a - b) / scale);
}

}  // namespace

double FingerprintSimilarity(const GraphFingerprint& a,
                             const GraphFingerprint& b) {
  double dev = 0.0;
  int k = 0;
  // Density is scale-dependent and deliberately excluded: a fingerprint
  // should recognize the *style* of a network at any size.
  dev += ComponentDeviation(a.reciprocity, b.reciprocity);
  ++k;
  dev += ComponentDeviation(a.clustering, b.clustering);
  ++k;
  // Assortativity is near zero for both; compare on an absolute 0.5 band.
  dev += std::min(1.0, std::fabs(a.assortativity - b.assortativity) / 0.5);
  ++k;
  dev += ComponentDeviation(a.giant_scc_fraction, b.giant_scc_fraction);
  ++k;
  dev += ComponentDeviation(a.mean_distance, b.mean_distance);
  ++k;
  dev += ComponentDeviation(a.powerlaw_alpha, b.powerlaw_alpha);
  ++k;
  dev += ComponentDeviation(a.attracting_fraction, b.attracting_fraction);
  ++k;
  return 1.0 - dev / static_cast<double>(k);
}

}  // namespace core
}  // namespace elitenet
