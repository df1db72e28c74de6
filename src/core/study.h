// Public façade: VerifiedStudy runs the paper's full measurement pipeline
// over the synthetic substrate — generate the network / profiles / bios /
// activity, then reproduce every analysis of Sections IV and V. Examples
// and benches compose these stages; quickstart calls RunAll().

#ifndef ELITENET_CORE_STUDY_H_
#define ELITENET_CORE_STUDY_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/assortativity.h"
#include "analysis/centrality.h"
#include "analysis/clustering.h"
#include "analysis/components.h"
#include "analysis/degree.h"
#include "analysis/distance.h"
#include "analysis/reciprocity.h"
#include "analysis/spectral.h"
#include "gen/activity.h"
#include "gen/bios.h"
#include "gen/profiles.h"
#include "gen/verified_network.h"
#include "stats/powerlaw.h"
#include "stats/smoother.h"
#include "stats/vuong.h"
#include "text/ngram.h"
#include "timeseries/acf.h"
#include "timeseries/adf.h"
#include "timeseries/pelt.h"
#include "util/status.h"

namespace elitenet {
namespace core {

struct StudyConfig {
  gen::VerifiedNetworkConfig network;
  gen::ProfileConfig profiles;
  gen::BioConfig bios;
  gen::ActivityConfig activity;

  /// BFS sources for the distance distribution (Fig. 3).
  uint32_t distance_sources = 48;
  /// Betweenness pivot sample size (0 = exact; exact is infeasible above
  /// a few thousand nodes).
  uint32_t betweenness_pivots = 192;
  /// Nodes sampled for the clustering coefficient.
  uint32_t clustering_samples = 12000;
  /// Largest Laplacian eigenvalues extracted (the paper used 10,000 at
  /// full scale; a few hundred suffice for the tail fit).
  uint32_t eigenvalue_k = 250;
  /// Parametric bootstrap replicates for the power-law p-values (the CSN
  /// recommendation is 100-1000; benches trade some precision for time).
  int bootstrap_replicates = 30;
  int portmanteau_max_lag = 185;
  uint64_t analysis_seed = 1234;
  /// Worker threads for the parallel kernels (generation, BFS sampling,
  /// centrality sweeps, clustering, bootstrap). 0 = automatic: the
  /// ELITENET_THREADS environment variable if set, else the number of
  /// CPUs in the affinity mask. Results are bit-identical for any value.
  int threads = 0;

  // ---- Observability (util/trace.h, util/metrics.h) ---------------------
  // Instrumentation observes, it never decides: results are bit-identical
  // with these on or off (tests/parallel_determinism_test.cc).

  /// When nonempty, enables span tracing for this study's stages and
  /// writes the Chrome trace-event JSON (chrome://tracing / Perfetto)
  /// here when RunAll() finishes. Process-wide alternative:
  /// ELITENET_TRACE=<path>, which dumps at exit instead.
  std::string trace_path;

  /// When nonempty, enables the metrics registry (stage counters plus the
  /// parallel-scheduler instrumentation) and writes the JSON snapshot
  /// here when RunAll() finishes. Process-wide alternative:
  /// ELITENET_METRICS=<path>.
  std::string metrics_path;

  /// Live progress hook: invoked at the start of every pipeline stage
  /// with a short stage name ("generate/network", "basic", "distances",
  /// ...). Called from the thread running the study; keep it cheap and
  /// never let it influence computation.
  std::function<void(const std::string& stage)> progress;
};

/// §IV-A numbers.
struct BasicReport {
  analysis::DegreeStats degrees;
  analysis::ReciprocityStats reciprocity;
  analysis::ClusteringStats clustering;
  analysis::AssortativityReport assortativity;
  uint32_t weak_components = 0;
  uint64_t giant_weak_size = 0;
  uint32_t strong_components = 0;
  uint64_t giant_scc_size = 0;
  double giant_scc_fraction = 0.0;
  uint64_t attracting_components = 0;
  uint64_t attracting_singletons = 0;
};

/// §IV-B: one distribution's power-law analysis.
struct PowerLawReport {
  stats::PowerLawFit fit;
  std::optional<stats::GoodnessOfFit> gof;
  /// Vuong LR tests: positive ratio favors the power law.
  std::optional<stats::VuongResult> vs_lognormal;
  std::optional<stats::VuongResult> vs_exponential;
  std::optional<stats::VuongResult> vs_poisson;
};

/// Fig. 5: one panel's relationship summary.
struct RelationReport {
  std::string x_name;
  std::string y_name;
  stats::SmoothedCurve curve;
};

/// §IV-E top-k phrase tables.
struct TextReport {
  std::vector<text::NGramCount> top_unigrams;
  std::vector<text::NGramCount> top_bigrams;
  std::vector<text::NGramCount> top_trigrams;
};

/// §V activity battery.
struct ActivityReport {
  timeseries::PortmanteauResult ljung_box;
  timeseries::PortmanteauResult box_pierce;
  timeseries::AdfResult adf;
  timeseries::PenaltySweepResult pelt;
  /// Change-point dates resolved against the series start.
  std::vector<timeseries::Date> change_dates;
};

struct StudyReport {
  BasicReport basic;
  PowerLawReport out_degree;
  std::optional<PowerLawReport> eigenvalues;
  analysis::DistanceDistribution distances;
  std::vector<RelationReport> relations;  ///< Fig. 5 panels (a)-(f)
  TextReport text;
  ActivityReport activity;
};

class VerifiedStudy {
 public:
  explicit VerifiedStudy(StudyConfig config) : config_(std::move(config)) {}

  /// Generates all four synthetic datasets. Must run before any analysis.
  Status Generate();

  /// Adopts an already-materialized dataset (e.g. loaded from disk via
  /// core/dataset.h) instead of generating one; analysis settings come
  /// from `config`. The study is immediately ready for Run*().
  Status AdoptDataset(gen::VerifiedNetwork network,
                      std::vector<gen::UserProfile> profiles,
                      gen::BioCorpus bios, gen::ActivitySeries activity);

  bool generated() const { return network_.has_value(); }
  const StudyConfig& config() const { return config_; }
  const gen::VerifiedNetwork& network() const { return *network_; }
  const std::vector<gen::UserProfile>& profiles() const { return *profiles_; }
  const gen::BioCorpus& bios() const { return *bios_; }
  const gen::ActivitySeries& activity() const { return *activity_; }

  // ---- Individual analyses (each requires Generate()) -------------------
  Result<BasicReport> RunBasic() const;
  Result<PowerLawReport> RunOutDegreeFit(bool with_bootstrap = true) const;
  Result<PowerLawReport> RunEigenvalueFit(bool with_bootstrap = true) const;
  Result<analysis::DistanceDistribution> RunDistances() const;
  Result<std::vector<RelationReport>> RunCentralityRelations() const;
  Result<TextReport> RunText(size_t top_k = 15) const;
  Result<ActivityReport> RunActivity() const;

  /// The whole paper in one call.
  Result<StudyReport> RunAll() const;

 private:
  StudyConfig config_;
  std::optional<gen::VerifiedNetwork> network_;
  std::optional<std::vector<gen::UserProfile>> profiles_;
  std::optional<gen::BioCorpus> bios_;
  std::optional<gen::ActivitySeries> activity_;
};

/// Renders the full report as the text the quickstart example prints,
/// with paper-vs-measured comparison lines.
std::string RenderReport(const StudyReport& report, uint32_t num_users);

}  // namespace core
}  // namespace elitenet

#endif  // ELITENET_CORE_STUDY_H_
