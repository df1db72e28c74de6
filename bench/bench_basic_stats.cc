// Section IV-A reproduction: density, degrees, isolated users, giant SCC,
// component counts, clustering, assortativity — the paper's "basic
// analysis" battery in one report (plus Section III dataset shape).

#include <cstdio>

#include "bench_common.h"
#include "core/paper_reference.h"
#include "util/csv.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace elitenet;
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  util::PrintBanner("Section IV-A: basic analysis of the verified network");
  core::VerifiedStudy study = bench::MakeStudy(args);

  auto basic = study.RunBasic();
  if (!basic.ok()) {
    std::fprintf(stderr, "analysis failed: %s\n",
                 basic.status().ToString().c_str());
    return 1;
  }

  const double scale = static_cast<double>(args.num_users) /
                       static_cast<double>(paper::kUsersEnglish);

  std::printf("\nPaper values at n=231,246; size-dependent rows are "
              "scaled by n/231,246 = %.4f.\n\n", scale);
  bench::Compare("density", paper::kDensity, basic->degrees.density, 0.15);
  bench::Compare("avg out-degree (scaled)", paper::kAvgOutDegree * scale,
                 basic->degrees.avg_out_degree, 0.15);
  bench::Compare("max out-degree (scaled)", paper::kMaxOutDegree * scale,
                 basic->degrees.max_out_degree, 0.15);
  bench::Compare("isolated users (scaled)", paper::kIsolatedUsers * scale,
                 static_cast<double>(basic->degrees.isolated_nodes), 0.1);
  bench::Compare("giant SCC fraction", paper::kGiantSccFraction,
                 basic->giant_scc_fraction, 0.02);
  bench::Compare("weak components (scaled)",
                 paper::kConnectedComponents * scale,
                 static_cast<double>(basic->weak_components), 0.15);
  bench::Compare("attracting components (scaled)",
                 paper::kAttractingComponents * scale,
                 static_cast<double>(basic->attracting_components), 0.15);
  bench::Compare("avg local clustering", paper::kAvgLocalClustering,
                 basic->clustering.average_local, 0.45);
  bench::Compare("assortativity (out-in)", paper::kDegreeAssortativity,
                 basic->assortativity.out_in, 0.9);
  bench::Compare("reciprocity", paper::kReciprocity,
                 basic->reciprocity.rate, 0.1);

  std::printf("\nAll assortativity flavours (Foster et al. conventions):\n");
  std::printf("  out-in=%.4f out-out=%.4f in-in=%.4f in-out=%.4f "
              "total=%.4f\n",
              basic->assortativity.out_in, basic->assortativity.out_out,
              basic->assortativity.in_in, basic->assortativity.in_out,
              basic->assortativity.total);

  // CSV artifact.
  util::CsvWriter csv;
  if (csv.Open(bench::CsvPath(args, "basic_stats.csv")).ok()) {
    csv.WriteRow({"metric", "paper", "measured"}).ok();
    auto row = [&](const char* m, double p, double v) {
      csv.WriteRow({m, util::FormatNumber(p, 8), util::FormatNumber(v, 8)})
          .ok();
    };
    row("density", paper::kDensity, basic->degrees.density);
    row("avg_out_degree_scaled", paper::kAvgOutDegree * scale,
        basic->degrees.avg_out_degree);
    row("giant_scc_fraction", paper::kGiantSccFraction,
        basic->giant_scc_fraction);
    row("reciprocity", paper::kReciprocity, basic->reciprocity.rate);
    row("clustering", paper::kAvgLocalClustering,
        basic->clustering.average_local);
    row("assortativity_out_in", paper::kDegreeAssortativity,
        basic->assortativity.out_in);
    csv.Close().ok();
    std::printf("\nwrote %s\n",
                bench::CsvPath(args, "basic_stats.csv").c_str());
  }
  return 0;
}
