// Fig. 1 reproduction: log-scaled distributions of friends, followers,
// public list memberships and status counts across the verified cohort.
// The paper plots four histograms; we print log-binned ASCII histograms
// and dump the binned series as CSV.
//
// --stream  compute the trailing degree_summary CSV section with the
//           fused windowed kernel (analysis/streamed_stats.h) instead of
//           the in-memory degree pass. The rendered rows are compared
//           byte-for-byte against the in-memory kernel before writing —
//           the CSV is identical either way, or the run fails.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/degree.h"
#include "analysis/streamed_stats.h"
#include "bench_common.h"
#include "gen/profiles.h"
#include "util/csv.h"
#include "util/histogram.h"
#include "util/table.h"

namespace {

using namespace elitenet;

void Panel(const bench::BenchArgs& args, const char* name,
           const std::vector<double>& values, util::CsvWriter* csv) {
  util::LogHistogram hist(1.0, 2.0, 40);
  double max_v = 0.0;
  for (double v : values) {
    hist.Add(v);
    if (v > max_v) max_v = v;
  }
  std::printf("\n-- %s (max %.3g) --\n", name, max_v);
  std::fputs(hist.ToAsciiChart(name).c_str(), stdout);
  for (const util::HistogramBin& b : hist.bins()) {
    if (b.count == 0) continue;
    csv->WriteRow({name, util::FormatNumber(b.lo, 8),
                   util::FormatNumber(b.hi, 8), std::to_string(b.count)})
        .ok();
  }
  (void)args;
}

// The trailing degree_summary section: graph-side context for the four
// profile panels, rendered through one formatter so the streamed and
// in-memory paths can be byte-compared as CSV rows.
std::vector<std::vector<std::string>> DegreeSummaryRows(
    const analysis::DegreeStats& d) {
  auto row = [](const char* metric, std::string value) {
    return std::vector<std::string>{"degree_summary", metric,
                                    std::move(value), ""};
  };
  return {
      row("avg_out_degree", util::FormatNumber(d.avg_out_degree, 8)),
      row("max_out_degree", std::to_string(d.max_out_degree)),
      row("avg_in_degree", util::FormatNumber(d.avg_in_degree, 8)),
      row("max_in_degree", std::to_string(d.max_in_degree)),
      row("isolated_nodes", std::to_string(d.isolated_nodes)),
      row("sink_nodes", std::to_string(d.sink_nodes)),
      row("source_nodes", std::to_string(d.source_nodes)),
      row("density", util::FormatNumber(d.density, 8)),
  };
}

}  // namespace

int main(int argc, char** argv) {
  using namespace elitenet;
  const bench::BenchArgs args = bench::ParseArgs(argc, argv);
  bool stream = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--stream") == 0) stream = true;
  }
  util::PrintBanner(
      "Fig. 1: distributions of friends / followers / lists / statuses");
  core::VerifiedStudy study = bench::MakeStudy(args);
  const auto& profiles = study.profiles();

  util::CsvWriter csv;
  const std::string path = bench::CsvPath(args, "fig1_distributions.csv");
  if (!csv.Open(path).ok()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  csv.WriteRow({"panel", "bin_lo", "bin_hi", "count"}).ok();

  Panel(args, "friends", gen::FriendsColumn(profiles), &csv);
  Panel(args, "followers", gen::FollowersColumn(profiles), &csv);
  Panel(args, "list memberships", gen::ListedColumn(profiles), &csv);
  Panel(args, "statuses", gen::StatusesColumn(profiles), &csv);

  // Degree summary: streamed or in-memory per --stream, but always
  // verified byte-identical against the in-memory kernel first — the
  // flag changes the access pattern (one fused sweep), never
  // the CSV bytes.
  const graph::DiGraph& g = study.network().graph;
  const analysis::DegreeStats in_memory = analysis::ComputeDegreeStats(g);
  analysis::DegreeStats reported = in_memory;
  if (stream) {
    reported = analysis::ComputeStreamedBasicStats(g).degrees;
    if (DegreeSummaryRows(reported) != DegreeSummaryRows(in_memory)) {
      std::fprintf(stderr,
                   "--stream degree_summary diverged from the in-memory "
                   "kernel\n");
      return 1;
    }
    std::printf("\nstreamed degree summary: fused sweep, byte-identical to "
                "the in-memory pass\n");
  }
  for (const std::vector<std::string>& row : DegreeSummaryRows(reported)) {
    csv.WriteRow({row[0], row[1], row[2], row[3]}).ok();
  }
  csv.Close().ok();

  std::printf(
      "\nShape check (paper: all four are heavy-tailed, spanning many "
      "decades on log axes):\n");
  for (const auto& [name, column] :
       {std::pair<const char*, std::vector<double>>{
            "followers", gen::FollowersColumn(profiles)},
        {"friends", gen::FriendsColumn(profiles)},
        {"lists", gen::ListedColumn(profiles)},
        {"statuses", gen::StatusesColumn(profiles)}}) {
    double mean = 0.0, max = 0.0;
    for (double v : column) {
      mean += v;
      if (v > max) max = v;
    }
    mean /= static_cast<double>(column.size());
    std::printf("  %-12s mean=%.3g max=%.3g max/mean=%.1f [heavy tail: "
                "%s]\n",
                name, mean, max, max / mean, max > 20 * mean ? "OK" : "NO");
  }
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}
