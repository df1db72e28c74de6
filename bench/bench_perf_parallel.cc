// Wall-clock scaling of the analysis kernels at 1/2/4/8 worker threads,
// with a cross-thread-count equality audit (the determinism contract says
// every kernel is bit-identical for any thread count). Besides the
// parallel kernels the table times the serial ones the paper's analyses
// lean on — SCC, the Laplacian matvec, the discrete power-law fit with
// its xmin scan, and PELT (one run and the penalty sweep) on the
// activity series — and the serving warm build's fingerprint stage
// (`core::ComputeFingerprint`), so one file holds every kernel timing.
// One untimed warm-up pass runs first; then each (kernel, thread count)
// cell is the median of kRepeats timed passes, reported with their min
// and max.
// Emits BENCH_parallel.json with per-kernel seconds, speedups, and the
// scheduler's metrics snapshot (per-thread chunks claimed and busy
// fractions, from the last pass) for each thread count.
//
// Usage: bench_perf_parallel [--scale=N] [--seed=S] [--json=PATH]

#include <cstdio>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "analysis/centrality.h"
#include "analysis/clustering.h"
#include "analysis/components.h"
#include "analysis/degree.h"
#include "analysis/distance.h"
#include "analysis/spectral.h"
#include "bench_common.h"
#include "core/fingerprint.h"
#include "gen/activity.h"
#include "gen/verified_network.h"
#include "stats/powerlaw.h"
#include "timeseries/pelt.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/trace.h"

namespace elitenet {
namespace bench {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};
constexpr size_t kNumThreadCounts = 4;
// Timed passes per thread count. The serial kernels swing 2-3x between
// single passes of identical work; the median of five does not.
constexpr int kRepeats = 5;

struct KernelResult {
  std::string name;
  Spread seconds[kNumThreadCounts];
  bool identical = true;  // every pass matched the warm-up bit for bit
};

// Scheduler metrics for one thread-count run, pulled from the registry
// snapshot after the kernels finish.
struct SchedulerMetrics {
  uint64_t for_calls = 0;
  uint64_t chunks_claimed = 0;
  std::vector<uint64_t> thread_chunks;   // indexed by pool slot
  std::vector<uint64_t> thread_busy_ns;  // indexed by pool slot
};

SchedulerMetrics CollectSchedulerMetrics(int threads) {
  const util::MetricsSnapshot snap = util::MetricsRegistry::Global().Snapshot();
  SchedulerMetrics m;
  m.for_calls = static_cast<uint64_t>(snap.CounterOr0("parallel.for_calls"));
  m.chunks_claimed =
      static_cast<uint64_t>(snap.CounterOr0("parallel.chunks_claimed"));
  for (int slot = 0; slot < threads; ++slot) {
    const std::string prefix = "parallel.thread." + std::to_string(slot);
    m.thread_chunks.push_back(
        static_cast<uint64_t>(snap.CounterOr0(prefix + ".chunks")));
    m.thread_busy_ns.push_back(
        static_cast<uint64_t>(snap.CounterOr0(prefix + ".busy_ns")));
  }
  return m;
}

// One measured run of every kernel at the current global thread count.
// Returns the per-kernel times and fills `signature` with a value-summary
// of each kernel's output for the equality audit.
std::vector<double> RunKernels(const BenchArgs& args,
                               std::vector<std::vector<double>>* signature) {
  std::vector<double> seconds;
  signature->clear();
  util::SpanTimer sw;

  // generate
  gen::VerifiedNetworkConfig gcfg;
  gcfg.num_users = args.num_users;
  gcfg.seed = args.seed;
  sw.Reset();
  auto net = gen::GenerateVerifiedNetwork(gcfg);
  seconds.push_back(sw.Seconds());
  if (!net.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 net.status().ToString().c_str());
    std::exit(1);
  }
  const graph::DiGraph& g = net->graph;
  signature->push_back({static_cast<double>(g.num_edges()),
                        static_cast<double>(g.OutDegree(0)),
                        net->popularity[1]});

  // pagerank
  sw.Reset();
  const auto pr = analysis::PageRank(g, {});
  seconds.push_back(sw.Seconds());
  signature->push_back(
      {pr.ok() ? pr->scores[0] : -1.0,
       pr.ok() ? pr->scores[g.num_nodes() / 2] : -1.0,
       pr.ok() ? static_cast<double>(pr->iterations) : -1.0});

  // betweenness
  analysis::BetweennessOptions bw;
  bw.pivots = 256;
  bw.seed = args.seed ^ 0xB37;
  sw.Reset();
  const auto bc = analysis::Betweenness(g, bw);
  seconds.push_back(sw.Seconds());
  double bc_sum = 0.0, bc_max = 0.0;
  if (bc.ok()) {
    for (double x : *bc) {
      bc_sum += x;
      if (x > bc_max) bc_max = x;
    }
  }
  signature->push_back({bc_sum, bc_max});

  // bfs distances
  sw.Reset();
  util::Rng drng(args.seed ^ 0xD157);
  const auto dist = analysis::SampleDistances(g, 64, &drng);
  seconds.push_back(sw.Seconds());
  signature->push_back({dist.mean_distance,
                        static_cast<double>(dist.reachable_pairs),
                        static_cast<double>(dist.diameter_lower_bound)});

  // clustering
  sw.Reset();
  util::Rng crng(args.seed ^ 0xC105);
  const auto clus = analysis::ComputeClusteringSampled(g, 12000, &crng);
  seconds.push_back(sw.Seconds());
  signature->push_back({clus.average_local,
                        static_cast<double>(clus.nodes_evaluated)});

  // scc
  sw.Reset();
  const auto scc = analysis::StronglyConnectedComponents(g);
  seconds.push_back(sw.Seconds());
  signature->push_back({static_cast<double>(scc.num_components),
                        static_cast<double>(scc.GiantSize()),
                        static_cast<double>(scc.label[g.num_nodes() / 2])});

  // laplacian_matvec: kMatvecs products y = L x on one fixed x.
  constexpr int kMatvecs = 20;
  const analysis::LaplacianOperator lap(g);
  std::vector<double> x(lap.dimension()), y(lap.dimension());
  for (size_t i = 0; i < x.size(); ++i) x[i] = static_cast<double>(i % 7);
  sw.Reset();
  for (int i = 0; i < kMatvecs; ++i) lap.Apply(x, &y);
  seconds.push_back(sw.Seconds());
  double y_sum = 0.0;
  for (double v : y) y_sum += v;
  signature->push_back({y_sum, y[0], y[y.size() / 2]});

  // powerlaw_fit: the CSN fit with its xmin scan on the out-degrees.
  std::vector<double> degrees = analysis::OutDegreeVector(g);
  std::vector<double> positive;
  for (double d : degrees) {
    if (d > 0.0) positive.push_back(d);
  }
  sw.Reset();
  const auto fit = stats::FitDiscrete(positive);
  seconds.push_back(sw.Seconds());
  signature->push_back(
      fit.ok() ? std::vector<double>{fit->alpha, fit->xmin, fit->ks_distance,
                                     static_cast<double>(fit->tail_n)}
               : std::vector<double>{-1.0});

  // bootstrap
  double boot_sec = 0.0;
  std::vector<double> boot_sig = {-1.0, -1.0};
  if (fit.ok()) {
    sw.Reset();
    util::Rng brng(args.seed ^ 0xD15C0);
    const auto gof = stats::BootstrapGoodness(positive, *fit, 30, &brng);
    boot_sec = sw.Seconds();
    if (gof.ok()) {
      boot_sig = {gof->p_value, static_cast<double>(gof->replicates)};
    }
  }
  seconds.push_back(boot_sec);
  signature->push_back(boot_sig);

  // fingerprint: the warm build's fingerprint stage, SCC and reciprocity
  // included.
  sw.Reset();
  const auto fp = core::ComputeFingerprint(g);
  seconds.push_back(sw.Seconds());
  signature->push_back(
      fp.ok() ? std::vector<double>{fp->density, fp->reciprocity,
                                    fp->clustering, fp->assortativity,
                                    fp->giant_scc_fraction, fp->mean_distance,
                                    fp->powerlaw_alpha,
                                    fp->attracting_fraction}
              : std::vector<double>{-1.0});

  // pelt and pelt_sweep, on the §V daily activity series.
  const auto activity = gen::GenerateActivity();
  if (!activity.ok()) {
    std::fprintf(stderr, "activity generation failed: %s\n",
                 activity.status().ToString().c_str());
    std::exit(1);
  }
  const std::vector<double>& series = activity->daily_tweets;
  sw.Reset();
  const auto pelt = timeseries::Pelt(series);
  seconds.push_back(sw.Seconds());
  std::vector<double> pelt_sig = {-1.0};
  if (pelt.ok()) {
    pelt_sig = {pelt->total_cost};
    for (size_t cp : pelt->change_points) {
      pelt_sig.push_back(static_cast<double>(cp));
    }
  }
  signature->push_back(pelt_sig);

  sw.Reset();
  const auto sweep = timeseries::PeltPenaltySweep(series);
  seconds.push_back(sw.Seconds());
  std::vector<double> sweep_sig = {-1.0};
  if (sweep.ok()) {
    sweep_sig = {static_cast<double>(sweep->runs)};
    for (const timeseries::StableChangePoint& cp : sweep->stable) {
      sweep_sig.push_back(static_cast<double>(cp.index));
      sweep_sig.push_back(cp.support);
    }
  }
  signature->push_back(sweep_sig);

  return seconds;
}

}  // namespace
}  // namespace bench
}  // namespace elitenet

int main(int argc, char** argv) {
  using namespace elitenet;
  const bench::BenchArgs args =
      bench::ParseArgs(argc, argv, "BENCH_parallel.json");

  const char* names[] = {"generate",     "pagerank",   "betweenness",
                         "bfs",          "clustering", "scc",
                         "laplacian_matvec", "powerlaw_fit", "bootstrap",
                         "fingerprint",  "pelt",       "pelt_sweep"};
  constexpr size_t kNumKernels = std::size(names);
  std::vector<bench::KernelResult> results(kNumKernels);
  for (size_t k = 0; k < kNumKernels; ++k) results[k].name = names[k];

  std::printf("parallel kernel scaling at n=%u (hardware_concurrency=%u)\n",
              args.num_users, std::thread::hardware_concurrency());
  std::vector<bench::SchedulerMetrics> sched(bench::kNumThreadCounts);
  // Metrics observe the scheduler without perturbing results — the
  // identical-output audit below doubles as a check of that claim.
  util::SetMetricsEnabled(true);
  // The untimed warm-up pass (one thread) is also the audit's baseline.
  util::SetThreadCount(1);
  std::vector<std::vector<double>> baseline_sig;
  (void)bench::RunKernels(args, &baseline_sig);
  for (size_t t = 0; t < bench::kNumThreadCounts; ++t) {
    const int threads = bench::kThreadCounts[t];
    util::SetThreadCount(threads);
    std::vector<std::vector<double>> samples(kNumKernels);
    for (int rep = 0; rep < bench::kRepeats; ++rep) {
      util::MetricsRegistry::Global().ResetValues();
      std::vector<std::vector<double>> sig;
      const std::vector<double> secs = bench::RunKernels(args, &sig);
      sched[t] = bench::CollectSchedulerMetrics(threads);
      for (size_t k = 0; k < kNumKernels; ++k) {
        samples[k].push_back(secs[k]);
        if (sig[k] != baseline_sig[k]) results[k].identical = false;
      }
    }
    for (size_t k = 0; k < kNumKernels; ++k) {
      const bench::Spread cell = bench::Summarize(std::move(samples[k]));
      results[k].seconds[t] = cell;
      const double base = results[k].seconds[0].median;
      std::printf("  threads=%d %-16s %8.3fs [%.3f..%.3f]  speedup=%.2fx%s\n",
                  threads, names[k], cell.median, cell.min, cell.max,
                  cell.median > 0.0 ? base / cell.median : 0.0,
                  results[k].identical ? "" : "  MISMATCH");
    }
  }
  util::SetMetricsEnabled(false);
  util::SetThreadCount(0);

  double total_1 = 0.0, total_4 = 0.0;
  bool all_identical = true;
  for (const bench::KernelResult& r : results) {
    total_1 += r.seconds[0].median;
    total_4 += r.seconds[2].median;
    all_identical = all_identical && r.identical;
  }
  const double aggregate_speedup_4 = total_4 > 0.0 ? total_1 / total_4 : 0.0;
  std::printf("aggregate (medians of %d passes): 1-thread %.3fs, 4-thread "
              "%.3fs, speedup %.2fx; "
              "outputs identical across thread counts: %s\n",
              bench::kRepeats, total_1, total_4, aggregate_speedup_4,
              all_identical ? "yes" : "NO");

  bench::Json thread_counts = bench::Json::Array();
  for (int threads : bench::kThreadCounts) thread_counts.Add(threads);
  bench::Json kernels = bench::Json::Object();
  for (const bench::KernelResult& r : results) {
    bench::Json median = bench::Json::Array();
    bench::Json min = bench::Json::Array();
    bench::Json max = bench::Json::Array();
    for (const bench::Spread& cell : r.seconds) {
      median.Add(cell.median);
      min.Add(cell.min);
      max.Add(cell.max);
    }
    const double m1 = r.seconds[0].median, m4 = r.seconds[2].median;
    kernels.Set(r.name, bench::Json::Object()
                            .Set("seconds", std::move(median))
                            .Set("seconds_min", std::move(min))
                            .Set("seconds_max", std::move(max))
                            .Set("speedup_4t", m4 > 0.0 ? m1 / m4 : 0.0)
                            .Set("identical", r.identical));
  }
  bench::Json scheduler = bench::Json::Object();
  for (size_t t = 0; t < bench::kNumThreadCounts; ++t) {
    const bench::SchedulerMetrics& m = sched[t];
    uint64_t busy_total = 0;
    for (uint64_t b : m.thread_busy_ns) busy_total += b;
    bench::Json slots = bench::Json::Array();
    for (size_t s = 0; s < m.thread_chunks.size(); ++s) {
      slots.Add(bench::Json::Object()
                    .Set("chunks", m.thread_chunks[s])
                    .Set("busy_ns", m.thread_busy_ns[s])
                    .Set("busy_fraction",
                         busy_total > 0
                             ? static_cast<double>(m.thread_busy_ns[s]) /
                                   static_cast<double>(busy_total)
                             : 0.0));
    }
    scheduler.Set(std::to_string(bench::kThreadCounts[t]),
                  bench::Json::Object()
                      .Set("for_calls", m.for_calls)
                      .Set("chunks_claimed", m.chunks_claimed)
                      .Set("threads", std::move(slots)));
  }
  bench::Report report;
  report.Set("scale", args.num_users)
      .Set("seed", args.seed)
      .Set("thread_counts", std::move(thread_counts))
      .Set("warmup_passes", 1)
      .Set("repeats", bench::kRepeats)
      .Set("kernels", std::move(kernels))
      .Set("scheduler", std::move(scheduler))
      .Set("aggregate_speedup_4t", aggregate_speedup_4)
      .Set("outputs_identical", all_identical);
  if (!report.Write(args.json_path)) return 1;
  return all_identical ? 0 : 2;
}
