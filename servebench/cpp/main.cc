// servebench: end-to-end and per-layer benchmark of the elitenet serving
// stack. One process runs one workload (hot_wire, cold_router or
// live_churn) on inputs generated from --seed, checks the response
// bytes, and prints a report whose last line is one JSON object:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
//
// Usage: servebench --workload <name> --seed <n> --seconds <s>
//                   --trace <0|1> --work-dir <dir>
// Exit codes: 0 ok, 2 bad arguments, 3 a byte or state check failed,
// 1 anything else.

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "trace.h"
#include "workloads.h"

namespace servebench {
namespace {

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--work-dir") {
      a->work_dir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->work_dir.empty() && a->seconds > 0;
}

/// Confines the process, and every thread it starts, to one CPU: the
/// highest one it may use. See "Steadiness" in servebench/README.md.
void PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) {
      std::printf("pinned to cpu %d\n", cpu);
    }
    return;
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload <name> --seed <n> --seconds "
                 "<s> --trace <0|1> --work-dir <dir>\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (spec->one_cpu) PinToOneCpu();
  std::printf("servebench %s seed=%llu seconds=%g trace=%d\n", spec->name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  Stamp("start");
  const Inputs in = MakeInputs(*spec, args);
  Report layers;
  const RunOutcome r =
      RunWorkload(*spec, args, in, args.trace ? &layers : nullptr);

  const ReadStats& rd = r.reads;
  const WriteStats& wr = r.writes;
  const uint64_t attempted = rd.attempted + wr.attempted + r.checks;
  const uint64_t failed = (rd.attempted - rd.ok) +
                          (wr.attempted - wr.accepted) + r.check_failures;
  const bool correct = r.check_failures == 0 && rd.mismatched == 0;

  Stamp("run done");
  std::printf("end to end%s, trimmed mean of %zu windows of %.2g s:\n",
              args.trace ? " (traced half; not reported)" : "",
              rd.windows.size(), rd.window_s);
  auto latency = [](const Histogram ReadWindow::*field, double q) {
    return [field, q](const ReadWindow& w) -> std::optional<double> {
      if ((w.*field).empty()) return std::nullopt;
      return (w.*field).Percentile(q);
    };
  };
  auto rate = [&](const ReadWindow& w) -> std::optional<double> {
    return w.all_us.count() / rd.window_s;
  };
  auto apply_p99 = [](const std::vector<double>& w) -> std::optional<double> {
    if (w.empty()) return std::nullopt;
    return Percentile(w, 0.99);
  };
  uint64_t n_all = 0, n_ego = 0, n_dist = 0, n_apply = 0;
  for (const ReadWindow& w : rd.windows) {
    n_all += w.all_us.count();
    n_ego += w.ego_us.count();
    n_dist += w.dist_us.count();
  }
  for (const auto& w : wr.apply_us) n_apply += w.size();
  std::printf("  set-ups (s):");
  for (double s : r.setup_s) std::printf(" %.4f", s);
  std::printf("; restarts (s):");
  for (double s : r.restart_s) std::printf(" %.4f", s);
  std::printf("\n  window qps and p99_us at deciles 0.1/0.5/0.9 of windows:");
  for (double q : {0.1, 0.5, 0.9}) {
    std::printf(" %.0f/%.1f", WindowQuantile(rd.windows, rate, q),
                WindowQuantile(rd.windows, latency(&ReadWindow::all_us, 0.99),
                               q));
  }
  std::printf("\n");
  Report e2e;
  e2e.Add("setup_s", Median(r.setup_s), "s", r.setup_s.size(), "median");
  e2e.Add("restart_s", Median(r.restart_s), "s", r.restart_s.size(),
          "median");
  e2e.Add("qps", WindowTrimmedMean(rd.windows, rate), "1/s", n_all);
  e2e.Add("p50_us",
          WindowTrimmedMean(rd.windows, latency(&ReadWindow::all_us, 0.50)),
          "us", n_all);
  e2e.Add("p99_us",
          WindowTrimmedMean(rd.windows, latency(&ReadWindow::all_us, 0.99)),
          "us", n_all);
  e2e.Add("ego_p99_us",
          WindowTrimmedMean(rd.windows, latency(&ReadWindow::ego_us, 0.99)),
          "us", n_ego);
  e2e.Add("dist_p99_us",
          WindowTrimmedMean(rd.windows,
                            latency(&ReadWindow::dist_us, 0.99)),
          "us", n_dist);
  e2e.Add("ok_ratio",
          static_cast<double>(rd.ok + wr.accepted) /
              std::max<uint64_t>(1, rd.attempted + wr.attempted),
          "ratio", rd.attempted + wr.attempted);
  if (spec->front == Front::kLive) {
    e2e.Add("apply_p99_us", WindowTrimmedMean(wr.apply_us, apply_p99), "us",
            n_apply, "beside reads");
  }
  e2e.Add("peak_rss_mb", r.peak_rss_mb, "MB");
  e2e.Add("sidecar_ratio", r.sidecar_ratio, "ratio", 0,
          "sidecar bytes over ENG2 bytes");
  std::printf("  bench.steal_pct %.3f %%, bench.writer_late_ms p99 %.3f ms "
              "max %.3f ms (n=%zu), sheds %llu, checks %llu/%llu passed\n",
              r.steal_pct, Percentile(wr.late_ms, 0.99),
              Percentile(wr.late_ms, 1.0), wr.late_ms.size(),
              static_cast<unsigned long long>(rd.shed),
              static_cast<unsigned long long>(r.checks - r.check_failures),
              static_cast<unsigned long long>(r.checks));
  if (args.trace) {
    std::printf("spans (self time excludes direct children):\n");
    PrintSpanSummary(CollectSpans());
  }
  PrintResultLine(correct, attempted, failed,
                  args.trace ? layers.metrics() : e2e.metrics());
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) { return servebench::Main(argc, argv); }
