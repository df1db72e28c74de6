// The three serving workloads and the inputs they share.
//
// Every input is generated from the seed before any timed phase: the
// verified network (written once as an ENG2 snapshot and read back so it
// sits in the page cache), a zipf request pool, and a churn trace. The
// program under test only ever sees those inputs, through its public
// entry points.

#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/digraph.h"
#include "serve/engine.h"
#include "serve/mutation_log.h"
#include "serve/request.h"
#include "serve/router.h"
#include "stats.h"
#include "util/status.h"

namespace servebench {

using elitenet::graph::DiGraph;
using elitenet::serve::EngineOptions;
using elitenet::serve::Mutation;
using elitenet::serve::QueryEngine;
using elitenet::serve::QueryResponse;
using elitenet::serve::Request;
using elitenet::serve::ShardedRouter;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for snapshots, sidecars and logs (removed at exit).
  std::string work_dir;
};

/// The graph of every workload comes from the generator's default seed;
/// --seed drives the request pool and the churn trace. The heavy-tailed
/// hub degrees of the verified network vary a lot between generator
/// seeds, and with the cache defeated (live_churn) the few top hubs'
/// ego walks set the read cost, so a graph per seed would make the
/// seed, not the program, the largest source of spread.
inline constexpr uint64_t kGraphSeed = 2018;

/// What serves a workload's reads.
enum class Front {
  kWire,    ///< Static QueryEngine behind ServeLines pipe connections.
  kRouter,  ///< ShardedRouter, reads through Submit.
  kLive,    ///< CreateLive engine, reads through Submit beside writes.
};

/// Fixed shape of one workload (see BENCHMARK.json for the rationale).
struct WorkloadSpec {
  const char* name;
  Front front;
  uint32_t users;
  double zipf;
  bool oracle;  ///< EngineOptions::distance_oracle
  int workers;  ///< EngineOptions::threads (the router's workers)
  /// Closed-loop callers (kWire: clients over two pipe connections).
  int callers;
  /// Set-up and restart repeats per run; medians are reported. On the
  /// static fronts the set-ups also cut the run into segments (see
  /// SegmentedRun in workloads.cc).
  int setup_repeats;
  int restart_repeats;
  /// Run the whole process on one CPU (see "Steadiness" in README.md).
  bool one_cpu;
};

/// Every input one run needs, built before anything is timed.
struct Inputs {
  DiGraph graph;  ///< The generated graph (heap CSR).
  std::string snapshot;  ///< ENG2 file of `graph`.
  uint64_t snapshot_bytes = 0;
  std::vector<Request> pool;  ///< Request pool, replayed cyclically.
  std::vector<std::string> lines;  ///< Canonical wire form of `pool`.
  std::vector<Mutation> churn;  ///< Default churn trace.
};

/// The measured slice of a phase: [start, end), cut into equal windows
/// of 0.1 s. Rates and percentiles are taken per window, and a run
/// reports their mean over windows with the best and the worst tenth
/// left out. On a shared host the guest's speed shifts between levels
/// every few seconds with its neighbours' load. A single quantile of
/// the windows follows whichever level the run happened to see at that
/// quantile; the trimmed mean weighs all of them.
struct Schedule {
  Clock::time_point start, end;
  double window_s = 0.0;
  int windows = 0;

  /// Schedule starting `warm_s` from now, measuring `measure_s`.
  static Schedule FromNow(double warm_s, double measure_s, int windows);
  /// Window of time `t`, or -1 outside the measured slice.
  int WindowOf(Clock::time_point t) const;
};

/// Read latencies of one window.
struct ReadWindow {
  Histogram all_us, ego_us, dist_us;
};

/// Reads of one closed-loop phase, stamped per request at its own
/// completion and filed under the window the request was sent in. The
/// windows are allocated before the phase starts.
struct ReadStats {
  std::vector<ReadWindow> windows;
  double window_s = 0.0;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t mismatched = 0;
};

/// The open-loop writer's record.
struct WriteStats {
  std::vector<std::vector<double>> apply_us;  ///< Per window.
  std::vector<double> late_ms;  ///< Per-batch lateness against schedule.
  uint64_t attempted = 0;
  uint64_t accepted = 0;
};

/// The values of `f(window)` over windows, skipping windows where `f`
/// has no value.
template <typename W, typename F>
std::vector<double> OverWindows(const std::vector<W>& windows, F f) {
  std::vector<double> v;
  for (const W& w : windows) {
    if (auto x = f(w); x.has_value()) v.push_back(*x);
  }
  return v;
}

/// The `q` quantile over windows of `f(window)`.
template <typename W, typename F>
double WindowQuantile(const std::vector<W>& windows, F f, double q) {
  return Percentile(OverWindows(windows, f), q);
}

/// The mean over windows of `f(window)`, without the lowest and the
/// highest tenth of its values (see Schedule).
template <typename W, typename F>
double WindowTrimmedMean(const std::vector<W>& windows, F f) {
  return TrimmedMean(OverWindows(windows, f), 0.1);
}

/// What a run measured, before it becomes metrics.
struct RunOutcome {
  std::vector<double> setup_s, restart_s;
  ReadStats reads;
  WriteStats writes;
  double peak_rss_mb = 0.0;
  double sidecar_ratio = 0.0;
  CpuTimes cpu_start;  ///< Host counters when the run began.
  double steal_pct = 0.0;
  uint64_t checks = 0;  ///< Byte / state checks made.
  uint64_t check_failures = 0;
  double cache_hit_ratio = 0.0;
  uint64_t cache_lookups = 0;
  /// Traced runs only: the untraced and traced halves of the phase.
  double qps_untraced = 0.0, qps_traced = 0.0;
  double compact_s = 0.0;  ///< One CompactNow on the live engine.
};

/// Reports an infrastructure failure on stderr and exits with code 1,
/// printing no result line.
[[noreturn]] void Fail(const std::string& what);

template <typename T>
T Must(elitenet::Result<T> r, const char* what) {
  if (!r.ok()) Fail(std::string(what) + ": " + r.status().ToString());
  return std::move(*r);
}

const WorkloadSpec* FindWorkload(const std::string& name);

/// Builds every input for `spec` from the seed.
Inputs MakeInputs(const WorkloadSpec& spec, const Args& args);

/// Runs one workload end to end; in traced runs also fills `layers` with
/// the per-layer metrics.
RunOutcome RunWorkload(const WorkloadSpec& spec, const Args& args,
                       const Inputs& in, Report* layers);

/// Engine options of each workload (also used by the per-layer pass).
EngineOptions EngineOptionsFor(const WorkloadSpec& spec,
                               const std::string& widx);

/// FNV-1a of a response (the byte checks compare these).
uint64_t HashBytes(const std::string& s);

/// Per-layer pass: times each layer's own public entry points on this
/// run's inputs. `front_engine` is the workload's serving engine when it
/// has one (hot_wire, live_churn), else null.
void MeasureLayers(const WorkloadSpec& spec, const Args& args,
                   const Inputs& in, QueryEngine* front_engine,
                   const RunOutcome& run, Report* layers);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
