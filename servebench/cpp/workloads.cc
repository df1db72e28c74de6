#include "workloads.h"

#include <malloc.h>
#include <poll.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <thread>

#include "bench_common.h"
#include "core/dataset.h"
#include "gen/churn.h"
#include "gen/verified_network.h"
#include "graph/io.h"
#include "serve/partition.h"
#include "serve/server.h"
#include "serve/warm_index_cache.h"
#include "trace.h"
#include "util/rss.h"

namespace servebench {

namespace core = elitenet::core;
namespace gen = elitenet::gen;
namespace graph = elitenet::graph;
namespace serve = elitenet::serve;
namespace util = elitenet::util;

namespace {

constexpr WorkloadSpec kWorkloads[] = {
    {"hot_wire", Front::kWire, 10000, 1.1, true, 1, 16, 3, 24, true},
    {"cold_router", Front::kRouter, 40000, 0.6, false, 2, 6, 3, 15, true},
    {"live_churn", Front::kLive, 20000, 1.1, false, 1, 1, 5, 7, false},
};

/// Request pool size. Replayed cyclically: a request recurs only after
/// 2^18 others, far beyond the 4,096-entry result cache, so cycling
/// does not change the hit ratio.
constexpr size_t kPoolSize = size_t{1} << 18;

/// The open-loop writers: 5,000 mutations/s in 1 ms batches of 5.
constexpr double kWriteRate = 5000.0;
constexpr int kWriteBatch = 5;

/// hot_wire's ServeLines connections.
constexpr int kWireConns = 2;

/// Untimed warm-up before each closed-loop phase, so caches fill.
constexpr double kWarmupSeconds = 1.0;
/// Length of one measurement window (see Schedule).
constexpr double kWindowSeconds = 0.1;
/// live_churn's auto-compactions per measured phase.
constexpr int kCompactionsPerRun = 10;

int WindowsIn(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds / kWindowSeconds)));
}

void MustOk(const elitenet::Status& s, const char* what) {
  if (!s.ok()) Fail(std::string(what) + ": " + s.ToString());
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

void RemoveFile(const std::string& path) { std::remove(path.c_str()); }

struct Paths {
  std::string widx, pidx, wal, compact;
};

Paths PathsFor(const Args& args, const Inputs& in) {
  return {serve::WarmIndexPathFor(in.snapshot),
          serve::PartitionPathFor(in.snapshot), args.work_dir + "/run.emut",
          args.work_dir + "/compact.eng2"};
}

DiGraph LoadSnapshot(const Inputs& in) {
  Span span("core.load_any_graph");
  return Must(core::LoadAnyGraph(in.snapshot), "load snapshot");
}

/// Answers the first request and fails the run if it is not ok: "set-up
/// ends at the first answered query".
template <typename Front>
void FirstQuery(Front* front, const Inputs& in) {
  Span span("bench.first_query");
  if (!front->Execute(in.pool[0]).ok) Fail("first query failed");
}

serve::RouterOptions RouterOptionsFor(const WorkloadSpec& spec,
                                      const Paths& p) {
  serve::RouterOptions o;
  o.num_shards = 2;
  o.shard_threads = 1;
  o.partition_path = p.pidx;
  o.engine = EngineOptionsFor(spec, p.widx);
  return o;
}

serve::LiveEngineOptions LiveOptionsFor(const Args& args, const Paths& p,
                                        const std::string& compact,
                                        bool compactor) {
  serve::LiveEngineOptions o;
  o.log_path = p.wal;
  o.sync_log = false;
  o.compact_path = compact;
  o.compact_after = compactor ? static_cast<uint64_t>(kWriteRate * args.seconds /
                                                    kCompactionsPerRun)
                             : 0;
  return o;
}

// ---------------------------------------------------------------------------
// Starts. Each returns the serving front and stamps the time from the
// snapshot on disk to the first answered query.

std::unique_ptr<QueryEngine> StartStatic(const WorkloadSpec& spec,
                                         const Inputs& in, const Paths& p,
                                         double* seconds) {
  Span span("bench.start");
  const auto t0 = Clock::now();
  DiGraph g = LoadSnapshot(in);
  std::unique_ptr<QueryEngine> e;
  {
    Span s("serve.engine.create");
    e = Must(QueryEngine::Create(std::move(g), EngineOptionsFor(spec, p.widx)),
             "engine create");
  }
  FirstQuery(e.get(), in);
  *seconds = SecondsSince(t0);
  return e;
}

std::unique_ptr<ShardedRouter> StartRouter(const WorkloadSpec& spec,
                                           const Inputs& in, const Paths& p,
                                           double* seconds) {
  Span span("bench.start");
  const auto t0 = Clock::now();
  DiGraph g = LoadSnapshot(in);
  std::unique_ptr<ShardedRouter> r;
  {
    Span s("serve.router.create");
    r = Must(ShardedRouter::Create(std::move(g), RouterOptionsFor(spec, p)),
             "router create");
  }
  FirstQuery(r.get(), in);
  *seconds = SecondsSince(t0);
  return r;
}

std::unique_ptr<QueryEngine> StartLive(const WorkloadSpec& spec,
                                       const Args& args, const Inputs& in,
                                       const Paths& p,
                                       const std::string& compact,
                                       bool compactor, double* seconds) {
  Span span("bench.start");
  const auto t0 = Clock::now();
  DiGraph g = LoadSnapshot(in);
  std::unique_ptr<QueryEngine> e;
  {
    Span s("serve.engine.create_live");
    e = Must(QueryEngine::CreateLive(std::move(g),
                                     LiveOptionsFor(args, p, compact,
                                                    compactor),
                                     EngineOptionsFor(spec, p.widx)),
             "live engine create");
  }
  FirstQuery(e.get(), in);
  *seconds = SecondsSince(t0);
  return e;
}

// ---------------------------------------------------------------------------
// Byte checks: the first response seen for each pool slot is kept; any
// later response for the slot, and the reference pass, must match it.

class SlotHashes {
 public:
  explicit SlotHashes(size_t n) : slots_(n) {}

  /// Returns false on a mismatch with an earlier response for the slot.
  bool Observe(size_t slot, const std::string& bytes) {
    const uint64_t h = HashBytes(bytes) | 1;  // 0 marks an empty slot
    uint64_t expected = 0;
    if (slots_[slot].compare_exchange_strong(expected, h,
                                             std::memory_order_relaxed)) {
      return true;
    }
    return expected == h;
  }

  /// Re-answers every observed slot on `threads` threads with `answer`
  /// and counts the slots whose bytes differ. Returns slots checked.
  template <typename Answer>
  uint64_t Verify(int threads, Answer answer, uint64_t* mismatches) const {
    std::atomic<size_t> next{0};
    std::atomic<uint64_t> checked{0}, bad{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back([&] {
        for (size_t i; (i = next.fetch_add(1)) < slots_.size();) {
          const uint64_t h = slots_[i].load(std::memory_order_relaxed);
          if (h == 0) continue;
          checked.fetch_add(1, std::memory_order_relaxed);
          if ((HashBytes(answer(i)) | 1) != h) {
            bad.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& th : pool) th.join();
    *mismatches = bad.load();
    return checked.load();
  }

 private:
  std::vector<std::atomic<uint64_t>> slots_;
};

bool IsShed(const QueryResponse& r) {
  return !r.ok && r.json.find("\"overloaded\"") != std::string::npos;
}

/// Files one read: its outcome in `counts`, its latency (when it is ok)
/// in `window`, which other callers may share.
void RecordRead(const Request& r, const QueryResponse& resp, double us,
                bool same_bytes, ReadWindow* window, ReadStats* counts) {
  ++counts->attempted;
  if (!same_bytes) ++counts->mismatched;
  if (IsShed(resp)) {
    ++counts->shed;
    return;
  }
  if (!resp.ok || !same_bytes) return;
  ++counts->ok;
  window->all_us.Add(us);
  if (r.type == serve::RequestType::kEgoSummary) window->ego_us.Add(us);
  if (r.type == serve::RequestType::kDistance) window->dist_us.Add(us);
}

ReadStats EmptyReads(const Schedule& s) {
  ReadStats st;
  st.windows.resize(s.windows);
  st.window_s = s.window_s;
  return st;
}

void AddCounts(ReadStats* into, const ReadStats& from) {
  into->attempted += from.attempted;
  into->ok += from.ok;
  into->shed += from.shed;
  into->mismatched += from.mismatched;
}

/// Appends the windows of a later slice of the measured phase.
void AppendReads(ReadStats* into, ReadStats from) {
  for (ReadWindow& w : from.windows) into->windows.push_back(std::move(w));
  into->window_s = from.window_s;
  AddCounts(into, from);
}

/// Closed loop over Submit: `callers` threads, each waiting for its
/// reply before sending the next request, so every read is stamped at
/// its own completion.
template <typename Front>
ReadStats SubmitLoop(Front* front, const Inputs& in, int callers,
                     const Schedule& sched, SlotHashes* hashes,
                     std::atomic<size_t>* next, const char* span_name) {
  ReadStats out = EmptyReads(sched);
  std::vector<ReadStats> counts(callers);
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      for (;;) {
        const auto t0 = Clock::now();
        if (t0 >= sched.end) break;
        const size_t slot = next->fetch_add(1) % kPoolSize;
        const Request& r = in.pool[slot];
        QueryResponse resp;
        {
          Span span(span_name, NewRequestId());
          resp = front->Submit(r).get();
        }
        const double us = MicrosBetween(t0, Clock::now());
        const bool same =
            hashes == nullptr || !resp.ok || hashes->Observe(slot, resp.json);
        const int w = sched.WindowOf(t0);
        if (w >= 0) RecordRead(r, resp, us, same, &out.windows[w], &counts[c]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const ReadStats& st : counts) AddCounts(&out, st);
  return out;
}

/// One ServeLines connection: a server thread reading requests from one
/// pipe and writing response lines to another. ServeLines answers in
/// order, so the requests in flight on it form a FIFO.
struct WireConn {
  struct InFlight {
    size_t slot;
    uint64_t request;
    Clock::time_point sent;
  };
  int req_w = -1, resp_r = -1;
  std::thread server;
  std::string buf;  ///< Response bytes read but not yet split.
  std::deque<InFlight> inflight;
  bool closed = false;
};

void WriteAll(int fd, const std::string& s) {
  size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n <= 0) Fail("pipe write failed");
    off += static_cast<size_t>(n);
  }
}

/// Closed loop over the wire: `clients` clients spread over `kWireConns`
/// ServeLines connections, all driven by one generator thread. Each
/// client waits for its reply before sending again; a read is stamped
/// from its line written to its response line read.
ReadStats WireLoop(QueryEngine* engine, const Inputs& in, int clients,
                   const Schedule& sched, SlotHashes* hashes,
                   std::atomic<size_t>* next) {
  std::vector<WireConn> c(kWireConns);
  for (WireConn& w : c) {
    int req[2], resp[2];
    if (::pipe(req) != 0 || ::pipe(resp) != 0) Fail("pipe failed");
    w.req_w = req[1];
    w.resp_r = resp[0];
    const int srv_in = req[0], srv_out = resp[1];
    w.server = std::thread([engine, srv_in, srv_out] {
      std::FILE* fin = ::fdopen(srv_in, "r");
      std::FILE* fout = ::fdopen(srv_out, "w");
      if (fin == nullptr || fout == nullptr) Fail("fdopen failed");
      serve::ServeLines(engine, fin, fout);
      std::fclose(fin);
      std::fclose(fout);
    });
  }
  auto send = [&](WireConn& w) {
    const size_t slot = next->fetch_add(1) % kPoolSize;
    w.inflight.push_back({slot, NewRequestId(), Clock::now()});
    WriteAll(w.req_w, in.lines[slot]);
  };
  for (int i = 0; i < clients; ++i) send(c[i % kWireConns]);
  ReadStats st = EmptyReads(sched);
  std::vector<pollfd> fds(kWireConns);
  int open = kWireConns;
  char chunk[1 << 16];
  while (open > 0) {
    for (int i = 0; i < kWireConns; ++i) {
      fds[i] = {c[i].closed ? -1 : c[i].resp_r, POLLIN, 0};
    }
    if (::poll(fds.data(), kWireConns, 1000) < 0) Fail("poll failed");
    for (int i = 0; i < kWireConns; ++i) {
      WireConn& w = c[i];
      if (w.closed || (fds[i].revents & (POLLIN | POLLHUP)) == 0) continue;
      const ssize_t n = ::read(w.resp_r, chunk, sizeof(chunk));
      if (n <= 0) Fail("server closed a connection early");
      w.buf.append(chunk, static_cast<size_t>(n));
      size_t eol;
      while ((eol = w.buf.find('\n')) != std::string::npos) {
        const auto now = Clock::now();
        if (w.inflight.empty()) Fail("unrequested response line");
        const WireConn::InFlight f = w.inflight.front();
        w.inflight.pop_front();
        RecordSpan("serve.server.wire", f.sent, now, f.request);
        QueryResponse resp;
        resp.json = w.buf.substr(0, eol);
        resp.ok = resp.json.rfind("{\"type\":\"error\"", 0) != 0;
        w.buf.erase(0, eol + 1);
        const bool same = !resp.ok || hashes->Observe(f.slot, resp.json);
        const int win = sched.WindowOf(f.sent);
        if (win >= 0) {
          RecordRead(in.pool[f.slot], resp, MicrosBetween(f.sent, now), same,
                     &st.windows[win], &st);
        }
        if (now < sched.end) send(w);
      }
      if (w.inflight.empty()) {
        ::close(w.req_w);  // EOF ends that ServeLines loop
        w.closed = true;
        --open;
      }
    }
  }
  for (WireConn& w : c) {
    w.server.join();
    ::close(w.resp_r);
  }
  return st;
}

/// Times one Apply inside a span; true when it was accepted.
bool TimedApply(QueryEngine* e, const Mutation& m, double* us) {
  const auto t0 = Clock::now();
  bool ok = false;
  {
    Span s("serve.engine.apply");
    ok = e->Apply(m).ok();
  }
  *us = MicrosBetween(t0, Clock::now());
  return ok;
}

/// The open-loop writer: batch k of kWriteBatch mutations is due at
/// k * kWriteBatch / kWriteRate seconds, whatever happened to earlier
/// batches. Writes until the schedule ends or the trace runs out.
WriteStats RunWriter(QueryEngine* engine, const std::vector<Mutation>& churn,
                     size_t* cursor, const Schedule& sched) {
  WriteStats st;
  st.apply_us.resize(sched.windows);
  const auto t0 = Clock::now();
  const auto every = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(kWriteBatch / kWriteRate));
  for (uint64_t k = 0; *cursor < churn.size(); ++k) {
    const auto due = t0 + every * k;
    if (due >= sched.end) break;
    std::this_thread::sleep_until(due);
    const int win = sched.WindowOf(due);
    if (win >= 0) {
      st.late_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - due)
              .count());
    }
    Span batch_span("bench.write_batch", NewRequestId());
    for (int j = 0; j < kWriteBatch && *cursor < churn.size(); ++j) {
      double us = 0.0;
      const bool ok = TimedApply(engine, churn[(*cursor)++], &us);
      if (win < 0) continue;
      ++st.attempted;
      if (ok) {
        ++st.accepted;
        st.apply_us[win].push_back(us);
      }
    }
  }
  return st;
}

/// Reads and writes together on a live engine: one Submit reader
/// (closed loop) beside the open-loop writer.
ReadStats LivePhase(QueryEngine* engine, const Inputs& in,
                    const Schedule& sched, std::atomic<size_t>* next,
                    size_t* cursor, WriteStats* writes) {
  std::thread writer([&] {
    *writes = RunWriter(engine, in.churn, cursor, sched);
  });
  ReadStats reads = SubmitLoop(engine, in, 1, sched, nullptr, next,
                               "serve.engine.submit");
  writer.join();
  if (*cursor >= in.churn.size()) Fail("churn trace exhausted");
  return reads;
}

/// Sets `ok` false and reports when a check does not hold.
void Check(bool holds, const std::string& what, RunOutcome* out) {
  ++out->checks;
  if (holds) return;
  ++out->check_failures;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

double PeakRssMb() {
  return static_cast<double>(util::PeakRssBytes()) / (1024.0 * 1024.0);
}

/// A slice of `seconds` of the measured phase (all of it, or one of the
/// slices that together last --seconds): whole and untraced, or, in a
/// traced run, an untraced half and then a traced half, whose read rates
/// are the base and the subject of bench.trace_overhead. Returns the
/// last half's reads.
template <typename Phase>
ReadStats MeasuredPhase(const Args& args, double seconds, RunOutcome* out,
                        Phase phase) {
  if (!args.trace) {
    return phase(
        Schedule::FromNow(kWarmupSeconds, seconds, WindowsIn(seconds)));
  }
  const double half = seconds / 2;
  SetTracing(false);
  const ReadStats off =
      phase(Schedule::FromNow(kWarmupSeconds, half, WindowsIn(half)));
  SetTracing(true);
  ReadStats on = phase(Schedule::FromNow(0.0, half, WindowsIn(half)));
  out->qps_untraced += off.ok / (args.seconds / 2);
  out->qps_traced += on.ok / (args.seconds / 2);
  return on;
}

/// Set-ups, restarts and reads of a static front, interleaved. The run
/// is cut into `spec.setup_repeats` segments, each a set-up from the
/// bare snapshot, a burst of restarts from the sidecars that set-up
/// wrote, and an equal slice of the measured phase served by the last
/// restart. The guest's speed shifts every few seconds with the host's
/// load, so repeats spread over the whole run sample several host
/// states, where back-to-back repeats would sample one.
///
/// Before each start the previous front is dropped and the heap trimmed,
/// so every start, like the first, runs in a process holding little but
/// the inputs. Peak RSS is taken at the end of the first segment: one
/// start and its serving, as a server process would run. Later segments
/// only repeat starts to time them, and what earlier fronts leave in the
/// allocator raised their peaks by an amount that varied from run to
/// run.
///
/// `start(fresh, &seconds)` starts a front (from the bare snapshot when
/// `fresh`), `restored(front)` tells whether a restart used the
/// sidecars, and `phase(front, schedule)` serves one slice. Returns the
/// last front, which served the last slice.
template <typename Front, typename Start, typename Restored, typename Phase>
std::unique_ptr<Front> SegmentedRun(const WorkloadSpec& spec,
                                    const Args& args, RunOutcome* out,
                                    Start start, Restored restored,
                                    const char* restored_what, Phase phase) {
  const int segments = spec.setup_repeats;
  std::unique_ptr<Front> front;
  auto drop = [&front] {
    front.reset();
    ::malloc_trim(0);
  };
  for (int seg = 0; seg < segments; ++seg) {
    drop();
    double s = 0.0;
    start(true, &s);
    out->setup_s.push_back(s);
    const int restarts = spec.restart_repeats * (seg + 1) / segments -
                         spec.restart_repeats * seg / segments;
    for (int i = 0; i < restarts; ++i) {
      drop();
      front = start(false, &s);
      out->restart_s.push_back(s);
      Check(restored(*front), restored_what, out);
    }
    AppendReads(&out->reads,
                MeasuredPhase(args, args.seconds / segments, out,
                              [&](const Schedule& sched) {
                                return phase(front.get(), sched);
                              }));
    if (seg == 0) out->peak_rss_mb = PeakRssMb();
    Stamp("segment done");
  }
  return front;
}

/// Probes for the live restart check, pinned at `version`.
std::vector<Request> LiveProbes(const Inputs& in, size_t applied,
                                uint64_t version) {
  std::vector<Request> probes(in.pool.begin(), in.pool.begin() + 64);
  // Rows the writer certainly changed: the last mutations' endpoints.
  for (size_t i = applied >= 32 ? applied - 32 : 0; i < applied; ++i) {
    Request r;
    r.type = serve::RequestType::kNeighbors;
    r.node = in.churn[i].src;
    r.limit = 64;
    probes.push_back(r);
    r.node = in.churn[i].dst;
    r.direction = serve::NeighborDirection::kIn;
    probes.push_back(r);
  }
  for (Request& r : probes) r.version = version;
  return probes;
}

std::vector<uint64_t> AnswerProbes(QueryEngine* e,
                                   const std::vector<Request>& probes,
                                   uint64_t* failed) {
  std::vector<uint64_t> h;
  for (const Request& r : probes) {
    const QueryResponse resp = e->Execute(r);
    if (!resp.ok) ++*failed;
    h.push_back(HashBytes(resp.json));
  }
  return h;
}

/// The static workloads' write path for the traced run's layer
/// figures: one second of the open-loop writer (its lateness is
/// bench.writer_late_ms) and one CompactNow (serve.live.compact_s) on a
/// live engine over the workload's own snapshot, with no reads beside.
void StaticWritePath(const WorkloadSpec& spec, const Args& args,
                     const Inputs& in, const Paths& p, RunOutcome* out) {
  Span span("bench.write_path");
  EngineOptions opt = EngineOptionsFor(spec, "");
  opt.distance_oracle = false;  // only writes run here
  RemoveFile(p.wal);
  DiGraph g = LoadSnapshot(in);
  auto e = Must(QueryEngine::CreateLive(
                    std::move(g), LiveOptionsFor(args, p, p.compact, false),
                    opt),
                "side live engine");
  size_t cursor = 0;
  out->writes.late_ms =
      RunWriter(e.get(), in.churn, &cursor, Schedule::FromNow(0.0, 1.0, 1))
          .late_ms;
  const auto t0 = Clock::now();
  {
    Span s("serve.live.compact");
    Must(e->CompactNow(), "compact");
  }
  out->compact_s = SecondsSince(t0);
  e.reset();
  RemoveFile(p.wal);
  RemoveFile(p.compact);
  RemoveFile(p.compact + ".widx");
}

template <typename Front>
void RecordCache(const Front& f, RunOutcome* out) {
  const uint64_t h = f.cache_hits(), m = f.cache_misses();
  out->cache_lookups = h + m;
  out->cache_hit_ratio = h + m > 0 ? static_cast<double>(h) / (h + m) : 0.0;
}

// ---------------------------------------------------------------------------

void RunHotWire(const WorkloadSpec& spec, const Args& args, const Inputs& in,
                const Paths& p, RunOutcome* out, Report* layers) {
  SlotHashes hashes(kPoolSize);
  std::atomic<size_t> next{1};
  std::unique_ptr<QueryEngine> engine = SegmentedRun<QueryEngine>(
      spec, args, out,
      [&](bool fresh, double* s) {
        if (fresh) RemoveFile(p.widx);
        return StartStatic(spec, in, p, s);
      },
      [](const QueryEngine& e) { return e.warm_index_from_cache(); },
      "restart restores the .widx",
      [&](QueryEngine* e, const Schedule& sched) {
        return WireLoop(e, in, spec.callers, sched, &hashes, &next);
      });
  out->sidecar_ratio =
      static_cast<double>(FileBytes(p.widx)) / in.snapshot_bytes;
  RecordCache(*engine, out);
  Stamp("measured phase done");

  // Wire bytes against inline Execute on a reference engine restored
  // from the same sidecar (its cache only ever holds its own answers).
  {
    EngineOptions ref_opt = EngineOptionsFor(spec, p.widx);
    ref_opt.cache_capacity = 1 << 17;
    auto ref = Must(QueryEngine::Create(LoadSnapshot(in), ref_opt),
                    "reference engine");
    uint64_t bad = 0;
    const uint64_t n = hashes.Verify(
        4, [&](size_t i) { return ref->Execute(in.pool[i]).json; }, &bad);
    std::printf("byte check: %llu wire responses vs inline Execute, %llu "
                "differ\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(bad));
    Check(bad == 0 && out->reads.mismatched == 0,
          "wire bytes equal inline Execute bytes", out);
  }
  Stamp("byte check done");
  if (layers != nullptr) {
    StaticWritePath(spec, args, in, p, out);
    MeasureLayers(spec, args, in, engine.get(), *out, layers);
  }
}

void RunColdRouter(const WorkloadSpec& spec, const Args& args,
                   const Inputs& in, const Paths& p, RunOutcome* out,
                   Report* layers) {
  SlotHashes hashes(kPoolSize);
  std::atomic<size_t> next{1};
  std::unique_ptr<ShardedRouter> router = SegmentedRun<ShardedRouter>(
      spec, args, out,
      [&](bool fresh, double* s) {
        if (fresh) {
          RemoveFile(p.widx);
          RemoveFile(p.pidx);
        }
        return StartRouter(spec, in, p, s);
      },
      [](const ShardedRouter& r) {
        return r.warm_index_from_cache() && r.partition_from_cache();
      },
      "restart restores the .widx and .pidx",
      [&](ShardedRouter* r, const Schedule& sched) {
        return SubmitLoop(r, in, spec.callers, sched, &hashes, &next,
                          "serve.router.submit");
      });
  out->sidecar_ratio =
      static_cast<double>(FileBytes(p.widx) + FileBytes(p.pidx)) /
      in.snapshot_bytes;
  RecordCache(*router, out);
  Stamp("measured phase done");
  router.reset();

  // Router responses against an unsharded engine on the same requests.
  {
    EngineOptions ref_opt = EngineOptionsFor(spec, p.widx);
    ref_opt.cache_capacity = 1 << 17;
    auto ref = Must(QueryEngine::Create(LoadSnapshot(in), ref_opt),
                    "unsharded reference engine");
    uint64_t bad = 0;
    const uint64_t n = hashes.Verify(
        4, [&](size_t i) { return ref->Execute(in.pool[i]).json; }, &bad);
    std::printf("byte check: %llu router responses vs unsharded engine, "
                "%llu differ\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(bad));
    Check(bad == 0 && out->reads.mismatched == 0,
          "router responses equal the unsharded engine's", out);
  }
  Stamp("byte check done");
  if (layers != nullptr) {
    StaticWritePath(spec, args, in, p, out);
    MeasureLayers(spec, args, in, nullptr, *out, layers);
  }
}

void RunLiveChurn(const WorkloadSpec& spec, const Args& args,
                  const Inputs& in, const Paths& p, RunOutcome* out,
                  Report* layers) {
  std::unique_ptr<QueryEngine> engine;
  for (int i = 0; i < spec.setup_repeats; ++i) {
    engine.reset();
    RemoveFile(p.widx);
    RemoveFile(p.wal);
    double s = 0.0;
    engine = StartLive(spec, args, in, p, p.compact, true, &s);
    out->setup_s.push_back(s);
  }
  out->sidecar_ratio =
      static_cast<double>(FileBytes(p.widx)) / in.snapshot_bytes;
  Stamp("set-ups done");

  std::atomic<size_t> next{1};
  size_t cursor = 0;
  out->reads =
      MeasuredPhase(args, args.seconds, out, [&](const Schedule& sched) {
        return LivePhase(engine.get(), in, sched, &next, &cursor,
                         &out->writes);
      });
  RecordCache(*engine, out);
  out->peak_rss_mb = PeakRssMb();
  Stamp("measured phase done");
  const elitenet::serve::OverlayStats before = engine->overlay_stats();
  std::printf("live: %llu mutations applied, %llu compactions\n",
              static_cast<unsigned long long>(before.applied),
              static_cast<unsigned long long>(before.compactions));
  Check(before.compactions >= 2, "at least two compactions in the run", out);

  // Fold everything, then pin probes at the head version: both sides of
  // the restart check answer from a base compacted at the same version,
  // so even the warm-index fields ("as_of") must agree.
  {
    const auto t0 = Clock::now();
    Span s("serve.live.compact");
    Must(engine->CompactNow(), "compact");
    out->compact_s = SecondsSince(t0);
  }
  const uint64_t version = engine->applied_version();
  const uint64_t edges = engine->overlay_stats().live_edges;
  const std::vector<Request> probes = LiveProbes(in, cursor, version);
  uint64_t probe_failures = 0;
  const std::vector<uint64_t> want =
      AnswerProbes(engine.get(), probes, &probe_failures);
  engine.reset();

  // Crash recovery: map the original snapshot, restore its sidecar and
  // replay the whole WAL.
  const std::string compact2 = args.work_dir + "/recovered.eng2";
  for (int i = 0; i < spec.restart_repeats; ++i) {
    engine.reset();
    double s = 0.0;
    engine = StartLive(spec, args, in, p, compact2, false, &s);
    out->restart_s.push_back(s);
    Check(engine->applied_version() == version &&
              engine->overlay_stats().live_edges == edges,
          "recovered version and edge count equal the pre-restart ones", out);
  }
  Must(engine->CompactNow(), "compact recovered");
  const std::vector<uint64_t> got =
      AnswerProbes(engine.get(), probes, &probe_failures);
  std::printf("restart check: version %llu, %llu edges, %zu probes\n",
              static_cast<unsigned long long>(version),
              static_cast<unsigned long long>(edges), probes.size());
  Check(got == want && probe_failures == 0,
        "probe bytes pinned at the recovered version are unchanged", out);
  Stamp("restarts and checks done");
  if (layers != nullptr) {
    MeasureLayers(spec, args, in, engine.get(), *out, layers);
  }
}

}  // namespace

Schedule Schedule::FromNow(double warm_s, double measure_s, int windows) {
  auto span = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  Schedule s;
  s.start = Clock::now() + span(warm_s);
  s.end = s.start + span(measure_s);
  s.windows = windows;
  s.window_s = measure_s / windows;
  return s;
}

int Schedule::WindowOf(Clock::time_point t) const {
  if (t < start || t >= end) return -1;
  const double into = std::chrono::duration<double>(t - start).count();
  return std::min(windows - 1, static_cast<int>(into / window_s));
}

void Fail(const std::string& what) {
  std::fprintf(stderr, "servebench: %s\n", what.c_str());
  std::exit(1);
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

uint64_t HashBytes(const std::string& s) {
  return elitenet::bench::FnvString(s);
}

EngineOptions EngineOptionsFor(const WorkloadSpec& spec,
                               const std::string& widx) {
  EngineOptions o;  // default cache (4,096 entries) and telemetry
  o.warm_index_path = widx;
  o.distance_oracle = spec.oracle;
  o.threads = spec.workers;
  return o;
}

Inputs MakeInputs(const WorkloadSpec& spec, const Args& args) {
  Span span("bench.inputs");
  Inputs in;
  gen::VerifiedNetworkConfig cfg;
  cfg.num_users = spec.users;
  cfg.seed = kGraphSeed;
  {
    auto net = Must(gen::GenerateVerifiedNetwork(cfg), "generate network");
    in.snapshot = args.work_dir + "/graph.eng2";
    MustOk(graph::SaveBinaryV2(net.graph, in.snapshot), "write snapshot");
  }
  // Reading the snapshot back validates it and leaves it in the page
  // cache; the mapped graph is every later phase's view of the input.
  in.graph = Must(graph::MapBinary(in.snapshot), "map snapshot");
  in.snapshot_bytes = FileBytes(in.snapshot);
  in.pool = elitenet::bench::MakeServeRequestMix(in.graph, kPoolSize,
                                                 spec.zipf, args.seed ^ 0x5e7e);
  in.lines.reserve(in.pool.size());
  for (const Request& r : in.pool) {
    in.lines.push_back(serve::CanonicalEncoding(r) + "\n");
  }
  gen::MutationTraceConfig tcfg;
  tcfg.num_mutations = static_cast<uint32_t>(
      kWriteRate * (args.seconds + kWarmupSeconds) * 1.2 + 20000);
  tcfg.seed = args.seed ^ 0xC4B2;
  const gen::MutationTrace trace =
      Must(gen::GenerateMutationTrace(in.graph, tcfg), "churn trace");
  in.churn.reserve(trace.mutations.size());
  for (const gen::EdgeMutation& m : trace.mutations) {
    in.churn.push_back({m.follow ? serve::MutationOp::kFollow
                                 : serve::MutationOp::kUnfollow,
                        m.src, m.dst});
  }
  std::printf("inputs: %s n=%u m=%llu, %zu requests (zipf %.1f), %zu "
              "mutations, snapshot %llu bytes\n",
              spec.name, in.graph.num_nodes(),
              static_cast<unsigned long long>(in.graph.num_edges()),
              in.pool.size(), spec.zipf, in.churn.size(),
              static_cast<unsigned long long>(in.snapshot_bytes));
  Stamp("inputs ready");
  return in;
}

RunOutcome RunWorkload(const WorkloadSpec& spec, const Args& args,
                       const Inputs& in, Report* layers) {
  RunOutcome out;
  const Paths p = PathsFor(args, in);
  // A traced run records spans throughout, except in the untraced half
  // of its closed-loop phase, which is the base of bench.trace_overhead.
  SetTracing(args.trace);
  util::ResetPeakRss();
  out.cpu_start = ReadCpuTimes();
  switch (spec.front) {
    case Front::kWire:
      RunHotWire(spec, args, in, p, &out, layers);
      break;
    case Front::kRouter:
      RunColdRouter(spec, args, in, p, &out, layers);
      break;
    case Front::kLive:
      RunLiveChurn(spec, args, in, p, &out, layers);
      break;
  }
  out.steal_pct = StealPercent(out.cpu_start, ReadCpuTimes());
  SetTracing(false);
  return out;
}

}  // namespace servebench
