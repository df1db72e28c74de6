// The batch contract of ServeLines: whatever way the bytes arrive — one
// file, a pipe fed 1, 3 or 4096 bytes at a time, or one line per round
// trip — the session writes exactly the bytes, and tallies exactly the
// ServeStats, of a per-line reference that calls ExecuteLine and
// AdminResponse on each line in turn. Covers admin verbs, bad admin
// arguments, comments, blank lines and "\r\n" endings in one batch;
// "quit" mid-batch; a last line without '\n'; lines split across reads;
// the line bound; and a reply that must arrive before the next line is
// sent. Carries the serve and tsan labels.

#include "serve/server.h"

#include <poll.h>
#include <sys/ioctl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "graph/builder.h"
#include "serve/compute.h"
#include "serve/engine.h"
#include "serve/telemetry.h"
#include "util/string_utils.h"

namespace elitenet {
namespace serve {
namespace {

graph::DiGraph TestGraph() {
  static constexpr std::pair<uint32_t, uint32_t> kEdges[] = {
      {0, 1}, {1, 0}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {5, 6}, {6, 7}, {2, 6}};
  graph::GraphBuilder b(8);
  for (const auto& [u, v] : kEdges) EXPECT_TRUE(b.AddEdge(u, v).ok());
  auto g = b.Build();
  EXPECT_TRUE(g.ok());
  return std::move(*g);
}

std::unique_ptr<QueryEngine> NewEngine() {
  EngineOptions opts;
  opts.threads = 1;
  auto engine = QueryEngine::Create(TestGraph(), opts);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(*engine);
}

struct Served {
  std::string bytes;
  ServeStats stats;
};

void ExpectSameStats(const ServeStats& got, const ServeStats& want) {
  EXPECT_EQ(got.requests, want.requests);
  EXPECT_EQ(got.errors, want.errors);
  EXPECT_EQ(got.degraded, want.degraded);
  EXPECT_EQ(got.admin, want.admin);
}

void ExpectSame(const Served& got, const Served& want) {
  EXPECT_EQ(got.bytes, want.bytes);
  ExpectSameStats(got.stats, want.stats);
}

// The reply to one line as the protocol defines it, on `front`: empty for
// a blank line or a comment; `*quit` set on "quit".
std::string ReferenceReply(FrontDoor* front, std::string_view line,
                           ServeStats* stats, bool* quit) {
  QueryResponse resp;
  if (line.size() > kMaxLineBytes) {
    resp = front->RejectLine(
        Status::InvalidArgument("line longer than 65536 bytes"));
  } else {
    const std::string_view s = util::StripAsciiWhitespace(line);
    if (s.empty()) return "";
    if (s.front() == '#') {
      auto cmd = ParseAdminLine(s);
      if (cmd.ok()) {
        ++stats->admin;
        return front->AdminResponse(*cmd) + "\n";
      }
      if (cmd.status().code() != StatusCode::kInvalidArgument) return "";
      ++stats->admin;
      ++stats->errors;
      return ErrorJson(StatusCodeToString(cmd.status().code()),
                       cmd.status().message()) +
             "\n";
    }
    if (s == "quit") {
      *quit = true;
      return "";
    }
    resp = front->ExecuteLine(s);
  }
  ++stats->requests;
  if (!resp.ok) ++stats->errors;
  if (resp.degraded) ++stats->degraded;
  return resp.json + "\n";
}

// The per-line reference over a whole script, on a fresh engine.
Served Reference(std::string_view script) {
  const auto engine = NewEngine();
  Served r;
  bool quit = false;
  while (!script.empty() && !quit) {
    const size_t nl = script.find('\n');
    r.bytes += ReferenceReply(engine.get(), script.substr(0, nl), &r.stats,
                              &quit);
    script.remove_prefix(nl == std::string_view::npos ? script.size()
                                                      : nl + 1);
  }
  return r;
}

std::string ReadAll(std::FILE* f) {
  std::rewind(f);
  std::string s;
  for (int c; (c = std::fgetc(f)) != EOF;) s.push_back(static_cast<char>(c));
  return s;
}

// One ServeLines session over `script` from a file: one read per 64 KiB.
Served ServeFromFile(FrontDoor* front, const std::string& script) {
  std::FILE* in = std::tmpfile();
  std::FILE* out = std::tmpfile();
  EXPECT_NE(in, nullptr);
  EXPECT_NE(out, nullptr);
  std::fwrite(script.data(), 1, script.size(), in);
  std::rewind(in);
  Served s;
  s.stats = ServeLines(front, in, out);
  s.bytes = ReadAll(out);
  std::fclose(in);
  std::fclose(out);
  return s;
}

// One ServeLines session over `script` fed through a pipe by a writer
// thread in `chunk`-byte writes. The writer waits for the pipe to drain
// before each write, so each read(2) brings exactly one chunk and lines
// arrive split across reads.
Served ServeFromPipe(FrontDoor* front, const std::string& script,
                     size_t chunk) {
  int fds[2];
  EXPECT_EQ(::pipe(fds), 0);
  std::atomic<bool> done{false};  // the session ended; stop waiting
  std::thread writer([&script, &done, chunk, r = fds[0], w = fds[1]] {
    for (size_t off = 0; off < script.size();) {
      int unread = 0;
      while (!done.load() && ::ioctl(r, FIONREAD, &unread) == 0 &&
             unread > 0) {
        std::this_thread::yield();
      }
      const size_t len = std::min(chunk, script.size() - off);
      const ssize_t n = ::write(w, script.data() + off, len);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    ::close(w);
  });
  std::FILE* in = ::fdopen(fds[0], "r");
  std::FILE* out = std::tmpfile();
  EXPECT_NE(in, nullptr);
  EXPECT_NE(out, nullptr);
  Served s;
  s.stats = ServeLines(front, in, out);
  done.store(true);
  writer.join();  // a session that stops early leaves bytes in the pipe
  s.bytes = ReadAll(out);
  std::fclose(in);
  std::fclose(out);
  return s;
}

const std::string kMixedScript =
    "ego 0\n"
    "#healthz\n"
    "neighbors 1 out\r\n"
    "\n"
    "   \t\n"
    "# a plain comment, no reply\n"
    "#recent many\n"
    "#stats now\n"
    "dist 0 4\r\n"
    "\r\n"
    "not a request\n"
    "#version\n"
    "topk 3\n"
    "#trace zz\n"
    "ego 99\n"
    "#recent 0\n"
    "fingerprint\n"
    "#healthz\n";

TEST(ServeLinesTest, MixedBatchMatchesPerLineReference) {
  const Served want = Reference(kMixedScript);
  EXPECT_EQ(want.stats.requests, 7u);
  EXPECT_EQ(want.stats.admin, 7u);
  const auto engine = NewEngine();
  ExpectSame(ServeFromFile(engine.get(), kMixedScript), want);
}

TEST(ServeLinesTest, LinesSplitAcrossReadsMatchReference) {
  const std::string script = kMixedScript + "ego 5\nneighbors 2 in 1";
  const Served want = Reference(script);
  for (size_t chunk : {size_t{1}, size_t{3}, size_t{4096}}) {
    SCOPED_TRACE(chunk);
    const auto engine = NewEngine();
    ExpectSame(ServeFromPipe(engine.get(), script, chunk), want);
  }
}

TEST(ServeLinesTest, QuitMidBatchStopsLaterLinesAndKeepsEarlierReplies) {
  const std::string script =
      "ego 0\n#healthz\ndist 1 3\nquit\nego 1\n#healthz\ntopk 2\n";
  const Served want = Reference(script);
  EXPECT_EQ(want.stats.requests, 2u);
  for (size_t chunk : {size_t{0}, size_t{1}, size_t{4096}}) {
    SCOPED_TRACE(chunk);
    const auto engine = NewEngine();
    const Served got = chunk == 0 ? ServeFromFile(engine.get(), script)
                                  : ServeFromPipe(engine.get(), script, chunk);
    ExpectSame(got, want);
    // The lines after "quit" never reached the engine.
    EXPECT_EQ(engine->telemetry().totals().requests, 2u);
  }
}

TEST(ServeLinesTest, LastLineWithoutNewlineIsAnswered) {
  for (const std::string script :
       {"ego 0\ntopk 2", "ego 0\n#version", "ego 0\ndist 0 4\r",
        "ego 0\nquit", "ego 0\n   ", "topk 1"}) {
    SCOPED_TRACE(script);
    const Served want = Reference(script);
    const auto engine = NewEngine();
    ExpectSame(ServeFromFile(engine.get(), script), want);
    const auto piped = NewEngine();
    ExpectSame(ServeFromPipe(piped.get(), script, 1), want);
  }
  const Served last = Reference("ego 0\ntopk 2");
  EXPECT_EQ(last.stats.requests, 2u);
}

TEST(ServeLinesTest, OverlongLineGetsOneErrorAndTheNextLineRuns) {
  // A line exactly at the bound is served; one byte more is refused.
  std::string at_bound = "ego 1";
  at_bound.resize(kMaxLineBytes, ' ');
  const std::string over(kMaxLineBytes + 1, 'x');
  const std::string far_over(3 * kMaxLineBytes, 'y');
  const std::string script = "ego 0\n" + over + "\nego 2\n" + at_bound +
                             "\n" + far_over + "\ntopk 2\n" + far_over;
  const Served want = Reference(script);
  EXPECT_EQ(want.stats.requests, 7u);
  EXPECT_EQ(want.stats.errors, 3u);
  for (size_t chunk : {size_t{0}, size_t{4096}}) {
    SCOPED_TRACE(chunk);
    const auto engine = NewEngine();
    const Served got = chunk == 0 ? ServeFromFile(engine.get(), script)
                                  : ServeFromPipe(engine.get(), script, chunk);
    ExpectSame(got, want);
    EXPECT_EQ(engine->telemetry().malformed_lines(), 3u);
  }
  EXPECT_NE(want.bytes.find("{\"type\":\"error\",\"code\":\"InvalidArgument\","
                            "\"message\":\"line longer than 65536 bytes\"}\n"),
            std::string::npos);
}

// Waits up to 10 s for `fd` to be readable; false on timeout.
bool Readable(int fd) {
  pollfd p{fd, POLLIN, 0};
  return ::poll(&p, 1, 10'000) == 1;
}

TEST(ServeLinesTest, EachReplyArrivesBeforeTheNextLineIsSent) {
  const std::vector<std::string> lines = {
      "ego 0\n", "#healthz\n", "dist 0 4\n", "not a request\n",
      "#recent x\n", "neighbors 1 in\n", "topk 3\n"};
  const auto ref = NewEngine();
  const auto engine = NewEngine();
  int req[2], resp[2];
  ASSERT_EQ(::pipe(req), 0);
  ASSERT_EQ(::pipe(resp), 0);
  ServeStats served;
  std::thread server([&engine, &served, in_fd = req[0], out_fd = resp[1]] {
    std::FILE* in = ::fdopen(in_fd, "r");
    std::FILE* out = ::fdopen(out_fd, "w");
    served = ServeLines(engine.get(), in, out);
    std::fclose(in);
    std::fclose(out);
  });
  ServeStats ref_stats;
  bool quit = false;
  for (const std::string& line : lines) {
    SCOPED_TRACE(line);
    const std::string want = ReferenceReply(
        ref.get(), std::string_view(line).substr(0, line.size() - 1),
        &ref_stats, &quit);
    // No ASSERT before the join below: the server thread must be joined.
    if (::write(req[1], line.data(), line.size()) !=
        static_cast<ssize_t>(line.size())) {
      ADD_FAILURE() << "request write failed";
      break;
    }
    std::string got;
    while (got.size() < want.size()) {
      // A loop that waited for more input before writing fails here.
      if (!Readable(resp[0])) break;
      char buf[4096];
      const ssize_t n = ::read(resp[0], buf, sizeof(buf));
      if (n <= 0) break;
      got.append(buf, static_cast<size_t>(n));
    }
    EXPECT_EQ(got, want);
    if (got != want) break;
  }
  ::close(req[1]);  // EOF ends the session
  server.join();
  ::close(resp[0]);
  ExpectSameStats(served, ref_stats);
}

}  // namespace
}  // namespace serve
}  // namespace elitenet
