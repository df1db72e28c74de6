#include "serve/server.h"

#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "serve/partition.h"
#include "serve/warm_index_cache.h"
#include "util/check.h"
#include "util/string_utils.h"

namespace elitenet {
namespace serve {

namespace {

// Bytes asked of one read(2). The input buffer holds at most one line
// bound plus one chunk.
constexpr size_t kReadChunk = size_t{64} << 10;

// Writes all of `bytes` to `fd`, retrying EINTR and short writes. False
// once the descriptor fails (the reader has gone).
bool WriteAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

}  // namespace

ServeStats ServeLines(FrontDoor* front, std::FILE* in, std::FILE* out) {
  EN_CHECK(front != nullptr);
  EN_CHECK(in != nullptr);
  EN_CHECK(out != nullptr);
  const int in_fd = ::fileno(in);
  const int out_fd = ::fileno(out);
  EN_CHECK(in_fd >= 0 && out_fd >= 0);
  std::fflush(out);  // what the caller buffered on `out` goes first

  ServeStats stats;
  std::string replies;  // this batch's answers, written in one go
  auto reply = [&replies](std::string_view json) {
    replies.append(json);
    replies.push_back('\n');
  };
  // Answers one line (its '\n' cut off) into `replies`; false on "quit".
  auto answer = [&](std::string_view line) {
    QueryResponse resp;
    if (line.size() > kMaxLineBytes) {
      std::string msg = "line longer than ";
      msg.append(std::to_string(kMaxLineBytes)).append(" bytes");
      resp = front->RejectLine(Status::InvalidArgument(msg));
    } else {
      const std::string_view stripped = util::StripAsciiWhitespace(line);
      if (stripped.empty()) return true;
      if (stripped.front() == '#') {
        // Admin channel: recognized verbs are answered (off the query
        // fast path — they only read telemetry rings and counters);
        // anything else keeps working as a comment.
        auto cmd = ParseAdminLine(stripped);
        if (cmd.ok()) {
          ++stats.admin;
          reply(front->AdminResponse(*cmd));
        } else if (cmd.status().code() == StatusCode::kInvalidArgument) {
          ++stats.admin;
          ++stats.errors;
          reply(ErrorJson(StatusCodeToString(cmd.status().code()),
                          cmd.status().message()));
        }
        return true;
      }
      if (stripped == "quit") return false;
      resp = front->ExecuteLine(stripped);
    }
    ++stats.requests;
    if (!resp.ok) ++stats.errors;
    if (resp.degraded) ++stats.degraded;
    reply(resp.json);
    return true;
  };

  // buf[0, held) is the stream's unanswered tail: a line without its
  // '\n' yet, at most kMaxLineBytes long.
  const std::unique_ptr<char[]> buf(new char[kMaxLineBytes + kReadChunk]);
  size_t held = 0;
  bool skipping = false;  // dropping the rest of a rejected overlong line
  for (;;) {
    // The batch's replies leave before the read that may block.
    if (!WriteAll(out_fd, replies)) return stats;
    replies.clear();
    const ssize_t n = ::read(in_fd, buf.get() + held, kReadChunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF; a read error ends the session the same way
    const size_t total = held + static_cast<size_t>(n);
    size_t begin = 0;     // start of the current line
    size_t from = held;   // the held tail has no '\n'
    while (const void* nl = std::memchr(buf.get() + from, '\n', total - from)) {
      const size_t eol = static_cast<size_t>(static_cast<const char*>(nl) -
                                             buf.get());
      if (skipping) {
        skipping = false;
      } else if (!answer({buf.get() + begin, eol - begin})) {
        WriteAll(out_fd, replies);
        return stats;
      }
      begin = from = eol + 1;
    }
    held = skipping ? 0 : total - begin;
    if (held > kMaxLineBytes) {
      answer({buf.get() + begin, held});  // rejected before its '\n'
      skipping = true;
      held = 0;
    }
    std::memmove(buf.get(), buf.get() + begin, held);
  }
  // A last line without '\n'.
  if (held > 0) answer({buf.get(), held});
  WriteAll(out_fd, replies);
  return stats;
}

namespace {

constexpr uint64_t kMaxU32 = std::numeric_limits<uint32_t>::max();
constexpr uint64_t kMaxU64 = std::numeric_limits<uint64_t>::max();
constexpr uint64_t kMaxInt = std::numeric_limits<int>::max();
// Worker-count ceiling for --threads and the positional count: far above
// any core count, low enough that a typo cannot ask for millions of
// threads.
constexpr uint64_t kMaxWorkers = 1024;

// "--flag=<uint>" value parse: false on empty, non-numeric, overflowing
// or out-of-[lo, hi] input.
bool ParseUintValue(std::string_view value, uint64_t lo, uint64_t hi,
                    uint64_t* out) {
  if (value.empty() ||
      value.find_first_not_of("0123456789") != std::string_view::npos) {
    return false;
  }
  uint64_t v = 0;
  for (char ch : value) {
    const uint64_t digit = static_cast<uint64_t>(ch - '0');
    if (v > (kMaxU64 - digit) / 10) return false;
    v = v * 10 + digit;
  }
  if (v < lo || v > hi) return false;
  *out = v;
  return true;
}

// True when `arg` is "<name><value>" with a value ParseUintValue accepts.
bool UintFlag(std::string_view arg, std::string_view name, uint64_t lo,
              uint64_t hi, uint64_t* out) {
  return arg.starts_with(name) &&
         ParseUintValue(arg.substr(name.size()), lo, hi, out);
}

}  // namespace

bool ParseServeFlag(std::string_view arg, EngineOptions* options) {
  EN_CHECK(options != nullptr);
  uint64_t v = 0;
  if (arg.starts_with("--metrics=")) {
    options->metrics_path = std::string(arg.substr(10));
  } else if (UintFlag(arg, "--metrics-interval=", 0, kMaxInt, &v)) {
    options->metrics_interval_ms = static_cast<int>(v);
  } else if (UintFlag(arg, "--flight-recorder=", 0, kMaxRecorderCapacity,
                      &v)) {
    options->telemetry.recorder_capacity = static_cast<size_t>(v);
  } else if (UintFlag(arg, "--slow-ms=", 0, kMaxU64 / 1000, &v)) {
    options->telemetry.slow_us = v * 1000;
  } else if (UintFlag(arg, "--sample=", 0, kMaxU32, &v)) {
    options->telemetry.sample_every = static_cast<uint32_t>(v);
  } else if (arg == "--no-telemetry") {
    options->telemetry.enabled = false;
  } else {
    return false;
  }
  return true;
}

Status ApplyServeEnv(EngineOptions* options) {
  EN_CHECK(options != nullptr);
  // Each variable is its flag's fallback, so one parser checks both.
  static constexpr std::pair<const char*, const char*> kEnvFlags[] = {
      {"ELITENET_METRICS", "--metrics="},
      {"ELITENET_METRICS_INTERVAL_MS", "--metrics-interval="},
      {"ELITENET_FLIGHT_RECORDER", "--flight-recorder="},
      {"ELITENET_SLOW_MS", "--slow-ms="},
  };
  for (const auto& [env, flag] : kEnvFlags) {
    const char* value = std::getenv(env);
    if (value == nullptr || *value == '\0') continue;
    std::string arg = flag;
    if (!ParseServeFlag(arg.append(value), options)) {
      std::string msg = "bad value in ";
      msg.append(env).append(": ").append(value);
      return Status::InvalidArgument(msg);
    }
  }
  return Status::OK();
}

Status ParseServeArgs(const std::string& graph_path, int argc,
                      const char* const* argv, RouterOptions* options) {
  EN_CHECK(options != nullptr);
  EN_RETURN_IF_ERROR(ApplyServeEnv(&options->engine));  // flags override
  options->num_shards = 0;  // unsharded unless --shards=N says otherwise
  bool widx = true;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    uint64_t v = 0;
    if (ParseServeFlag(arg, &options->engine)) continue;
    if (arg == "--no-widx") {
      widx = false;
    } else if ((!arg.starts_with('-') &&  // positional worker count
                ParseUintValue(arg, 1, kMaxWorkers, &v)) ||
               UintFlag(arg, "--threads=", 1, kMaxWorkers, &v)) {
      options->engine.threads = static_cast<int>(v);
    } else if (UintFlag(arg, "--cache=", 0, kMaxU64, &v)) {
      options->engine.cache_capacity = static_cast<size_t>(v);
    } else if (UintFlag(arg, "--shards=", 0, 255, &v)) {
      options->num_shards = static_cast<int>(v);
    } else {
      std::string msg = "unknown serve flag or bad value: ";
      msg.append(arg);
      return Status::InvalidArgument(msg);
    }
  }
  if (widx) {
    options->engine.warm_index_path = WarmIndexPathFor(graph_path);
    options->partition_path = PartitionPathFor(graph_path);
  }
  return Status::OK();
}

}  // namespace serve
}  // namespace elitenet
