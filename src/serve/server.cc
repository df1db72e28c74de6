#include "serve/server.h"

#include <cstdlib>
#include <limits>
#include <string>
#include <utility>

#include "serve/partition.h"
#include "serve/warm_index_cache.h"
#include "util/check.h"
#include "util/string_utils.h"

namespace elitenet {
namespace serve {

ServeStats ServeLines(FrontDoor* front, std::FILE* in, std::FILE* out) {
  EN_CHECK(front != nullptr);
  EN_CHECK(in != nullptr);
  EN_CHECK(out != nullptr);
  ServeStats stats;
  std::string line;
  int c;
  bool eof = false;
  while (!eof) {
    line.clear();
    while ((c = std::fgetc(in)) != EOF && c != '\n') {
      line += static_cast<char>(c);
    }
    if (c == EOF) {
      eof = true;
      if (line.empty()) break;
    }
    const std::string_view stripped = util::StripAsciiWhitespace(line);
    if (stripped.empty()) continue;
    if (stripped.front() == '#') {
      // Admin channel: recognized verbs are answered (off the query fast
      // path — they only read telemetry rings and counters); anything
      // else keeps working as a comment.
      auto cmd = ParseAdminLine(stripped);
      if (cmd.ok()) {
        ++stats.admin;
        const std::string json = front->AdminResponse(*cmd);
        std::fprintf(out, "%s\n", json.c_str());
        std::fflush(out);
      } else if (cmd.status().code() == StatusCode::kInvalidArgument) {
        ++stats.admin;
        ++stats.errors;
        const std::string json = ErrorJson(
            StatusCodeToString(cmd.status().code()), cmd.status().message());
        std::fprintf(out, "%s\n", json.c_str());
        std::fflush(out);
      }
      continue;
    }
    if (stripped == "quit") break;
    const QueryResponse resp = front->ExecuteLine(stripped);
    ++stats.requests;
    if (!resp.ok) ++stats.errors;
    if (resp.degraded) ++stats.degraded;
    std::fprintf(out, "%s\n", resp.json.c_str());
    std::fflush(out);
  }
  return stats;
}

namespace {

constexpr uint64_t kMaxU32 = std::numeric_limits<uint32_t>::max();
constexpr uint64_t kMaxU64 = std::numeric_limits<uint64_t>::max();
constexpr uint64_t kMaxInt = std::numeric_limits<int>::max();
// Worker-count ceiling for --threads, the positional count and
// --shard-threads: far above any core count, low enough that a typo
// cannot ask for millions of threads.
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
    if (!ParseServeFlag(std::string(flag) + value, options)) {
      return Status::InvalidArgument(std::string("bad value in ") + env +
                                     ": " + value);
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
    } else if (UintFlag(arg, "--shard-threads=", 1, kMaxWorkers, &v)) {
      options->shard_threads = static_cast<int>(v);
    } else {
      return Status::InvalidArgument(
          "unknown serve flag or bad value: " + std::string(arg));
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
