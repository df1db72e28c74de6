// Line-protocol front-end: newline-delimited requests in, one JSON object
// per line out, over any FrontDoor (serve/front_door.h) — the static or
// live QueryEngine or the sharded router. `elitenet_cli serve` wires it
// to stdin/stdout; a socket accept loop can hand its FILE*s straight in.
//
// The one serve command line lives here too: ParseServeArgs accepts the
// positional worker count, --threads= --cache= --no-widx --shards=, and
// the telemetry flags, and rejects unknown flags and non-numeric,
// overflowing or out-of-range values.

#ifndef ELITENET_SERVE_SERVER_H_
#define ELITENET_SERVE_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "serve/front_door.h"
#include "serve/router.h"
#include "util/status.h"

namespace elitenet {
namespace serve {

struct ServeStats {
  uint64_t requests = 0;
  uint64_t errors = 0;
  uint64_t degraded = 0;
  uint64_t admin = 0;  ///< '#'-prefixed admin commands answered.
};

/// Longest request line ServeLines answers, in bytes without the '\n'.
/// Requests are under 100 bytes; the bound keeps one connection's input
/// buffer at this plus one read chunk.
inline constexpr size_t kMaxLineBytes = size_t{64} << 10;

/// Reads requests from `in` until EOF or a "quit" line, answering each on
/// `out`. Blank lines are skipped. '#' lines are admin commands
/// when the verb is recognized (#stats, #healthz, #recent [n], #slow [n],
/// #trace <id> — each answered with one JSON line off the query fast
/// path) and comments otherwise, preserving the old comment syntax.
/// Malformed requests and bad admin arguments produce
/// {"type":"error",...} lines, never a crash or a silent drop. A line
/// longer than kMaxLineBytes gets one InvalidArgument error line, is
/// counted as a malformed request, and is skipped through its '\n'. A
/// last line without '\n' is answered at EOF. Returns tallies for the
/// session. By the router's contract, a QueryEngine and a ShardedRouter
/// over the same graph write identical lines.
///
/// The loop works in batches on the descriptors under the FILE*s: one
/// read(2) of `in` brings a batch, its complete lines are answered in
/// order, and their replies leave in one write(2) of `out` — before
/// every read that may block, and at EOF or "quit". So an interactive
/// pipe still sees each reply at once, and a client with many lines in
/// flight costs one read and one write per batch. `in` must not have
/// been read through stdio (its FILE buffer would be skipped); `out` is
/// flushed once on entry, so what the caller wrote to it comes first.
/// A failed write ends the session.
ServeStats ServeLines(FrontDoor* front, std::FILE* in, std::FILE* out);

/// Parses one telemetry-related command-line flag into `options`:
///   --metrics=<path> --metrics-interval=<ms> --flight-recorder=<K>
///   --slow-ms=<t> --sample=<N> --no-telemetry
/// Returns false (options untouched) when `arg` is not one of these or
/// its value is non-numeric, overflows, or is out of range (the flight
/// recorder is capped at kMaxRecorderCapacity).
bool ParseServeFlag(std::string_view arg, EngineOptions* options);

/// Applies the telemetry environment fallbacks (ELITENET_METRICS,
/// ELITENET_METRICS_INTERVAL_MS, ELITENET_FLIGHT_RECORDER,
/// ELITENET_SLOW_MS) — StudyConfig parity for the serving front-end.
/// Values are checked like the matching flags; a bad one is
/// InvalidArgument. Call before flag parsing so explicit flags win.
Status ApplyServeEnv(EngineOptions* options);

/// Parses the `elitenet_cli serve` arguments that follow <graph>, after
/// the environment fallbacks. Engine and telemetry flags land in
/// `options->engine`. options->num_shards is the --shards value, 1..255,
/// or 0 (the default here) to serve unsharded through a QueryEngine.
/// Unless --no-widx, the warm-index and partition sidecar paths are
/// derived from `graph_path`. InvalidArgument names the first bad
/// argument.
Status ParseServeArgs(const std::string& graph_path, int argc,
                      const char* const* argv, RouterOptions* options);

}  // namespace serve
}  // namespace elitenet

#endif  // ELITENET_SERVE_SERVER_H_
