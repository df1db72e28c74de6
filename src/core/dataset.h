// Dataset persistence: saves a generated study (graph + roles +
// popularity + profiles + bios + activity) to a directory of versioned
// binary/text files, and loads it back. Benches and examples use this to
// reuse a paper-scale generation run instead of regenerating; the layout
// is also the publishable form of the synthetic dataset (the paper
// intended to release its crawl "once we have pursued all our inquiries").
//
// Layout:
//   <dir>/graph.eng2       ENG2 CSR snapshot (graph/io.h), mapped zero-copy
//   <dir>/users.bin        versioned binary: roles, popularity, profiles
//   <dir>/bios.txt         one bio per line, in node-id order
//   <dir>/activity.csv     date,value rows
//   <dir>/MANIFEST         "elitenet-dataset v2", counts and checksums

#ifndef ELITENET_CORE_DATASET_H_
#define ELITENET_CORE_DATASET_H_

#include <string>

#include "gen/activity.h"
#include "gen/bios.h"
#include "gen/profiles.h"
#include "gen/verified_network.h"
#include "util/status.h"

namespace elitenet {
namespace core {

struct StudyDataset {
  gen::VerifiedNetwork network;
  std::vector<gen::UserProfile> profiles;
  gen::BioCorpus bios;
  gen::ActivitySeries activity;
};

/// Writes every dataset component under `dir` (created if missing).
Status SaveDataset(const StudyDataset& dataset, const std::string& dir);

/// Loads a dataset previously written by SaveDataset; validates the
/// manifest, per-file magic numbers, and cross-file size consistency.
Result<StudyDataset> LoadDataset(const std::string& dir);

/// What LoadAnyGraph actually did — the detected format, how many bytes
/// were read or mapped, and how long the load took. The same numbers are
/// recorded under the "serve.load" trace span and the serve.load_bytes /
/// serve.load_micros gauges, so cold-start cost is visible to the
/// observability layer.
struct GraphLoadInfo {
  /// "dataset-dir", "eng2-mmap", or "edge-list".
  std::string format;
  /// Size of the loaded file (for a dataset dir: its graph.eng2).
  uint64_t bytes = 0;
  double seconds = 0.0;
};

/// Loads a graph from any source the tools accept, with one dispatch
/// rule shared by `elitenet_cli` and the serving front-ends:
///   * a directory         -> SaveDataset layout; returns its graph,
///   * "*.eng" / "*.eng2"  -> ENG2 snapshot, mmapped zero-copy
///                            (graph/io.h MapBinary); any other bytes,
///                            a retired ENG1 file included, are
///                            Corruption,
///   * anything else       -> SNAP-style text edge list.
/// Corrupt inputs surface as a clean Status (Corruption/IoError) with no
/// partial graph. `info`, when non-null, receives what was detected.
Result<graph::DiGraph> LoadAnyGraph(const std::string& path,
                                    GraphLoadInfo* info = nullptr);

}  // namespace core
}  // namespace elitenet

#endif  // ELITENET_CORE_DATASET_H_
