// Fused basic statistics over the CSR — one sweep instead of seven.
//
// ComputeDegreeStats, ComputeReciprocity, and ComputeAssortativity are
// each already sequential CSR scans, but running them separately walks
// the edge arrays seven times (assortativity alone makes five passes,
// one per degree-mode flavour). On an mmapped 10M-node snapshot that is
// seven trips through the page cache for one report. This kernel fuses
// all of them into a single pass: nodes are processed in ascending order,
// each CSR row is read exactly once, and the only state carried from one
// node to the next is O(1) accumulators — no O(n) or O(m) scratch.
//
// Bit-identity contract: the fused pass accumulates every statistic in
// exactly the order the standalone kernels do — nodes ascending, out-
// edges in CSR order, and each assortativity mode's floating-point sums
// updated per edge in that same sequence. Identical addition order means
// identical rounding, so the results equal the standalone kernels' to
// the last bit (asserted by streamed_stats_test and bench_basic_stats
// --verify-stream).

#ifndef ELITENET_ANALYSIS_STREAMED_STATS_H_
#define ELITENET_ANALYSIS_STREAMED_STATS_H_

#include <cstdint>

#include "analysis/assortativity.h"
#include "analysis/degree.h"
#include "analysis/reciprocity.h"
#include "graph/digraph.h"
#include "util/status.h"

namespace elitenet {
namespace analysis {

struct StreamedBasicStats {
  DegreeStats degrees;
  ReciprocityStats reciprocity;
  AssortativityReport assortativity;
};

/// One fused pass over `g`. Results are bit-identical to
/// ComputeDegreeStats + ComputeReciprocity + ComputeAssortativity.
StreamedBasicStats ComputeStreamedBasicStats(const graph::DiGraph& g);

}  // namespace analysis
}  // namespace elitenet

#endif  // ELITENET_ANALYSIS_STREAMED_STATS_H_
