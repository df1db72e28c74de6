// Network fingerprinting — the paper's concluding proposal: "the
// above-mentioned deviations likely constitute a unique fingerprint for
// verified users", usable to tell a verified-style network from generic
// ones and to drive "realistic synthetic network generation".
//
// A GraphFingerprint is the vector of the paper's headline statistics;
// Similarity() compares two fingerprints component-wise so a generated
// graph can be scored against the paper's published values.

#ifndef ELITENET_CORE_FINGERPRINT_H_
#define ELITENET_CORE_FINGERPRINT_H_

#include <string>

#include "analysis/components.h"
#include "graph/digraph.h"
#include "util/status.h"

namespace elitenet {
namespace core {

struct GraphFingerprint {
  double density = 0.0;
  double reciprocity = 0.0;
  double clustering = 0.0;
  double assortativity = 0.0;
  double giant_scc_fraction = 0.0;
  double mean_distance = 0.0;
  /// Out-degree power-law exponent (6.0 cap when no meaningful tail).
  double powerlaw_alpha = 0.0;
  /// Attracting components per node.
  double attracting_fraction = 0.0;

  std::string ToString() const;
};

struct FingerprintOptions {
  /// Sampling depths (fingerprints favor speed over precision).
  uint32_t distance_sources = 24;
  uint32_t clustering_samples = 4000;
  uint64_t seed = 99;
};

/// Measures the fingerprint of an arbitrary directed graph.
Result<GraphFingerprint> ComputeFingerprint(
    const graph::DiGraph& g, const FingerprintOptions& options = {});

/// The same fingerprint, bit for bit, from `g`'s strongly connected
/// components and reciprocity rate, which the caller has already
/// computed (the serving warm build holds both).
Result<GraphFingerprint> ComputeFingerprint(
    const graph::DiGraph& g, const analysis::ComponentLabeling& scc,
    double reciprocity, const FingerprintOptions& options = {});

/// The fingerprint the paper reports for the English verified network.
GraphFingerprint PaperFingerprint();

/// Similarity in [0, 1]: 1 - mean relative deviation over components
/// (clamped per-component at 1). Verified-like graphs score high against
/// PaperFingerprint(); ER/BA/WS graphs score visibly lower.
double FingerprintSimilarity(const GraphFingerprint& a,
                             const GraphFingerprint& b);

}  // namespace core
}  // namespace elitenet

#endif  // ELITENET_CORE_FINGERPRINT_H_
