// Power-law fitting per Clauset, Shalizi & Newman (2009) — the method the
// paper uses (via Nepusz's plfit / R poweRlaw) for the out-degree and
// Laplacian-eigenvalue distributions in Section IV-B.
//
// Pipeline: (1) for each candidate xmin, fit alpha on the tail by maximum
// likelihood; (2) choose the xmin minimizing the Kolmogorov–Smirnov
// distance between the empirical tail and the fitted model; (3) assess
// goodness of fit with a parametric bootstrap p-value (p > 0.1 ⇒ the
// power law is plausible).
//
// The xmin scan sorts the data once. Each candidate is a distinct value,
// and its tail is the suffix of that one sorted array from the value's
// first index: the same values in the same order as a sorted copy of the
// tail, so every sum is bit-identical to fitting that copy. Per
// candidate, Σ ln x is summed once (for the MLE and the log-likelihood),
// and a discrete fit evaluates ζ(α, xmin) once (for the log-likelihood
// and every KS step). A candidate's KS pass stops as soon as its running
// maximum reaches the best KS so far: the scan keeps a candidate only if
// its KS is strictly smaller, so the stopped one could not have won. The
// winner's fit is always complete, and the earliest of tied candidates
// wins.

#ifndef ELITENET_STATS_POWERLAW_H_
#define ELITENET_STATS_POWERLAW_H_

#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.h"
#include "util/status.h"

namespace elitenet {
namespace stats {

/// A fitted power law p(x) ~ x^-alpha for x >= xmin.
struct PowerLawFit {
  double alpha = 0.0;
  double xmin = 0.0;
  /// Kolmogorov–Smirnov distance between the empirical tail and the fit.
  double ks_distance = 0.0;
  /// Number of observations in the tail (x >= xmin).
  uint64_t tail_n = 0;
  /// Log-likelihood of the tail under the fit.
  double log_likelihood = 0.0;
  /// True if the data were treated as discrete (integer) values.
  bool discrete = false;
};

struct PowerLawOptions {
  /// Search range for alpha.
  double alpha_min = 1.01;
  double alpha_max = 6.0;
  /// Cap on the number of distinct xmin candidates scanned (evenly
  /// subsampled from the distinct values when exceeded). 0 = no cap.
  size_t max_xmin_candidates = 250;
  /// Require at least this many tail observations for an xmin candidate.
  uint64_t min_tail_n = 10;
};

/// Fits alpha for a *fixed* xmin by discrete MLE: maximizes
/// L(a) = -n ln ζ(a, xmin) - a Σ ln x_i over the tail x >= xmin.
/// Requires at least one tail observation with x >= xmin >= 1. Sorts
/// the tail (TailOf), then runs the scan's own per-tail fit with the full
/// KS pass, so a fit at the xmin the scan chose equals its result bit
/// for bit.
Result<PowerLawFit> FitDiscreteAlpha(std::span<const double> data,
                                     double xmin,
                                     const PowerLawOptions& opts = {});

/// Fits alpha for a fixed xmin by the continuous closed form
/// a = 1 + n / Σ ln(x_i / xmin), through the same per-tail fit as the
/// scan.
Result<PowerLawFit> FitContinuousAlpha(std::span<const double> data,
                                       double xmin,
                                       const PowerLawOptions& opts = {});

/// Full CSN fit with xmin scan (discrete data: integer-valued counts such
/// as degrees). Candidates are the distinct values leaving at least
/// `min_tail_n` tail observations, evenly subsampled to
/// `max_xmin_candidates`; the result is the smallest KS, earliest first.
Result<PowerLawFit> FitDiscrete(std::span<const double> data,
                                const PowerLawOptions& opts = {});

/// Full CSN fit with xmin scan (continuous data such as eigenvalues).
Result<PowerLawFit> FitContinuous(std::span<const double> data,
                                  const PowerLawOptions& opts = {});

/// Parametric-bootstrap goodness of fit: semi-parametric resampling
/// (empirical body below xmin, fitted power law above), refit per
/// replicate, p = fraction of replicate KS distances >= observed.
/// p > 0.1 indicates the power law is a plausible fit (CSN convention).
struct GoodnessOfFit {
  double p_value = 0.0;
  int replicates = 0;
};
Result<GoodnessOfFit> BootstrapGoodness(std::span<const double> data,
                                        const PowerLawFit& fit,
                                        int replicates, util::Rng* rng,
                                        const PowerLawOptions& opts = {});

/// Pointwise log-likelihoods of the tail observations under the fit, in
/// tail order — input to the Vuong likelihood-ratio test.
std::vector<double> PointwiseLogLikelihood(std::span<const double> tail,
                                           const PowerLawFit& fit);

/// Model survival function P(X >= x) for x >= xmin.
double PowerLawSurvival(const PowerLawFit& fit, double x);

/// Draws one value from the fitted tail distribution. Discrete fits use
/// exact zeta-distribution inverse-CDF sampling (doubling + binary search
/// on the survival function), not the rounded-Pareto approximation — the
/// approximation's systematic bias is detectable by the Vuong test at
/// sample sizes in the thousands.
double SamplePowerLaw(const PowerLawFit& fit, util::Rng* rng);

/// Exact sample from the discrete power law P(k) ∝ k^-alpha, k >= kmin.
uint64_t SampleZeta(double alpha, uint64_t kmin, util::Rng* rng);

/// Extracts tail observations (x >= xmin), sorted ascending.
std::vector<double> TailOf(std::span<const double> data, double xmin);

}  // namespace stats
}  // namespace elitenet

#endif  // ELITENET_STATS_POWERLAW_H_
