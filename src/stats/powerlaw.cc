#include "stats/powerlaw.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/optimize.h"
#include "stats/special.h"
#include "util/check.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace elitenet {
namespace stats {

namespace {

// P(X >= x) of a discrete fit whose normalizer ζ(α, xmin) the caller has
// already evaluated; PowerLawSurvival and the KS pass share this formula.
double DiscreteSurvival(const PowerLawFit& fit, double zeta_xmin, double x) {
  if (x <= fit.xmin) return 1.0;
  // P(X >= x) = ζ(α, ceil(x)) / ζ(α, xmin).
  return HurwitzZeta(fit.alpha, std::ceil(x)) / zeta_xmin;
}

// KS distance between the sorted empirical tail and the fitted model CDF.
// Ties are grouped: for discrete data the empirical CDF steps once per
// distinct value, and the model CDF F(k) = P(X <= k) = 1 - S(k + 1) is
// compared at the step. (Comparing per-index stairs against the left
// limit would report a spurious distance of up to pmf(xmin) on heavily
// tied discrete samples.) `zeta_xmin` is ζ(α, xmin) for a discrete fit
// and unused otherwise. The pass stops as soon as the running maximum
// reaches `cutoff`, returning that partial maximum (>= cutoff).
double KsDistance(std::span<const double> tail, const PowerLawFit& fit,
                  double zeta_xmin, double cutoff) {
  const double n = static_cast<double>(tail.size());
  double worst = 0.0;
  size_t i = 0;
  while (i < tail.size()) {
    size_t j = i;
    while (j + 1 < tail.size() && tail[j + 1] == tail[i]) ++j;
    const double value = tail[i];
    const double emp_before = static_cast<double>(i) / n;
    const double emp_after = static_cast<double>(j + 1) / n;
    double model_cdf;
    if (fit.discrete) {
      model_cdf = 1.0 - DiscreteSurvival(fit, zeta_xmin, value + 1.0);
    } else {
      model_cdf = 1.0 - PowerLawSurvival(fit, value);
      // Continuous CDF is compared against both stair edges.
      worst = std::max(worst, std::fabs(model_cdf - emp_before));
    }
    worst = std::max(worst, std::fabs(model_cdf - emp_after));
    if (worst >= cutoff) return worst;
    i = j + 1;
  }
  return worst;
}

constexpr double kNoCutoff = std::numeric_limits<double>::infinity();

std::vector<double> Logs(std::span<const double> values) {
  std::vector<double> logs;
  logs.reserve(values.size());
  for (double x : values) logs.push_back(std::log(x));
  return logs;
}

// The per-tail fits. `tail` is ascending and holds exactly the
// observations >= xmin; `tail_logs` holds log x of each, in the same
// order. Every sum runs over them in order, so a suffix of one sorted
// array (and of its logs) gives the same bits as a freshly sorted copy
// of the tail. `ks_cutoff` is passed to KsDistance: a fit whose KS pass
// stopped early has a partial ks_distance >= ks_cutoff and is only good
// for losing a strict `<` comparison.
Result<PowerLawFit> FitDiscreteTail(std::span<const double> tail,
                                    std::span<const double> tail_logs,
                                    double xmin, const PowerLawOptions& opts,
                                    double ks_cutoff) {
  if (xmin < 1.0) {
    return Status::InvalidArgument("discrete fit requires xmin >= 1");
  }
  if (tail.empty()) return Status::InvalidArgument("empty tail");

  double sum_log = 0.0;
  for (double log_x : tail_logs) sum_log += log_x;
  const double n = static_cast<double>(tail.size());

  // Maximize the log-likelihood over alpha (negate for the minimizer).
  const auto neg_ll = [&](double a) {
    return n * std::log(HurwitzZeta(a, xmin)) + a * sum_log;
  };
  const ScalarMin m =
      MinimizeGoldenSection(neg_ll, opts.alpha_min, opts.alpha_max, 1e-8);

  PowerLawFit fit;
  fit.alpha = m.x;
  fit.xmin = xmin;
  fit.discrete = true;
  fit.tail_n = tail.size();
  // L = -n ln ζ(α, xmin) - α Σ ln x_i.
  const double zeta_xmin = HurwitzZeta(fit.alpha, xmin);
  fit.log_likelihood = -n * std::log(zeta_xmin) - fit.alpha * sum_log;
  fit.ks_distance = KsDistance(tail, fit, zeta_xmin, ks_cutoff);
  return fit;
}

Result<PowerLawFit> FitContinuousTail(std::span<const double> tail,
                                      double xmin, const PowerLawOptions& opts,
                                      double ks_cutoff) {
  if (xmin <= 0.0) {
    return Status::InvalidArgument("continuous fit requires xmin > 0");
  }
  if (tail.empty()) return Status::InvalidArgument("empty tail");

  double sum_log_ratio = 0.0;
  for (double x : tail) sum_log_ratio += std::log(x / xmin);
  if (sum_log_ratio <= 0.0) {
    return Status::FailedPrecondition("degenerate tail (all values == xmin)");
  }
  const double n = static_cast<double>(tail.size());
  PowerLawFit fit;
  fit.alpha = 1.0 + n / sum_log_ratio;
  fit.alpha = std::clamp(fit.alpha, opts.alpha_min, opts.alpha_max);
  fit.xmin = xmin;
  fit.discrete = false;
  fit.tail_n = tail.size();
  // L = n ln((α - 1) / xmin) - α Σ ln(x_i / xmin).
  fit.log_likelihood =
      n * std::log((fit.alpha - 1.0) / xmin) - fit.alpha * sum_log_ratio;
  fit.ks_distance = KsDistance(tail, fit, 0.0, ks_cutoff);
  return fit;
}

// The sample sorted ascending, for ScanXmin.
Result<std::vector<double>> SortedSample(std::span<const double> data) {
  if (data.empty()) return Status::InvalidArgument("empty sample");
  std::vector<double> sorted(data.begin(), data.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.front() <= 0.0) {
    return Status::InvalidArgument("power-law fit requires positive data");
  }
  return sorted;
}

// The xmin scan over the sorted sample: each candidate is the first
// index of a distinct value, and its tail is the suffix from there. A
// candidate's KS pass stops once it reaches the best KS so far: under the
// strict `<` below it could no longer win, so the earliest of tied
// candidates still wins and the winner's fit is always complete.
template <typename FitTailFn>
Result<PowerLawFit> ScanXmin(std::span<const double> sorted,
                             const PowerLawOptions& opts, FitTailFn fit_tail) {
  // Start index of each distinct value whose tail keeps min_tail_n
  // observations (the largest values leave too small a tail).
  std::vector<size_t> starts;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if ((i == 0 || sorted[i] != sorted[i - 1]) &&
        sorted.size() - i >= opts.min_tail_n) {
      starts.push_back(i);
    }
  }
  if (starts.empty()) {
    return Status::FailedPrecondition(
        "no xmin candidate leaves enough tail observations");
  }
  if (opts.max_xmin_candidates > 0 &&
      starts.size() > opts.max_xmin_candidates) {
    std::vector<size_t> sub;
    sub.reserve(opts.max_xmin_candidates);
    const double stride = static_cast<double>(starts.size()) /
                          static_cast<double>(opts.max_xmin_candidates);
    for (size_t i = 0; i < opts.max_xmin_candidates; ++i) {
      sub.push_back(starts[static_cast<size_t>(i * stride)]);
    }
    starts.swap(sub);
  }

  PowerLawFit best;
  bool have_best = false;
  for (size_t start : starts) {
    Result<PowerLawFit> fit =
        fit_tail(sorted.subspan(start), sorted[start], opts,
                 have_best ? best.ks_distance : kNoCutoff);
    if (!fit.ok()) continue;
    if (!have_best || fit->ks_distance < best.ks_distance) {
      best = *fit;
      have_best = true;
    }
  }
  if (!have_best) {
    return Status::Internal("all xmin candidates failed to fit");
  }
  return best;
}

}  // namespace

std::vector<double> TailOf(std::span<const double> data, double xmin) {
  std::vector<double> tail;
  for (double x : data) {
    if (x >= xmin) tail.push_back(x);
  }
  std::sort(tail.begin(), tail.end());
  return tail;
}

Result<PowerLawFit> FitDiscreteAlpha(std::span<const double> data,
                                     double xmin,
                                     const PowerLawOptions& opts) {
  const std::vector<double> tail = TailOf(data, xmin);
  return FitDiscreteTail(tail, Logs(tail), xmin, opts, kNoCutoff);
}

Result<PowerLawFit> FitContinuousAlpha(std::span<const double> data,
                                       double xmin,
                                       const PowerLawOptions& opts) {
  return FitContinuousTail(TailOf(data, xmin), xmin, opts, kNoCutoff);
}

Result<PowerLawFit> FitDiscrete(std::span<const double> data,
                                const PowerLawOptions& opts) {
  EN_ASSIGN_OR_RETURN(const std::vector<double> sorted, SortedSample(data));
  // log x of the whole sample, taken once; a tail's logs are its suffix.
  const std::vector<double> logs = Logs(sorted);
  const std::span<const double> all_logs(logs);
  return ScanXmin(sorted, opts,
                  [&](std::span<const double> tail, double xmin,
                      const PowerLawOptions& o, double cutoff) {
                    return FitDiscreteTail(tail, all_logs.last(tail.size()),
                                           xmin, o, cutoff);
                  });
}

Result<PowerLawFit> FitContinuous(std::span<const double> data,
                                  const PowerLawOptions& opts) {
  EN_ASSIGN_OR_RETURN(const std::vector<double> sorted, SortedSample(data));
  return ScanXmin(sorted, opts, FitContinuousTail);
}

double PowerLawSurvival(const PowerLawFit& fit, double x) {
  if (x <= fit.xmin) return 1.0;
  if (fit.discrete) {
    return DiscreteSurvival(fit, HurwitzZeta(fit.alpha, fit.xmin), x);
  }
  return std::pow(x / fit.xmin, 1.0 - fit.alpha);
}

double SamplePowerLaw(const PowerLawFit& fit, util::Rng* rng) {
  if (!fit.discrete) {
    return rng->Pareto(fit.alpha, fit.xmin);
  }
  return static_cast<double>(SampleZeta(
      fit.alpha, static_cast<uint64_t>(std::llround(fit.xmin)), rng));
}

uint64_t SampleZeta(double alpha, uint64_t kmin, util::Rng* rng) {
  EN_CHECK(kmin >= 1);
  EN_CHECK(alpha > 1.0);
  double u;
  do {
    u = rng->UniformDouble();
  } while (u <= 0.0);
  const double denom = HurwitzZeta(alpha, static_cast<double>(kmin));
  // Survival S(k) = P(X >= k) = ζ(α, k) / ζ(α, kmin); S(kmin) = 1. Find
  // the smallest k with S(k + 1) < u, i.e. CDF(k) >= 1 - u.
  auto survival = [&](uint64_t k) {
    return HurwitzZeta(alpha, static_cast<double>(k)) / denom;
  };
  // Exponential doubling to bracket, then binary search.
  uint64_t lo = kmin;          // S(lo) >= u always
  uint64_t hi = kmin * 2 + 1;  // find hi with S(hi + 1) < u
  while (survival(hi + 1) >= u) {
    lo = hi;
    hi *= 2;
    if (hi > (uint64_t{1} << 60)) break;  // absurd tail; clamp
  }
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (survival(mid + 1) >= u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::vector<double> PointwiseLogLikelihood(std::span<const double> tail,
                                           const PowerLawFit& fit) {
  std::vector<double> ll;
  ll.reserve(tail.size());
  if (fit.discrete) {
    const double log_zeta = std::log(HurwitzZeta(fit.alpha, fit.xmin));
    for (double x : tail) {
      ll.push_back(-fit.alpha * std::log(x) - log_zeta);
    }
  } else {
    const double log_norm = std::log((fit.alpha - 1.0) / fit.xmin);
    for (double x : tail) {
      ll.push_back(log_norm - fit.alpha * std::log(x / fit.xmin));
    }
  }
  return ll;
}

Result<GoodnessOfFit> BootstrapGoodness(std::span<const double> data,
                                        const PowerLawFit& fit,
                                        int replicates, util::Rng* rng,
                                        const PowerLawOptions& opts) {
  ELITENET_SPAN("stats.bootstrap_goodness");
  if (replicates <= 0) {
    return Status::InvalidArgument("replicates must be positive");
  }
  ELITENET_COUNT("stats.bootstrap.replicates", replicates);
  std::vector<double> body;
  uint64_t tail_count = 0;
  for (double x : data) {
    if (x >= fit.xmin) {
      ++tail_count;
    } else {
      body.push_back(x);
    }
  }
  if (tail_count == 0) return Status::InvalidArgument("fit has empty tail");
  const double p_tail =
      static_cast<double>(tail_count) / static_cast<double>(data.size());

  // Replicates are independent tasks. Each draws from its own RNG
  // substream keyed by the replicate index, so the p-value is
  // bit-identical for any thread count (and failed refits stay attributed
  // to the same replicate). The caller's generator is advanced exactly
  // once, to derive the base seed.
  const uint64_t base_seed = rng->Next();
  std::vector<uint8_t> exceeded(static_cast<size_t>(replicates), 0);
  util::ParallelFor(
      0, static_cast<size_t>(replicates), 1, [&](size_t lo, size_t hi) {
        std::vector<double> synthetic(data.size());
        for (size_t r = lo; r < hi; ++r) {
          util::Rng rep_rng(util::SubstreamSeed(base_seed, r));
          for (double& x : synthetic) {
            if (body.empty() || rep_rng.Bernoulli(p_tail)) {
              x = SamplePowerLaw(fit, &rep_rng);
            } else {
              x = body[rep_rng.UniformU64(body.size())];
            }
          }
          const Result<PowerLawFit> refit =
              fit.discrete ? FitDiscrete(synthetic, opts)
                           : FitContinuous(synthetic, opts);
          if (!refit.ok()) continue;
          if (refit->ks_distance >= fit.ks_distance) exceeded[r] = 1;
        }
      });
  int exceed = 0;
  for (uint8_t e : exceeded) exceed += e;
  GoodnessOfFit out;
  out.replicates = replicates;
  out.p_value = static_cast<double>(exceed) / static_cast<double>(replicates);
  return out;
}

}  // namespace stats
}  // namespace elitenet
