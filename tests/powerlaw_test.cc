#include "stats/powerlaw.h"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gen/verified_network.h"
#include "stats/special.h"
#include "util/rng.h"

namespace elitenet {
namespace stats {
namespace {

std::vector<double> ZetaSample(double alpha, uint64_t kmin, int n,
                               uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    out.push_back(static_cast<double>(SampleZeta(alpha, kmin, &rng)));
  }
  return out;
}

std::vector<double> ParetoSample(double alpha, double xmin, int n,
                                 uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) out.push_back(rng.Pareto(alpha, xmin));
  return out;
}

TEST(SampleZetaTest, RespectsLowerBound) {
  util::Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_GE(SampleZeta(2.5, 10, &rng), 10u);
  }
}

TEST(SampleZetaTest, SurvivalMatchesModel) {
  // Empirical P(X >= 2 kmin) should match zeta(a, 2k)/zeta(a, k).
  const double alpha = 3.0;
  const uint64_t kmin = 5;
  util::Rng rng(17);
  int above = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) {
    if (SampleZeta(alpha, kmin, &rng) >= 2 * kmin) ++above;
  }
  const double expected = HurwitzZeta(alpha, 10.0) / HurwitzZeta(alpha, 5.0);
  EXPECT_NEAR(static_cast<double>(above) / n, expected, 0.01);
}

TEST(ContinuousAlphaTest, ClosedFormRecoversPlantedExponent) {
  const auto data = ParetoSample(2.5, 1.0, 50000, 7);
  auto fit = FitContinuousAlpha(data, 1.0);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->alpha, 2.5, 0.03);
  EXPECT_FALSE(fit->discrete);
  EXPECT_EQ(fit->tail_n, 50000u);
}

TEST(DiscreteAlphaTest, MleRecoversPlantedExponent) {
  const auto data = ZetaSample(3.24, 20, 20000, 11);
  auto fit = FitDiscreteAlpha(data, 20.0);
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->alpha, 3.24, 0.06);
  EXPECT_TRUE(fit->discrete);
}

TEST(DiscreteAlphaTest, RejectsBadInputs) {
  EXPECT_FALSE(FitDiscreteAlpha(std::vector<double>{}, 1.0).ok());
  EXPECT_FALSE(FitDiscreteAlpha(std::vector<double>{5.0}, 0.5).ok());
  EXPECT_FALSE(FitDiscreteAlpha(std::vector<double>{1.0, 2.0}, 10.0).ok());
}

TEST(XminScanTest, FindsPlantedThresholdInMixture) {
  // Body uniform on [1, 9], tail zeta above 10.
  util::Rng rng(13);
  std::vector<double> data;
  for (int i = 0; i < 6000; ++i) {
    data.push_back(1.0 + static_cast<double>(rng.UniformU64(9)));
  }
  for (int i = 0; i < 3000; ++i) {
    data.push_back(static_cast<double>(SampleZeta(2.8, 10, &rng)));
  }
  auto fit = FitDiscrete(data);
  ASSERT_TRUE(fit.ok());
  EXPECT_GE(fit->xmin, 9.0);
  EXPECT_LE(fit->xmin, 25.0);
  EXPECT_NEAR(fit->alpha, 2.8, 0.15);
}

TEST(XminScanTest, ContinuousMixture) {
  util::Rng rng(19);
  std::vector<double> data;
  for (int i = 0; i < 4000; ++i) data.push_back(rng.UniformDouble(0.1, 5.0));
  for (int i = 0; i < 3000; ++i) data.push_back(rng.Pareto(3.18, 6.0));
  auto fit = FitContinuous(data);
  ASSERT_TRUE(fit.ok());
  EXPECT_GE(fit->xmin, 4.5);
  EXPECT_LE(fit->xmin, 12.0);
  EXPECT_NEAR(fit->alpha, 3.18, 0.2);
}

TEST(XminScanTest, FailsOnNonPositiveData) {
  EXPECT_FALSE(FitDiscrete(std::vector<double>{0.0, 1.0, 2.0}).ok());
  EXPECT_FALSE(FitContinuous(std::vector<double>{-1.0, 2.0}).ok());
}

TEST(XminScanTest, EmptyDataRejected) {
  EXPECT_FALSE(FitDiscrete(std::vector<double>{}).ok());
}

TEST(SurvivalTest, ContinuousFormula) {
  PowerLawFit fit;
  fit.alpha = 3.0;
  fit.xmin = 2.0;
  fit.discrete = false;
  EXPECT_DOUBLE_EQ(PowerLawSurvival(fit, 2.0), 1.0);
  EXPECT_DOUBLE_EQ(PowerLawSurvival(fit, 4.0), 0.25);  // (x/xmin)^{1-a}
  EXPECT_DOUBLE_EQ(PowerLawSurvival(fit, 1.0), 1.0);   // below xmin
}

TEST(SurvivalTest, DiscreteMonotoneAndNormalized) {
  PowerLawFit fit;
  fit.alpha = 2.5;
  fit.xmin = 3.0;
  fit.discrete = true;
  EXPECT_DOUBLE_EQ(PowerLawSurvival(fit, 3.0), 1.0);
  double prev = 1.0;
  for (double x = 4.0; x < 50.0; x += 1.0) {
    const double s = PowerLawSurvival(fit, x);
    EXPECT_LT(s, prev);
    EXPECT_GT(s, 0.0);
    prev = s;
  }
}

TEST(KsDistanceTest, GoodFitHasSmallKs) {
  const auto data = ZetaSample(2.6, 15, 10000, 23);
  auto fit = FitDiscreteAlpha(data, 15.0);
  ASSERT_TRUE(fit.ok());
  EXPECT_LT(fit->ks_distance, 0.02);
}

TEST(KsDistanceTest, WrongModelHasLargeKs) {
  // Geometric-ish data fit as power law at fixed xmin: bad KS.
  util::Rng rng(29);
  std::vector<double> data;
  for (int i = 0; i < 5000; ++i) {
    data.push_back(5.0 + static_cast<double>(rng.Geometric(0.02)));
  }
  auto fit = FitDiscreteAlpha(data, 5.0);
  ASSERT_TRUE(fit.ok());
  EXPECT_GT(fit->ks_distance, 0.05);
}

TEST(PointwiseLogLikelihoodTest, SumsToFitLogLikelihood) {
  const auto data = ZetaSample(3.0, 8, 3000, 31);
  auto fit = FitDiscreteAlpha(data, 8.0);
  ASSERT_TRUE(fit.ok());
  const auto tail = TailOf(data, 8.0);
  const auto ll = PointwiseLogLikelihood(tail, *fit);
  double sum = 0.0;
  for (double v : ll) sum += v;
  EXPECT_NEAR(sum, fit->log_likelihood, 1e-6 * std::fabs(sum));
}

TEST(TailOfTest, FiltersAndSorts) {
  const std::vector<double> data{5.0, 1.0, 9.0, 3.0, 7.0};
  const auto tail = TailOf(data, 4.0);
  EXPECT_EQ(tail, (std::vector<double>{5.0, 7.0, 9.0}));
}

TEST(BootstrapTest, TruePowerLawGetsHighP) {
  const auto data = ZetaSample(2.7, 10, 3000, 37);
  auto fit = FitDiscrete(data);
  ASSERT_TRUE(fit.ok());
  util::Rng rng(41);
  auto gof = BootstrapGoodness(data, *fit, 20, &rng);
  ASSERT_TRUE(gof.ok());
  EXPECT_GT(gof->p_value, 0.1);  // CSN threshold: plausible power law
}

TEST(BootstrapTest, NonPowerLawGetsLowP) {
  // Poisson-like data: the scan finds some xmin but bootstrap rejects.
  util::Rng rng(43);
  std::vector<double> data;
  for (int i = 0; i < 4000; ++i) {
    data.push_back(1.0 + static_cast<double>(rng.Poisson(30.0)));
  }
  auto fit = FitDiscrete(data);
  ASSERT_TRUE(fit.ok());
  util::Rng rng2(47);
  auto gof = BootstrapGoodness(data, *fit, 20, &rng2);
  ASSERT_TRUE(gof.ok());
  EXPECT_LT(gof->p_value, 0.2);
}

TEST(BootstrapTest, RejectsNonPositiveReplicates) {
  const auto data = ZetaSample(2.7, 10, 500, 53);
  auto fit = FitDiscrete(data);
  ASSERT_TRUE(fit.ok());
  util::Rng rng(59);
  EXPECT_FALSE(BootstrapGoodness(data, *fit, 0, &rng).ok());
}

// Bit-for-bit goldens of the fit. Each value was recorded from the fit as
// it stood before the xmin scan moved onto suffix spans of one sorted
// array, so any change to the order of a sum, to which ζ values are
// evaluated, or to which candidate wins shows up here. Doubles compare by
// their bits.
struct FitBits {
  uint64_t alpha;
  uint64_t xmin;
  uint64_t ks_distance;
  uint64_t log_likelihood;
  uint64_t tail_n;
};

std::string Hex(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64,
                std::bit_cast<uint64_t>(v));
  return buf;
}

void ExpectFitBits(const PowerLawFit& fit, const FitBits& want) {
  EXPECT_EQ(std::bit_cast<uint64_t>(fit.alpha), want.alpha)
      << "alpha " << fit.alpha << " = " << Hex(fit.alpha);
  EXPECT_EQ(std::bit_cast<uint64_t>(fit.xmin), want.xmin)
      << "xmin " << fit.xmin << " = " << Hex(fit.xmin);
  EXPECT_EQ(std::bit_cast<uint64_t>(fit.ks_distance), want.ks_distance)
      << "ks " << fit.ks_distance << " = " << Hex(fit.ks_distance);
  EXPECT_EQ(std::bit_cast<uint64_t>(fit.log_likelihood), want.log_likelihood)
      << "ll " << fit.log_likelihood << " = " << Hex(fit.log_likelihood);
  EXPECT_EQ(fit.tail_n, want.tail_n);
}

// Positive out-degrees of the generator graph, as the fingerprint fits.
std::vector<double> GeneratorOutDegrees(uint32_t users) {
  gen::VerifiedNetworkConfig cfg;
  cfg.num_users = users;  // default seed 2018
  auto net = gen::GenerateVerifiedNetwork(cfg);
  EXPECT_TRUE(net.ok());
  std::vector<double> degrees;
  const graph::DiGraph& g = net->graph;
  for (graph::NodeId u = 0; u < g.num_nodes(); ++u) {
    if (g.OutDegree(u) > 0) degrees.push_back(g.OutDegree(u));
  }
  return degrees;
}

size_t DistinctCandidates(std::vector<double> data, uint64_t min_tail_n) {
  std::sort(data.begin(), data.end());
  size_t count = 0;
  for (size_t i = 0; i < data.size(); ++i) {
    if ((i == 0 || data[i] != data[i - 1]) && data.size() - i >= min_tail_n) {
      ++count;
    }
  }
  return count;
}

TEST(PowerLawGoldenTest, GeneratorOutDegrees10k) {
  const auto degrees = GeneratorOutDegrees(10000);
  auto fit = FitDiscrete(degrees);
  ASSERT_TRUE(fit.ok());
  EXPECT_TRUE(fit->discrete);
  ExpectFitBits(*fit, {
      0x4008466623fbb4b9, 0x4050800000000000, 0x3f963f5e20f74a40,
      0xc0a1c2918c80ba44, 458});
}

TEST(PowerLawGoldenTest, HeavilyTiedDiscrete) {
  // A handful of distinct values, thousands of copies of each.
  util::Rng rng(61);
  std::vector<double> data;
  for (int i = 0; i < 6000; ++i) {
    data.push_back(1.0 + static_cast<double>(rng.Geometric(0.45)));
  }
  ASSERT_LT(DistinctCandidates(data, 10), 20u);
  auto fit = FitDiscrete(data);
  ASSERT_TRUE(fit.ok());
  ExpectFitBits(*fit, {
      0x40147f4f89b6ebe5, 0x4018000000000000, 0x3fa47b6eebf9ea40,
      0xc07ca744458c11f8, 293});
}

TEST(PowerLawGoldenTest, SubsampledCandidates) {
  // Over 250 distinct values survive the tail-size filter, so the scan
  // takes every stride-th candidate.
  util::Rng rng(67);
  std::vector<double> data;
  for (int i = 0; i < 4000; ++i) {
    data.push_back(1.0 + static_cast<double>(rng.UniformU64(600)));
  }
  for (int i = 0; i < 2000; ++i) {
    data.push_back(static_cast<double>(SampleZeta(2.5, 600, &rng)));
  }
  ASSERT_GT(DistinctCandidates(data, 10), 250u);
  auto fit = FitDiscrete(data);
  ASSERT_TRUE(fit.ok());
  ExpectFitBits(*fit, {
      0x4004288827b13289, 0x4080700000000000, 0x3f8692993899ee50,
      0xc0d226b4a434f019, 2477});
}

TEST(PowerLawGoldenTest, EarliestOfTiedCandidatesWins) {
  // Two candidates survive the tail filter: xmin 1 (20 values, half of
  // them at 1) and xmin 2 (10 values, half of them at 2). Both KS
  // distances are the first stair, exactly 0.5, so the strict `<` of the
  // scan keeps the earlier one.
  std::vector<double> data(10, 1.0);
  data.insert(data.end(), 5, 2.0);
  for (double x : {3.0, 4.0, 5.0, 6.0, 7.0}) data.push_back(x);
  auto fit = FitContinuous(data);
  ASSERT_TRUE(fit.ok());
  auto later = FitContinuousAlpha(data, 2.0);
  ASSERT_TRUE(later.ok());
  EXPECT_EQ(later->ks_distance, fit->ks_distance);
  EXPECT_EQ(fit->xmin, 1.0);
  ExpectFitBits(*fit, {
      0x4006298029076818, 0x3ff0000000000000, 0x3fe0000000000000,
      0xc033e00b9276f883, 20});
}

TEST(PowerLawGoldenTest, ContinuousMixture) {
  util::Rng rng(19);
  std::vector<double> data;
  for (int i = 0; i < 4000; ++i) data.push_back(rng.UniformDouble(0.1, 5.0));
  for (int i = 0; i < 3000; ++i) data.push_back(rng.Pareto(3.18, 6.0));
  auto fit = FitContinuous(data);
  ASSERT_TRUE(fit.ok());
  EXPECT_FALSE(fit->discrete);
  ExpectFitBits(*fit, {
      0x4009abd71579853f, 0x40185cab475974c1, 0x3f801d2af119dc00,
      0xc0bbd97885928524, 2890});
}

TEST(PowerLawGoldenTest, FixedXminFits) {
  // The public fixed-xmin fits, with an xmin that is not a data value.
  const auto zeta = ZetaSample(2.9, 7, 4000, 71);
  auto discrete = FitDiscreteAlpha(zeta, 9.5);
  ASSERT_TRUE(discrete.ok());
  ExpectFitBits(*discrete, {
      0x4005d30be12db1e9, 0x4023000000000000, 0x3faa76a24de4bc5c,
      0xc0b8659ac4d9a104, 1932});
  const auto pareto = ParetoSample(2.4, 1.5, 4000, 73);
  auto continuous = FitContinuousAlpha(pareto, 2.0);
  ASSERT_TRUE(continuous.ok());
  ExpectFitBits(*continuous, {
      0x400363b25995e1ba, 0x4000000000000000, 0x3f84ba0ea4d949c0,
      0xc0b53a944a22ba3b, 2661});
}

TEST(PowerLawGoldenTest, BootstrapPValue) {
  // Discretized log-normal: the scan finds a tail, and the bootstrap
  // p-value lands mid-range, where a changed refit would move it.
  util::Rng rng(90);
  std::vector<double> data;
  for (int i = 0; i < 1500; ++i) {
    data.push_back(std::floor(std::exp(2.0 + 1.2 * rng.Normal())) + 1.0);
  }
  auto fit = FitDiscrete(data);
  ASSERT_TRUE(fit.ok());
  util::Rng boot(83);
  auto gof = BootstrapGoodness(data, *fit, 40, &boot);
  ASSERT_TRUE(gof.ok());
  EXPECT_EQ(gof->replicates, 40);
  EXPECT_EQ(std::bit_cast<uint64_t>(gof->p_value), 0x3fe0000000000000u)
      << gof->p_value << " = " << Hex(gof->p_value);
}

}  // namespace
}  // namespace stats
}  // namespace elitenet
