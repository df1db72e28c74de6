// Property-based sweeps over the statistical estimators: recovery of
// planted parameters across a grid of exponents, thresholds and sample
// sizes, plus invariances the estimators must respect.

#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "stats/correlation.h"
#include "stats/descriptive.h"
#include "stats/powerlaw.h"
#include "timeseries/acf.h"
#include "timeseries/adf.h"
#include "timeseries/pelt.h"
#include "util/rng.h"

namespace elitenet {
namespace {

// ---- Power-law recovery across (alpha, kmin) grid -------------------------

class PowerLawRecoveryTest
    : public testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(PowerLawRecoveryTest, DiscreteMleWithinTolerance) {
  const auto& [alpha, kmin] = GetParam();
  util::Rng rng(1000 + static_cast<uint64_t>(alpha * 100) + kmin);
  std::vector<double> data;
  for (int i = 0; i < 20000; ++i) {
    data.push_back(static_cast<double>(stats::SampleZeta(alpha, kmin, &rng)));
  }
  auto fit = stats::FitDiscreteAlpha(data, static_cast<double>(kmin));
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->alpha, alpha, 0.07) << "alpha=" << alpha
                                       << " kmin=" << kmin;
  EXPECT_LT(fit->ks_distance, 0.02);
}

TEST_P(PowerLawRecoveryTest, ContinuousMleWithinTolerance) {
  const auto& [alpha, kmin] = GetParam();
  util::Rng rng(2000 + static_cast<uint64_t>(alpha * 100) + kmin);
  std::vector<double> data;
  for (int i = 0; i < 20000; ++i) {
    data.push_back(rng.Pareto(alpha, static_cast<double>(kmin)));
  }
  auto fit = stats::FitContinuousAlpha(data, static_cast<double>(kmin));
  ASSERT_TRUE(fit.ok());
  EXPECT_NEAR(fit->alpha, alpha, 0.06);
  EXPECT_LT(fit->ks_distance, 0.02);
}

INSTANTIATE_TEST_SUITE_P(
    AlphaKminGrid, PowerLawRecoveryTest,
    testing::Combine(testing::Values(2.2, 2.8, 3.24, 4.0),
                     testing::Values<uint64_t>(1, 10, 100)),
    [](const testing::TestParamInfo<PowerLawRecoveryTest::ParamType>&
           info) {
      std::string name = "a";
      name += std::to_string(static_cast<int>(std::get<0>(info.param) * 100));
      name += "_k";
      name += std::to_string(std::get<1>(info.param));
      return name;
    });

// ---- ADF decision grid -----------------------------------------------------

class AdfDecisionTest : public testing::TestWithParam<double> {};

TEST_P(AdfDecisionTest, StationaryAr1AlwaysRejectsUnitRoot) {
  const double phi = GetParam();
  util::Rng rng(static_cast<uint64_t>(phi * 1000) + 7);
  std::vector<double> s;
  double x = 0.0;
  for (int i = 0; i < 500; ++i) {
    x = phi * x + rng.Normal();
    s.push_back(x);
  }
  auto r = timeseries::AdfTest(s);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->stationary_at_5pct) << "phi=" << phi;
  // The statistic weakens monotonically in persistence, staying negative.
  EXPECT_LT(r->statistic, -3.0);
}

INSTANTIATE_TEST_SUITE_P(PersistenceGrid, AdfDecisionTest,
                         testing::Values(0.0, 0.3, 0.5, 0.7, 0.85),
                         [](const auto& info) {
                           return "phi" + std::to_string(static_cast<int>(
                                              info.param * 100));
                         });

// ---- PELT shift-size sensitivity -------------------------------------------

class PeltShiftTest : public testing::TestWithParam<double> {};

TEST_P(PeltShiftTest, ShiftLocationWithinTolerance) {
  const double shift = GetParam();
  util::Rng rng(static_cast<uint64_t>(shift * 10) + 31);
  std::vector<double> s;
  for (int i = 0; i < 150; ++i) s.push_back(rng.Normal());
  for (int i = 0; i < 150; ++i) s.push_back(shift + rng.Normal());
  auto r = timeseries::Pelt(s);
  ASSERT_TRUE(r.ok());
  ASSERT_GE(r->change_points.size(), 1u) << "shift=" << shift;
  bool near = false;
  for (size_t cp : r->change_points) {
    near |= cp >= 144 && cp <= 156;
  }
  EXPECT_TRUE(near) << "shift=" << shift;
}

INSTANTIATE_TEST_SUITE_P(ShiftGrid, PeltShiftTest,
                         testing::Values(2.0, 4.0, 8.0),
                         [](const auto& info) {
                           std::string name = "d";
                           name += std::to_string(
                               static_cast<int>(info.param * 10));
                           return name;
                         });

// ---- Estimator invariances --------------------------------------------------

TEST(StatsInvarianceTest, SpearmanInvariantUnderMonotoneTransforms) {
  util::Rng rng(3);
  std::vector<double> x, y, fx, gy;
  for (int i = 0; i < 3000; ++i) {
    const double a = rng.Normal();
    const double b = 0.6 * a + 0.8 * rng.Normal();
    x.push_back(a);
    y.push_back(b);
    fx.push_back(std::exp(a));               // strictly increasing
    gy.push_back(std::atan(b) * 3.0 + 1.0);  // strictly increasing
  }
  EXPECT_NEAR(stats::SpearmanCorrelation(x, y),
              stats::SpearmanCorrelation(fx, gy), 1e-12);
}

TEST(StatsInvarianceTest, AcfInvariantUnderAffineTransforms) {
  util::Rng rng(5);
  std::vector<double> s, t;
  double x = 0.0;
  for (int i = 0; i < 500; ++i) {
    x = 0.6 * x + rng.Normal();
    s.push_back(x);
    t.push_back(-3.0 * x + 17.0);
  }
  auto rs = timeseries::Autocorrelation(s, 10);
  auto rt = timeseries::Autocorrelation(t, 10);
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(rt.ok());
  for (int k = 0; k < 10; ++k) {
    EXPECT_NEAR((*rs)[k], (*rt)[k], 1e-10);
  }
}

TEST(StatsInvarianceTest, PeltInvariantUnderScaling) {
  util::Rng rng(7);
  std::vector<double> s;
  for (int i = 0; i < 100; ++i) s.push_back(rng.Normal());
  for (int i = 0; i < 100; ++i) s.push_back(6.0 + rng.Normal());
  std::vector<double> scaled;
  for (double v : s) scaled.push_back(2.5 * v - 40.0);
  auto r1 = timeseries::Pelt(s);
  auto r2 = timeseries::Pelt(scaled);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // The Normal cost is affine-equivariant: same change-points.
  EXPECT_EQ(r1->change_points, r2->change_points);
}

TEST(StatsInvarianceTest, GiniScaleInvariant) {
  util::Rng rng(9);
  std::vector<double> xs, scaled;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.LogNormal(0.0, 1.0);
    xs.push_back(v);
    scaled.push_back(7.0 * v);
  }
  EXPECT_NEAR(stats::Gini(xs), stats::Gini(scaled), 1e-12);
}

TEST(StatsInvarianceTest, QuantilesMonotoneInQ) {
  util::Rng rng(11);
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.Normal());
  double prev = stats::Quantile(xs, 0.0);
  for (double q = 0.1; q <= 1.0; q += 0.1) {
    const double cur = stats::Quantile(xs, q);
    EXPECT_GE(cur, prev);
    prev = cur;
  }
}

}  // namespace
}  // namespace elitenet
