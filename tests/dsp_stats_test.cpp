// Unit tests for dsp statistics and similarity metrics.

#include "dsp/stats.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "dsp/rng.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

TEST(Stats, MeanOfKnownValues) {
  const std::vector<Real> x{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(dsp::mean(x), 2.5);
}

TEST(Stats, MeanOfEmptyIsZero) {
  EXPECT_DOUBLE_EQ(dsp::mean(std::vector<Real>{}), 0.0);
}

TEST(Stats, VarianceAndStdDev) {
  const std::vector<Real> x{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(dsp::variance(x), 4.0, 1e-12);
  EXPECT_NEAR(dsp::std_dev(x), 2.0, 1e-12);
}

TEST(Stats, VarianceOfSingletonIsZero) {
  EXPECT_DOUBLE_EQ(dsp::variance(std::vector<Real>{3.0}), 0.0);
}

TEST(Stats, RmsOfConstant) {
  const std::vector<Real> x(100, -2.0);
  EXPECT_NEAR(dsp::rms(x), 2.0, 1e-12);
}

TEST(Stats, MinMaxThrowOnEmpty) {
  const std::vector<Real> empty;
  EXPECT_THROW((void)dsp::min_value(empty), std::invalid_argument);
  EXPECT_THROW((void)dsp::max_value(empty), std::invalid_argument);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<Real> x{0.0, 1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(dsp::percentile(x, 0.0), 0.0, 1e-12);
  EXPECT_NEAR(dsp::percentile(x, 50.0), 2.0, 1e-12);
  EXPECT_NEAR(dsp::percentile(x, 100.0), 4.0, 1e-12);
  EXPECT_NEAR(dsp::percentile(x, 25.0), 1.0, 1e-12);
  EXPECT_THROW((void)dsp::percentile(x, 101.0), std::invalid_argument);
}

TEST(Stats, PearsonPerfectCorrelation) {
  std::vector<Real> a(50);
  std::vector<Real> b(50);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<Real>(i);
    b[i] = 3.0 * static_cast<Real>(i) + 7.0;
  }
  EXPECT_NEAR(dsp::pearson(a, b), 1.0, 1e-12);
  for (auto& v : b) v = -v;
  EXPECT_NEAR(dsp::pearson(a, b), -1.0, 1e-12);
}

TEST(Stats, PearsonOfConstantIsZeroByConvention) {
  const std::vector<Real> a{1.0, 1.0, 1.0};
  const std::vector<Real> b{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(dsp::pearson(a, b), 0.0);
}

TEST(Stats, PearsonRejectsMismatchedSizes) {
  const std::vector<Real> a{1.0, 2.0};
  const std::vector<Real> b{1.0, 2.0, 3.0};
  EXPECT_THROW((void)dsp::pearson(a, b), std::invalid_argument);
}

TEST(Stats, CorrelationPercentScales) {
  std::vector<Real> a(10);
  std::vector<Real> b(10);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<Real>(i);
    b[i] = static_cast<Real>(i);
  }
  EXPECT_NEAR(dsp::correlation_percent(a, b), 100.0, 1e-9);
}

TEST(Stats, NormalQKnownValues) {
  EXPECT_NEAR(dsp::normal_q(0.0), 0.5, 1e-12);
  EXPECT_NEAR(dsp::normal_q(1.6448536269514722), 0.05, 1e-9);
  EXPECT_NEAR(dsp::normal_q(-1.0) + dsp::normal_q(1.0), 1.0, 1e-12);
}

TEST(Stats, NormalQInvRoundTrip) {
  for (const Real p : {0.4, 0.1, 0.01, 1e-4, 1e-8}) {
    EXPECT_NEAR(dsp::normal_q(dsp::normal_q_inv(p)), p, p * 1e-6 + 1e-15)
        << "p=" << p;
  }
  EXPECT_THROW((void)dsp::normal_q_inv(0.0), std::invalid_argument);
  EXPECT_THROW((void)dsp::normal_q_inv(1.0), std::invalid_argument);
}

TEST(Stats, SummaryOrdering) {
  dsp::Rng rng(11);
  std::vector<Real> x(2000);
  for (auto& v : x) v = rng.gaussian();
  const auto s = dsp::summarize(x);
  EXPECT_LT(s.min, s.p05);
  EXPECT_LT(s.p05, s.p50);
  EXPECT_LT(s.p50, s.p95);
  EXPECT_LT(s.p95, s.max);
  EXPECT_NEAR(s.mean, 0.0, 0.1);
  EXPECT_NEAR(s.std_dev, 1.0, 0.1);
}

// Property sweep: pearson is invariant under affine transforms of either
// argument (positive scale).
class PearsonAffineTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PearsonAffineTest, AffineInvariance) {
  dsp::Rng rng(GetParam());
  std::vector<Real> a(200);
  std::vector<Real> b(200);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.gaussian();
    b[i] = 0.5 * a[i] + rng.gaussian();
  }
  const Real base = dsp::pearson(a, b);
  std::vector<Real> b2(b.size());
  const Real scale = rng.uniform(0.1, 5.0);
  const Real offset = rng.uniform(-10.0, 10.0);
  for (std::size_t i = 0; i < b.size(); ++i) b2[i] = scale * b[i] + offset;
  EXPECT_NEAR(dsp::pearson(a, b2), base, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PearsonAffineTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Rng determinism and independence of forked streams.
TEST(Rng, DeterministicAcrossInstances) {
  dsp::Rng a(42);
  dsp::Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, LogUniformWithinBounds) {
  dsp::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const Real v = rng.log_uniform(0.1, 10.0);
    EXPECT_GE(v, 0.1);
    EXPECT_LE(v, 10.0);
  }
  EXPECT_THROW((void)rng.log_uniform(0.0, 1.0), std::invalid_argument);
}

TEST(Rng, ForkDiverges) {
  dsp::Rng a(9);
  dsp::Rng child = a.fork();
  // Parent and child should not produce the identical stream.
  int same = 0;
  for (int i = 0; i < 32; ++i) {
    if (a.uniform() == child.uniform()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, ChanceExtremes) {
  dsp::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

}  // namespace
