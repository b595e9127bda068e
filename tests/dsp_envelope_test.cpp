// Envelope extraction and sliding-window smoothers.

#include "dsp/envelope.hpp"

#include <cmath>
#include <gtest/gtest.h>
#include <numbers>

#include "dsp/moving_average.hpp"
#include "dsp/rng.hpp"
#include "dsp/stats.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

TEST(Rectify, FullWave) {
  const std::vector<Real> x{-1.0, 2.0, -3.0, 0.0};
  const auto y = dsp::rectify(x);
  EXPECT_EQ(y, (std::vector<Real>{1.0, 2.0, 3.0, 0.0}));
}

TEST(MovingAverage, CausalWarmup) {
  const std::vector<Real> x{2.0, 4.0, 6.0, 8.0};
  const auto y = dsp::moving_average(x, 2);
  EXPECT_DOUBLE_EQ(y[0], 2.0);  // only one sample seen
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  EXPECT_DOUBLE_EQ(y[2], 5.0);
  EXPECT_DOUBLE_EQ(y[3], 7.0);
}

TEST(MovingAverage, WindowOneIsIdentity) {
  const std::vector<Real> x{1.0, -2.0, 3.0};
  EXPECT_EQ(dsp::moving_average(x, 1), x);
  EXPECT_EQ(dsp::centered_moving_average(x, 1), x);
}

TEST(MovingAverage, CenteredIsZeroLag) {
  // A symmetric triangular pulse centred at 50: the centred MA must peak
  // at the same index.
  std::vector<Real> x(101, 0.0);
  for (int i = 0; i <= 20; ++i) {
    x[static_cast<std::size_t>(50 - i)] = static_cast<Real>(20 - i);
    x[static_cast<std::size_t>(50 + i)] = static_cast<Real>(20 - i);
  }
  const auto y = dsp::centered_moving_average(x, 11);
  std::size_t peak_x = 0;
  std::size_t peak_y = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] > x[peak_x]) peak_x = i;
    if (y[i] > y[peak_y]) peak_y = i;
  }
  EXPECT_EQ(peak_x, peak_y);
}

TEST(MovingAverage, CenteredPreservesMeanOfConstant) {
  const std::vector<Real> x(50, 3.5);
  const auto y = dsp::centered_moving_average(x, 9);
  for (const Real v : y) EXPECT_NEAR(v, 3.5, 1e-12);
}

TEST(MovingAverage, StreamingMatchesBatch) {
  dsp::Rng rng(2);
  std::vector<Real> x(200);
  for (auto& v : x) v = rng.gaussian();
  const auto batch = dsp::moving_average(x, 16);
  dsp::MovingAverager ma(16);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(ma.process(x[i]), batch[i], 1e-12);
  }
  ma.reset();
  EXPECT_NEAR(ma.process(4.0), 4.0, 1e-12);
}

TEST(WindowSamples, AlwaysOddAndPositive) {
  EXPECT_EQ(dsp::window_samples(2500.0, 0.25) % 2, 1u);
  EXPECT_GE(dsp::window_samples(10.0, 0.001), 1u);
  EXPECT_THROW((void)dsp::window_samples(0.0, 1.0), std::invalid_argument);
}

TEST(ArvEnvelope, TracksAmplitudeModulation) {
  // |sin| carrier with a step change in amplitude.
  const Real fs = 2500.0;
  std::vector<Real> x(5000);
  constexpr Real kTwoPi = 2.0 * std::numbers::pi_v<Real>;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const Real amp = i < 2500 ? 1.0 : 3.0;
    x[i] = amp * std::sin(kTwoPi * 200.0 * static_cast<Real>(i) / fs);
  }
  const auto env = dsp::arv_envelope(x, fs, 0.1);
  // ARV of a sine of amplitude A is 2A/pi.
  EXPECT_NEAR(env[1000], 2.0 / std::numbers::pi_v<Real>, 0.05);
  EXPECT_NEAR(env[4000], 6.0 / std::numbers::pi_v<Real>, 0.15);
}

TEST(ArvEnvelope, GaussianRelation) {
  // For zero-mean Gaussian noise, ARV = sigma * sqrt(2/pi).
  dsp::Rng rng(31);
  std::vector<Real> x(50000);
  for (auto& v : x) v = 0.5 * rng.gaussian();
  const auto env = dsp::arv_envelope(x, 2500.0, 1.0);
  EXPECT_NEAR(dsp::mean(env), 0.5 * std::sqrt(2.0 / std::numbers::pi_v<Real>),
              0.02);
}

}  // namespace
