// Spectral EMG metrics (median/mean frequency, Goertzel) and the fatigue
// synthesiser extension they measure.

#include "dsp/emg_metrics.hpp"

#include <cmath>
#include <gtest/gtest.h>
#include <numbers>

#include "dsp/rng.hpp"
#include "emg/fatigue.hpp"
#include "spectral_helpers.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

constexpr Real kTwoPi = 2.0 * std::numbers::pi_v<Real>;

std::vector<Real> tone(Real f, Real fs, std::size_t n, Real amp = 1.0) {
  std::vector<Real> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = amp * std::sin(kTwoPi * f * static_cast<Real>(i) / fs);
  }
  return x;
}

TEST(MedianFrequency, PureToneIsItsOwnMedian) {
  const auto x = tone(120.0, 2500.0, 16384);
  EXPECT_NEAR(dsp::median_frequency_hz(x, 2500.0), 120.0, 5.0);
}

TEST(MedianFrequency, TwoTonesSplit) {
  auto x = tone(100.0, 2500.0, 16384);
  const auto hi = tone(400.0, 2500.0, 16384);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += hi[i];
  const Real mf = dsp::median_frequency_hz(x, 2500.0);
  EXPECT_GT(mf, 100.0);
  EXPECT_LT(mf, 400.0);
}

TEST(MeanFrequency, OrderedWithMedianForLowpassSpectrum) {
  // A decaying spectrum has mean above median? For EMG-like spectra both
  // sit in the band; check both are finite and ordered sanely for a
  // known two-tone case.
  auto x = tone(100.0, 2500.0, 16384, 2.0);
  const auto hi = tone(500.0, 2500.0, 16384, 1.0);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] += hi[i];
  const auto psd = dsp::welch_psd(x, 2500.0, 1024);
  const Real median = dsp::median_frequency_hz(psd);
  const Real mean = dsp::mean_frequency_hz(psd);
  // Power 4:1 at 100 vs 500 Hz: median stays at the strong tone, the
  // mean is dragged towards the weak high tone.
  EXPECT_NEAR(median, 100.0, 10.0);
  EXPECT_GT(mean, median);
}

TEST(MedianFrequency, RejectsDegenerateInput) {
  dsp::PsdEstimate empty;
  EXPECT_THROW((void)dsp::median_frequency_hz(empty), std::invalid_argument);
  dsp::PsdEstimate zero;
  zero.freq_hz = {0.0, 1.0};
  zero.psd_v2_hz = {0.0, 0.0};
  EXPECT_THROW((void)dsp::median_frequency_hz(zero), std::invalid_argument);
}

TEST(Goertzel, MeasuresToneAmplitude) {
  const auto x = tone(50.0, 2500.0, 5000, 0.4);
  // goertzel_power ~ A^2 at the tone frequency.
  EXPECT_NEAR(testutil::goertzel_power(x, 2500.0, 50.0), 0.16, 0.02);
  // Far from the tone: near zero.
  EXPECT_LT(testutil::goertzel_power(x, 2500.0, 700.0), 0.005);
  EXPECT_THROW((void)testutil::goertzel_power(x, 2500.0, 2000.0),
               std::invalid_argument);
}

TEST(Goertzel, TonePowerFraction) {
  auto x = tone(50.0, 2500.0, 10000, 1.0);
  EXPECT_NEAR(testutil::tone_power_fraction(x, 2500.0, 50.0), 1.0, 0.02);
  dsp::Rng rng(4);
  for (auto& v : x) v += 3.0 * rng.gaussian();
  const Real frac = testutil::tone_power_fraction(x, 2500.0, 50.0);
  EXPECT_GT(frac, 0.01);
  EXPECT_LT(frac, 0.3);
}

TEST(Fatigue, TrajectoryAccumulatesAndRecovers) {
  emg::ForceProfile drive;
  drive.sample_rate_hz = 100.0;
  drive.fraction_mvc.assign(3000, 0.8);                    // 30 s effort
  drive.fraction_mvc.insert(drive.fraction_mvc.end(), 3000, 0.0);  // rest
  emg::FatigueConfig cfg;
  cfg.tau_s = 10.0;
  const auto s = emg::fatigue_trajectory(drive, cfg);
  EXPECT_LT(s.front(), 0.05);
  const Real peak = s[2999];
  EXPECT_GT(peak, 0.5);
  // Recovery is slower but monotone.
  EXPECT_LT(s.back(), peak);
}

TEST(Fatigue, MedianFrequencyDrops) {
  // A sustained contraction must show the classic spectral compression.
  emg::ForceProfile drive;
  drive.sample_rate_hz = 2500.0;
  drive.fraction_mvc.assign(2500 * 30, 0.7);  // 30 s hold
  emg::FatigueConfig cfg;
  cfg.tau_s = 8.0;
  cfg.sigma_stretch = 1.5;
  dsp::Rng rng(21);
  const auto sig = emg::synthesize_fatigued(
      drive, emg::MotorUnitPoolConfig{}, cfg, rng);
  ASSERT_EQ(sig.size(), drive.fraction_mvc.size());
  const std::size_t quarter = sig.size() / 4;
  const Real mf_early = dsp::median_frequency_hz(
      std::span<const Real>(sig.samples().data(), quarter), 2500.0);
  const Real mf_late = dsp::median_frequency_hz(
      std::span<const Real>(sig.samples().data() + 3 * quarter, quarter),
      2500.0);
  EXPECT_LT(mf_late, mf_early * 0.92);
}

TEST(Fatigue, Validation) {
  emg::ForceProfile drive;
  drive.sample_rate_hz = 100.0;
  drive.fraction_mvc.assign(100, 0.5);
  emg::FatigueConfig bad;
  bad.tau_s = 0.0;
  EXPECT_THROW((void)emg::fatigue_trajectory(drive, bad),
               std::invalid_argument);
  dsp::Rng rng(1);
  EXPECT_THROW((void)emg::synthesize_fatigued(
                   drive, emg::MotorUnitPoolConfig{}, emg::FatigueConfig{},
                   rng, 0.0),
               std::invalid_argument);
}

}  // namespace
