// FFT correctness against a direct DFT, round-trip identity, Parseval,
// and Welch PSD properties (sine-peak location, one-sided normalisation,
// dBm conversion).

#include "dsp/fft.hpp"

#include <cmath>
#include <gtest/gtest.h>
#include <numbers>

#include "dsp/rng.hpp"
#include "dsp/spectral.hpp"
#include "dsp/stats.hpp"
#include "spectral_helpers.hpp"

namespace {

using datc::dsp::Complex;
using datc::dsp::Real;
using namespace datc;

constexpr Real kTwoPi = 2.0 * std::numbers::pi_v<Real>;

/// Inverse FFT (normalised by 1/N) through the forward transform:
/// ifft(x) = conj(fft(conj(x))) / N.
void ifft_inplace(std::vector<Complex>& x) {
  for (auto& v : x) v = std::conj(v);
  dsp::fft_inplace(x);
  const Real inv_n = 1.0 / static_cast<Real>(x.size());
  for (auto& v : x) v = std::conj(v) * inv_n;
}

class FftVsDftTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftVsDftTest, MatchesReferenceDft) {
  const std::size_t n = GetParam();
  dsp::Rng rng(n);
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex{rng.gaussian(), rng.gaussian()};
  auto fast = x;
  dsp::fft_inplace(fast);
  const auto ref = dsp::dft_reference(x);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(fast[k].real(), ref[k].real(), 1e-8 * static_cast<Real>(n));
    EXPECT_NEAR(fast[k].imag(), ref[k].imag(), 1e-8 * static_cast<Real>(n));
  }
}

INSTANTIATE_TEST_SUITE_P(Pow2Sizes, FftVsDftTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256));

TEST(Fft, RoundTripIdentity) {
  dsp::Rng rng(77);
  std::vector<Complex> x(1024);
  for (auto& v : x) v = Complex{rng.gaussian(), rng.gaussian()};
  auto y = x;
  dsp::fft_inplace(y);
  ifft_inplace(y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-10);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  dsp::Rng rng(13);
  std::vector<Complex> x(512);
  for (auto& v : x) v = Complex{rng.gaussian(), 0.0};
  Real time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  auto y = x;
  dsp::fft_inplace(y);
  Real freq_energy = 0.0;
  for (const auto& v : y) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<Real>(x.size()), time_energy, 1e-6);
}

TEST(Fft, RejectsNonPow2) {
  std::vector<Complex> x(12);
  EXPECT_THROW(dsp::fft_inplace(x), std::invalid_argument);
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(dsp::next_pow2(1), 1u);
  EXPECT_EQ(dsp::next_pow2(2), 2u);
  EXPECT_EQ(dsp::next_pow2(3), 4u);
  EXPECT_EQ(dsp::next_pow2(1000), 1024u);
}

TEST(Fft, FftRealPadsToPow2) {
  std::vector<Real> x(300, 1.0);
  const auto spec = dsp::fft_real(x);
  EXPECT_EQ(spec.size(), 512u);
}

TEST(Window, KnownShapes) {
  const auto hann = dsp::make_window(dsp::WindowKind::kHann, 8);
  EXPECT_NEAR(hann[0], 0.0, 1e-12);
  EXPECT_NEAR(hann[4], 1.0, 1e-12);
  const auto rect = dsp::make_window(dsp::WindowKind::kRect, 4);
  for (const Real v : rect) EXPECT_DOUBLE_EQ(v, 1.0);
  const auto ham = dsp::make_window(dsp::WindowKind::kHamming, 16);
  EXPECT_NEAR(ham[0], 0.08, 1e-12);
  const auto bl = dsp::make_window(dsp::WindowKind::kBlackman, 16);
  EXPECT_NEAR(bl[0], 0.0, 1e-12);
}

TEST(Welch, SinePeakAtCorrectBin) {
  const Real fs = 2000.0;
  const Real f0 = 250.0;
  std::vector<Real> x(8192);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::sin(kTwoPi * f0 * static_cast<Real>(i) / fs);
  }
  const auto psd = dsp::welch_psd(x, fs, 1024);
  std::size_t peak = 0;
  for (std::size_t k = 1; k < psd.psd_v2_hz.size(); ++k) {
    if (psd.psd_v2_hz[k] > psd.psd_v2_hz[peak]) peak = k;
  }
  EXPECT_NEAR(psd.freq_hz[peak], f0, fs / 1024.0 * 1.5);
}

TEST(Welch, PowerIntegratesToVariance) {
  dsp::Rng rng(21);
  std::vector<Real> x(1 << 16);
  for (auto& v : x) v = rng.gaussian();
  const Real fs = 1000.0;
  const auto psd = dsp::welch_psd(x, fs, 512);
  Real integrated = 0.0;
  const Real df = psd.freq_hz[1] - psd.freq_hz[0];
  for (const Real p : psd.psd_v2_hz) integrated += p * df;
  EXPECT_NEAR(integrated, dsp::variance(x), 0.1);
}

TEST(Welch, ShortRecordStillProducesEstimate) {
  std::vector<Real> x(100, 1.0);
  const auto psd = dsp::welch_psd(x, 1000.0, 512);
  EXPECT_FALSE(psd.psd_v2_hz.empty());
}

TEST(Psd, DbmConversion) {
  // 1 V^2/Hz across 50 ohm = 20 mW/Hz = 2e7 mW/MHz = 73 dBm/MHz.
  EXPECT_NEAR(testutil::psd_to_dbm_per_mhz(1.0, 50.0), 73.01, 0.02);
  EXPECT_LT(testutil::psd_to_dbm_per_mhz(0.0), -250.0);
  EXPECT_THROW((void)testutil::psd_to_dbm_per_mhz(1.0, 0.0),
               std::invalid_argument);
}

TEST(Psd, PeakSearchRespectsBand) {
  dsp::PsdEstimate psd;
  psd.freq_hz = {0.0, 100.0, 200.0, 300.0};
  psd.psd_v2_hz = {1.0, 10.0, 100.0, 1.0};
  const Real in_band = testutil::peak_dbm_per_mhz(psd, 50.0, 150.0);
  const Real all = testutil::peak_dbm_per_mhz(psd, 0.0, 400.0);
  EXPECT_LT(in_band, all);
}

}  // namespace
