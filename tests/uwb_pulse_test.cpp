// IR-UWB pulse shapes and the FCC -41.3 dBm/MHz emission mask.

#include <cmath>
#include <gtest/gtest.h>

#include "core/events.hpp"
#include "dsp/spectral.hpp"
#include "dsp/stats.hpp"
#include "uwb/modulator.hpp"
#include "uwb/pulse.hpp"
#include "spectral_helpers.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

TEST(Pulse, PeakNormalisedToAmplitude) {
  for (unsigned order = 1; order <= 7; ++order) {
    uwb::PulseShapeConfig shape;
    shape.derivative_order = order;
    shape.amplitude_v = 0.25;
    const auto w = uwb::pulse_waveform(shape, 64.0 / shape.tau_s);
    Real peak = 0.0;
    for (const Real v : w) peak = std::max(peak, std::abs(v));
    EXPECT_NEAR(peak, 0.25, 0.01) << "order=" << order;
  }
}

TEST(Pulse, OddOrdersAreOdd) {
  uwb::PulseShapeConfig shape;  // 5th derivative
  EXPECT_NEAR(uwb::pulse_value(shape, 0.0), 0.0, 1e-9);
  const Real left = uwb::pulse_value(shape, -shape.tau_s);
  const Real right = uwb::pulse_value(shape, shape.tau_s);
  EXPECT_NEAR(left, -right, 1e-9);
}

TEST(Pulse, EnergyScalesWithAmplitudeSquared) {
  uwb::PulseShapeConfig a;
  a.amplitude_v = 0.1;
  uwb::PulseShapeConfig b = a;
  b.amplitude_v = 0.2;
  const Real fs = 64.0 / a.tau_s;
  EXPECT_NEAR(uwb::pulse_energy(b, fs) / uwb::pulse_energy(a, fs), 4.0,
              1e-6);
}

TEST(Pulse, CenterFrequencyInUwbBand) {
  uwb::PulseShapeConfig shape;  // order 5, tau 80 ps
  const Real fc = uwb::pulse_center_freq_hz(shape);
  EXPECT_GT(fc, 1e9);
  EXPECT_LT(fc, 10e9);
}

TEST(Pulse, ValidationBounds) {
  uwb::PulseShapeConfig shape;
  shape.derivative_order = 0;
  EXPECT_THROW((void)uwb::pulse_value(shape, 0.0), std::invalid_argument);
  shape.derivative_order = 9;
  EXPECT_THROW((void)uwb::pulse_value(shape, 0.0), std::invalid_argument);
  shape = uwb::PulseShapeConfig{};
  shape.tau_s = 0.0;
  EXPECT_THROW((void)uwb::pulse_value(shape, 0.0), std::invalid_argument);
}

TEST(PulseTrain, RenderPlacesPulses) {
  uwb::PulseTrain train;
  train.add({10e-9, 1.0, 0, true});
  uwb::PulseShapeConfig shape;
  const Real fs = 64.0 / shape.tau_s;
  const auto wav = train.render(shape, 0.0, 20e-9, fs);
  // Energy concentrated near the 10 ns mark.
  Real peak_t = 0.0;
  Real peak_v = 0.0;
  for (std::size_t i = 0; i < wav.size(); ++i) {
    if (std::abs(wav[i]) > peak_v) {
      peak_v = std::abs(wav[i]);
      peak_t = wav.time_of(i);
    }
  }
  EXPECT_NEAR(peak_t, 10e-9, 1e-9);
  EXPECT_GT(peak_v, 0.5);
}

TEST(PulseTrain, RenderRefusesHugeWindows) {
  uwb::PulseTrain train;
  uwb::PulseShapeConfig shape;
  EXPECT_THROW((void)train.render(shape, 0.0, 1.0, 20e9),
               std::invalid_argument);
}

TEST(FccMask, DatcPacketBurstCompliant) {
  // Render one densest D-ATC packet (marker + 4 one-bits) and check the
  // PSD of a sustained worst-case pulse rate against -41.3 dBm/MHz.
  core::EventStream ev;
  // Worst case: 1 kHz event rate for 2 ms, all-ones codes.
  for (int i = 0; i < 2; ++i) {
    ev.add(0.2e-3 + 1e-3 * i, 15);
  }
  uwb::ModulatorConfig mod;
  mod.shape.amplitude_v = 0.05;
  const auto train = uwb::modulate_datc(ev, mod);
  const Real fs = 16e9;
  const auto wav = train.render(mod.shape, 0.0, 2.2e-3, fs, 1u << 26);
  const auto psd = dsp::welch_psd(wav.view(), fs, 1 << 16);
  const Real peak = testutil::peak_dbm_per_mhz(psd, 3.1e9, 10.6e9);
  EXPECT_LT(peak, -41.3);
}

TEST(FccMask, ViolatedByExcessiveAmplitude) {
  core::EventStream ev;
  for (int i = 0; i < 2; ++i) ev.add(0.2e-3 + 0.5e-3 * i, 15);
  uwb::ModulatorConfig mod;
  mod.shape.amplitude_v = 400.0;  // absurd TX swing
  const auto train = uwb::modulate_datc(ev, mod);
  const Real fs = 16e9;
  const auto wav = train.render(mod.shape, 0.0, 1.2e-3, fs, 1u << 26);
  const auto psd = dsp::welch_psd(wav.view(), fs, 1 << 16);
  const Real peak = testutil::peak_dbm_per_mhz(psd, 1e9, 8e9);
  EXPECT_GT(peak, -41.3);
}

}  // namespace
