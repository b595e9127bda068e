// Analog-front-end behavioural models: comparator and DAC/ADC.

#include <gtest/gtest.h>

#include "afe/comparator.hpp"
#include "afe/dac.hpp"
#include "dsp/rng.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

TEST(Comparator, BasicDecision) {
  afe::Comparator cmp;
  EXPECT_TRUE(cmp.compare(0.5, 0.3));
  EXPECT_FALSE(cmp.compare(0.2, 0.3));
}

TEST(Comparator, HysteresisSuppressesChatter) {
  afe::ComparatorConfig cfg;
  cfg.hysteresis_v = 0.1;
  afe::Comparator cmp(cfg);
  // Rising: must exceed threshold + hyst/2 to switch high.
  EXPECT_FALSE(cmp.compare(0.32, 0.3));
  EXPECT_TRUE(cmp.compare(0.40, 0.3));
  // Now high: small dips above threshold - hyst/2 keep it high.
  EXPECT_TRUE(cmp.compare(0.28, 0.3));
  // Falling below threshold - hyst/2 releases it.
  EXPECT_FALSE(cmp.compare(0.20, 0.3));
}

TEST(Comparator, OffsetShiftsDecision) {
  afe::ComparatorConfig cfg;
  cfg.offset_v = 0.05;
  afe::Comparator cmp(cfg);
  EXPECT_TRUE(cmp.compare(0.26, 0.3));  // 0.26 + 0.05 > 0.3
}

TEST(Comparator, MetastabilityNeedsRng) {
  afe::ComparatorConfig cfg;
  cfg.metastable_prob = 0.5;
  cfg.metastable_window_v = 0.01;
  EXPECT_THROW(afe::Comparator c(cfg), std::invalid_argument);
  afe::Comparator ok(cfg, dsp::Rng(1));
  // Inside the window the output occasionally errs.
  int flips = 0;
  for (int i = 0; i < 1000; ++i) {
    afe::Comparator c2(cfg, dsp::Rng(static_cast<std::uint64_t>(i)));
    if (!c2.compare(0.305, 0.3)) ++flips;
  }
  EXPECT_GT(flips, 300);
  EXPECT_LT(flips, 700);
}

TEST(Dac, PaperEquation3) {
  const afe::Dac dac;  // 4 bits, 1 V
  EXPECT_DOUBLE_EQ(dac.voltage(0), 0.0);
  EXPECT_DOUBLE_EQ(dac.voltage(1), 1.0 / 16.0);   // 62.5 mV LSB
  EXPECT_DOUBLE_EQ(dac.voltage(8), 0.5);
  EXPECT_DOUBLE_EQ(dac.voltage(15), 15.0 / 16.0);
  EXPECT_DOUBLE_EQ(dac.voltage(99), 15.0 / 16.0);  // clamps
  EXPECT_DOUBLE_EQ(dac.lsb(), 0.0625);
  EXPECT_EQ(dac.max_code(), 15u);
}

TEST(Dac, MonotoneForAllResolutions) {
  for (unsigned bits = 1; bits <= 8; ++bits) {
    afe::DacConfig cfg;
    cfg.bits = bits;
    const afe::Dac dac(cfg);
    for (unsigned c = 1; c <= dac.max_code(); ++c) {
      EXPECT_GT(dac.voltage(c), dac.voltage(c - 1)) << "bits=" << bits;
    }
  }
}

TEST(Dac, InlPerturbsButEndpointsTrimmed) {
  afe::DacConfig cfg;
  cfg.inl_lsb_rms = 0.3;
  const afe::Dac dac(cfg);
  const afe::Dac ideal;
  EXPECT_DOUBLE_EQ(dac.voltage(0), ideal.voltage(0));
  EXPECT_DOUBLE_EQ(dac.voltage(15), ideal.voltage(15));
  bool any_diff = false;
  for (unsigned c = 1; c < 15; ++c) {
    if (dac.voltage(c) != ideal.voltage(c)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Adc, RoundTripWithinHalfLsb) {
  const afe::Adc adc;  // 12 bits, +-1 V
  const Real step = 2.0 / 4096.0;
  for (Real v = -0.999; v < 0.999; v += 0.037) {
    const auto code = adc.code(v);
    EXPECT_NEAR(adc.voltage(code), v, step * 0.51) << "v=" << v;
  }
}

TEST(Adc, ClampsOutOfRange) {
  const afe::Adc adc;
  EXPECT_EQ(adc.code(-5.0), 0u);
  EXPECT_EQ(adc.code(5.0), 4095u);
}

}  // namespace
