// Force-profile generators: ranges, durations, shapes, determinism.

#include "emg/force_profile.hpp"

#include <gtest/gtest.h>

#include "dsp/stats.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

TEST(ForceProfile, ConstantLevelAndLength) {
  const auto p = emg::constant_force(0.4, 2.0, 1000.0);
  EXPECT_EQ(p.fraction_mvc.size(), 2000u);
  for (const Real v : p.fraction_mvc) EXPECT_DOUBLE_EQ(v, 0.4);
  EXPECT_THROW((void)emg::constant_force(1.5, 1.0, 100.0),
               std::invalid_argument);
}

TEST(ForceProfile, TrapezoidShape) {
  const auto p = emg::trapezoid_force(0.8, 0.5, 1.0, 0.5, 1000.0);
  const auto& f = p.fraction_mvc;
  // Rest at the start and end.
  EXPECT_DOUBLE_EQ(f.front(), 0.0);
  EXPECT_DOUBLE_EQ(f.back(), 0.0);
  // Plateau in the middle.
  const std::size_t mid = f.size() / 2;
  EXPECT_NEAR(f[mid], 0.8, 1e-9);
  // All values in range.
  for (const Real v : f) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 0.8 + 1e-12);
  }
}

TEST(GripProtocol, ExactDurationAndBounds) {
  dsp::Rng rng(101);
  const auto p = emg::grip_protocol(rng, 0.7, 20.0, 2500.0);
  EXPECT_EQ(p.fraction_mvc.size(), 50000u);
  for (const Real v : p.fraction_mvc) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  // Peak effort near the requested start level.
  EXPECT_GT(dsp::max_value(p.fraction_mvc), 0.45);
  EXPECT_LT(dsp::max_value(p.fraction_mvc), 0.95);
}

TEST(GripProtocol, DeterministicPerSeed) {
  dsp::Rng a(55);
  dsp::Rng b(55);
  const auto pa = emg::grip_protocol(a, 0.7, 5.0, 1000.0);
  const auto pb = emg::grip_protocol(b, 0.7, 5.0, 1000.0);
  EXPECT_EQ(pa.fraction_mvc, pb.fraction_mvc);
  dsp::Rng c(56);
  const auto pc = emg::grip_protocol(c, 0.7, 5.0, 1000.0);
  EXPECT_NE(pa.fraction_mvc, pc.fraction_mvc);
}

TEST(GripProtocol, EndsLowerThanItStarts) {
  // The protocol trends from ~70 % MVC down towards rest.
  dsp::Rng rng(77);
  const auto p = emg::grip_protocol(rng, 0.7, 20.0, 500.0);
  const auto& f = p.fraction_mvc;
  const std::size_t q = f.size() / 4;
  const Real first_quarter =
      dsp::mean(std::span<const Real>(f.data(), q));
  const Real last_quarter =
      dsp::mean(std::span<const Real>(f.data() + 3 * q, q));
  EXPECT_GT(first_quarter, last_quarter);
}

TEST(SmoothProfile, BandLimitsAndClamps) {
  // A square profile smoothed at 2 Hz must lose its sharp edge.
  emg::ForceProfile p;
  p.sample_rate_hz = 1000.0;
  p.fraction_mvc.assign(1000, 0.0);
  for (std::size_t i = 500; i < 1000; ++i) p.fraction_mvc[i] = 1.0;
  const auto s = emg::smooth_profile(p, 2.0);
  // The edge is no longer instantaneous: value just after the step is
  // far from 1.
  EXPECT_LT(s.fraction_mvc[510], 0.5);
  for (const Real v : s.fraction_mvc) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
}

class GripSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GripSeedSweep, AlwaysValid) {
  dsp::Rng rng(GetParam());
  const auto p = emg::grip_protocol(rng, 0.7, 10.0, 2000.0);
  EXPECT_EQ(p.fraction_mvc.size(), 20000u);
  for (const Real v : p.fraction_mvc) {
    ASSERT_GE(v, 0.0);
    ASSERT_LE(v, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GripSeedSweep,
                         ::testing::Values(1, 17, 99, 256, 1024, 31337));

}  // namespace
