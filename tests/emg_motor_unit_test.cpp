// Motor-unit pool physiology: size-principle recruitment, rate coding,
// ARV calibration and force monotonicity — the properties that make the
// synthetic dataset a valid stand-in for the paper's recordings.

#include "emg/motor_unit.hpp"

#include <gtest/gtest.h>
#include <limits>

#include "dsp/envelope.hpp"
#include "dsp/stats.hpp"
#include "emg/generator.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

emg::MotorUnitPool make_pool(std::uint64_t seed = 1) {
  return emg::MotorUnitPool(emg::MotorUnitPoolConfig{}, dsp::Rng(seed));
}

TEST(MotorUnitPool, SizePrincipleOrdering) {
  const auto pool = make_pool();
  const auto& units = pool.units();
  ASSERT_GE(units.size(), 2u);
  for (std::size_t i = 1; i < units.size(); ++i) {
    EXPECT_GE(units[i].recruitment_threshold,
              units[i - 1].recruitment_threshold);
    EXPECT_GE(units[i].amplitude, units[i - 1].amplitude);
  }
  // All units recruited by 70 % excitation.
  EXPECT_LE(units.back().recruitment_threshold, 0.7 + 1e-9);
  EXPECT_GT(units.front().recruitment_threshold, 0.0);
}

TEST(MotorUnitPool, FiringRateModel) {
  const auto pool = make_pool();
  const auto& cfg = pool.config();
  // Below threshold: silent.
  EXPECT_DOUBLE_EQ(pool.firing_rate(50, 0.0), 0.0);
  // At threshold: minimum rate.
  const Real rte = pool.units()[50].recruitment_threshold;
  EXPECT_NEAR(pool.firing_rate(50, rte), cfg.min_rate_hz, 1e-9);
  // Saturates at the peak rate.
  EXPECT_DOUBLE_EQ(pool.firing_rate(0, 1.0), cfg.peak_rate_hz);
  EXPECT_THROW((void)pool.firing_rate(10000, 0.5), std::invalid_argument);
}

TEST(MotorUnitPool, SilentAtRest) {
  auto pool = make_pool(3);
  const auto drive = emg::constant_force(0.0, 1.0, 2500.0);
  const auto emg_sig = pool.synthesize(drive);
  // Only measurement noise remains.
  EXPECT_LT(dsp::rms(emg_sig.view()), 3.0 * pool.config().noise_rms);
}

TEST(MotorUnitPool, ArvCalibratedAtFullMvc) {
  auto pool = make_pool(7);
  const auto drive = emg::constant_force(1.0, 4.0, 2500.0);
  const auto emg_sig = pool.synthesize(drive);
  const auto rect = dsp::rectify(emg_sig.view());
  // Campbell-theorem calibration targets ARV ~ 1 at 100 % MVC; the
  // interference-pattern approximation is good to ~20 %.
  EXPECT_NEAR(dsp::mean(rect), 1.0, 0.2);
}

TEST(MotorUnitPool, ZeroMeanOutput) {
  auto pool = make_pool(11);
  const auto drive = emg::constant_force(0.5, 4.0, 2500.0);
  const auto emg_sig = pool.synthesize(drive);
  EXPECT_NEAR(dsp::mean(emg_sig.view()), 0.0, 0.02);
}

TEST(MotorUnitPool, EmptyDriveGivesEmptySignal) {
  auto pool = make_pool(5);
  emg::ForceProfile empty;
  empty.sample_rate_hz = 2500.0;
  const auto emg_sig = pool.synthesize(empty);
  EXPECT_TRUE(emg_sig.empty());
}

// Property: ARV grows monotonically with sustained force level.
class ArvMonotoneTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ArvMonotoneTest, ArvIncreasesWithForce) {
  auto pool = make_pool(GetParam());
  Real last_arv = -1.0;
  for (const Real level : {0.1, 0.25, 0.45, 0.7, 1.0}) {
    const auto drive = emg::constant_force(level, 2.0, 2500.0);
    const auto emg_sig = pool.synthesize(drive);
    const Real arv = dsp::mean(dsp::rectify(emg_sig.view()));
    EXPECT_GT(arv, last_arv) << "level=" << level;
    last_arv = arv;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArvMonotoneTest,
                         ::testing::Values(1, 2, 3, 10, 20));

TEST(MotorUnitPool, SpectrumIsBandLimited) {
  // sEMG energy should concentrate well below 800 Hz at fs = 2500.
  auto pool = make_pool(13);
  const auto drive = emg::constant_force(0.6, 4.0, 2500.0);
  const auto emg_sig = pool.synthesize(drive);
  Real low = 0.0;
  Real high = 0.0;
  // Crude split via half-band energies using differences: the derivative
  // emphasises high frequencies, so compare signal vs derivative power.
  const auto& x = emg_sig.samples();
  for (std::size_t i = 1; i < x.size(); ++i) {
    low += x[i] * x[i];
    const Real d = x[i] - x[i - 1];
    high += d * d;
  }
  // For a process concentrated below fs/4 the difference power is much
  // smaller than 2x the signal power.
  EXPECT_LT(high, low);
}

TEST(MotorUnitPool, ConfigValidation) {
  emg::MotorUnitPoolConfig bad;
  bad.num_units = 0;
  EXPECT_THROW(emg::MotorUnitPool(bad, dsp::Rng(1)), std::invalid_argument);
  bad = emg::MotorUnitPoolConfig{};
  bad.recruitment_range = 0.5;
  EXPECT_THROW(emg::MotorUnitPool(bad, dsp::Rng(1)), std::invalid_argument);
  bad = emg::MotorUnitPoolConfig{};
  bad.min_rate_hz = 10.0;
  bad.peak_rate_hz = 5.0;
  EXPECT_THROW(emg::MotorUnitPool(bad, dsp::Rng(1)), std::invalid_argument);
  // A negative gain would silence units above their threshold.
  bad = emg::MotorUnitPoolConfig{};
  bad.rate_gain_hz = -1.0;
  EXPECT_THROW(emg::MotorUnitPool(bad, dsp::Rng(1)), std::invalid_argument);
  bad.rate_gain_hz = std::numeric_limits<Real>::quiet_NaN();
  EXPECT_THROW(emg::MotorUnitPool(bad, dsp::Rng(1)), std::invalid_argument);

  // A non-finite drive sample is rejected, not turned into NaN spike times.
  auto pool = make_pool();
  for (const Real v : {std::numeric_limits<Real>::quiet_NaN(),
                       std::numeric_limits<Real>::infinity(),
                       -std::numeric_limits<Real>::infinity()}) {
    auto drive = emg::constant_force(0.5, 0.1, 2500.0);
    drive.fraction_mvc[100] = v;
    EXPECT_THROW((void)pool.synthesize(drive), std::invalid_argument) << v;
  }
}

TEST(FilteredNoiseModel, ArvTracksDrive) {
  dsp::Rng rng(17);
  auto drive = emg::constant_force(0.5, 4.0, 2500.0);
  const auto sig =
      emg::synthesize_filtered_noise(drive, emg::FilteredNoiseConfig{}, rng);
  const Real arv = dsp::mean(dsp::rectify(sig.view()));
  EXPECT_NEAR(arv, 0.5, 0.08);
}

TEST(FilteredNoiseModel, RejectsBandAboveNyquist) {
  dsp::Rng rng(1);
  auto drive = emg::constant_force(0.5, 1.0, 500.0);
  emg::FilteredNoiseConfig cfg;  // 450 Hz band edge vs 250 Hz Nyquist
  EXPECT_THROW((void)emg::synthesize_filtered_noise(drive, cfg, rng),
               std::invalid_argument);
}

TEST(Synthesize, DispatchesBothModels) {
  dsp::Rng rng(19);
  auto drive = emg::constant_force(0.4, 1.0, 2500.0);
  const auto a = emg::synthesize(emg::EmgModel::kMotorUnitPool, drive, rng);
  const auto b = emg::synthesize(emg::EmgModel::kFilteredNoise, drive, rng);
  EXPECT_EQ(a.size(), drive.fraction_mvc.size());
  EXPECT_EQ(b.size(), drive.fraction_mvc.size());
}

}  // namespace
