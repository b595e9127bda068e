// Motor-unit-pool synthesis against an independent oracle: the original
// per-sample x per-unit scan (tests/motor_unit_reference.hpp). The
// due-time scheduler in MotorUnitPool::synthesize must reproduce it bit
// for bit: the dataset patterns, drives that recruit, de-recruit and
// recruit again, drives pinned at and outside the thresholds, tiny pools,
// tiny records, regular firing, and the fatigue model's short blocks.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <gtest/gtest.h>
#include <numbers>
#include <string>
#include <vector>

#include "dsp/rng.hpp"
#include "emg/dataset.hpp"
#include "emg/fatigue.hpp"
#include "emg/force_profile.hpp"
#include "emg/motor_unit.hpp"
#include "motor_unit_reference.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

std::uint64_t bits(Real v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bitwise(const std::vector<Real>& want,
                    const std::vector<Real>& got, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(bits(got[i]), bits(want[i]))
        << what << ": sample " << i << " got " << got[i] << " want "
        << want[i];
  }
}

/// One pool and the oracle, seeded alike, on the same drive.
void expect_matches_reference(const emg::MotorUnitPoolConfig& config,
                              std::uint64_t seed,
                              const emg::ForceProfile& drive,
                              const std::string& what) {
  emg::MotorUnitPool pool(config, dsp::Rng(seed));
  dsp::Rng oracle_rng(seed);
  const auto want = oracle::reference_synthesize(pool, oracle_rng, drive);
  const auto got = pool.synthesize(drive);
  EXPECT_EQ(got.sample_rate_hz(), want.sample_rate_hz()) << what;
  expect_bitwise(want.samples(), got.samples(), what);
}

emg::ForceProfile profile(std::vector<Real> values, Real fs_hz) {
  emg::ForceProfile p;
  p.fraction_mvc = std::move(values);
  p.sample_rate_hz = fs_hz;
  return p;
}

/// `mean + amp * sin(2 pi f t)`: sweeps the thresholds in between up and
/// down `f` times a second.
emg::ForceProfile sinusoid(Real mean, Real amp, Real f_hz, Real duration_s,
                           Real fs_hz) {
  const auto n = static_cast<std::size_t>(duration_s * fs_hz);
  std::vector<Real> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = mean + amp * std::sin(2.0 * std::numbers::pi_v<Real> * f_hz *
                                 static_cast<Real>(i) / fs_hz);
  }
  return profile(std::move(v), fs_hz);
}

TEST(MotorUnitOracle, FirstDatasetPatterns) {
  const emg::DatasetFactory factory(emg::DatasetConfig{});
  for (std::size_t i = 0; i < 16; ++i) {
    // make_recording's stream: the protocol draws first, then the pool
    // gets a fork.
    const auto& spec = factory.specs()[i];
    dsp::Rng rng(spec.seed);
    const auto force = emg::grip_protocol(rng, spec.start_mvc,
                                          spec.duration_s,
                                          spec.sample_rate_hz);
    dsp::Rng pool_rng = rng.fork();
    const emg::MotorUnitPool shape(emg::MotorUnitPoolConfig{}, pool_rng);
    auto want = oracle::reference_synthesize(shape, pool_rng, force);
    for (auto& v : want.samples()) v *= spec.gain_v;

    const auto rec = factory.make(i);
    expect_bitwise(want.samples(), rec.emg_v.samples(), spec.name);
  }
}

TEST(MotorUnitOracle, RecruitDerecruitRecruitAgain) {
  const emg::MotorUnitPoolConfig config;
  // Slow and fast sweeps over the whole threshold range, one that only
  // reaches the lower half, and one that dips below the first threshold.
  expect_matches_reference(config, 1, sinusoid(0.4, 0.45, 0.7, 6.0, 2500.0),
                           "slow sweep");
  expect_matches_reference(config, 2, sinusoid(0.4, 0.45, 9.0, 4.0, 2500.0),
                           "fast sweep");
  expect_matches_reference(config, 3, sinusoid(0.15, 0.1, 3.0, 4.0, 2500.0),
                           "lower half");
  expect_matches_reference(config, 4, sinusoid(0.05, 0.05, 5.0, 4.0, 2500.0),
                           "around the first threshold");

  // Every unit recruited and de-recruited on alternate samples: the whole
  // queue empties and refills, with a fresh phase drawn each time.
  std::vector<Real> toggle(5000);
  for (std::size_t i = 0; i < toggle.size(); ++i) {
    toggle[i] = i % 2 == 0 ? 1.0 : 0.0;
  }
  expect_matches_reference(config, 5, profile(toggle, 2500.0), "toggle");

  // Uniform noise flickering across a dozen thresholds every sample.
  dsp::Rng noise(6);
  std::vector<Real> flicker(10000);
  for (auto& v : flicker) v = noise.uniform(0.2, 0.3);
  expect_matches_reference(config, 7, profile(flicker, 2500.0), "flicker");
}

TEST(MotorUnitOracle, ConstantDrives) {
  const emg::MotorUnitPoolConfig config;
  const emg::MotorUnitPool pool(config, dsp::Rng(1));
  const Real at_threshold = pool.units()[60].recruitment_threshold;
  for (const Real level : {0.0, at_threshold, 1.0}) {
    expect_matches_reference(config, 11,
                             emg::constant_force(level, 2.0, 2500.0),
                             "constant " + std::to_string(level));
  }
}

TEST(MotorUnitOracle, DriveOutsideUnitRangeIsClamped) {
  const emg::MotorUnitPoolConfig config;
  std::vector<Real> v(6000);
  for (std::size_t i = 0; i < v.size(); ++i) {
    // -0.6 .. 1.6 and back, twice.
    const Real phase = static_cast<Real>(i % 3000) / 1500.0;
    v[i] = phase < 1.0 ? -0.6 + 2.2 * phase : 1.6 - 2.2 * (phase - 1.0);
  }
  expect_matches_reference(config, 13, profile(v, 2500.0), "outside [0, 1]");
  expect_matches_reference(config, 14,
                           profile(std::vector<Real>(2500, -0.25), 2500.0),
                           "negative");
  expect_matches_reference(config, 15,
                           profile(std::vector<Real>(2500, 3.0), 2500.0),
                           "above full drive");
}

TEST(MotorUnitOracle, SmallPools) {
  for (const std::size_t units : {1u, 7u}) {
    emg::MotorUnitPoolConfig config;
    config.num_units = units;
    const auto what = std::to_string(units) + "-unit pool";
    expect_matches_reference(config, 17, sinusoid(0.4, 0.45, 2.0, 4.0, 2500.0),
                             what);
    expect_matches_reference(config, 18, emg::constant_force(0.8, 1.0, 2500.0),
                             what + ", constant");
  }
}

TEST(MotorUnitOracle, TinyRecords) {
  const emg::MotorUnitPoolConfig config;
  for (const std::size_t n : {0u, 1u, 2u}) {
    expect_matches_reference(config, 19,
                             profile(std::vector<Real>(n, 0.9), 2500.0),
                             "n = " + std::to_string(n));
  }
}

TEST(MotorUnitOracle, RegularFiringAndOtherRates) {
  emg::MotorUnitPoolConfig config;
  config.isi_cv = 0.0;
  expect_matches_reference(config, 23, sinusoid(0.4, 0.45, 1.5, 4.0, 2500.0),
                           "isi_cv = 0");
  // Kernel lengths and ISIs in samples scale with the rate.
  const emg::MotorUnitPoolConfig defaults;
  expect_matches_reference(defaults, 29, sinusoid(0.4, 0.45, 1.5, 3.0, 1000.0),
                           "fs = 1 kHz");
  expect_matches_reference(defaults, 31, sinusoid(0.4, 0.45, 1.5, 1.0, 10000.0),
                           "fs = 10 kHz");
}

TEST(MotorUnitOracle, SuccessiveCallsContinueTheStream) {
  const emg::MotorUnitPoolConfig config;
  emg::MotorUnitPool pool(config, dsp::Rng(37));
  dsp::Rng oracle_rng(37);
  for (const Real level : {0.1, 0.45, 1.0}) {
    const auto drive = emg::constant_force(level, 1.0, 2500.0);
    const auto want = oracle::reference_synthesize(pool, oracle_rng, drive);
    const auto got = pool.synthesize(drive);
    expect_bitwise(want.samples(), got.samples(),
                   "call at " + std::to_string(level));
  }
}

TEST(MotorUnitOracle, FatiguedBlocks) {
  // synthesize_fatigued's block loop with the oracle in place of the pool:
  // a fresh pool per block on a fork of the caller's stream, MUAPs
  // stretched and the output scaled by the mid-block fatigue state.
  const emg::MotorUnitPoolConfig base;
  const emg::FatigueConfig fatigue{1.5, 1.2, 5.0};
  const Real block_s = 0.7;
  const auto drive = sinusoid(0.5, 0.4, 0.5, 6.0, 2500.0);

  dsp::Rng rng(41);
  const auto got = emg::synthesize_fatigued(drive, base, fatigue, rng, block_s);

  dsp::Rng oracle_rng(41);
  const auto state = emg::fatigue_trajectory(drive, fatigue);
  const std::size_t n = drive.fraction_mvc.size();
  const auto block_len = static_cast<std::size_t>(block_s * 2500.0);
  std::vector<Real> want;
  for (std::size_t start = 0; start < n; start += block_len) {
    const std::size_t len = std::min(block_len, n - start);
    const Real s = state[start + len / 2];
    emg::MotorUnitPoolConfig cfg = base;
    cfg.muap_sigma_s =
        base.muap_sigma_s * (1.0 + (fatigue.sigma_stretch - 1.0) * s);
    const auto first =
        drive.fraction_mvc.begin() + static_cast<std::ptrdiff_t>(start);
    const auto block = profile(
        std::vector<Real>(first, first + static_cast<std::ptrdiff_t>(len)),
        2500.0);
    dsp::Rng block_rng = oracle_rng.fork();
    const emg::MotorUnitPool shape(cfg, block_rng);
    const auto sig = oracle::reference_synthesize(shape, block_rng, block);
    const Real gain = 1.0 + (fatigue.amplitude_gain - 1.0) * s;
    for (const Real v : sig.samples()) want.push_back(v * gain);
  }
  expect_bitwise(want, got.samples(), "fatigued");
}

}  // namespace
