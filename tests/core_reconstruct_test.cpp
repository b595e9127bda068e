// Receiver-side machinery: rate calibration (Rice-curve measurement and
// inversion), event-rate estimation, and the three decode paths.

#include <cmath>
#include <gtest/gtest.h>

#include "core/datc_encoder.hpp"
#include "core/rate_calibration.hpp"
#include "core/reconstruct.hpp"
#include "dsp/envelope.hpp"
#include "dsp/rng.hpp"
#include "dsp/stats.hpp"
#include "emg/dataset.hpp"

namespace {

using datc::dsp::Real;
using namespace datc;

core::RateCalibrationConfig fast_cal(Real count_fs = 2000.0) {
  core::RateCalibrationConfig c;
  c.count_fs_hz = count_fs;
  c.num_samples = 100000;
  return c;
}

TEST(RateCalibration, TailIsMonotoneDecreasing) {
  const core::RateCalibration cal(fast_cal());
  const auto& rates = cal.rates();
  const auto& us = cal.u_grid();
  ASSERT_EQ(rates.size(), us.size());
  // Find the peak, then require non-increase beyond it.
  std::size_t peak = 0;
  for (std::size_t i = 1; i < rates.size(); ++i) {
    if (rates[i] > rates[peak]) peak = i;
  }
  for (std::size_t i = peak + 1; i < rates.size(); ++i) {
    EXPECT_LE(rates[i], rates[i - 1]);
  }
  EXPECT_GT(cal.max_rate_hz(), 50.0);  // sane crossing rates for the band
  EXPECT_LT(cal.max_rate_hz(), 1000.0);
}

TEST(RateCalibration, InversionRoundTrip) {
  const core::RateCalibration cal(fast_cal());
  // For u on the decreasing branch, u_for_rate(rate_for_u(u)) ~ u.
  for (const Real u : {1.5, 2.0, 2.5, 3.0, 4.0}) {
    const Real r = cal.rate_for_u(u);
    if (r <= 0.0) continue;  // beyond measurable tail
    EXPECT_NEAR(cal.u_for_rate(r), u, 0.15) << "u=" << u;
  }
}

TEST(RateCalibration, ExtremeRatesClamp) {
  const core::RateCalibration cal(fast_cal());
  EXPECT_NEAR(cal.u_for_rate(1e9), cal.u_for_rate(cal.max_rate_hz()), 1e-9);
  EXPECT_DOUBLE_EQ(cal.u_for_rate(0.0), cal.u_grid().back());
}

TEST(RateCalibration, HigherThresholdFewerCrossings) {
  const core::RateCalibration cal(fast_cal());
  EXPECT_GT(cal.rate_for_u(1.0), cal.rate_for_u(2.0));
  EXPECT_GT(cal.rate_for_u(2.0), cal.rate_for_u(3.5));
}

TEST(RateCalibration, Validation) {
  auto cfg = fast_cal();
  cfg.band_hi_hz = 2000.0;  // above Nyquist of 2500
  EXPECT_THROW(core::RateCalibration c(cfg), std::invalid_argument);
  cfg = fast_cal();
  cfg.grid_points = 2;
  EXPECT_THROW(core::RateCalibration c(cfg), std::invalid_argument);
  cfg = fast_cal();
  cfg.u_min = -1.0;
  EXPECT_THROW(core::RateCalibration c(cfg), std::invalid_argument);
}

TEST(EventRate, UniformEventsGiveFlatRate) {
  core::EventStream ev;
  for (int i = 0; i < 200; ++i) ev.add(0.05 + 0.01 * i);  // 100 Hz for 2 s
  const auto rate = core::event_rate_estimate(ev, 2.0, 0.2, 100.0);
  // Mid-record windows hold ~20 events / 0.2 s = 100 Hz.
  for (std::size_t i = 40; i < rate.size() - 40; ++i) {
    EXPECT_NEAR(rate[i], 100.0, 8.0);
  }
}

TEST(EventRate, EdgeWindowsNormalisedByOverlap) {
  core::EventStream ev;
  for (int i = 0; i < 100; ++i) ev.add(0.005 + 0.01 * i);  // 100 Hz, 1 s
  const auto rate = core::event_rate_estimate(ev, 1.0, 0.2, 100.0);
  // The very first estimate uses only half a window but must still read
  // ~100 Hz thanks to the overlap normalisation.
  EXPECT_NEAR(rate.front(), 100.0, 15.0);
  EXPECT_NEAR(rate.back(), 100.0, 15.0);
}

TEST(EventRate, WindowIsHalfOpenAtExactBoundaries) {
  // The counting window is [t - w/2, t + w/2): an event exactly on the
  // lower edge is counted, one exactly on the upper edge is not. fs = 10,
  // w = 0.2 puts the edges of the t = 0.5 window at 0.4 and 0.6 exactly.
  core::EventStream ev;
  ev.add(0.4);
  ev.add(0.6);
  const auto rate = core::event_rate_estimate(ev, 1.0, 0.2, 10.0);
  ASSERT_EQ(rate.size(), 10u);
  // t = 0.5: only the 0.4 event lies in [0.4, 0.6).
  EXPECT_DOUBLE_EQ(rate[5], 1.0 / 0.2);
  // t = 0.6: window [0.5, 0.7) picks up exactly the 0.6 event.
  EXPECT_DOUBLE_EQ(rate[6], 1.0 / 0.2);
  // t = 0.3: window [0.2, 0.4) contains neither.
  EXPECT_DOUBLE_EQ(rate[3], 0.0);
}

TEST(EventRate, RecordBoundaryEventsAndTruncatedWindows) {
  // Events exactly at t = 0 and exactly at the record end, with windows
  // truncated by both edges and normalised by the overlap.
  core::EventStream ev;
  ev.add(0.0);
  ev.add(1.0);  // exactly at duration
  const auto rate = core::event_rate_estimate(ev, 1.0, 0.2, 10.0);
  ASSERT_EQ(rate.size(), 10u);
  // t = 0: window [-0.1, 0.1) overlaps the record on [0, 0.1) only; the
  // t = 0 event is inside, so the normalised rate is 1 / 0.1.
  EXPECT_DOUBLE_EQ(rate[0], 1.0 / 0.1);
  // t = 0.9: window [0.8, 1.0) excludes the event AT the duration (the
  // upper edge is open), so the mid-record normalisation applies.
  EXPECT_DOUBLE_EQ(rate[9], 0.0);
  // t = 0.5: no events at all mid-record.
  EXPECT_DOUBLE_EQ(rate[5], 0.0);
}

TEST(EventRate, RequiresSortedEvents) {
  core::EventStream ev;
  ev.add(0.5);
  ev.add(0.1);
  EXPECT_THROW((void)core::event_rate_estimate(ev, 1.0, 0.1, 100.0),
               std::invalid_argument);
}

TEST(Reconstructors, NullCalibrationRejected) {
  core::ReconstructionConfig rc;
  EXPECT_THROW(core::AtcReconstructor r(0.3, rc, nullptr),
               std::invalid_argument);
  EXPECT_THROW(core::DatcReconstructor r(rc, nullptr),
               std::invalid_argument);
}

class ReconstructionQualityTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReconstructionQualityTest, DatcTracksEnvelope) {
  emg::RecordingSpec spec;
  spec.seed = GetParam();
  spec.gain_v = 0.4;
  spec.duration_s = 10.0;
  const auto rec = emg::make_recording(spec);

  const auto tx = core::encode_datc(rec.emg_v, core::DatcEncoderConfig{});
  core::ReconstructionConfig rc;
  auto cal = std::make_shared<core::RateCalibration>(fast_cal(2000.0));
  const core::DatcReconstructor recon(rc, cal);
  const auto est = recon.reconstruct(tx.events, rec.emg_v.duration_s());
  const auto truth = dsp::arv_envelope(rec.emg_v.view(), 2500.0, 0.25);
  const std::size_t n = std::min(est.size(), truth.size());
  const Real corr = dsp::correlation_percent(
      std::span<const Real>(truth.data(), n),
      std::span<const Real>(est.data(), n));
  EXPECT_GT(corr, 90.0) << "seed=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReconstructionQualityTest,
                         ::testing::Values(11, 22, 33, 44));

TEST(Reconstructors, DatcDecodeModesBothWork) {
  emg::RecordingSpec spec;
  spec.seed = 5;
  spec.gain_v = 0.4;
  spec.duration_s = 8.0;
  const auto rec = emg::make_recording(spec);
  const auto tx = core::encode_datc(rec.emg_v, core::DatcEncoderConfig{});
  auto cal = std::make_shared<core::RateCalibration>(fast_cal(2000.0));
  core::ReconstructionConfig rc;
  const auto truth = dsp::arv_envelope(rec.emg_v.view(), 2500.0, 0.25);
  for (const auto mode : {core::DatcDecodeMode::kRateInversion,
                          core::DatcDecodeMode::kCodeDuty}) {
    const core::DatcReconstructor recon(rc, cal, mode);
    const auto est = recon.reconstruct(tx.events, rec.emg_v.duration_s());
    const std::size_t n = std::min(est.size(), truth.size());
    const Real corr = dsp::correlation_percent(
        std::span<const Real>(truth.data(), n),
        std::span<const Real>(est.data(), n));
    EXPECT_GT(corr, 85.0) << "mode=" << static_cast<int>(mode);
  }
}

TEST(Reconstructors, SilentLeadingSegmentUsesOneSidedFloorDuty) {
  // Regression: kCodeDuty's pre-first-event hold used to be seeded from
  // the two-sided duty midpoint while the in-loop inversion uses the
  // one-sided floor interval for codes at/below min_code, biasing the
  // silent leading segment. With no events at all the whole record is
  // that segment; it must sit exactly at the one-sided floor inversion.
  auto cal_cfg = fast_cal(2000.0);
  // Clamp u_max low so the zero-rate disambiguation tail stays ABOVE the
  // floor sigma and the code-duty hold is what reaches the output.
  cal_cfg.u_max = 1.5;
  auto cal = std::make_shared<core::RateCalibration>(cal_cfg);
  core::ReconstructionConfig rc;
  rc.output_fs_hz = 100.0;
  const core::DatcReconstructor recon(rc, cal,
                                      core::DatcDecodeMode::kCodeDuty);
  const auto est = recon.reconstruct(core::EventStream{}, 1.0);
  ASSERT_EQ(est.size(), 100u);

  const Real lsb = rc.dac_vref / 16.0;
  const Real step = (rc.duty_hi - rc.duty_lo) / 15.0;
  // One-sided floor interval [0, level(min_code + 1)): representative
  // duty is half the upper edge.
  const Real one_sided_mid =
      (rc.duty_lo + step * static_cast<Real>(rc.min_code + 1)) / 2.0;
  const Real sigma_floor =
      lsb * static_cast<Real>(rc.min_code) /
      std::max(dsp::normal_q_inv(one_sided_mid / 2.0), Real{1e-6});
  const Real sigma_rate_tail = lsb * static_cast<Real>(rc.min_code) / 1.5;
  ASSERT_LT(sigma_floor, sigma_rate_tail);  // the clamp must not mask it
  const Real expected = 0.7978845608028654 * sigma_floor;
  // The constant hold picks up a few ULPs through the prefix-sum
  // smoother; the two-sided-midpoint bug shifted it by ~12 %.
  for (const Real v : est) {
    ASSERT_NEAR(v, expected, 1e-12);
  }
}

TEST(Reconstructors, AtcLinearRateIsScaledRate) {
  core::EventStream ev;
  for (int i = 0; i < 100; ++i) ev.add(0.005 + 0.01 * i);
  core::ReconstructionConfig rc;
  rc.output_fs_hz = 100.0;
  auto cal = std::make_shared<core::RateCalibration>(fast_cal(2500.0));
  const core::AtcReconstructor recon(0.3, rc, cal,
                                     core::AtcDecodeMode::kLinearRate);
  const auto est = recon.reconstruct(ev, 1.0);
  // Flat rate -> flat estimate.
  const Real mid = est[est.size() / 2];
  EXPECT_GT(mid, 0.0);
  for (std::size_t i = 30; i < est.size() - 30; ++i) {
    EXPECT_NEAR(est[i], mid, 0.2 * mid);
  }
}

TEST(Reconstructors, AtcBlindBelowThreshold) {
  // No events at all: the linear-rate estimate is identically zero, the
  // Rice-inversion estimate saturates at the calibration floor.
  core::EventStream none;
  core::ReconstructionConfig rc;
  rc.output_fs_hz = 100.0;
  auto cal = std::make_shared<core::RateCalibration>(fast_cal(2500.0));
  const core::AtcReconstructor lin(0.3, rc, cal,
                                   core::AtcDecodeMode::kLinearRate);
  const auto zero = lin.reconstruct(none, 1.0);
  for (const Real v : zero) EXPECT_DOUBLE_EQ(v, 0.0);
  const core::AtcReconstructor rice(0.3, rc, cal,
                                    core::AtcDecodeMode::kRiceInversion);
  const auto floor = rice.reconstruct(none, 1.0);
  for (const Real v : floor) {
    EXPECT_GT(v, 0.0);
    EXPECT_LT(v, 0.1);  // far below the threshold
  }
}

}  // namespace
